"""Span tracing for the traced benchmark run.

The tracer wraps the public functions and methods of every ``lagtp`` layer
from outside the package: it replaces module attributes and class
attributes with wrappers, so nothing inside ``lagtp`` changes.  Each wrapped
call records one span (name, start, end, parent span, job id) in flat
arrays kept in memory.  Self time is computed afterwards from those spans:
a span's duration minus the time its child spans cover.

Timestamps use a virtual clock that excludes the tracer's own bookkeeping
(the time spent inside wrappers before and after the wrapped call), so self
times stay close to what the untraced run spends.  Very cheap, very hot
accessors (``Poly.is_zero``, ``Poly.const``, ``HessMatrix.__call__``, ...)
are deliberately not wrapped; their cost stays in the caller's self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("polyring", "series", "matrices", "digraphs", "srpaths",
          "laguerre", "quadtp", "banded", "cli")

# Hot one-line accessors and constructors: wrapping them would multiply the
# tracing overhead without telling anything about where work goes.
SKIP = frozenset({
    "is_zero", "is_constant", "constant_term", "as_constant", "coefficients",
    "is_integral", "const", "var", "zero", "one", "t", "alpha",
    "next_u64", "next_small", "__getitem__", "__call__",
})

# Dunder methods that are real operations and therefore get spans.
DUNDER_OPS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__pow__", "__str__",
})

POLY_MUL = ("polyring.Poly.__mul__", "polyring.Poly.__rmul__")
POLY_ADD = ("polyring.Poly.__add__", "polyring.Poly.__radd__",
            "polyring.Poly.__sub__", "polyring.Poly.__rsub__")
POLY_DIV = ("polyring.Poly.exact_div",)
ORACLE_FNS = ("srpaths.sr_path_oracle", "srpaths.sr_path_oracle_row")
TRIANGLE_PREFIXES = ("srpaths.SRTriangles.", "srpaths.sr_poly")


def _nterms(p) -> int:
    coefs = p.coefficients()
    try:
        return len(coefs)
    except TypeError:
        return sum(1 for _ in coefs)


class Tracer:
    """In-memory span recorder plus the counters measured at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.cur = -1
        self.job = -1
        self.overhead = 0.0
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self.peak_terms = 0
        self._enum_seen: set = set()
        self._poly_cls = None
        self._add_ids: frozenset = frozenset()

    # -- installation -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self, package: str = "lagtp") -> None:
        """Wrap every public function and method of each layer module."""
        mods = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        self._poly_cls = mods["polyring"].Poly
        replaced: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and attr not in SKIP:
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        # rebind the wrapped functions wherever a package module imported them
        # (checks included, so the suites behind `lagtp verify` are attributed)
        for name, mod in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
        self._add_ids = frozenset(self.name_id(n) for n in POLY_ADD)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr in SKIP or (attr.startswith("_") and attr not in DUNDER_OPS):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, member.__func__)))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(name, member))

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        sid = self.name_id(name)
        layer = name.split(".", 1)[0]
        hook = self._hook_for(name)
        pc = time.perf_counter
        name_ids, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends = self.span_start, self.span_end
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = pc()
            parent = tr.cur
            idx = len(starts)
            name_ids.append(sid)
            parents.append(parent)
            jobs.append(tr.job)
            ends.append(0.0)
            tr.cur = idx
            t_b = pc()
            tr.overhead += t_b - t_in
            starts.append(t_b - tr.overhead)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t_e = pc()
                ends[idx] = t_e - tr.overhead
                tr.cur = parent
                if parent < 0 or tr.names[name_ids[parent]].split(".", 1)[0] != layer:
                    tr.errors[layer] += 1
                tr.overhead += pc() - t_e
                raise
            t_e = pc()
            ends[idx] = t_e - tr.overhead
            tr.cur = parent
            if hook is not None:
                hook(parent, args, kwargs, result)
            tr.overhead += pc() - t_e
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Generators get no span (their time interleaves with the consumer);
        each yielded item is counted as one enumerated object instead."""
        layer = name.split(".", 1)[0]
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                tr.counts[f"{layer}.enumerated"] += 1
                yield item

        return wrapper

    # -- counters measured at the boundary -----------------------------------

    def _hook_for(self, name: str):
        if name in POLY_MUL:
            return self._mul_hook
        if name in POLY_ADD:
            return self._add_hook
        if name in POLY_DIV:
            return self._div_hook
        if name == "matrices.det_exact":
            return self._det_hook
        if name in ("matrices.tp_check_symbolic", "matrices.tp_check_sampled"):
            return self._tp_hook
        if name == "matrices.Truncation.__mul__":
            return lambda parent, args, kwargs, result: self._count("matrices.truncation_mul_calls")
        if name == "digraphs.oracle_entry":
            return self._oracle_entry_hook
        if name == "digraphs.permutation_oracles":
            return self._perm_oracle_hook
        if name in ORACLE_FNS:
            return lambda parent, args, kwargs, result: self._count("srpaths.oracle_calls")
        if name.startswith("series."):
            return lambda parent, args, kwargs, result: self._count("series.calls")
        return None

    def _count(self, key: str, by: int = 1) -> None:
        self.counts[key] += by

    def _result_terms(self, result) -> None:
        if isinstance(result, self._poly_cls):
            n = _nterms(result)
            if n > self.peak_terms:
                self.peak_terms = n

    def _operands(self, args):
        """(term count of a, term count of b, both nonconstant with different vars)."""
        a, b = args[0], args[1]
        poly = self._poly_cls
        na = _nterms(a)
        if isinstance(b, poly):
            nb = _nterms(b)
            mixed = bool(a.vars) and bool(b.vars) and a.vars != b.vars
        else:
            nb = 1 if b else 0
            mixed = False
        return na, nb, mixed

    def _mul_hook(self, parent, args, kwargs, result) -> None:
        if not isinstance(result, self._poly_cls):
            return
        na, nb, mixed = self._operands(args)
        c = self.counts
        c["polyring.mul_calls"] += 1
        c["polyring.mul_term_pairs"] += na * nb
        c["polyring.mul_out_terms"] += _nterms(result)
        c["polyring.binop_calls"] += 1
        c["polyring.mixed_vars_calls"] += mixed
        self._result_terms(result)

    def _add_hook(self, parent, args, kwargs, result) -> None:
        if not isinstance(result, self._poly_cls):
            return
        if parent >= 0 and self.span_name[parent] in self._add_ids:
            return  # a - b runs as a + (-b): count the subtraction once
        _, _, mixed = self._operands(args)
        c = self.counts
        c["polyring.add_calls"] += 1
        c["polyring.binop_calls"] += 1
        c["polyring.mixed_vars_calls"] += mixed
        self._result_terms(result)

    def _div_hook(self, parent, args, kwargs, result) -> None:
        self.counts["polyring.exact_div_calls"] += 1
        self._result_terms(result)

    def _det_hook(self, parent, args, kwargs, result) -> None:
        self.counts["matrices.det_calls"] += 1
        self.counts["matrices.zero_minors"] += result.is_zero()

    def _tp_hook(self, parent, args, kwargs, result) -> None:
        self.counts["matrices.minors_checked"] += result.checked

    def _oracle_entry_hook(self, parent, args, kwargs, result) -> None:
        n, k = args[0], args[1]
        mode = args[3] if len(args) > 3 else kwargs.get("mode")
        self._enumeration(("entry", n, k, mode))

    def _perm_oracle_hook(self, parent, args, kwargs, result) -> None:
        n, kind = args[0], args[1]
        self._enumeration(("perm", n, kind))
        # permutation_oracles walks all of S_n internally
        factorial = 1
        for i in range(2, n + 1):
            factorial *= i
        self.counts["digraphs.enumerated"] += factorial

    def _enumeration(self, key) -> None:
        self.counts["digraphs.oracle_calls"] += 1
        if key in self._enum_seen:
            self.counts["digraphs.repeat_enums"] += 1
        self._enum_seen.add(key)

    # -- output ----------------------------------------------------------------

    def spans(self) -> list:
        """Spans as (name, start, end, parent, job) tuples, in start order."""
        return [(self.names[n], s, e, p, j) for n, s, e, p, j in zip(
            self.span_name, self.span_start, self.span_end, self.span_parent, self.span_job)]

    def write_spans(self, path) -> None:
        """Write the spans as gzipped tab-separated text, one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\tjob\n")
            for i, (name, s, e, p, j) in enumerate(self.spans()):
                fh.write(f"{i}\t{name}\t{s:.9f}\t{e:.9f}\t{p}\t{j}\n")


def self_times(starts, ends, parents) -> list:
    """Self time of every span: its duration minus the part of its interval
    covered by its child spans (overlapping children are counted once)."""
    n = len(starts)
    covered = [0.0] * n
    reach = [float("-inf")] * n
    for i in sorted(range(n), key=starts.__getitem__):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def top_level_mask(span_layers, parents) -> list:
    """For each span, True when no ancestor belongs to the same layer.

    Spans are in start order, so a parent always precedes its children.
    """
    bits = {layer: 1 << i for i, layer in enumerate(sorted(set(span_layers)))}
    anc = [0] * len(parents)
    top = [False] * len(parents)
    for i, p in enumerate(parents):
        a = 0 if p < 0 else anc[p] | bits[span_layers[p]]
        anc[i] = a
        top[i] = not a & bits[span_layers[i]]
    return top


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> tuple:
    """Per-layer metrics, share table and top functions from one traced pass.

    The metrics cover the whole traced process, set-up included (inputs such
    as production matrices are built there).  The shares split each layer's
    self and inclusive seconds into the timed jobs and the set-up phase.
    """
    names = tracer.names
    span_names = [names[i] for i in tracer.span_name]
    span_layers = [s.split(".", 1)[0] for s in span_names]
    selfs = self_times(tracer.span_start, tracer.span_end, tracer.span_parent)
    top = top_level_mask(span_layers, tracer.span_parent)
    by_name: Counter = Counter()
    by_layer: Counter = Counter()
    incl: Counter = Counter()
    shares = {layer: {"self_s": 0.0, "incl_s": 0.0, "setup_self_s": 0.0, "setup_incl_s": 0.0}
              for layer in LAYERS}
    for i, name in enumerate(span_names):
        layer = span_layers[i]
        by_name[name] += selfs[i]
        by_layer[layer] += selfs[i]
        prefix = "" if tracer.span_job[i] >= 0 else "setup_"
        shares[layer][prefix + "self_s"] += selfs[i]
        if top[i]:
            dur = tracer.span_end[i] - tracer.span_start[i]
            incl[layer] += dur
            shares[layer][prefix + "incl_s"] += dur

    def group(names_in) -> float:
        return sum(by_name[n] for n in names_in)

    c = tracer.counts
    m = {
        "polyring.mul_calls": c["polyring.mul_calls"],
        "polyring.add_calls": c["polyring.add_calls"],
        "polyring.exact_div_calls": c["polyring.exact_div_calls"],
        "polyring.mul_term_pairs": c["polyring.mul_term_pairs"],
        "polyring.mul_out_per_pair": _ratio(c["polyring.mul_out_terms"], c["polyring.mul_term_pairs"]),
        "polyring.mixed_vars_frac": _ratio(c["polyring.mixed_vars_calls"], c["polyring.binop_calls"]),
        "polyring.peak_terms": tracer.peak_terms,
        "polyring.mul_self_s": group(POLY_MUL + ("polyring.Poly.__pow__",)),
        "polyring.add_self_s": group(POLY_ADD + ("polyring.Poly.__neg__",)),
        "polyring.exact_div_self_s": group(POLY_DIV + ("polyring.Poly.divides",)),
        "matrices.det_calls": c["matrices.det_calls"],
        "matrices.minors_checked": c["matrices.minors_checked"],
        "matrices.zero_minor_frac": _ratio(c["matrices.zero_minors"], c["matrices.det_calls"]),
        "matrices.det_self_s": by_name["matrices.det_exact"],
        "matrices.tp_symbolic_self_s": by_name["matrices.tp_check_symbolic"],
        "matrices.tp_sampled_self_s": by_name["matrices.tp_check_sampled"],
        "matrices.output_matrix_self_s": by_name["matrices.output_matrix"],
        "matrices.truncation_mul_calls": c["matrices.truncation_mul_calls"],
        "digraphs.oracle_calls": c["digraphs.oracle_calls"],
        "digraphs.enumerated": c["digraphs.enumerated"],
        "digraphs.repeat_enum_frac": _ratio(c["digraphs.repeat_enums"], c["digraphs.oracle_calls"]),
        "srpaths.oracle_calls": c["srpaths.oracle_calls"],
        "srpaths.oracle_self_s": group(ORACLE_FNS),
        "srpaths.triangle_self_s": sum(v for k, v in by_name.items()
                                       if k.startswith(TRIANGLE_PREFIXES)),
        "srpaths.prodmat_self_s": by_name["srpaths.prodmat_smj"],
        "series.calls": c["series.calls"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer[layer]
        m[f"{layer}.incl_s"] = incl[layer]
        m[f"{layer}.errors"] = tracer.errors[layer]
    return m, shares, top_functions(span_names, span_layers, tracer)


def top_functions(span_names, span_layers, tracer, limit: int = 12) -> list:
    """Inclusive seconds per function outside polyring within the timed jobs,
    counting only calls with no ancestor of the same name; the largest
    ``limit`` entries."""
    parents = tracer.span_parent
    starts, ends = tracer.span_start, tracer.span_end
    incl: Counter = Counter()
    for i, name in enumerate(span_names):
        if span_layers[i] == "polyring" or tracer.span_job[i] < 0:
            continue
        p = parents[i]
        while p >= 0 and span_names[p] != name:
            p = parents[p]
        if p < 0:
            incl[name] += ends[i] - starts[i]
    return incl.most_common(limit)
