"""Acceptance gate and registry coverage, both driven by `lagtp.checks.CHECKS`.

Each criterion runs its member checks and is timed against its budget; every
check outside a criterion runs once on its own, so every registered check runs
exactly once.  All arithmetic in the library is exact, so there are no
numeric tolerances -- every comparison is polynomial identity or an exact
integer sign check.  Run with -s to see one line per criterion.
"""

import argparse
import inspect
import sys
import time

import pytest

from lagtp import checks, cli
from lagtp.checks import CHECKS, CRITERIA, Ctx

UNGROUPED = [fn for _, fn, number in CHECKS if number is None]


@pytest.mark.parametrize("number", sorted(CRITERIA),
                         ids=[f"criterion_{num:02d}" for num in sorted(CRITERIA)])
def test_acceptance_criterion(number):
    description, budget = CRITERIA[number]
    ctx = Ctx(seed=42)
    start = time.perf_counter()
    failed = [fn.__name__ for _, fn, num in CHECKS if num == number and not fn(ctx)]
    elapsed = time.perf_counter() - start
    status = "PASS" if not failed and elapsed <= budget else "FAIL"
    print(f"[{status}] criterion {number:2d}: {description} "
          f"({elapsed:.2f}s of {budget:.0f}s budget)")
    assert not failed, f"criterion {number} failed ({', '.join(failed)}): {description}"
    assert elapsed <= budget, (
        f"criterion {number} exceeded its {budget:.0f}s budget ({elapsed:.2f}s)")


@pytest.mark.parametrize("check", UNGROUPED, ids=[fn.__name__ for fn in UNGROUPED])
def test_check(check):
    assert check(Ctx(seed=42))


def test_registry_integrity():
    public = {fn for name, fn in vars(checks).items()
              if inspect.isfunction(fn) and fn.__module__ == checks.__name__
              and not name.startswith("_")
              and list(inspect.signature(fn).parameters) == ["ctx"]}
    registered = [fn for _, fn, _ in CHECKS]
    assert len(registered) == len(set(registered))
    assert set(registered) == public
    names = [fn.__name__ for fn in registered]
    assert len(names) == len(set(names))
    used = {number for _, _, number in CHECKS if number is not None}
    assert used == set(CRITERIA)


def test_verify_accepts_exactly_the_registry_suites():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert tuple(suite.choices) == ("all",) + tuple(dict.fromkeys(s for s, _, _ in CHECKS))


@pytest.mark.parametrize("suite", ("all",) + checks.SUITE_NAMES)
def test_run_suite_walks_the_table_in_order(monkeypatch, suite):
    calls = []

    def stub(fn):
        def check(ctx):
            calls.append((fn.__name__, ctx))
            return True
        check.__name__ = fn.__name__
        return check

    monkeypatch.setattr(checks, "CHECKS", tuple((s, stub(fn), n) for s, fn, n in CHECKS))
    ctx = Ctx(seed=7)
    results = checks.run_suite(suite, ctx)
    want = [(s, fn.__name__) for s, fn, _ in CHECKS if suite in ("all", s)]
    assert want
    assert [(s, name) for s, name, *_ in results] == want
    assert [name for name, _ in calls] == [name for _, name in want]
    assert all(got is ctx for _, got in calls)
    assert all(ok and error is None and witness is None
               for _, _, ok, _, error, witness in results)


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(KeyError, match="unknown suite 'bogus'"):
        checks.run_suite("bogus")


# The TP claim checks: each scans one block, (rows, cols, order), symbolically.
CLAIM_SCANS = {
    "univariate_hankel_tp": (5, 5, 5),
    "general_quad_tp_desk_scale": (7, 7, 7),
    "laguerre_quad_constrained_tp": (7, 7, 7),
    "variant_quad_tp_desk_scale": (7, 7, 4),
}


def test_no_claim_check_draws_samples(monkeypatch):
    callers, real = [], checks.tp_check_sampled

    def spy(m, order, **kw):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(m, order, **kw)

    monkeypatch.setattr(checks, "tp_check_sampled", spy)
    results = checks.run_suite("all", Ctx(seed=42))
    assert all(ok for _, _, ok, *_ in results)
    assert callers and set(callers) == {"tp_negative_control"}


@pytest.mark.parametrize("seed", [0, 2**32, 12345678901, 2**64])
def test_riordan_suite_passes_at_seeds_outside_1_to_2_32(seed):
    # the sampled negative controls' witnesses hold for seeds 1..2^32 - 1,
    # which these seeds map to before they draw
    results = checks.run_suite("riordan", Ctx(seed=seed))
    assert [(name, ok, error) for _, name, ok, _, error, _ in results if not ok] == []


@pytest.mark.parametrize("name", sorted(CLAIM_SCANS))
def test_claim_check_makes_one_scan_of_its_block(monkeypatch, name):
    scans, real = [], checks.tp_check_symbolic

    def spy(m, order):
        scans.append((m.rows, m.cols, order))
        return real(m, order)

    monkeypatch.setattr(checks, "tp_check_symbolic", spy)
    assert getattr(checks, name)(Ctx(seed=42))
    assert scans == [CLAIM_SCANS[name]]
