"""One benchmark pass in a fresh process.

Started by ``run.py`` once per pass, so every pass pays the cold costs of a
one-shot ``lagtp`` call: interpreter start, ``import lagtp`` and building the
seeded job list.  It runs the jobs back to back (a closed loop with one
client), checks every answer, and prints one JSON line with its timings.
With ``--traced`` it first wraps the library's layers and also reports the
per-layer metrics, and writes the recorded spans to ``--spans``.

Times are reported twice: as measured (``raw_*``) and scaled to a reference
machine speed.  The 2-vCPU VM this benchmark was built on switches between a
fast and a slow speed, about 1.7x apart, for seconds to minutes at a time,
and a pure-Python loop slows down exactly as ``lagtp`` does.  So the pass
times a fixed pure-Python probe, independent of ``lagtp``, before the first
job and then every ``PROBE_EVERY_S`` seconds of job time, and scales each
job's time by ``REF_PROBE_S`` over the mean of the two probes around it.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

REF_PROBE_S = 1.05e-3  # the probe's time at the VM's fast speed
PROBE_EVERY_S = 0.25
_PROBE_TERMS = {(i, j, (i * j) % 5): i + j + 1 for i in range(8) for j in range(8)}


def _probe_kernel() -> dict:
    """A sparse product of two 64-term maps keyed by exponent tuples: the same
    kind of dict, tuple and integer work that dominates ``lagtp``."""
    out: dict = {}
    get = out.get
    for ea, ca in _PROBE_TERMS.items():
        for eb, cb in _PROBE_TERMS.items():
            key = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[key] = get(key, 0) + ca * cb
    return out


def speed_probe() -> float:
    """Fastest of five timings of the probe kernel, with the collector off so
    the library's heap does not leak into it."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            _probe_kernel()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def scale_to_reference(times: list, marks: list, probes: list) -> list:
    """Job times at the reference speed: job i ran between probes[marks[i]]
    and probes[marks[i] + 1]."""
    return [t * 2 * REF_PROBE_S / (probes[m] + probes[m + 1]) for t, m in zip(times, marks)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.perf_counter() of the parent just before it started this process")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--jobs", type=int, default=None, help="run only the first N jobs")
    ap.add_argument("--plant-wrong", type=int, default=0,
                    help="give the first K jobs a wrong expected answer (self-test)")
    ap.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import lagtp  # noqa: F401  (the import is part of the measured set-up)
    tracer = None
    if args.traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads

    jobs = workloads.build(args.workload, args.seed)
    if args.jobs is not None:
        jobs = jobs[:args.jobs]
    workloads.plant_wrong(jobs, args.plant_wrong)
    raw_setup = time.perf_counter() - args.spawned_at
    probes = [speed_probe()]
    setup_overhead = tracer.overhead if tracer is not None else 0.0

    times, marks, failures = [], [], []
    since_probe = 0.0
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        marks.append(len(probes) - 1)
        t0 = time.perf_counter()
        try:
            observed = job.run()
        except Exception as exc:  # a crash is a wrong answer, not a benchmark error
            observed = ("exception", type(exc).__name__, str(exc)[:200])
        dt = time.perf_counter() - t0
        times.append(dt)
        if observed != job.expected:
            failures.append({"index": index, "kind": job.kind, "desc": job.desc[:300],
                             "observed": repr(observed)[:300],
                             "expected": repr(job.expected)[:300]})
        since_probe += dt
        if since_probe >= PROBE_EVERY_S:
            probes.append(speed_probe())
            since_probe = 0.0
    probes.append(speed_probe())
    scaled = scale_to_reference(times, marks, probes)

    out = {
        "setup_s": raw_setup * REF_PROBE_S / probes[0],
        "wall_s": sum(scaled),
        "job_times": scaled,
        "raw_setup_s": raw_setup,
        "raw_wall_s": sum(times),
        "raw_job_times": times,
        "probes": probes,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracing import layer_metrics
        tracer.job = -1
        metrics, shares, top = layer_metrics(tracer)
        out.update(layer_metrics=metrics, shares=shares, top_functions=top,
                   spans=len(tracer.span_start),
                   traced_wall_virtual_s=sum(times) - (tracer.overhead - setup_overhead))
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
