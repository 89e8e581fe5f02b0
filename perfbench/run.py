"""lagtp benchmark: three seeded workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tp_scan --seed 1 --seconds 30 --trace 0

Each pass of a workload runs in a fresh process (``worker.py``), so the cold
costs of a one-shot ``lagtp`` call count.  With ``--trace 0`` passes repeat
until ``--seconds`` is used up (at least three) and the end-to-end metrics
are medians over the passes; with ``--trace 1`` one untraced and one traced
pass give the per-layer metrics, the share table and the tracing overhead.
End-to-end times are scaled to a reference machine speed by the speed probe
in ``worker.py``; the times as measured are in the ``meta`` line.
The metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is the JSON result; the exit code is 0 when every answer was
right, 1 when any was wrong and 2 when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_PROBE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_PASSES = 3
MAX_PASSES = 12
DEADLINE_S = 175.0  # every pass ends by then, so a run exits within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result (not a wrong answer)."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("LAGTP_LIMIT", None)  # the workloads stay inside the default oracle caps
    return env


def run_pass(args, deadline: float, traced: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--plant-wrong", str(args.plant_wrong)]
    if args.jobs is not None:
        cmd += ["--jobs", str(args.jobs)]
    if traced:
        cmd += ["--traced",
                "--spans", str(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.tsv.gz")]
    timeout = max(1.0, deadline - time.perf_counter())
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned)], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass of {args.workload} ran past {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown'
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile90(values: list) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def measure_untraced(args, start: float) -> tuple:
    passes = []
    while True:
        passes.append(run_pass(args, start + DEADLINE_S))
        elapsed = time.perf_counter() - start
        per_pass = elapsed / len(passes)
        if len(passes) >= MAX_PASSES:
            break
        if len(passes) >= MIN_PASSES and elapsed + per_pass > args.seconds:
            break
    times = [t for p in passes for t in p["job_times"]]
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "job_p50_s": statistics.median(times),
        "job_p90_s": percentile90(times),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, passes, len(times)


def share_table(traced: dict) -> str:
    """Each layer's self and inclusive time in the timed jobs as a share of the
    traced pass's wall on the tracer's virtual clock (which leaves out the
    tracer's own bookkeeping), and its self time during set-up as a share of
    that pass's set-up time.  All in measured seconds of the traced pass."""
    wall, setup = traced["traced_wall_virtual_s"], traced["raw_setup_s"]
    lines = [f"share table: jobs against the traced pass's virtual wall {wall:.4f} s, "
             f"set-up against its set-up time {setup:.4f} s",
             f"  {'layer':10s} {'self_s':>9s} {'self%':>7s} {'incl_s':>9s} {'incl%':>7s}"
             f" {'setup_self_s':>13s} {'setup%':>7s}"]
    attributed = 0.0
    for layer, s in traced["shares"].items():
        attributed += s["self_s"]
        lines.append(f"  {layer:10s} {s['self_s']:9.4f} {100 * s['self_s'] / wall:6.1f}% "
                     f"{s['incl_s']:9.4f} {100 * s['incl_s'] / wall:6.1f}% "
                     f"{s['setup_self_s']:13.4f} {100 * s['setup_self_s'] / setup:6.1f}%")
    rest = wall - attributed
    lines.append(f"  {'(other)':10s} {rest:9.4f} {100 * rest / wall:6.1f}%   benchmark code, "
                 "unwrapped accessors, minus tracing residue")
    lines.append("  top functions outside polyring by inclusive time in the jobs:")
    for name, secs in traced["top_functions"]:
        lines.append(f"    {name:45s} {secs:9.4f} {100 * secs / wall:6.1f}%")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lagtp benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=None, help="run only the first N jobs of each pass")
    ap.add_argument("--plant-wrong", type=int, default=0,
                    help="self-test: give the first K jobs a wrong expected answer")
    args = ap.parse_args(argv)
    start = time.perf_counter()
    try:
        return bench(args, start)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2


def bench(args, start: float) -> int:
    if not (ROOT / "src" / "lagtp" / "__init__.py").is_file():
        raise BenchError(f"no lagtp sources under {ROOT / 'src'}")
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        untraced = run_pass(args, start + DEADLINE_S)
        traced = run_pass(args, start + DEADLINE_S, traced=True)
        passes = [untraced, traced]
        values = dict(traced["layer_metrics"])
        values["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
        job_count = untraced["attempted"]
    else:
        values, passes, job_count = measure_untraced(args, start)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics declared but not measured: {missing}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "commit": git_commit(), "passes": len(passes),
        "jobs_per_pass": passes[0]["attempted"], "percentile_job_count": job_count,
        "failed_frac": failed / attempted,
        "trace.overhead_frac": values.get("trace.overhead_frac"),
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "raw_setup_s": statistics.median(p["raw_setup_s"] for p in passes),
        "slowdown": statistics.median(statistics.median(p["probes"]) for p in passes)
        / REF_PROBE_S,
    }
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for m in declared:
        print(f"  {m['name']:32s} {values[m['name']]:>14.6g} {m['unit']}")
    if args.trace:
        print(share_table(traced))
    for p in passes:
        for f in p["failures"]:
            print("FAILED " + json.dumps(f, sort_keys=True))
    record = {"meta": meta, "result": result, "pass_walls": [p["wall_s"] for p in passes],
              "pass_setups": [p["setup_s"] for p in passes],
              "pass_job_times": [p["job_times"] for p in passes],
              "pass_raw_job_times": [p["raw_job_times"] for p in passes],
              "pass_probes": [p["probes"] for p in passes]}
    if args.trace:
        record.update(shares=traced["shares"], top_functions=traced["top_functions"],
                      spans=traced["spans"])
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
