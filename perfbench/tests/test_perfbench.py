"""Tests of the benchmark itself: seeded inputs, answer checking, self-time
arithmetic and the metric declarations.

Run from the repository root with ``python -m pytest perfbench/tests``.
The tracer is only ever installed in child processes, never in the test
process, so the library stays unwrapped for every other test.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _signature(jobs):
    return [(j.kind, j.desc, repr(j.expected)) for j in jobs]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_jobs_and_answers(workload):
    assert _signature(workloads.build(workload, 7)) == _signature(workloads.build(workload, 7))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seeds_give_different_inputs(workload):
    a = [desc for _, desc, _ in _signature(workloads.build(workload, 1))]
    b = [desc for _, desc, _ in _signature(workloads.build(workload, 2))]
    assert len(a) >= 100 and len(b) >= 100
    assert a != b


def test_workload_names_match_declaration():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_closed_forms():
    assert [workloads.stirling2(5, k) for k in range(6)] == [0, 1, 15, 25, 10, 1]
    assert [workloads.eulerian(4, j) for j in range(4)] == [1, 11, 11, 1]
    assert workloads.det_fraction([[1, 2], [3, 1]]) == -5
    assert workloads.minor_count(3, 3, 2) == 9 + 9
    # Dyck paths of length 6 (m = 1) ending at 0: the Catalan number 5
    assert workloads.path_count(1, 0, 3, 0, lambda h: 1) == 5


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] has children A [1, 3], B [2, 4] (overlapping A) and C [5, 6];
    # A has child D [1.5, 2]
    starts = [0.0, 1.0, 2.0, 5.0, 1.5]
    ends = [10.0, 3.0, 4.0, 6.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    selfs = tracing.self_times(starts, ends, parents)
    assert selfs == pytest.approx([10 - 3 - 1, 2 - 0.5, 2, 1, 0.5])


def test_top_level_mask():
    # 0 matrices > 1 polyring > 3 polyring > 4 series, and 0 > 2 matrices
    layers = ["matrices", "polyring", "matrices", "polyring", "series"]
    parents = [-1, 0, 0, 1, 3]
    assert tracing.top_level_mask(layers, parents) == [True, True, False, False, True]


def test_scaling_to_reference_speed():
    ref = worker.REF_PROBE_S
    probes = [ref, ref, 2 * ref, 2 * ref]
    # a job between two reference-speed probes keeps its time; one measured
    # while the probe ran twice as slow is halved; one across the switch is
    # scaled by the mean of its two probes
    assert worker.scale_to_reference([1.0, 3.0, 1.0, 1.5], [0, 1, 2, 1], probes) == \
        pytest.approx([1.0, 3.0 / 1.5, 0.5, 1.0])
    assert worker.speed_probe() > 0


def test_planted_wrong_answer_is_counted_and_fails_the_run():
    proc = _run("--workload", "oracle_xval", "--seed", "3", "--seconds", "1",
                "--trace", "0", "--jobs", "4", "--plant-wrong", "1")
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] < result["attempted"]
    assert "FAILED" in proc.stdout


def _metric_names(stdout):
    """Names in the result line plus those on the printed metric lines."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {line.split()[0] for line in lines
               if line.startswith("  ") and not line.startswith("   ") and len(line.split()) == 3}
    return result, set(result["metrics"]), printed


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_are_the_declared_ones(trace):
    proc = _run("--workload", "family_build", "--seed", "5", "--seconds", "1",
                "--trace", trace, "--jobs", "6")
    assert proc.returncode == 0, proc.stderr
    result, names, printed = _metric_names(proc.stdout)
    declared = {m["name"] for m in SPEC["per_layer" if trace == "1" else "end_to_end"]}
    assert result["correct"] is True and result["failed"] == 0
    assert names == declared
    assert printed == declared
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "tp_scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
