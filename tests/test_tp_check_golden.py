"""Byte-identity of ``lagtp tp-check`` output on wide monomial keys.

Each case generates a matrix with ``lagtp gen`` (optionally swapping two
adjacent rows, a negative control), then runs ``lagtp tp-check`` on it
through ``lagtp.cli.main``; the exit code and the SHA-256 of
``f"{exit_code}\\n{stdout}"`` must equal those recorded in
``tests/tp_check_golden.json``.  The
cases run in a fresh interpreter that first registers 200 padding names,
so every variable of every matrix sits in a field past 3200 bits and the
scans see wide keys, whatever the rest of the test session registered.

To record the digests, run this file as a script with the ``src`` tree of
the revision to record on ``PYTHONPATH``; it prints the golden JSON.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "tp_check_golden.json"
PADDING_NAMES = 200

# (gen arguments, swap rows i and i+1 first or None, tp-check arguments)
CASES = (
    ("laguerre-coeff --n 6", None, "--order 4"),
    ("laguerre-coeff --alpha -1 --n 6", None, "--order 4 --mode sampled --seed 3"),
    ("first-mv --n 4", None, "--order 3"),
    ("second-mv --n 4 --flat", None, "--order 2 --mode sampled --samples 20"),
    ("prodmat:Pcirc --n 6", None, "--order 3"),
    ("prodmat:PFlat --n 5", None, "--order 3 --mode sampled --seed 5"),
    ("prodmat:PY --n 4", None, "--order 2"),
    ("smj --m 2 --j 1 --n 5", None, "--order 3"),
    ("smj --family j2a1 --kappa 1/2 --n 4", None, "--order 4 --mode sampled"),
    ("quad-variant --n 4", None, "--order 2"),
    ("laguerre-coeff --n 5", 1, "--order 2"),
    ("prodmat:P --n 5", 2, "--order 3"),
    ("smj --m 1 --j 0 --n 5", 0, "--order 2 --mode sampled --seed 9"),
    ("quad-general --n 4", 0, "--order 2 --mode sampled --samples 10"),
)


def case_id(gen: str, swap, tp: str) -> str:
    swapped = f" | swap-rows {swap} {swap + 1}" if swap is not None else ""
    return f"gen {gen}{swapped} | tp-check {tp}"


def _run(argv: list) -> tuple:
    from lagtp import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def digests() -> dict:
    """Register the padding names, then run every case;
    {case id: {"rc": exit code, "sha256": digest}}."""
    from lagtp import Poly
    for i in range(PADDING_NAMES):
        Poly.var(f"pad{i}")
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        for gen, swap, tp in CASES:
            rc, text = _run(["gen", *gen.split()])
            assert rc == 0, gen
            obj = json.loads(text)
            if swap is not None:
                rows = obj["entries"]
                rows[swap], rows[swap + 1] = rows[swap + 1], rows[swap]
            with open(path, "w") as fh:
                json.dump(obj, fh)
            rc, text = _run(["tp-check", path, *tp.split()])
            out[case_id(gen, swap, tp)] = {
                "rc": rc, "sha256": hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()}
    return out


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_tp_check_output_matches_golden_digests():
    golden = _golden()
    assert sorted(golden) == sorted(case_id(*c) for c in CASES)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve())],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert {k: v for k, v in got.items() if v != golden[k]} == {}


def test_golden_cases_pass_and_fail_in_both_modes():
    golden = _golden()
    outcomes = {("sampled" if "--mode sampled" in tp else "symbolic",
                 golden[case_id(gen, swap, tp)]["rc"]) for gen, swap, tp in CASES}
    assert outcomes == {("symbolic", 0), ("symbolic", 1), ("sampled", 0), ("sampled", 1)}
    # every swapped-rows control fails
    assert {golden[case_id(*c)]["rc"] for c in CASES if c[1] is not None} == {1}


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1, sort_keys=True))
