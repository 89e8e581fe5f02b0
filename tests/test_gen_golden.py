"""Byte-identity of ``lagtp gen`` output.

Each invocation keyed in ``perfbench/gen_golden.json`` runs through
``lagtp.cli.main``; the SHA-256 of ``f"{exit_code}\\n{stdout}"`` must equal
the digest recorded there.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from lagtp import cli

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "gen_golden.json").read_text())["sha256"]


def test_golden_file_covers_every_invocation():
    assert len(GOLDEN) == 36


@pytest.mark.parametrize("invocation", sorted(GOLDEN))
def test_gen_output_matches_golden_digest(invocation):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(invocation.split())
    digest = hashlib.sha256(f"{rc}\n{buf.getvalue()}".encode()).hexdigest()
    assert digest == GOLDEN[invocation]
