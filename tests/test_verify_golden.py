"""Byte-identity of ``lagtp verify all`` output at the default seed.

The invocation keyed in ``tests/verify_golden.json`` runs through
``lagtp.cli.main``; the SHA-256 of ``f"{exit_code}\\n{stdout}"`` must equal
the digest recorded there.  A change that alters any check's report, or
which checks run, changes the digest.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from lagtp import cli

GOLDEN = json.loads(Path(__file__).with_name("verify_golden.json").read_text())["sha256"]


@pytest.mark.parametrize("invocation", sorted(GOLDEN))
def test_verify_output_matches_golden_digest(invocation):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(invocation.split())
    digest = hashlib.sha256(f"{rc}\n{buf.getvalue()}".encode()).hexdigest()
    assert digest == GOLDEN[invocation]
