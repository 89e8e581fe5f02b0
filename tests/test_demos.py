"""Byte-identity of the demos.

Each ``demos/*.py`` runs in a fresh interpreter with ``src`` on the path; the
SHA-256 of ``f"{exit_code}\\n{stdout}"`` must equal the digest recorded in
``tests/demo_golden.json``.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((Path(__file__).with_name("demo_golden.json")).read_text())["sha256"]


def demo_digest(path: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    return hashlib.sha256(f"{proc.returncode}\n{proc.stdout}".encode()).hexdigest()


def test_golden_file_covers_every_demo():
    assert sorted(GOLDEN) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_demo_output_matches_golden_digest(name):
    assert demo_digest(ROOT / "demos" / name) == GOLDEN[name]
