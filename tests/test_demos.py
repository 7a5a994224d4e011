"""Each demo runs to completion in a fresh interpreter and prints its tour,
byte for byte the standard output that ``configs/HASHES.txt`` pins."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import listing_diff, pinned_hashes, sha256

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                         capture_output=True, timeout=600,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.returncode == 0, out.stderr.decode(errors="replace")
    assert out.stdout.strip()
    pinned, note = pinned_hashes()
    name = f"demos/{demo.stem}/stdout"
    pin = {k: v for k, v in pinned.items() if k == name}
    got = {name: sha256(out.stdout)}
    assert got == pin, note + listing_diff(pin, got)
