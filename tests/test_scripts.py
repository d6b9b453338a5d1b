from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghcseries
from ghcseries import FIXTURES

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("convention", ["n", "perp"])
def test_invariant_table_prints_one_row_per_fixture(convention):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "invariant_table.py"),
         "--convention", convention],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split()[:2] == ["pair", "algebra"]
    assert sorted(row.split()[0] for row in rows) == sorted(FIXTURES)


def test_src_size_matches_a_direct_count():
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "src_size.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    lines = sum(
        1
        for path in (ROOT / "src" / "ghcseries").glob("*.py")
        for line in path.read_text().splitlines()
        if line.strip()
    )
    assert json.loads(result.stdout) == {
        "src_lines": lines,
        "exports": len(ghcseries.__all__),
    }
