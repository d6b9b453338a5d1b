from __future__ import annotations

import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import tokenize
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
    # A private name imported from another module is a global of the importer
    # whose __module__ is that other module (every one so far is a function).
    modules = [
        importlib.import_module("ghcseries" if path.stem == "__init__" else f"ghcseries.{path.stem}")
        for path in (ROOT / "src" / "ghcseries").glob("*.py")
        if path.stem != "__main__"
    ]
    private = sum(
        1
        for module in modules
        for name, value in vars(module).items()
        if name.startswith("_")
        and not name.startswith("__")
        and str(getattr(value, "__module__", None)).startswith("ghcseries.")
        and value.__module__ != module.__name__
    )
    # A read of a private name off a sibling module is a NAME "." NAME token
    # run whose first name is a global of the reader bound to a ghcseries
    # module; each distinct (reader, sibling, name) counts once.
    reads = set()
    for module in modules:
        siblings = {
            name
            for name, value in vars(module).items()
            if inspect.ismodule(value) and value.__name__.startswith("ghcseries.")
        }
        source = io.StringIO(Path(module.__file__).read_text())
        tokens = [
            tok.string
            for tok in tokenize.generate_tokens(source.readline)
            if tok.type in (tokenize.NAME, tokenize.OP)
        ]
        reads |= {
            (module.__name__, a, c)
            for a, b, c in zip(tokens, tokens[1:], tokens[2:])
            if a in siblings and b == "." and c.startswith("_")
        }
    private += len(reads)
    assert json.loads(result.stdout) == {
        "src_lines": lines,
        "exports": len(ghcseries.__all__),
        "private_imports": private,
    }
