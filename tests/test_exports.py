from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghcseries
from ghcseries import cli, report


def test_every_exported_name_resolves_once():
    names = ghcseries.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(ghcseries, name), name


# perfbench/tracer.py wraps every public function of a layer module, so a new
# public helper would move the per-layer call counts with no change in work.
@pytest.mark.parametrize(
    "module, names",
    [
        (report, ["character_pairs", "rational", "render_json", "render_table", "weight_coords"]),
        (cli, ["build_parser", "cmd_analyze", "cmd_block", "cmd_character",
               "cmd_iwasawa", "cmd_socle", "main"]),
    ],
    ids=["report", "cli"],
)
def test_public_functions_of_the_presentation_layers(module, names):
    public = sorted(
        name
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    )
    assert public == names


def _modules_where(predicate, src=Path(ghcseries.__file__).parent):
    """Stems of the library modules with an ast node that satisfies predicate."""
    return {
        path.stem
        for path in src.glob("*.py")
        if any(predicate(node) for node in ast.walk(ast.parse(path.read_text())))
    }


def _names_trace_zero_families(node) -> bool:
    name = "TRACE_ZERO_FAMILIES"
    return (
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
    )


def _imports_linalg(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""] + [a.name for a in node.names if not node.module]
    elif isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    else:
        return False
    return any(name.split(".")[-1] == "linalg" for name in names)


def _names_lcm(node) -> bool:
    return (isinstance(node, ast.alias) and node.name == "lcm") or (
        isinstance(node, ast.Attribute) and node.attr == "lcm"
    )


def test_only_rootsys_knows_the_trace_zero_realization_and_no_module_solves_systems():
    """Only rootsys reads the trace-zero families or takes common denominators
    (math.lcm: the integer layer); no module imports a linear solver."""
    assert _modules_where(_names_trace_zero_families) == {"rootsys"}
    assert _modules_where(_imports_linalg) == set()
    assert not (Path(ghcseries.__file__).parent / "linalg.py").exists()
    assert _modules_where(_names_lcm) == {"rootsys"}


def _absolute_imports(node) -> set[str]:
    """The top-level packages an import node takes from outside the library."""
    if isinstance(node, ast.ImportFrom):
        names = [] if node.level else [node.module]
    elif isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    else:
        return set()
    return {name.split(".")[0] for name in names}


def test_the_library_imports_only_itself_and_the_standard_library():
    assert _modules_where(lambda node: _absolute_imports(node) - sys.stdlib_module_names) == set()


def test_no_module_imports_dataclasses_or_typing():
    assert _modules_where(lambda node: _absolute_imports(node) & {"dataclasses", "typing"}) == set()


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect_nor_typing():
    """Checked under python -S, since site may load typing itself."""
    src = Path(ghcseries.__file__).parent.parent
    loaded = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, ghcseries.cli; print(*sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "ghcseries.cli" in loaded
    assert {"dataclasses", "inspect", "typing"}.isdisjoint(loaded)


def test_cli_makes_one_private_call_into_blocks_and_charseries():
    """cli parses, calls and renders: it takes at most one private name each
    from blocks and charseries, none from the other layers, and reads no
    private attribute off a module."""
    tree = ast.parse(Path(cli.__file__).read_text())
    private: dict[str, list[str]] = {}
    siblings = set()  # names bound by from . import MODULE
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            private.setdefault(node.module, []).extend(
                a.name for a in node.names if a.name.startswith("_")
            )
            if node.module is None:
                siblings.update(a.asname or a.name for a in node.names)
    for layer in ("rootsys", "sl2embed", "parabolic", "cohomology", "report", None):
        assert private.get(layer, []) == [], layer
    assert len(private.get("blocks", [])) <= 1
    assert len(private.get("charseries", [])) <= 1
    assert not [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in siblings
        and node.attr.startswith("_")
    ]
    # perfbench builds its pairs through these two.
    assert cli.parse_algebra and cli.parse_embedding
