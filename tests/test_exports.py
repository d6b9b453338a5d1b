from __future__ import annotations

import inspect

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
