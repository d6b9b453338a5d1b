from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghcseries import cli
from ghcseries.report import render_json

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _load_bench_common():
    spec = importlib.util.spec_from_file_location(
        "bench_common", ROOT / "perfbench" / "common.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _load_bench_common()


def oracle(doc) -> str:
    """The stdlib encoder's text, which render_json must reproduce byte for byte."""
    return json.dumps(doc, indent=2) + "\n"


# Text over every code point but surrogates: non-ASCII, quotes, backslashes
# and control characters all need escaping.
TEXT = st.text(st.characters(), max_size=8) | st.sampled_from(
    ['"', "\\", "\n\t\x00\x1f\x7f", "é中\U0001f600", ""]
)
LEAVES = (
    TEXT
    | st.integers()
    | st.integers(min_value=-(10**300), max_value=10**300)
    | st.booleans()
    | st.none()
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
)
# json turns int, float, bool and None keys into strings.
KEYS = TEXT | st.integers() | st.floats() | st.booleans() | st.none()
DOCS = st.recursive(
    LEAVES,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(st.integers(), max_size=5)
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(KEYS, inner, max_size=5)
    ),
    max_leaves=40,
)


@given(DOCS)
def test_writer_matches_the_stdlib_encoder(doc):
    assert render_json(doc) == oracle(doc)


@pytest.mark.parametrize("doc", [[], {}, (), [[]], {"a": {}}, [[], {}, ()], [True, 1, False, 0]])
def test_empty_containers_and_bools_among_ints(doc):
    assert render_json(doc) == oracle(doc)


@pytest.mark.parametrize("doc", [{"x": Fraction(1, 2)}, [1, {2}], {(1, 2): 0}])
def test_unencodable_values_raise_the_stdlib_type_error(doc):
    with pytest.raises(TypeError) as expected:
        oracle(doc)
    with pytest.raises(TypeError) as raised:
        render_json(doc)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.name)
def test_writer_reproduces_every_golden_document(path):
    text = path.read_text()
    doc = json.loads(text)
    assert render_json(doc) == oracle(doc) == text


@pytest.mark.parametrize("alg, emb", BENCH.DEEP_PAIRS)
def test_writer_matches_the_stdlib_encoder_on_a_deep_ladder(alg, emb):
    parser = cli.build_parser()
    for cutoff in BENCH.DEEP_LADDER:
        argv = BENCH.deep_character_argv(alg, emb, BENCH.DEEP_MUS[-1], cutoff)
        doc = cli.cmd_character(parser.parse_args(argv))
        assert render_json(doc) == oracle(doc)
