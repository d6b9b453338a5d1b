from __future__ import annotations

import enum
import importlib.util
import json
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghcseries import cli, report
from ghcseries.report import IntRows, render_json
from test_cli import GOLDEN_COMMANDS

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
INTS = st.integers() | st.integers(min_value=-(10**300), max_value=10**300)
LEAVES = (
    TEXT
    | INTS
    | st.booleans()
    | st.none()
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
)
# json turns int, float, bool and None keys into strings.
KEYS = TEXT | st.integers() | st.floats() | st.booleans() | st.none()
# Non-empty rows of one width, each a list or a tuple of plain ints: the
# shape of character pairs and block matrices.
INT_ROWS = st.integers(1, 4).flatmap(
    lambda width: st.lists(
        st.lists(INTS, min_size=width, max_size=width)
        | st.lists(INTS, min_size=width, max_size=width).map(tuple),
        min_size=1,
        max_size=6,
    )
)
DOCS = st.recursive(
    LEAVES,
    lambda inner: (
        st.lists(inner, max_size=5)
        | st.lists(st.integers(), max_size=5)
        | INT_ROWS
        | st.lists(inner, max_size=3).map(tuple)
        | st.dictionaries(KEYS, inner, max_size=5)
    ),
    max_leaves=40,
)


@given(DOCS)
def test_writer_matches_the_stdlib_encoder(doc):
    assert render_json(doc) == oracle(doc)


class Cell(enum.IntEnum):
    ONE = 1


# Rows the one-format path must leave to the recursion (a bool cell prints
# true, not 1), and rows it takes.
@pytest.mark.parametrize(
    "doc",
    [
        [[1, 2], [3, True]],
        [[1, 2], [3, Cell.ONE]],
        [[1, 2], []],
        [[], []],
        [[1], [2, 3]],
        ((1, 2), (3, 4)),
        [(1, 2), [3, 4]],
        {"m": [[1, -2], [0, 10**300]]},
        [[1, 2], [3, None]],
        [[1, 2], [3, 4.0]],
    ],
    ids=["bool", "int-enum", "empty-row", "empty-rows", "ragged", "tuple-rows",
         "mixed-rows", "nested", "none", "float"],
)
def test_int_rows_fall_back_or_match_the_stdlib(doc):
    assert render_json(doc) == oracle(doc)


@pytest.mark.parametrize("doc", [[[10**5000, 1]], {"m": [[1], [-(10**5000)]]}])
def test_int_rows_past_the_digit_limit_raise_the_stdlib_value_error(doc):
    with pytest.raises(ValueError) as expected:
        oracle(doc)
    with pytest.raises(ValueError) as raised:
        render_json(doc)
    assert str(raised.value) == str(expected.value)


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


SP4_BLOCK = ["--fixture", "sp4-principal", "--kappa", "3/2,1/2"]


@pytest.mark.parametrize(
    "argv, command",
    [
        (["socle", *SP4_BLOCK, "--mu", "0", "--cutoff", str(BENCH.DEEP_SOCLE_CUTOFF)],
         cli.cmd_socle),
        (["block", *SP4_BLOCK], cli.cmd_block),
    ],
    ids=["deep-socle", "block"],
)
def test_writer_matches_the_stdlib_encoder_on_socle_and_block_documents(argv, command):
    doc = command(cli.build_parser().parse_args(argv))
    rows = doc["character"]["mults"] if "character" in doc else doc["m_matrix"] + doc["p_matrix"]
    assert len(rows) > 8 and all(type(c) is int for row in rows for c in row)
    assert render_json(doc) == oracle(doc)


# At the int-to-str limit: 10**4300 - 1 has 4300 digits.
EDGE = 10**4300 - 1


@pytest.mark.parametrize(
    "rows",
    [
        [[EDGE, -EDGE], [0, EDGE]],
        [[-3, -1], [-2, -(10**40)]],
        [[0, 0], [0, 0]],
        [[7, 10**19 + 3], [8, 98765432109876543210]],
        [],
        [[1, 2, 3]],
    ],
    ids=["digit-limit", "negative", "zero", "20-digit", "empty", "one-row"],
)
def test_trusted_rows_match_the_stdlib_encoder(rows):
    for doc in (IntRows(rows), {"mults": IntRows(rows)}, [{"m": IntRows(rows)}, IntRows(rows)]):
        assert render_json(doc) == oracle(doc)


@pytest.mark.parametrize(
    "rows, text",
    [
        ([[]], "[\n  [\n    \n  ]\n]\n"),
        ([[True, 2]], "[\n  [\n    1,\n    2\n  ]\n]\n"),
        ([[1, Fraction(3, 2)]], "[\n  [\n    1,\n    1\n  ]\n]\n"),
    ],
    ids=["zero-width", "bool", "fraction"],
)
def test_rows_outside_the_trusted_contract_are_written_wrongly(rows, text):
    # Out of contract: IntRows takes only non-empty rows of exact-type ints,
    # and nothing checks that, so these come out as wrong text, not an error.
    # The same rows as a plain list keep the stdlib encoder's text or error.
    assert render_json(IntRows(rows)) == text
    if all(type(c) is not Fraction for row in rows for c in row):
        assert render_json(rows) == oracle(rows) != text
    else:
        with pytest.raises(TypeError):
            render_json(rows)


CHARACTER_GOLDENS = sorted(n for n in GOLDEN_COMMANDS if n.startswith(("character", "socle")))


def _int_rows_in(node):
    """Every IntRows list in a document, in order."""
    if isinstance(node, IntRows):
        return [node]
    values = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    return [rows for value in values for rows in _int_rows_in(value)]


def _trusted_argvs():
    for name in CHARACTER_GOLDENS:
        yield GOLDEN_COMMANDS[name]
    for alg, emb in BENCH.DEEP_PAIRS:
        for cutoff in BENCH.DEEP_LADDER:
            yield BENCH.deep_character_argv(alg, emb, BENCH.DEEP_MUS[-1], cutoff)
        yield BENCH.deep_character_argv(alg, emb, 3, 40) + ["--dim-e", "3"]
        yield BENCH.deep_character_argv(alg, emb, -2, 40) + ["--allow-virtual"]
    yield ["socle", *SP4_BLOCK, "--mu", "0", "--cutoff", str(BENCH.DEEP_SOCLE_CUTOFF)]


def test_every_trusted_row_list_holds_plain_ints_of_one_width():
    parser = cli.build_parser()
    for argv in _trusted_argvs():
        args = parser.parse_args(argv)
        found = _int_rows_in(args.run(args))
        assert len(found) == (2 if argv[0] == "character" else 1), argv
        for rows in found:
            assert all(type(row) is list and len(row) == 2 for row in rows), argv
            assert all(type(cell) is int for row in rows for cell in row), argv


@pytest.mark.parametrize("name", CHARACTER_GOLDENS)
def test_golden_character_documents_are_written_without_json_or_row_checks(
    name, monkeypatch, capsys
):
    def forbidden(*args):
        raise AssertionError("left the trusted writer path")

    monkeypatch.setattr(report, "json", types.SimpleNamespace(dumps=forbidden))
    monkeypatch.setattr(report, "_int_rows_text", forbidden)
    assert cli.main(GOLDEN_COMMANDS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
