from __future__ import annotations

import functools
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcseries import (
    FIXTURES,
    ModuleDatumE,
    build_root_system,
    charseries,
    cli,
    get_fixture,
    minimal_parabolic,
    rootsys,
    sl2embed,
    t_character_N,
)
from ghcseries.blocks import MAX_IWASAWA_A
from ghcseries.charseries import MAX_CUTOFF
from ghcseries.cli import main
from ghcseries.fixtures import MAX_RATIONAL_DIGITS, parse_algebra, parse_embedding
from ghcseries.report import character_pairs
from oracles import brute_vector_partitions
from test_rootsys import ORDER_SPECS, _label

GOLDEN = Path(__file__).parent / "golden"
# The longest integer int() reads: Python turns at most 4300 digits into an int.
HUGE = "9" * 4300
# Past what int() reads: the CLI counts the digits of an integer first.
PAST_INT = "9" * 5000
# Malformed input texts far past what an error message repeats in full.
LONG = "x" * 5000
LONG_LIST = ",".join(["1"] * 2501)
# Two 50-digit denominators: the grading's common denominator has 100.
NON_INTEGRAL_GRADING = [
    "analyze", "--algebra", "C2", "--embedding",
    f"vector:1/{3 * 10**49 + 1},1/{7 * 10**49 + 3}",
]

GOLDEN_COMMANDS = {
    "analyze_sl2xsl2-diagonal.json": ["analyze", "--fixture", "sl2xsl2-diagonal"],
    "analyze_sl3-root.json": ["analyze", "--fixture", "sl3-root"],
    "analyze_sl3-principal.json": ["analyze", "--fixture", "sl3-principal"],
    "analyze_sp4-long.json": ["analyze", "--fixture", "sp4-long"],
    "analyze_sp4-short.json": ["analyze", "--fixture", "sp4-short"],
    "analyze_sp4-principal.json": ["analyze", "--fixture", "sp4-principal"],
    "analyze_sp4-principal.table.txt": [
        "analyze", "--fixture", "sp4-principal", "--format", "table",
    ],
    "block_sp4-principal.json": [
        "block", "--fixture", "sp4-principal", "--kappa", "3/2,1/2",
    ],
    "socle_sp4-principal_mu0.json": [
        "socle", "--fixture", "sp4-principal", "--kappa", "3/2,1/2",
        "--mu", "0", "--cutoff", "40",
    ],
    "socle_sp4-principal_mu1.json": [
        "socle", "--fixture", "sp4-principal", "--kappa", "3/2,1/2",
        "--mu", "1", "--cutoff", "40",
    ],
    "character_sp4-principal_mu3.json": [
        "character", "--fixture", "sp4-principal", "--mu", "3", "--cutoff", "16",
    ],
    "iwasawa_a4.json": ["iwasawa", "--a", "4", "--c", "1/3"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_outputs_are_stable(name, capsys):
    assert main(GOLDEN_COMMANDS[name]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / name).read_text()


def test_json_outputs_parse_and_stay_exact():
    for name in GOLDEN_COMMANDS:
        if name.endswith(".json"):
            doc = json.loads((GOLDEN / name).read_text())
            assert "command" in doc


def test_output_is_deterministic(capsys):
    args = ["block", "--fixture", "sp4-principal", "--kappa", "3/2,1/2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.fixture
def parser_builds(monkeypatch):
    """Count build_parser calls, starting from no cached parser."""
    count = [0]
    build = cli.build_parser

    def counted():
        count[0] += 1
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    yield count
    cli._parser.cache_clear()


def test_import_builds_no_parser():
    code = (
        "import argparse\n"
        "made = []\n"
        "class Counted(argparse.ArgumentParser):\n"
        "    def __init__(self, *args, **kwargs):\n"
        "        made.append(kwargs.get('prog'))\n"
        "        super().__init__(*args, **kwargs)\n"
        "argparse.ArgumentParser = Counted\n"
        "import ghcseries.cli\n"
        "print(len(made))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "0\n"


def test_main_builds_the_parser_once(parser_builds, capsys):
    assert parser_builds[0] == 0
    for argv in (["iwasawa", "--a", "1"], ["analyze", "--fixture", "sl3-root"]) * 2:
        assert main(argv) == 0
    assert parser_builds[0] == 1


def test_reused_parser_forgets_allow_virtual(parser_builds, capsys):
    argv = ["character", "--fixture", "sp4-principal", "--mu", "-3", "--cutoff", "10"]
    assert main(argv + ["--allow-virtual"]) == 0
    # OutOfRegime is invalid input: exit 2, not the unsupported-regime 3.
    assert main(argv) == 2
    assert "OutOfRegime" in capsys.readouterr().err
    assert parser_builds[0] == 1


def test_reused_parser_forgets_cutoff(parser_builds, capsys, monkeypatch):
    argv = ["character", "--fixture", "sp4-principal", "--mu", "0"]
    monkeypatch.setenv("GHCSERIES_CUTOFF", "12")
    assert main(argv + ["--cutoff", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["cutoff"] == 10
    monkeypatch.setenv("GHCSERIES_CUTOFF", "14")
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["cutoff"] == 14
    assert parser_builds[0] == 1


def test_reused_parser_forgets_format(parser_builds, capsys):
    argv = ["analyze", "--fixture", "sp4-principal"]
    assert main(argv + ["--format", "table"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "analyze_sp4-principal.table.txt").read_text()
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / "analyze_sp4-principal.json").read_text()
    assert parser_builds[0] == 1


def test_argparse_error_leaves_the_parser_reusable(parser_builds, capsys):
    for name, argv in sorted(GOLDEN_COMMANDS.items()):
        with pytest.raises(SystemExit) as exc:
            main(["character", "--fixture", "sp4-principal"])
        assert exc.value.code == 2
        assert "--mu" in capsys.readouterr().err
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / name).read_text()
    assert parser_builds[0] == 1


def _doc_both_ways(name, command, capsys):
    """The documents of --fixture NAME and of its own --algebra/--embedding."""
    fixture = FIXTURES[name]
    assert main([command[0], "--fixture", name] + command[1:]) == 0
    by_fixture = json.loads(capsys.readouterr().out)
    spec = ["--algebra", fixture.algebra, "--embedding", fixture.embedding]
    assert main([command[0]] + spec + command[1:]) == 0
    by_spec = json.loads(capsys.readouterr().out)
    assert by_fixture["pair"].pop("fixture") == name
    assert by_fixture["pair"].pop("summary") == fixture.summary
    assert by_spec["pair"].pop("fixture") is None
    assert by_spec["pair"].pop("summary") is None
    assert by_fixture == by_spec
    return by_fixture


def test_explicit_pair_matches_fixture(capsys):
    for name in FIXTURES:
        _doc_both_ways(name, ["analyze"], capsys)
        _doc_both_ways(name, ["character", "--mu", "3", "--cutoff", "20"], capsys)


REGULAR_KAPPAS = {
    "sl2xsl2-diagonal": "1/2,-1/2,3/2,-3/2",
    "sl3-principal": "1,0,-1",
    "sp4-principal": "3/2,1/2",
}


@pytest.mark.parametrize("name", sorted(REGULAR_KAPPAS))
def test_explicit_pair_matches_fixture_on_blocks(name, capsys):
    kappa = "--kappa=" + REGULAR_KAPPAS[name]
    block = _doc_both_ways(name, ["block", kappa], capsys)
    mus = [e["mu"] for e in block["elements"]]
    mu = min(m for m in mus if isinstance(m, int) and m >= 0 and mus.count(m) == 1)
    _doc_both_ways(name, ["socle", kappa, "--mu", str(mu), "--cutoff", "30"], capsys)


def test_root_embedding_spelling(capsys):
    assert main(["analyze", "--algebra", "C2", "--embedding", "root:1,-1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["parabolic"]["n_weights"] == [2, 2, 2]


EXIT_CASES = [
    (["analyze", "--fixture", "nope"], 2),
    (["analyze", "--algebra", "E8", "--embedding", "principal"], 3),
    (["analyze", "--algebra", "C2*", "--embedding", "principal"], 2),
    (["analyze", "--algebra", "C2"], 2),
    (["analyze", "--fixture", "sp4-long", "--algebra", "C2", "--embedding", "principal"], 2),
    (["analyze"], 2),
    (["block", "--fixture", "sp4-principal", "--kappa", "1,1"], 3),
    (["block", "--fixture", "sp4-principal", "--kappa", "1,x"], 2),
    (["block", "--fixture", "sp4-long", "--kappa", "2,1"], 3),
    (["character", "--fixture", "sp4-principal", "--mu", "-3"], 2),
    (["socle", "--fixture", "sp4-principal", "--kappa", "3/2,1/2", "--mu", "3"], 2),
    (["socle", "--fixture", "sp4-principal", "--kappa", "3/2,1/2", "--mu", "5"], 2),
    (["iwasawa", "--a", "-1"], 2),
    (["character", "--fixture", "sp4-principal", "--mu", "2", "--cutoff", "-4"], 2),
    (["analyze", "--algebra", "C2", "--embedding", "root:1,2"], 2),
    (["analyze", "--algebra", "C2", "--embedding", "vector:1/2,0"], 2),
    (["block", "--algebra", "C4", "--embedding", "principal", "--kappa", "3,2,1"], 2),
    (["block", "--fixture", "sp4-long", "--kappa", "2,1,0"], 2),
    (["block", "--algebra", "A1+A1+A1", "--embedding", "principal",
      "--kappa", "0,0,1,-1,2,-2"], 3),
    # Ceilings: one past each, so the call stays cheap should a check go.
    (["character", "--fixture", "sp4-principal", "--mu", "0",
      "--cutoff", str(MAX_CUTOFF + 1)], 3),
    (["socle", "--fixture", "sp4-principal", "--kappa", "3/2,1/2", "--mu", "0",
      "--cutoff", str(MAX_CUTOFF + 1)], 3),
    (["character", "--fixture", "sp4-principal", "--mu", str(-MAX_CUTOFF),
      "--allow-virtual", "--cutoff", "10"], 3),
    (["iwasawa", "--a", str(MAX_IWASAWA_A + 1)], 3),
    (["iwasawa", "--a", "1", "--c", "1" * (MAX_RATIONAL_DIGITS + 1)], 3),
    (["block", "--fixture", "sp4-principal",
      "--kappa", "1/2," + "1" * (MAX_RATIONAL_DIGITS + 1)], 3),
    (["analyze", "--algebra", "C2",
      "--embedding", "vector:2," + "1" * (MAX_RATIONAL_DIGITS + 1)], 3),
    (["iwasawa", "--a", "1", "--c", "1,2"], 2),
    # Integer options past the rational ceiling, up to the longest argparse reads.
    (["character", "--fixture", "sp4-principal", "--mu", HUGE, "--cutoff", "10"], 3),
    (["character", "--fixture", "sp4-principal", "--mu", "-" + HUGE, "--cutoff", "10"], 3),
    (["character", "--fixture", "sp4-principal", "--mu", "-" + HUGE,
      "--allow-virtual", "--cutoff", "10"], 3),
    (["character", "--fixture", "sp4-principal", "--mu", "0", "--dim-e", HUGE,
      "--cutoff", "10"], 3),
    (["socle", "--fixture", "sp4-principal", "--kappa", "3/2,1/2", "--mu", HUGE], 3),
    # A negative mu without --allow-virtual is refused before any partition
    # list is built, so a list past MAX_CUTOFF cannot turn it into exit 3.
    (["character", "--fixture", "sp4-principal", "--cutoff", "10", "--mu=-19990"], 2),
    (["character", "--fixture", "sp4-principal", "--cutoff", "10", "--mu=-19993"], 2),
    (NON_INTEGRAL_GRADING, 2),
    # Integer options past what int() reads, and GHCSERIES_CUTOFF (set by a
    # leading NAME=VALUE entry, as in a shell): over the ceiling, not malformed.
    (["character", "--fixture", "sp4-principal", "--mu", "0", "--cutoff", PAST_INT], 3),
    (["character", "--fixture", "sp4-principal", "--mu", PAST_INT, "--cutoff", "10"], 3),
    (["character", "--fixture", "sp4-principal", "--mu", "0", "--dim-e", PAST_INT,
      "--cutoff", "10"], 3),
    (["iwasawa", "--a", PAST_INT], 3),
    (["GHCSERIES_CUTOFF=" + PAST_INT, "character", "--fixture", "sp4-principal",
      "--mu", "0"], 3),
    # Malformed long texts: each message shows an excerpt and the length.
    (["character", "--fixture", "sp4-principal", "--mu", LONG], 2),
    (["character", "--fixture", "sp4-principal", "--mu", "0", "--cutoff", LONG], 2),
    (["character", "--fixture", "sp4-principal", "--mu", "0", "--dim-e", LONG], 2),
    (["GHCSERIES_CUTOFF=" + LONG, "character", "--fixture", "sp4-principal", "--mu", "0"], 2),
    (["block", "--fixture", "sp4-principal", "--kappa", LONG], 2),
    (["analyze", "--algebra", LONG, "--embedding", "principal"], 2),
    (["analyze", "--fixture", LONG], 2),
    (["analyze", "--algebra", "C2", "--embedding", LONG], 2),
    (["analyze", "--algebra", "C2", "--embedding", "root:" + LONG], 2),
    (["analyze", "--algebra", "C2", "--embedding", "root:" + LONG_LIST], 2),
    (["iwasawa", "--a", LONG], 2),
    (["iwasawa", "--a", "1", "--c", LONG_LIST], 2),
    # argparse's own messages: an invalid choice, an unknown command, an
    # unknown option, an ambiguous one and an ignored explicit argument.
    (["analyze", "--algebra", "C2", "--embedding", "principal", "--format", LONG], 2),
    ([LONG], 2),
    (["analyze", "--fixture", "sp4-principal", "--" + LONG], 2),
    (["analyze", "--fixture", "sp4-principal", "--lambda-convention", LONG], 2),
    (["analyze", "--fixture", "sp4-principal", "--format", " ".join(LONG)], 2),
    (["analyze", "--fixture", "sp4-principal", "a", "--" + LONG, LONG], 2),
    (["analyze", "--f=" + " ".join(LONG)], 2),
    (["character", "--fixture", "sp4-principal", "--mu", "0", "--allow-virtual=" + LONG], 2),
]


@pytest.mark.parametrize("args,code", EXIT_CASES)
def test_error_exit_codes(args, code, capsys, monkeypatch):
    if args[0].startswith("GHCSERIES_"):
        monkeypatch.setenv(*args[0].split("=", 1))
        args = args[1:]
    try:
        returned, usage = main(args), False
    except SystemExit as exc:  # argparse prints its usage, then the error
        returned, usage = exc.code, True
    assert returned == code
    err = capsys.readouterr().err
    assert err.startswith("usage: " if usage else "error: ")
    assert len(err.encode()) < 1000
    assert "Fraction(" not in err
    assert "9" * (MAX_RATIONAL_DIGITS + 1) not in err


def test_non_integral_grading_names_the_root_and_its_exact_value(capsys):
    assert main(NON_INTEGRAL_GRADING) == 2
    assert capsys.readouterr().err == (
        "error: NonIntegralGrading: root (1, 1) evaluates to non-integer "
        "100000000000000000000000000000000000000000000000004/"
        "21000000000000000000000000000000000000000000000001"
        "60000000000000000000000000000000000000000000000003\n"
    )


def test_rational_ceiling_counts_text_digits_and_the_exponent(capsys):
    at_ceiling = "1" * MAX_RATIONAL_DIGITS
    assert main(["iwasawa", "--a", "1", "--c", at_ceiling]) == 0
    assert json.loads(capsys.readouterr().out)["c"] == int(at_ceiling)
    # "1e97" has 3 digits and exponent 97: 100 in all, so one more is past.
    exponent = MAX_RATIONAL_DIGITS - 3
    assert len(str(exponent)) == len(str(exponent + 1)) == 2
    assert main(["iwasawa", "--a", "1", "--c", f"1e{exponent}"]) == 0
    assert json.loads(capsys.readouterr().out)["c"] == 10**exponent
    for c in (f"1e{exponent + 1}", f"1e-{exponent + 1}", f"-{at_ceiling}/3"):
        assert main(["iwasawa", "--a", "1", "--c", c]) == 3
        assert f"more than {MAX_RATIONAL_DIGITS} digits" in capsys.readouterr().err


def test_integer_options_share_the_rational_ceiling(capsys):
    below, past = str(10**MAX_RATIONAL_DIGITS - 1), str(10**MAX_RATIONAL_DIGITS)
    character = ["character", "--fixture", "sp4-principal", "--cutoff", "10"]
    socle = ["socle", "--fixture", "sp4-principal", "--kappa", "3/2,1/2", "--mu"]
    assert main(character + ["--mu", below]) == 0
    assert main(character + ["--mu", "0", "--dim-e", below]) == 0
    capsys.readouterr()
    # A mu this negative passes the digit ceiling and meets the partition one.
    assert main(character + ["--mu", "-" + below, "--allow-virtual"]) == 3
    assert "partition list" in capsys.readouterr().err
    assert main(socle + [below]) == 2
    assert "no block element" in capsys.readouterr().err
    for argv in (
        character + ["--mu", past],
        character + ["--mu", "-" + past, "--allow-virtual"],
        character + ["--mu", "0", "--dim-e", past],
        character + ["--mu", "0", "--dim-e", "-" + past],
        socle + [past],
    ):
        assert main(argv) == 3
        assert f"more than {MAX_RATIONAL_DIGITS} digits" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["block", "socle"])
def test_kappa_is_parsed_once_per_call(command, capsys, monkeypatch):
    texts = []
    parse = cli.parse_rationals

    def counted(text):
        texts.append(text)
        return parse(text)

    monkeypatch.setattr(cli, "parse_rationals", counted)
    argv = [command, "--fixture", "sp4-principal", "--kappa", "3/2,1/2"]
    assert main(argv + (["--mu", "0"] if command == "socle" else [])) == 0
    assert json.loads(capsys.readouterr().out)["kappa"] == ["3/2", "1/2"]
    assert texts == ["3/2,1/2"]


def test_negative_values_may_follow_their_option(capsys):
    block = ["block", "--fixture", "sp4-principal"]
    assert main(block + ["--kappa=-1/2,3/2"]) == 0
    attached = capsys.readouterr().out
    assert main(block + ["--kappa", "-1/2,3/2"]) == 0
    assert capsys.readouterr().out == attached
    assert main(["iwasawa", "--a", "2", "--c", "-1/3"]) == 0
    assert json.loads(capsys.readouterr().out)["c"] == "-1/3"


def test_argparse_rejects_unknown_commands():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_negative_mu_with_virtual_flag(capsys):
    args = [
        "character", "--fixture", "sp4-principal",
        "--mu", "-3", "--allow-virtual", "--cutoff", "10",
    ]
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k_character_F1"]["virtual"] is True
    assert doc["t_character_N"]["min_weight"] == -1


def test_virtual_character_builds_one_partition_list(capsys, partition_limits):
    args = [
        "character", "--fixture", "sp4-principal",
        "--mu", "-3", "--allow-virtual", "--cutoff", "10",
    ]
    assert main(args) == 0
    assert partition_limits == [13]
    doc = json.loads(capsys.readouterr().out)
    p = get_fixture("sp4-principal").build_parabolic()
    datum = ModuleDatumE(omega=-3 - p.two_rho_n_perp)
    assert doc["t_character_N"]["mults"] == character_pairs(
        t_character_N(p, datum, 10).mults
    )


def test_character_builds_one_partition_list(partition_limits, capsys):
    argv = GOLDEN_COMMANDS["character_sp4-principal_mu3.json"]
    assert argv[-4:] == ["--mu", "3", "--cutoff", "16"]
    assert main(argv) == 0
    assert partition_limits == [16 - 3]
    assert capsys.readouterr().out == (GOLDEN / "character_sp4-principal_mu3.json").read_text()
    # A negative mu without --allow-virtual is refused before any list is built.
    assert main(argv[:-4] + ["--mu", "-3", "--cutoff", "16"]) == 2
    assert partition_limits == [13]


def test_character_ladder_and_socle_grow_one_shared_table(partition_tables, capsys):
    """C2 principal and sp4-principal have the n-weights (2, 2, 4, 6), so a
    character ladder and a socle read one (1, 1, 2, 3) table, grown to the
    deepest limit asked for, halved, and no further."""
    ladder = ["character", "--algebra", "C2", "--embedding", "principal", "--mu", "3"]
    for cutoff in (50, 100, 200, 400):
        assert main(ladder + ["--cutoff", str(cutoff)]) == 0
    assert partition_tables[0] == (400 - 3) // 2 + 1
    socle = ["socle", "--fixture", "sp4-principal", "--kappa", "3/2,1/2", "--mu", "0"]
    assert main(socle + ["--cutoff", "800"]) == 0
    capsys.readouterr()
    ((key, (counts, _)),) = charseries._TABLES.items()
    assert key == (1, 1, 2, 3)
    assert len(counts) == partition_tables[0] == 800 // 2 + 1


@functools.cache
def _principal_n_weights(algebra: str) -> tuple[int, ...]:
    rs = build_root_system(parse_algebra(algebra))
    return minimal_parabolic(parse_embedding("principal", rs)).n_weights


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([_label(spec) for spec in ORDER_SPECS]),
    st.integers(0, 12),
    st.integers(0, 80),
    st.integers(1, 3),
)
def test_characters_from_one_list_match_brute_partitions(algebra, mu, cutoff, dim_e):
    out = io.StringIO()
    argv = [
        "character", "--algebra", algebra, "--embedding", "principal",
        "--mu", str(mu), "--cutoff", str(cutoff), "--dim-e", str(dim_e),
    ]
    with redirect_stdout(out):
        assert main(argv) == 0
    doc = json.loads(out.getvalue())
    weights = _principal_n_weights(algebra)
    t_mults = [
        [x, dim_e * brute_vector_partitions(weights, x - mu - 2)]
        for x in range(mu + 2, cutoff + 1)
    ]
    f1_mults = [
        [d, dim_e * (brute_vector_partitions(weights, d - mu)
                     - brute_vector_partitions(weights, d - mu - 2))]
        for d in range(mu, cutoff + 1)
    ]
    assert doc["t_character_N"]["mults"] == [[x, c] for x, c in t_mults if c]
    assert doc["k_character_F1"]["mults"] == [[d, c] for d, c in f1_mults if c]


@pytest.fixture
def pairs(monkeypatch):
    """An empty pair memo for this test; returns the pair dict the CLI fills."""
    monkeypatch.setattr(cli, "_PAIRS", {})
    return cli._PAIRS


def test_character_calls_share_one_pair(pairs, capsys, monkeypatch):
    seen = []
    resolve = cli._resolve_pair

    def recorded(args):
        seen.append(resolve(args))
        return seen[-1]

    monkeypatch.setattr(cli, "_resolve_pair", recorded)
    for cutoff in ("10", "20"):
        argv = ["character", "--algebra", "C4", "--embedding", "principal",
                "--mu", "2", "--cutoff", cutoff]
        assert main(argv) == 0
    (_, emb, p), (_, emb_again, p_again) = seen
    assert emb_again is emb and p_again is p and p.embedding is emb
    assert pairs == {((("C", 4),), "principal"): (emb, p)}
    capsys.readouterr()


@pytest.mark.parametrize(
    "name", ["analyze_sp4-principal.json", "character_sp4-principal_mu3.json"]
)
def test_fixture_and_its_spelling_share_one_pair(name, pairs, capsys):
    golden = (GOLDEN / name).read_text()
    spelled = json.loads(golden)
    spelled["pair"].update(fixture=None, summary=None)
    spelled = json.dumps(spelled, indent=2) + "\n"
    argv = GOLDEN_COMMANDS[name]
    fixture = get_fixture(argv[2])
    by_spec = argv[:1] + ["--algebra", fixture.algebra, "--embedding", fixture.embedding]
    by_spec += argv[3:]
    for command, expected in ((by_spec, spelled), (argv, golden), (by_spec, spelled)):
        assert main(command) == 0
        assert capsys.readouterr().out == expected
    assert list(pairs) == [(parse_algebra(fixture.algebra), fixture.embedding)]


def test_a_pair_that_fails_to_build_is_not_stored(pairs, capsys):
    assert main(["analyze", "--fixture", "sp4-principal"]) == 0
    capsys.readouterr()
    stored = dict(pairs)
    argv = ["character", "--algebra", "C2", "--embedding", "root:9,9", "--mu", "0"]
    runs = []
    for _ in range(2):
        runs.append((main(argv), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 2
    assert runs[0][1].err == "error: NotARoot: (9, 9) is not a root\n"
    assert pairs == stored
    assert all(pairs[key] is stored[key] for key in stored)


# Two embeddings of each of five algebras: the pairs of perfbench's char-deep.
DEEP_PAIRS = [
    ("C4", "principal"), ("C4", "root:2,0,0,0"), ("B4", "principal"), ("B4", "root:1,1,0,0"),
    ("G2", "principal"), ("G2", "root:2,-1,-1"), ("C2", "principal"), ("C2", "root:2,0"),
    ("A2", "principal"), ("A2", "root:1,0,-1"),
]


def test_each_deep_pair_is_built_once_per_process(pairs, capsys, monkeypatch):
    built = []
    build = cli.build_root_system

    def counted(spec):
        built.append(spec)
        return build(spec)

    monkeypatch.setattr(cli, "build_root_system", counted)
    stored = []
    for _ in range(2):
        for algebra, embedding in DEEP_PAIRS:
            argv = ["character", "--algebra", algebra, "--embedding", embedding,
                    "--mu", "1", "--cutoff", "8"]
            assert main(argv) == 0
        stored.append(dict(pairs))
    capsys.readouterr()
    # One root system per pair on the first pass, none on the second.
    assert built == [parse_algebra(algebra) for algebra, _ in DEEP_PAIRS]
    first, second = stored
    assert len(first) == 10
    assert second.keys() == first.keys()
    assert all(second[key] is first[key] for key in first)


SESSION_POOL = [
    ["analyze", "--fixture", "sp4-principal"],
    ["analyze", "--algebra", "C2", "--embedding", "principal", "--format", "table"],
    ["analyze", "--fixture", "sl3-root", "--lambda-convention", "perp"],
    ["analyze", "--algebra", "G2", "--embedding", "principal"],
    ["character", "--fixture", "sp4-principal", "--mu", "3", "--cutoff", "16"],
    ["character", "--algebra", "C2", "--embedding", "principal", "--mu", "-2",
     "--allow-virtual", "--cutoff", "12"],
    ["character", "--algebra", "B4", "--embedding", "root:1,1,0,0", "--mu", "1",
     "--cutoff", "40", "--dim-e", "2"],
    ["character", "--fixture", "sl3-principal", "--mu", "-3", "--cutoff", "10"],
    ["character", "--algebra", "C2", "--embedding", "root:9,9", "--mu", "0"],
    ["block", "--fixture", "sp4-principal", "--kappa=3/2,1/2"],
    ["block", "--algebra", "C2", "--embedding", "principal", "--kappa=3/2,1/2"],
    ["block", "--fixture", "sl3-principal", "--kappa=1,0,-1"],
    ["socle", "--fixture", "sp4-principal", "--kappa=3/2,1/2", "--mu", "0", "--cutoff", "40"],
    ["socle", "--algebra", "C2", "--embedding", "principal", "--kappa=3/2,1/2",
     "--mu", "1", "--cutoff", "30"],
]


def test_one_session_prints_what_fresh_processes_print(pairs):
    commands = random.Random(16).choices(SESSION_POOL, k=20)
    assert len({tuple(c) for c in commands}) < len(commands)
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "ghcseries", *argv], capture_output=True, text=True
        )
        assert (code, out.getvalue()) == (fresh.returncode, fresh.stdout), argv
        assert err.getvalue() == fresh.stderr, argv


def test_analyze_peels_the_adjoint_character_once(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_PAIRS", {})
    calls = {}
    for name in ("t_character_of_g", "sl2_decomposition"):
        fn = getattr(sl2embed, name)
        calls[name] = 0

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("ghcseries.") and getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    assert main(["analyze", "--fixture", "sp4-principal"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert calls == {"t_character_of_g": 1, "sl2_decomposition": 1}
    assert doc["algebra"]["adjoint_k_types"] == [[2, 1], [6, 1]]


def test_cutoff_environment_override(capsys, monkeypatch):
    monkeypatch.setenv("GHCSERIES_CUTOFF", "12")
    assert main(["character", "--fixture", "sp4-principal", "--mu", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cutoff"] == 12
    monkeypatch.setenv("GHCSERIES_CUTOFF", "many")
    assert main(["character", "--fixture", "sp4-principal", "--mu", "0"]) == 2
    message = "error: InvalidInput: GHCSERIES_CUTOFF must be an integer, got "
    assert capsys.readouterr().err == message + "'many'\n"
    monkeypatch.setenv("GHCSERIES_CUTOFF", LONG)
    assert main(["character", "--fixture", "sp4-principal", "--mu", "0"]) == 2
    assert capsys.readouterr().err == message + f"{LONG[:64]!r}... (5000 characters)\n"
    monkeypatch.setenv("GHCSERIES_CUTOFF", str(MAX_CUTOFF + 1))
    assert main(["character", "--fixture", "sp4-principal", "--mu", "0"]) == 3
    assert f"cutoff {MAX_CUTOFF + 1} exceeds" in capsys.readouterr().err


def test_default_cutoff_is_sixty(capsys, monkeypatch):
    monkeypatch.delenv("GHCSERIES_CUTOFF", raising=False)
    assert main(["character", "--fixture", "sp4-principal", "--mu", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["cutoff"] == 60


def test_lambda_convention_switch(capsys):
    assert main(["analyze", "--fixture", "sl3-root", "--lambda-convention", "perp"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bounds"]["convention"] == "perp"
    assert doc["bounds"]["strong"] == {"exact": 1, "smallest_mu": 1}
    assert doc["bounds"]["other_convention"]["strong"] == {
        "exact": "3/2", "smallest_mu": 2,
    }


def test_module_entry_point_runs_in_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "ghcseries", "iwasawa", "--a", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["k_multiplicity"] == 2


UNSUPPORTED_BLOCK_PAIRS = [
    ["--algebra", "C4", "--embedding", "principal", "--kappa=7/2,5/2,3/2,1/2"],
    ["--algebra", "A1+A1+A1", "--embedding", "principal",
     "--kappa=1/2,-1/2,3/2,-3/2,5/2,-5/2"],
]


@pytest.mark.parametrize("command", ["block", "socle"])
@pytest.mark.parametrize("pair", UNSUPPORTED_BLOCK_PAIRS, ids=["C4", "A1+A1+A1"])
def test_unsupported_blocks_exit_before_any_group_is_built(
    command, pair, closures, capsys
):
    extra = ["--mu", "0"] if command == "socle" else []
    assert main([command] + pair + extra) == 3
    assert "UnsupportedRank" in capsys.readouterr().err
    assert closures[0] == 0


def test_cutoff_ceiling_fails_before_any_group_is_built(closures, capsys):
    socle = ["socle", "--fixture", "sp4-principal", "--kappa", "3/2,1/2", "--mu", "0"]
    assert main(socle + ["--cutoff", str(MAX_CUTOFF + 1)]) == 3
    assert f"cutoff {MAX_CUTOFF + 1} exceeds" in capsys.readouterr().err
    assert closures[0] == 0


def test_supported_block_builds_each_group_once(closures, capsys):
    assert main(["block", "--fixture", "sp4-principal", "--kappa", "3/2,1/2"]) == 0
    built = closures[0]
    assert built == len(rootsys._GROUPS) > 0
    socle = ["socle", "--fixture", "sp4-principal", "--kappa", "3/2,1/2", "--mu", "0"]
    assert main(socle) == 0
    assert closures[0] == built
    capsys.readouterr()


CONTRACT_ALGEBRAS = [
    "A1", "A2", "A3", "B1", "B2", "B3", "C1", "C2", "C3", "D2", "D3", "G2",
    "A1+A1", "A1+A2", "A1+B2", "A1+C2", "A1+G2", "A1+A1+A1",
]
CONTRACT_FIXTURES = sorted(FIXTURES) + ["no-such-pair"]
COMMANDS = ["analyze", "character", "block", "socle", "iwasawa"]
small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=3)


def _text(values) -> str:
    return ",".join(str(v) for v in values)


def _root_system(algebra: str):
    return rootsys.build_root_system(
        (part[0], int(part[1:])) for part in algebra.split("+")
    )


@st.composite
def cli_calls(draw):
    command = draw(st.sampled_from(COMMANDS))
    cutoff = ["--cutoff", str(draw(st.integers(0, 200)))]
    if command == "iwasawa":
        return ["iwasawa", "--a", str(draw(st.integers(-2, 30))),
                "--c", str(draw(small_rationals))] + cutoff
    if draw(st.booleans()):
        name = draw(st.sampled_from(CONTRACT_FIXTURES))
        rs = _root_system(FIXTURES[name].algebra if name in FIXTURES else "A1")
        argv = [command, "--fixture", name]
    else:
        algebra = draw(st.sampled_from(CONTRACT_ALGEBRAS))
        rs = _root_system(algebra)
        kind = draw(st.sampled_from(["principal", "root", "vector"]))
        if kind == "principal":
            embedding = "principal"
        elif kind == "root":
            embedding = "root:" + _text(draw(st.sampled_from(rs.roots)).coords)
        else:
            entries = st.one_of(st.integers(-4, 4), small_rationals)
            vector = draw(st.lists(entries, min_size=rs.ambient, max_size=rs.ambient))
            embedding = "vector:" + _text(vector)
        argv = [command, "--algebra", algebra, "--embedding", embedding]
    mu = ["--mu", str(draw(st.integers(-3, 12)))]
    if command == "character":
        virtual = ["--allow-virtual"] if draw(st.booleans()) else []
        return argv + mu + cutoff + virtual
    if command == "analyze":
        return argv + ["--lambda-convention", draw(st.sampled_from(["n", "perp"]))]
    length = draw(st.sampled_from([rs.ambient, rs.ambient, rs.ambient, rs.ambient + 1]))
    kappa = draw(st.lists(small_rationals, min_size=length, max_size=length, unique=True))
    argv += ["--kappa", _text(kappa)]
    return argv + (mu + cutoff if command == "socle" else [])


@settings(max_examples=200, deadline=None)
@given(cli_calls())
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert err.getvalue().startswith("error: ")
