"""Command-line surface: analyze, character, block, socle, iwasawa.

Exit codes: 0 success, 2 invalid input, 3 declared-unsupported regime,
4 internal inconsistency.  Output goes to stdout as JSON (default) or
an aligned table; identical inputs produce byte-identical output.

build_parser is the one table of commands: each subparser takes only the
options its handler reads and carries that handler as args.run.  Each
command makes one library call and renders the result:
charseries._character_mults for character, blocks._block_query for block
and socle.  Each (g, sl(2)) pair is built once per process: the first
call that names it builds its root system, embedding and minimal
parabolic, and every later call, whichever spelling it uses, shares them.
character and socle mark their character rows report.IntRows, written
unchecked: every cell is a plain int (int options, charseries' int
tables).  A message about input text quotes it through errors._excerpt,
and an option a command does not take is an error under that command's
usage line.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys

from .blocks import _block_query, iwasawa_sl3_support, socle_k_character
from .charseries import MAX_CUTOFF, _character_mults
from .errors import GhcseriesError, InvalidInput, UnsupportedRegime, _excerpt
from .fixtures import (
    MAX_RATIONAL_DIGITS,
    get_fixture,
    parse_algebra,
    parse_embedding,
    parse_rationals,
)
from .parabolic import bounds_report, invariants, minimal_parabolic
from .report import IntRows, character_pairs, rational, render_json, render_table, weight_coords
from .rootsys import Weight, build_root_system
from .sl2embed import is_regular

DEFAULT_CUTOFF = 60


# The input text in each argparse message that repeats some: all that
# follows "unrecognized arguments: ", an ambiguous option up to the options
# it could match, and any quoted value (invalid choice, ignored explicit
# argument).
_ECHOED = (
    r"(?s)(?<=unrecognized arguments: ).*"
    r"|(?<=ambiguous option: ).*(?= could match --)"
    r"|'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\""
)


def _excerpt_echo(match) -> str:
    """An echoed text through _excerpt; a quoted one keeps its quotes."""
    text = match.group()
    quote = text[0]
    if quote in "'\"" and len(text) > 1 and text[-1] == quote:
        return _excerpt(text[1:-1], lambda inner: quote + inner + quote)
    return _excerpt(text, str)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose own error messages quote input through _excerpt;
    add_subparsers builds its subparsers with the same class."""

    def error(self, message):
        super().error(re.sub(_ECHOED, _excerpt_echo, message))


class _CommandParser(_Parser):
    """A command's parser, which reports arguments it does not take itself."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ghcseries",
        description=(
            "Exact invariants, characters and multiplicity matrices for "
            "series of (g, sl(2))-modules attached to minimal parabolics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def add_command(name, run, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        sp.add_argument("--format", choices=("json", "table"), default="json",
                        help="JSON (default) or an aligned table")
        return sp

    def add_pair_options(sp):
        sp.add_argument("--fixture", help="name of a built-in example pair")
        sp.add_argument("--algebra", help="e.g. C2, A2, A1+A1")
        sp.add_argument("--embedding", help="principal, root:COORDS, or vector:COORDS")

    def add_cutoff(sp):
        sp.add_argument("--cutoff", type=_integer, help=f"largest weight reported (default "
                        f"{DEFAULT_CUTOFF}, or GHCSERIES_CUTOFF if set; at most {MAX_CUTOFF:,})")

    sp = add_command("analyze", cmd_analyze, "invariants, bounds and regularity")
    add_pair_options(sp)
    sp.add_argument(
        "--lambda-convention",
        choices=("n", "perp"),
        default="n",
        help="read the lambda pair off n (default) or off n minus the e-line",
    )

    sp = add_command("character", cmd_character, "t-character of N and k-character of F1")
    add_pair_options(sp)
    add_cutoff(sp)
    sp.add_argument("--mu", type=_integer, required=True, help="lowest k-type of F1")
    sp.add_argument("--dim-e", type=_integer, default=1, help="dimension of E (default 1)")
    sp.add_argument(
        "--allow-virtual",
        action="store_true",
        help="permit mu < 0 and report the negated Euler character instead",
    )

    sp = add_command("block", cmd_block, "central-character block and matrices")
    add_pair_options(sp)
    sp.add_argument("--kappa", required=True, help="e.g. 3/2,1/2")

    sp = add_command("socle", cmd_socle, "socle k-character of one block element")
    add_pair_options(sp)
    add_cutoff(sp)
    sp.add_argument("--kappa", required=True, help="central character parameter, e.g. 3/2,1/2")
    sp.add_argument("--mu", type=_integer, required=True, help="minimal k-type selector")

    sp = add_command("iwasawa", cmd_iwasawa, "support of V(a) across a principal-series family")
    sp.add_argument("--a", type=_integer, required=True, help="the k-type V(a) to locate")
    sp.add_argument("--c", default="0", help="exact rational character parameter")

    return parser


def _integer(text: str) -> int:
    """int(text); UnsupportedRegime past MAX_RATIONAL_DIGITS digits, counted
    before int() reads the text (it refuses more than 4300 digits)."""
    if sum(map(str.isdigit, text)) > MAX_RATIONAL_DIGITS:
        raise UnsupportedRegime(f"integer with more than {MAX_RATIONAL_DIGITS} digits")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_excerpt(text)}") from None


def _cutoff(args) -> int:
    value = args.cutoff
    if value is None:
        raw = os.environ.get("GHCSERIES_CUTOFF", str(DEFAULT_CUTOFF))
        try:
            value = _integer(raw)
        except argparse.ArgumentTypeError:
            raise InvalidInput(
                f"GHCSERIES_CUTOFF must be an integer, got {_excerpt(raw)}"
            ) from None
    if value < 0:
        raise InvalidInput("cutoff must be nonnegative")
    if value > MAX_CUTOFF:
        raise UnsupportedRegime(f"cutoff {value} exceeds the ceiling {MAX_CUTOFF}")
    return value


# (parsed algebra, embedding text) -> (embedding, its minimal parabolic), built
# at most once per process.  Every call that names the pair gets the same
# objects; treat them as immutable.  A build that raises is not stored.
_PAIRS: dict[tuple, tuple] = {}


def _resolve_pair(args):
    if args.fixture:
        if args.algebra or args.embedding:
            raise InvalidInput("give either --fixture or --algebra/--embedding, not both")
        fixture = get_fixture(args.fixture)
        algebra, embedding = fixture.algebra, fixture.embedding
        pair = {"fixture": fixture.name, "summary": fixture.summary}
    else:
        if not args.algebra or not args.embedding:
            raise InvalidInput("provide --fixture NAME, or both --algebra and --embedding")
        algebra, embedding = args.algebra, args.embedding
        pair = {"fixture": None, "summary": None}
    spec = parse_algebra(algebra)
    built = _PAIRS.get((spec, embedding))
    if built is None:
        emb = parse_embedding(embedding, build_root_system(spec))
        built = _PAIRS[spec, embedding] = (emb, minimal_parabolic(emb))
    emb, p = built
    pair.update(
        {
            "algebra": "+".join(f"{fam}{rank}" for fam, rank in spec),
            "embedding": embedding,
            "kind": emb.kind,
            "defining_vector": weight_coords(emb.h_vector),
            "regular": is_regular(emb),
        }
    )
    return pair, emb, p


def _threshold_doc(threshold):
    if threshold is None:
        return None
    return {"exact": rational(threshold.exact), "smallest_mu": threshold.smallest_mu}


def cmd_analyze(args) -> dict:
    pair, emb, p = _resolve_pair(args)
    rs = emb.rs
    inv = invariants(p)
    bounds = bounds_report(p)
    conv = args.lambda_convention
    other = "perp" if conv == "n" else "n"
    return {
        "command": "analyze",
        "pair": pair,
        "algebra": {
            "rank": rs.rank,
            "dimension": rs.dim,
            "root_count": len(rs.roots),
            "weyl_order": rs.weyl_order,
            "adjoint_k_types": [[m, c] for m, c in emb.decomposition.counts],
        },
        "parabolic": {
            "n_weights": list(p.n_weights),
            "r": p.r,
            "s": p.s,
            "m_root_count": len(p.m_roots),
            "rho_tilde_n": weight_coords(p.rho_tilde_n),
            "rho_tilde_adapted": weight_coords(p.rho_tilde_adapted),
        },
        "invariants": {
            "rho_n": rational(inv.rho_n),
            "rho": inv.rho,
            "two_rho_n_perp": inv.two_rho_n_perp,
            "lambda1_n": inv.lambda1_n,
            "lambda2_n": inv.lambda2_n,
            "lambda2_n_defaulted": inv.lambda2_n_defaulted,
            "lambda1_perp": inv.lambda1_perp,
            "lambda2_perp": inv.lambda2_perp,
            "lambda1_perp_defaulted": inv.lambda1_perp_defaulted,
            "lambda2_perp_defaulted": inv.lambda2_perp_defaulted,
        },
        "bounds": {
            "convention": conv,
            "weak": _threshold_doc(bounds.weak),
            "socle_simplicity": _threshold_doc(bounds.socle_simplicity(conv)),
            "strong": _threshold_doc(bounds.strong(conv)),
            "genericity": _threshold_doc(bounds.genericity),
            "prior_work": _threshold_doc(bounds.prior_work),
            "prior_work_coefficients": (
                None
                if bounds.prior_work_coefficients is None
                else [rational(c) for c in bounds.prior_work_coefficients]
            ),
            "other_convention": {
                "name": other,
                "socle_simplicity": _threshold_doc(bounds.socle_simplicity(other)),
                "strong": _threshold_doc(bounds.strong(other)),
            },
        },
    }


def cmd_character(args) -> dict:
    pair, emb, p = _resolve_pair(args)
    cutoff = _cutoff(args)
    mu, dim_e = args.mu, args.dim_e
    n_rows, k_rows = _character_mults(p, mu, dim_e, cutoff, args.allow_virtual)
    return {
        "command": "character",
        "pair": pair,
        "mu": mu,
        "omega": mu - p.two_rho_n_perp,
        "dim_e": dim_e,
        "cutoff": cutoff,
        "t_character_N": {
            "min_weight": mu + 2,
            "window_hi": cutoff,
            "mults": IntRows(n_rows),
        },
        "k_character_F1": {
            "virtual": mu < 0,
            "mults": IntRows(k_rows),
        },
    }


def _element_doc(element, orbit_id=None) -> dict:
    doc = {
        "mu": rational(element.mu),
        "omega": rational(element.omega),
        "nu": weight_coords(element.nu),
        "w_length": element.w.length,
        "dim_e": element.dim_e,
        "merged_count": element.merged_count,
    }
    if orbit_id is not None:
        doc["orbit_id"] = orbit_id
    return doc


def cmd_block(args) -> dict:
    pair, emb, p = _resolve_pair(args)
    kappa = Weight(parse_rationals(args.kappa))
    central, matrix = _block_query(kappa, p)
    return {
        "command": "block",
        "pair": pair,
        "kappa": weight_coords(kappa),
        "central_character": {
            "representative": weight_coords(central.representative),
            "regular": central.regular,
            "integral": central.integral,
            "orbit_size": central.orbit_size,
        },
        "integral_group_order": matrix.integral_group_order,
        "elements": [
            _element_doc(e, oid) for e, oid in zip(matrix.elements, matrix.orbit_ids)
        ],
        "m_matrix": [list(row) for row in matrix.m_matrix],
        "p_matrix": [list(row) for row in matrix.p_matrix],
    }


def cmd_socle(args) -> dict:
    pair, emb, p = _resolve_pair(args)
    cutoff = _cutoff(args)
    mu = args.mu
    kappa = Weight(parse_rationals(args.kappa))
    _, matrix = _block_query(kappa, p)
    hits = [e for e in matrix.elements if e.mu == mu]
    if not hits:
        mus = ", ".join(str(rational(e.mu)) for e in matrix.elements)
        raise InvalidInput(f"no block element with mu = {mu}; present: {mus}")
    if len(hits) > 1:
        raise InvalidInput(f"mu = {mu} is shared by {len(hits)} block elements")
    result = socle_k_character(p, matrix, hits[0], cutoff)
    character = result.character
    return {
        "command": "socle",
        "pair": pair,
        "kappa": weight_coords(kappa),
        "mu": mu,
        "cutoff": cutoff,
        "element": _element_doc(result.element),
        "genuine_socle": result.genuine_socle,
        "regime": (
            "socle of the series module"
            if result.genuine_socle
            else "derived-functor character of the simple submodule"
        ),
        "character": {
            "mults": IntRows(character_pairs(character.mults)),
            "multiplicity_free": character.is_multiplicity_free(),
            "lowest_k_type": character.support_min(),
        },
    }


def cmd_iwasawa(args) -> dict:
    c = parse_rationals(args.c)
    if len(c) != 1:
        raise InvalidInput(f"--c takes one rational, got {_excerpt(args.c)}")
    support = iwasawa_sl3_support(args.a, c[0])
    return {
        "command": "iwasawa",
        "a": support.a,
        "c": rational(support.c),
        "b_values": [rational(b) for b in support.b_values],
        "k_multiplicity": support.k_multiplicity,
    }


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() on the first main() call; parse_args keeps no state between calls."""
    return build_parser()


def _attach_values(argv) -> list[str]:
    """Rewrite "--kappa VALUE" and "--c VALUE" as "--kappa=VALUE" and "--c=VALUE".

    argparse reads a value such as -1/2,3/2 as an option of its own; the
    attached spelling keeps negative rationals working.  argparse also takes
    any unambiguous prefix of an option, so "--kap VALUE" is attached too.
    """
    out: list[str] = []
    for token in argv:
        last = out[-1] if out else ""
        takes_value = last == "--c" or (len(last) > 2 and "--kappa".startswith(last))
        if takes_value and not token.startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    try:
        # An integer option past its digit ceiling raises out of parse_args.
        args = _parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
        doc = args.run(args)
        text = render_json(doc) if args.format == "json" else render_table(doc)
    except GhcseriesError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    sys.stdout.write(text)
    return 0
