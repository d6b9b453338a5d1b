"""The text form of a pair (g, k) and the named example pairs built from it.

A pair is an algebra string (C2, A1+A1) and an embedding string
(principal, root:COORDS, vector:COORDS); the command line and every
fixture build their pairs from these strings through the same parsers.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InvalidInput, UnsupportedRegime, _excerpt
from .parabolic import CompatibleParabolic, minimal_parabolic
from .record import Record
from .rootsys import RootSystem, Weight, build_root_system
from .sl2embed import Sl2Embedding, from_defining_vector, from_principal, from_root

_ALGEBRA_PART = re.compile(r"([A-Za-z])([0-9]+)")
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)

# Ceiling on one rational: the digits of its text plus the size of its
# exponent.  It is checked before Fraction runs: past it "1e5000" would
# fail when printed (Python's 4300-digit limit on int to str), and
# "1e999999999" would build 10**999999999 first.
MAX_RATIONAL_DIGITS = 100


def parse_algebra(text: str) -> tuple[tuple[str, int], ...]:
    parts = []
    for chunk in text.split("+"):
        m = _ALGEBRA_PART.fullmatch(chunk.strip())
        if not m:
            raise InvalidInput(
                f"cannot parse algebra component {_excerpt(chunk)}; expected e.g. C2 or A1+A1"
            )
        parts.append((m.group(1).upper(), int(m.group(2))))
    return tuple(parts)


def _rational(chunk: str) -> Fraction:
    size = sum(c.isdigit() for c in chunk)
    # int() refuses texts past 4300 digits: read no exponent past the ceiling.
    exponent = _EXPONENT.search(chunk) if size <= MAX_RATIONAL_DIGITS else None
    if exponent:
        size += abs(int(exponent.group(1)))
    if size > MAX_RATIONAL_DIGITS:
        raise UnsupportedRegime(
            f"rational with more than {MAX_RATIONAL_DIGITS} digits, exponent included"
        )
    try:
        return Fraction(chunk)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"cannot parse rational {_excerpt(chunk)}") from None


def parse_rationals(text: str) -> tuple[Fraction, ...]:
    return tuple(_rational(chunk) for chunk in text.split(","))


def parse_embedding(text: str, rs: RootSystem) -> Sl2Embedding:
    if text == "principal":
        return from_principal(rs)
    if text.startswith("root:"):
        return from_root(rs, Weight(parse_rationals(text[len("root:"):])))
    if text.startswith("vector:"):
        return from_defining_vector(rs, Weight(parse_rationals(text[len("vector:"):])))
    raise InvalidInput(
        f"cannot parse embedding {_excerpt(text)}; expected principal, root:..., or vector:..."
    )


class FixturePair(Record):
    """A named pair, given by its --algebra and --embedding strings."""

    def __init__(self, name: str, algebra: str, embedding: str, summary: str):
        self._set("name", name)
        self._set("algebra", algebra)
        self._set("embedding", embedding)
        self._set("summary", summary)

    def build_parabolic(self) -> CompatibleParabolic:
        rs = build_root_system(parse_algebra(self.algebra))
        return minimal_parabolic(parse_embedding(self.embedding, rs))


FIXTURES: dict[str, FixturePair] = {
    pair.name: pair
    for pair in (
        FixturePair(
            "sl2xsl2-diagonal", "A1+A1", "principal", "diagonal sl(2) in sl(2) x sl(2)"
        ),
        FixturePair("sl3-root", "A2", "root:1,-1,0", "root sl(2) in sl(3)"),
        FixturePair("sl3-principal", "A2", "principal", "principal sl(2) in sl(3)"),
        FixturePair("sp4-long", "C2", "root:2,0", "long-root sl(2) in sp(4)"),
        FixturePair("sp4-short", "C2", "root:1,-1", "short-root sl(2) in sp(4)"),
        FixturePair("sp4-principal", "C2", "principal", "principal sl(2) in sp(4)"),
    )
}


def get_fixture(name: str) -> FixturePair:
    try:
        return FIXTURES[name]
    except KeyError:
        known = ", ".join(sorted(FIXTURES))
        raise InvalidInput(f"unknown fixture {_excerpt(name)}; available: {known}") from None
