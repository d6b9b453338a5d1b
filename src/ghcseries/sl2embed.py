"""sl(2)-subalgebras given by a defining semisimple element.

An embedding k = span{e, h, f} in g is recorded through the epsilon-basis
coordinate vector of h and the integer grading alpha -> alpha(h) of the
roots, computed once when the embedding is validated.  The t-character
of g and its decomposition into irreducible sl(2)-summands are read off
that grading.
The character map types of the library (t-characters, and k-characters
as their subclass) live here too, below every module that builds them.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .errors import (
    InternalInconsistency,
    InvalidInput,
    NoSl2Triple,
    NonIntegralGrading,
    NotARoot,
    NotIntegrable,
    WindowTooNarrow,
    _excerpt,
)
from .record import Record
from .report import rational
from .rootsys import RootSystem, Weight, _int_root, _scale, _scaled, _unscaled, inner_product


class Sl2Embedding(Record):
    """An sl(2) in g by its defining vector h; grading[i] is rs.roots[i](h)."""

    def __init__(self, rs: RootSystem, h_vector: Weight, kind: str, grading: tuple[int, ...],
                 decomposition: Sl2Decomposition):
        self._set("rs", rs)
        self._set("h_vector", h_vector)
        self._set("kind", kind)  # "principal" | "root" | "vector"
        self._set("grading", grading)
        self._set("decomposition", decomposition)  # of t_character_of_g, peeled on validation


class TruncatedTCharacter:
    """Map integer label -> multiplicity, trusted on a window (lo, hi).

    The labels are t-weights here and k-types in KCharacter.  A None
    endpoint means the character is exactly known arbitrarily far on
    that side; lookups outside the trusted window raise WindowTooNarrow
    so truncation can never masquerade as vanishing.
    """

    def __init__(self, mults, window=(None, None), virtual: bool = False):
        lo, hi = window
        clean: dict[int, int] = {}
        for w, c in mults.items():
            w, c = int(w), int(c)
            if c == 0:
                continue
            if c < 0 and not virtual:
                raise InvalidInput("negative multiplicity in a non-virtual character")
            if (lo is not None and w < lo) or (hi is not None and w > hi):
                raise InvalidInput(f"entry at {w} outside the trusted window {window}")
            clean[w] = c
        self.mults = clean
        self.window = (lo, hi)
        self.virtual = bool(virtual)

    def mult(self, x: int) -> int:
        _check_window(x, self.window)
        return self.mults.get(x, 0)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.mults.items())

    def total(self) -> int:
        if self.window != (None, None):
            raise WindowTooNarrow(f"the total needs the whole character, not {self.window}")
        return sum(self.mults.values())

    def is_symmetric(self) -> bool:
        return all(self.mult(-w) == c for w, c in self.mults.items())

    def __eq__(self, other) -> bool:
        return (
            type(self) is type(other)
            and self.mults == other.mults
            and self.window == other.window
            and self.virtual == other.virtual
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({dict(self.items())}, window={self.window}, "
            f"virtual={self.virtual})"
        )


def _check_window(x: int, window: tuple[int | None, int | None]) -> None:
    """Raise WindowTooNarrow unless x lies in the trusted window (lo, hi)."""
    lo, hi = window
    if lo is not None and x < lo:
        raise WindowTooNarrow(f"weight {x} below the trusted window {window}")
    if hi is not None and x > hi:
        raise WindowTooNarrow(f"weight {x} above the trusted window {window}")


class KCharacter(TruncatedTCharacter):
    """Map delta -> multiplicity of the k-type V(delta), trusted through cutoff.

    cutoff None means the character is finite and completely known.
    Negative multiplicities require virtual=True.
    """

    def __init__(self, mults, cutoff: int | None = None, virtual: bool = False):
        if any(int(delta) < 0 for delta in mults):
            raise InvalidInput("k-types are labeled by nonnegative integers")
        super().__init__(mults, window=(None, cutoff), virtual=virtual)

    @property
    def cutoff(self) -> int | None:
        return self.window[1]

    def mult(self, delta: int) -> int:
        if delta < 0:
            raise InvalidInput("k-types are labeled by nonnegative integers")
        return super().mult(delta)

    def support_min(self) -> int | None:
        return min(self.mults) if self.mults else None

    def is_multiplicity_free(self) -> bool:
        return all(c == 1 for c in self.mults.values())


class Sl2Decomposition(Record):
    """counts[m] = number of irreducible summands of highest weight m."""

    def __init__(self, counts: tuple[tuple[int, int], ...]):
        self._set("counts", counts)

    def dimension(self) -> int:
        return sum(c * (m + 1) for m, c in self.counts)


def from_defining_vector(rs: RootSystem, h) -> Sl2Embedding:
    """Validate and wrap an explicit defining vector.

    Necessary conditions only: integral grading, nonzero weight-2 space,
    nonnegative weight-string peeling.
    """
    h_vec = h if isinstance(h, Weight) else Weight.of(*h)
    if len(h_vec.coords) != rs.ambient:
        raise InvalidInput(
            f"defining vector has length {len(h_vec.coords)}, ambient is {rs.ambient}"
        )
    return _validated(rs, h_vec, kind="vector")


def _validated(rs: RootSystem, h_vec: Weight, kind: str) -> Sl2Embedding:
    # alpha(h) = <alpha, den * h> / den over integral roots: one int dot
    # product and one divisibility test per root.
    den = _scale((), h_vec)
    h_num = _scaled(h_vec, den)
    values = []
    for alpha in rs.roots:
        v = sum(map(mul, _int_root(alpha)[0], h_num))
        if v % den:
            raise NonIntegralGrading(
                f"root {_point(alpha)} evaluates to non-integer {Fraction(v, den)}"
            )
        values.append(v // den)
    e = Sl2Embedding(rs, h_vec, kind, tuple(values), decomposition=None)
    ch = t_character_of_g(e)
    if ch.mult(2) < 1:
        raise NoSl2Triple("the weight-2 space of the grading is zero")
    # sl2_decomposition raises NotIntegrable on negative peeling.
    return Sl2Embedding(rs, h_vec, kind, e.grading, sl2_decomposition(ch))


def from_principal(rs: RootSystem) -> Sl2Embedding:
    """h = 2 rho^vee, the sum of the positive coroots 2 alpha / <alpha, alpha>.

    Every simple root is 2 on it (Kostant, The principal three-dimensional
    subgroup..., 1959), and it lies in the span of the roots, which fixes it.
    """
    den = _scale(rs.simple_roots)  # the lcm of every root norm
    h = [0] * rs.ambient
    for alpha in rs.positive_roots:
        coords, norm = _int_root(alpha)
        for i, c in enumerate(coords):
            h[i] += 2 * den // norm * c
    return _validated(rs, _unscaled(h, den), kind="principal")


def from_root(rs: RootSystem, beta) -> Sl2Embedding:
    """Embedding generated by the root spaces of +-beta; h is the coroot."""
    beta_w = beta if isinstance(beta, Weight) else Weight.of(*beta)
    try:
        index = rs.roots.index(beta_w)
    except ValueError:
        raise NotARoot(f"{_excerpt(_point(beta_w), quote=str)} is not a root") from None
    h_vec = beta_w.scaled(Fraction(2) / inner_product(beta_w, beta_w))
    emb = _validated(rs, h_vec, kind="root")
    if emb.grading[index] != 2:
        raise InternalInconsistency("coroot normalization failed")
    return emb


def _point(w: Weight) -> str:
    """Exact coordinates for messages: (1, -1/2), not Fraction reprs."""
    return "(" + ", ".join(str(rational(c)) for c in w.coords) + ")"


def t_character_of_g(e: Sl2Embedding) -> TruncatedTCharacter:
    """Each root contributes at alpha(h); the Cartan contributes rank at 0."""
    mults: dict[int, int] = {0: e.rs.rank}
    for v in e.grading:
        mults[v] = mults.get(v, 0) + 1
    return TruncatedTCharacter(mults)


def sl2_decomposition(ch: TruncatedTCharacter) -> Sl2Decomposition:
    """Weight-string peeling: counts(m) = ch(m) - ch(m+2), all >= 0."""
    if not ch.is_symmetric():
        raise InvalidInput("t-character must be symmetric to peel")
    top = max(ch.mults) if ch.mults else 0
    counts = []
    for m in range(top, -1, -1):
        c = ch.mult(m) - ch.mult(m + 2)
        if c < 0:
            raise NotIntegrable(
                f"peeling failed: multiplicity drop {c} at weight {m}"
            )
        if c:
            counts.append((m, c))
    dec = Sl2Decomposition(counts=tuple(sorted(counts)))
    if dec.dimension() != ch.total():
        raise InternalInconsistency("peeling lost or gained dimension")
    return dec


def expand_decomposition(dec: Sl2Decomposition) -> TruncatedTCharacter:
    """Inverse of peeling; used as a round-trip check."""
    mults: dict[int, int] = {}
    for m, c in dec.counts:
        for w in range(-m, m + 1, 2):
            mults[w] = mults.get(w, 0) + c
    return TruncatedTCharacter(mults)


def is_regular(e: Sl2Embedding) -> bool:
    """True iff no root vanishes on h, i.e. the centralizer of t is a Cartan."""
    return 0 not in e.grading
