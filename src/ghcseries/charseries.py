"""Vector partition counts and the characters of the series modules.

The produced module N_p(E) has t-character dim E times the colored
partition count of the n-weights, shifted to start at mu + 2; the
degree-one functor image F1(p, E) has k-character given by first
differences of the same table.  The alternating-sum (Euler) character
of the derived functors is computed from a four-term window identity
that the test suite validates against an independent Koszul-complex
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InternalInconsistency,
    InvalidInput,
    OutOfRegime,
    UnsupportedRegime,
    WindowTooNarrow,
)
from .parabolic import CompatibleParabolic
from .sl2embed import KCharacter, TruncatedTCharacter


@dataclass(frozen=True)
class ModuleDatumE:
    """Simple finite-dimensional p-module datum; t acts via omega."""

    omega: int
    dim_e: int = 1

    def __post_init__(self):
        if self.dim_e < 1:
            raise InvalidInput("dim E must be a positive integer")


# Ceiling on partition lists and cutoffs.  The heaviest rank-4 character
# (B4, highest root, mu 0) takes 0.09 s and peaks at 37 MB at cutoff 20,000
# and 125 MB at 100,000 (fresh process, 2-core AMD EPYC, Python 3.11).
MAX_CUTOFF = 20_000


def _partition_counts(weights, limit: int) -> list[int]:
    """Colored vector partition counts of 0, 1, ..., limit, built in one pass.

    Entry x counts multisets drawn from the weights, each entry of the
    defining multiset its own unbounded color, summing to x.  A negative
    limit gives the empty list; a limit above MAX_CUTOFF raises
    UnsupportedRegime before anything is allocated.
    """
    _check_ceiling(limit)
    ws = [int(w) for w in weights]
    if any(w <= 0 for w in ws):
        raise InvalidInput("partition weights must be positive")
    counts = [1] + [0] * limit if limit >= 0 else []
    for w in ws:
        for y in range(w, limit + 1):
            counts[y] += counts[y - w]
    return counts


def _check_ceiling(limit: int) -> None:
    if limit > MAX_CUTOFF:
        raise UnsupportedRegime(
            f"partition list through {limit} exceeds the ceiling {MAX_CUTOFF}"
        )


def partition_function(weights, x: int) -> int:
    """Colored partition count of x over the given positive multiset."""
    counts = _partition_counts(weights, x)
    return counts[-1] if counts else 0


def t_character_N(
    p: CompatibleParabolic, E: ModuleDatumE, cutoff: int
) -> TruncatedTCharacter:
    """t-character of the produced module, trusted through cutoff.

    The minimum t-weight is mu + 2 with multiplicity dim E; above it the
    multiplicity at x is dim E times the partition count of x - mu - 2.
    """
    mu = E.omega + p.two_rho_n_perp
    counts = _partition_counts(p.n_weights, cutoff - mu - 2)
    mults = _t_mults(mu, E.dim_e, counts, len(counts))
    return TruncatedTCharacter(mults, window=(None, cutoff))


def _t_mults(mu: int, dim_e: int, counts: list[int], size: int) -> dict[int, int]:
    """t-character multiplicities read off the first size entries of a partition list.

    Entry i of counts is the partition count of i, so it sits at t-weight
    mu + 2 + i; zero entries are left out, and a size <= 0 reads nothing.
    """
    return {mu + 2 + i: dim_e * counts[i] for i in range(size) if counts[i]}


def euler_k_character(N: TruncatedTCharacter, cutoff: int) -> KCharacter:
    """Alternating-sum character of the derived functors, as virtual.

    The coefficient of V(delta), delta >= 0, is
        m(delta) + m(-delta) - m(delta+2) - m(-delta-2),
    which reads 2 m(0) - m(2) - m(-2) at delta = 0; it is the Euler
    characteristic of the two-step relative Koszul complex of k over t
    with coefficients in N.
    """
    lo, hi = N.window
    if hi is not None and hi < cutoff + 2:
        raise WindowTooNarrow(
            f"need t-weights through {cutoff + 2}, trusted only to {hi}"
        )
    if lo is not None and lo > -cutoff - 2:
        raise WindowTooNarrow(
            f"need t-weights down to {-cutoff - 2}, trusted only from {lo}"
        )
    mults: dict[int, int] = {}
    for delta in range(0, cutoff + 1):
        c = N.mult(delta) + N.mult(-delta) - N.mult(delta + 2) - N.mult(-delta - 2)
        if c:
            mults[delta] = c
    return KCharacter(mults, cutoff=cutoff, virtual=True)


def f1_k_character(
    p: CompatibleParabolic, E: ModuleDatumE, cutoff: int
) -> KCharacter:
    """k-character of the degree-one functor image, valid for mu >= 0.

    In that regime the degree-0 and degree-2 images vanish, so the Euler
    character is minus this one; the multiplicity of V(delta) is dim E
    times the first difference of the partition table at delta - mu.
    """
    mu = _f1_mu(p, E, cutoff)
    counts = _partition_counts(p.n_weights, cutoff - mu)
    return KCharacter(_f1_mults(mu, E.dim_e, counts), cutoff=cutoff, virtual=False)


def _f1_mu(p: CompatibleParabolic, E: ModuleDatumE, cutoff: int) -> int:
    """mu of F1(p, E), refused below 0 and where its list would pass MAX_CUTOFF."""
    mu = E.omega + p.two_rho_n_perp
    if mu < 0:
        raise OutOfRegime(
            f"mu = {mu} < 0: lower and upper degrees need not vanish there"
        )
    _check_ceiling(cutoff - mu)
    return mu


def _f1_mults(mu: int, dim_e: int, counts: list[int]) -> dict[int, int]:
    """F1 multiplicities from the whole partition list through cutoff - mu.

    V(mu + i) has dim E times counts[i] - counts[i - 2]; zero entries are
    left out.
    """
    mults: dict[int, int] = {}
    for i, count in enumerate(counts):
        c = dim_e * (count - (counts[i - 2] if i >= 2 else 0))
        if c < 0:
            raise InternalInconsistency("negative multiplicity in a genuine character")
        if c:
            mults[mu + i] = c
    return mults


def _f1_combination(p: CompatibleParabolic, terms, cutoff: int) -> dict[int, int]:
    """sum coeff ch_k F1(p, E) through cutoff over the (coeff, E) terms, each
    checked in turn first; F1 of E reads the prefix through cutoff - mu_E of
    one partition list through cutoff - min mu_E."""
    checked = [(coeff, _f1_mu(p, E, cutoff), E.dim_e) for coeff, E in terms]
    low = min((mu for _, mu, _ in checked), default=cutoff + 1)
    counts = _partition_counts(p.n_weights, cutoff - low)
    accum: dict[int, int] = {}
    for coeff, mu, dim_e in checked:
        # A negative stop would keep entries, so clamp it at 0.
        for delta, c in _f1_mults(mu, dim_e, counts[: max(cutoff - mu + 1, 0)]).items():
            accum[delta] = accum.get(delta, 0) + coeff * c
    return accum


def _character_mults(p, mu: int, dim_e: int, cutoff: int, allow_virtual: bool):
    """N's t- and F1's k-multiplicities through cutoff; for mu < 0, allowed only
    with allow_virtual, the negated Euler character stands in for F1.

    One partition list through cutoff - mu serves both: N is its prefix
    through cutoff - mu - 2, while F1, and the Euler character's N through
    cutoff + 2, read all of it.
    """
    ModuleDatumE(omega=mu - p.two_rho_n_perp, dim_e=dim_e)  # refuses dim E < 1
    if mu < 0 and not allow_virtual:
        raise OutOfRegime(f"mu = {mu} < 0 has no vanishing guarantee; pass --allow-virtual")
    counts = _partition_counts(p.n_weights, cutoff - mu)
    t_mults = _t_mults(mu, dim_e, counts, cutoff - mu - 1)
    if mu >= 0:
        return t_mults, _f1_mults(mu, dim_e, counts)
    n_char = TruncatedTCharacter(_t_mults(mu, dim_e, counts, len(counts)), window=(None, cutoff + 2))
    return t_mults, {d: -c for d, c in euler_k_character(n_char, cutoff).mults.items()}
