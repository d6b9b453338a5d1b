"""Cohomology shadows of k-characters for k isomorphic to sl(2).

The n_k-cohomology of a k-type V(delta) sits in degrees 0 and 1 at
t-weights delta and -delta-2, so the cohomology of a whole k-character
is again a weight multiset.  On top of that the first page of the
n-cohomology spectral sequence and the mu-regimes in which its top
degree collapses are computed.  Those two read the cohomology straight
off the k-character's map, in the trusted windows nk_cohomology gives
its two degrees, instead of building the degree characters, and read
the exterior powers of n-perp from one table per weight multiset.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .errors import IndexOutOfRange, InvalidInput, VirtualNotAllowed
from .parabolic import CompatibleParabolic, invariants
from .sl2embed import KCharacter, TruncatedTCharacter, _check_window


def _cohomology_windows(M: KCharacter):
    """Trusted windows of degrees 0 and 1; a virtual M has no cohomology."""
    if M.virtual:
        raise VirtualNotAllowed("n_k-cohomology needs a genuine character")
    cut = M.cutoff
    return (None, cut), (None if cut is None else -cut - 2, None)


def nk_cohomology(M: KCharacter) -> tuple[TruncatedTCharacter, TruncatedTCharacter]:
    """Degree 0 at delta and degree 1 at -delta-2, per k-type V(delta).

    This is the rank-1 case of Kostant's theorem: n_k is the line
    through e, and the Koszul complex 0 -> V -> Hom(n_k, V) -> 0 leaves
    the extreme weight spaces delta and -delta-2.
    """
    window0, window1 = _cohomology_windows(M)
    h1 = {-delta - 2: c for delta, c in M.mults.items()}
    return (
        TruncatedTCharacter(M.mults, window=window0),
        TruncatedTCharacter(h1, window=window1),
    )


def _exterior_powers(weights) -> tuple[dict[int, int], ...]:
    """exterior_weights for every degree 0..len(weights), in one pass.

    Degree j is only ever written from degree j - 1, so each layer, in
    its dict order too, is what a pass stopped at j would give.
    """
    top = len(weights)
    layers: list[dict[int, int]] = [{} for _ in range(top + 1)]
    layers[0] = {0: 1}
    for w in weights:
        for deg in range(top, 0, -1):
            for wt, c in layers[deg - 1].items():
                layers[deg][wt + w] = layers[deg].get(wt + w, 0) + c
    return tuple(layers)


def exterior_weights(weights, j: int) -> dict[int, int]:
    """Weight multiplicities of the j-th exterior power of a sum of lines.

    Coefficient of q^j in the product of (1 + q x^w) over the multiset,
    each line its own factor; a fresh dict on every call.
    """
    weights = tuple(weights)
    if j < 0 or j > len(weights):
        return {}
    return _exterior_powers(weights)[j]


# Exterior powers of each n-perp weight multiset seen so far in this
# process.  Total rank is capped at MAX_TOTAL_RANK = 4 and every n-weight
# is bounded by dim g, so the keys are finite and nothing is ever evicted.
_PERP_POWERS: dict[tuple[int, ...], tuple[dict[int, int], ...]] = {}


def e1_page_dimension(
    M: KCharacter, p: CompatibleParabolic, j: int, kappa: int
) -> int:
    """Dimension of the weight-kappa space of the j-th first-page term.

    The term is H0 tensor the j-th exterior power of the dual of the
    complement of the e-line in n, plus H1 tensor the (j-1)-st; dual
    exterior weights are negated sub-multiset sums, so H-lookups happen
    at kappa plus the positive sums.  H0 at x is M's multiplicity at x,
    H1 at y is M's at -y-2, each checked against its nk_cohomology
    window, so no degree character is built.  Both exterior powers come
    from _PERP_POWERS, built on the first lookup for the perp multiset.
    """
    r = p.r
    if j < 0 or j > r + 1:
        raise IndexOutOfRange(f"degree {j} outside [0, {r + 1}]")
    window0, window1 = _cohomology_windows(M)
    perp = p.n_perp_weights()
    powers = _PERP_POWERS.get(perp)
    if powers is None:
        powers = _PERP_POWERS[perp] = _exterior_powers(perp)
    mults = M.mults
    total = 0
    for wt, c in (powers[j] if j <= len(perp) else {}).items():
        x = kappa + wt
        _check_window(x, window0)
        total += c * mults.get(x, 0)
    for wt, c in (powers[j - 1] if j >= 1 else {}).items():
        y = kappa + wt
        _check_window(y, window1)
        total += c * mults.get(-y - 2, 0)
    return total


def top_n_vanishing(M: KCharacter, p: CompatibleParabolic, kappa: int) -> bool:
    """Sufficient condition for the top n-cohomology to vanish at kappa.

    True iff the degree-1 n_k-cohomology vanishes at kappa shifted by
    the weight of the top exterior power of the complement of e in n.
    H1 is read off M, as in e1_page_dimension.
    """
    _, window1 = _cohomology_windows(M)
    y = kappa + p.two_rho_n_perp
    _check_window(y, window1)
    return M.mults.get(-y - 2, 0) == 0


class Regime(Enum):
    EQUALITY = "equality"
    UPPER_BOUND = "upper_bound"
    NONE = "none"


def top_degree_regime(
    p: CompatibleParabolic, mu: int, convention: str = "n"
) -> Regime:
    """Regime for reading the top-degree n-cohomology off H0(n_k, .) at mu.

    EQUALITY: mu >= (lambda1 + lambda2)/2, the two dimensions agree.
    UPPER_BOUND: lambda1/2 <= mu below that; H0 only bounds from above.
    NONE: below both thresholds.
    """
    if mu < 0:
        raise InvalidInput("the regime is defined for mu >= 0")
    l1, l2 = invariants(p).lambdas(convention)
    if Fraction(mu) >= Fraction(l1 + l2, 2):
        return Regime.EQUALITY
    if Fraction(mu) >= Fraction(l1, 2):
        return Regime.UPPER_BOUND
    return Regime.NONE
