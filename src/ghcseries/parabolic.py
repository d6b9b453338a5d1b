"""Minimal compatible parabolic p = m + n and its numerical invariants.

The defining vector h grades g; n is spanned by the root spaces with
alpha(h) > 0 and m is the centralizer of t, so p is minimal by
construction.  Everything downstream (genericity, reconstruction
thresholds, block parameters) is a function of the multiset of values
alpha(h) over n together with the adapted positive system.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction
from operator import add

from .errors import InternalInconsistency, InvalidInput, _excerpt
from .record import Record
from .rootsys import RootSystem, Weight, _half_sum, _int_coords, inner_product, lex_positive
from .sl2embed import Sl2Embedding


class CompatibleParabolic(Record):
    """p = m + n attached to the grading by the defining vector."""

    def __init__(self, embedding: Sl2Embedding, n_roots: tuple[Weight, ...],
                 m_roots: tuple[Weight, ...], n_weights: tuple[int, ...],
                 m_positive_roots: tuple[Weight, ...], adapted_positive_roots: tuple[Weight, ...],
                 rho_tilde_n: Weight, rho_tilde_adapted: Weight):
        self._init(locals())

    @property
    def s(self) -> int:
        # n meets k exactly in the line through e.
        return 1

    @property
    def r(self) -> int:
        return len(self.n_roots) - 1

    @property
    def two_rho_n_perp(self) -> int:
        """Shift from the t-weight omega of E to its minimal k-type mu."""
        return sum(self.n_weights) - 2

    def n_perp_weights(self) -> tuple[int, ...]:
        """t-weights on the complement of the e-line inside n."""
        weights = list(self.n_weights)
        try:
            weights.remove(2)
        except ValueError:
            raise InternalInconsistency("n carries no weight-2 root") from None
        return tuple(weights)


def minimal_parabolic(e: Sl2Embedding) -> CompatibleParabolic:
    """Split the roots by the sign of alpha(h); m is the zero part."""
    rs = e.rs
    graded: list[tuple[int, Weight]] = []
    m_roots: list[Weight] = []
    for v, alpha in zip(e.grading, rs.roots):
        if v > 0:
            graded.append((v, alpha))
        elif v == 0:
            m_roots.append(alpha)
    graded.sort(key=lambda pair: (pair[0], _int_coords(pair[1])))
    m_roots.sort(key=_int_coords)
    n_roots = tuple(alpha for _, alpha in graded)
    n_weights = tuple(v for v, _ in graded)
    if not n_roots:
        raise InternalInconsistency("validated embeddings grade at least one root positively")
    if 2 * len(n_roots) + len(m_roots) + rs.rank != rs.dim:
        raise InternalInconsistency("root grading lost dimensions")
    m_positive = tuple(a for a in m_roots if lex_positive(a))
    rho_tilde_n = _half_sum(n_roots, rs.ambient)
    rho_tilde_adapted = rho_tilde_n + _half_sum(m_positive, rs.ambient)
    return CompatibleParabolic(
        embedding=e,
        n_roots=n_roots,
        m_roots=tuple(m_roots),
        n_weights=n_weights,
        m_positive_roots=m_positive,
        adapted_positive_roots=n_roots + m_positive,
        rho_tilde_n=rho_tilde_n,
        rho_tilde_adapted=rho_tilde_adapted,
    )


def _by_convention(convention: str, n_value, perp_value):
    """The value read off n, or off n minus the e-line, as the convention asks."""
    if convention == "n":
        return n_value
    if convention == "perp":
        return perp_value
    raise InvalidInput(f"unknown lambda convention {_excerpt(convention)}")


class ParabolicInvariants(Record):
    """Scalar invariants of p; lambda pairs carried in both conventions."""

    def __init__(self, rho_n: Fraction, rho: int, two_rho_n_perp: int, lambda1_n: int,
                 lambda2_n: int, lambda1_perp: int, lambda2_perp: int, lambda2_n_defaulted: bool,
                 lambda1_perp_defaulted: bool, lambda2_perp_defaulted: bool):
        self._init(locals())

    def lambdas(self, convention: str = "n") -> tuple[int, int]:
        n = (self.lambda1_n, self.lambda2_n)
        return _by_convention(convention, n, (self.lambda1_perp, self.lambda2_perp))


def _max_submax(weights: Sequence[int], fallback: int) -> tuple[int, int, bool, bool]:
    """(max, submax, max_defaulted, submax_defaulted) with multiplicity.

    An empty multiset falls back for the maximum; a singleton repeats the
    maximum as the submaximum.  Both degenerate cases are flagged.
    """
    ordered = sorted(weights, reverse=True)
    if not ordered:
        return fallback, fallback, True, True
    if len(ordered) == 1:
        return ordered[0], ordered[0], False, True
    return ordered[0], ordered[1], False, False


def invariants(p: CompatibleParabolic) -> ParabolicInvariants:
    perp = p.n_perp_weights()
    if sum(perp) != p.two_rho_n_perp:
        raise InternalInconsistency("weight of the top exterior power drifted")
    l1n, l2n, _, l2n_def = _max_submax(p.n_weights, 0)
    l1p, l2p, l1p_def, l2p_def = _max_submax(perp, 0)
    if l1n < l1p:
        raise InternalInconsistency("dropping the e-line increased the maximum weight")
    return ParabolicInvariants(
        rho_n=Fraction(sum(p.n_weights), 2),
        rho=1,
        two_rho_n_perp=p.two_rho_n_perp,
        lambda1_n=l1n,
        lambda2_n=l2n,
        lambda1_perp=l1p,
        lambda2_perp=l2p,
        lambda2_n_defaulted=l2n_def,
        lambda1_perp_defaulted=l1p_def,
        lambda2_perp_defaulted=l2p_def,
    )


class GenericityResult(Record):
    def __init__(self, mu: int, generic: bool, witness: tuple[int, ...] | None,
                 closed_form_threshold: Fraction, rho_n_integral: bool):
        self._init(locals())


def genericity_scan(n_weights: Sequence[int], mu: int) -> tuple[bool, tuple[int, ...] | None]:
    """Definitional genericity test over submultisets of the n-weights.

    Checks (mu + 2 - rho_S) * rho_S > 0 for every nonempty submultiset S
    (the empty S is excluded: rho_S = 0 makes the product vacuously
    nonpositive), then the scalar comparison of mu + 2 against rho_n for
    the weight-2 line.  Returns a violating S as witness on failure.
    """
    distinct = sorted(set(n_weights))
    counts = [list(n_weights).count(v) for v in distinct]
    for combo in itertools.product(*(range(c + 1) for c in counts)):
        if not any(combo):
            continue
        rho_s = Fraction(sum(v * k for v, k in zip(distinct, combo)), 2)
        if (Fraction(mu) + 2 - rho_s) * rho_s <= 0:
            witness = tuple(
                v for v, k in zip(distinct, combo) for _ in range(k)
            )
            return False, witness
    if Fraction(mu) + 2 - Fraction(sum(n_weights), 2) < 0:
        return False, tuple(sorted(n_weights))
    return True, None


def genericity_check(p: CompatibleParabolic, mu: int) -> GenericityResult:
    """Run the submultiset scan and compare it with mu >= rho_n - 1.

    The two are provably equivalent when rho_n is an integer, so a
    disagreement there is an internal error.  Half-integral rho_n (possible
    for gradings that pass the necessary embedding checks without coming
    from a genuine sl(2)) keeps the scan as the verdict, unasserted.
    """
    if mu < 0:
        raise InvalidInput("genericity is evaluated for mu >= 0")
    rho_n = Fraction(sum(p.n_weights), 2)
    generic, witness = genericity_scan(p.n_weights, mu)
    threshold = rho_n - 1
    integral = rho_n.denominator == 1
    if integral and generic != (mu >= threshold):
        raise InternalInconsistency(
            "submultiset scan disagrees with the closed-form threshold"
        )
    return GenericityResult(
        mu=mu,
        generic=generic,
        witness=witness,
        closed_form_threshold=threshold,
        rho_n_integral=integral,
    )


class Threshold(Record):
    """Exact bound together with the least integer mu satisfying it."""

    def __init__(self, exact: Fraction, smallest_mu: int):
        self._init(locals())


def _threshold(value) -> Threshold:
    exact = Fraction(value)
    return Threshold(exact=exact, smallest_mu=math.ceil(exact))


class BoundsReport(Record):
    def __init__(self, weak: Threshold, socle_simplicity_n: Threshold, strong_n: Threshold,
                 socle_simplicity_perp: Threshold, strong_perp: Threshold, genericity: Threshold,
                 prior_work: Threshold | None,
                 prior_work_coefficients: tuple[Fraction, ...] | None):
        self._init(locals())

    def socle_simplicity(self, convention: str = "n") -> Threshold:
        return _by_convention(convention, self.socle_simplicity_n, self.socle_simplicity_perp)

    def strong(self, convention: str = "n") -> Threshold:
        return _by_convention(convention, self.strong_n, self.strong_perp)


def _simple_root_sum(rs: RootSystem) -> tuple[Fraction, ...]:
    """The c_i with 2 rho = sum c_i alpha_i, from a walk up the positive roots.

    Every non-simple positive root is a positive root plus a simple root
    (Humphreys, Introduction to Lie Algebras and Representation Theory,
    10.2), so a breadth-first walk from the simple roots, adding one simple
    root at a time on int coordinates, reaches each positive root once
    with its expansion; the c_i are the column sums of the expansions.
    """
    simple = [_int_coords(a) for a in rs.simple_roots]
    positive = set(map(_int_coords, rs.positive_roots))
    unit = [tuple(int(i == j) for j in range(len(simple))) for i in range(len(simple))]
    found = dict(zip(simple, unit))
    walk = list(found)
    for beta in walk:  # walk grows while it is read
        for a, e in zip(simple, unit):
            gamma = tuple(map(add, beta, a))
            if gamma in positive and gamma not in found:
                found[gamma] = tuple(map(add, found[beta], e))
                walk.append(gamma)
    if len(walk) != len(positive):
        raise InternalInconsistency("the walk up from the simple roots missed a positive root")
    return tuple(Fraction(sum(column)) for column in zip(*found.values()))


def bounds_report(p: CompatibleParabolic) -> BoundsReport:
    """Reconstruction thresholds on mu, in both lambda conventions.

    For principal embeddings the earlier classification bound
    2*(sum c_i) - 1 is added, where 2 rho = sum c_i alpha_i over the simple
    roots; the c_i come from the walk up the positive roots in
    _simple_root_sum.
    """
    inv = invariants(p)
    prior = None
    coefficients = None
    if p.embedding.kind == "principal":
        coefficients = _simple_root_sum(p.embedding.rs)
        prior = _threshold(2 * sum(coefficients) - 1)
    return BoundsReport(
        weak=_threshold(0),
        socle_simplicity_n=_threshold(Fraction(inv.lambda1_n, 2)),
        strong_n=_threshold(Fraction(inv.lambda1_n + inv.lambda2_n, 2)),
        socle_simplicity_perp=_threshold(Fraction(inv.lambda1_perp, 2)),
        strong_perp=_threshold(Fraction(inv.lambda1_perp + inv.lambda2_perp, 2)),
        genericity=_threshold(inv.rho_n - 1),
        prior_work=prior,
        prior_work_coefficients=coefficients,
    )


def b_dominant(p: CompatibleParabolic, kappa: Weight) -> bool:
    """True iff kappa pairs nonnegatively with every adapted positive root."""
    return all(inner_product(kappa, g) >= 0 for g in p.adapted_positive_roots)
