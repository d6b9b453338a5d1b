"""Central-character blocks of the series modules and their multiplicities.

A block is the dot-orbit of a central character through the adapted
positive system: every element carries nu = w(kappa) - rho_tilde, its
t-weight omega = nu(h) and minimal k-type mu = omega + 2 rho_n-perp.
For a Cartan Levi, regular central character and total rank at most 2
the composition multiplicities of the produced modules reduce to the
Bruhat order of the integral Weyl subgroup, every Kazhdan-Lusztig
polynomial of a dihedral group being 1; socle k-characters follow by
inverting the matrix.  The Bruhat order itself (rootsys.bruhat_leq_over,
read in the shared WeylGroup of a linkage class) works at any rank; above
total rank 2 the Kazhdan-Lusztig corrections are not computed, so the
matrix is refused there with UnsupportedRank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .charseries import ModuleDatumE, f1_k_character
from .errors import (
    InternalInconsistency,
    InvalidInput,
    OutOfRegime,
    SingularBlockUnsupported,
    UnsupportedLevi,
    UnsupportedRank,
    UnsupportedRegime,
)
from .parabolic import (
    CompatibleParabolic,
    bounds_report,
    genericity_check,
    invariants,
)
from .rootsys import (
    RootSystem,
    Weight,
    WeylElement,
    WeylGroup,
    bruhat_leq_over,
    coroot_pairing,
    inner_product,
    project_trace_zero,
    reflection_group,
    weyl_group,
)
from .sl2embed import KCharacter, is_regular


@dataclass(frozen=True)
class CentralCharacter:
    """Weyl-orbit datum of kappa, canonicalized to its lex-maximal point."""

    rs: RootSystem
    representative: Weight
    regular: bool
    integral: bool
    orbit_size: int


def central_character_from_kappa(kappa: Weight, rs: RootSystem) -> CentralCharacter:
    """Canonicalize kappa over its Weyl orbit.

    The trace-ambiguous block coordinates are projected to mean zero
    first, so parameters that agree against every root are identified.
    """
    _check_kappa_length(kappa, rs)
    base = project_trace_zero(kappa, rs)
    group = weyl_group(rs)
    orbit = {w.apply(base).coords for w in group}
    representative = Weight(max(orbit))
    integral = all(
        coroot_pairing(base, alpha).denominator == 1 for alpha in rs.roots
    )
    return CentralCharacter(
        rs=rs,
        representative=representative,
        regular=len(orbit) == len(group),
        integral=integral,
        orbit_size=len(orbit),
    )


def _check_kappa_length(kappa: Weight, rs: RootSystem) -> None:
    if len(kappa.coords) != rs.ambient:
        raise InvalidInput(
            f"kappa has length {len(kappa.coords)}, ambient is {rs.ambient}"
        )


@dataclass(frozen=True)
class BlockElement:
    """One series parameter in a block."""

    w: WeylElement
    nu: Weight
    omega: Fraction
    mu: Fraction
    dim_e: int
    merged_count: int


def enumerate_block(
    kappa: CentralCharacter, p: CompatibleParabolic
) -> tuple[BlockElement, ...]:
    """All nu = w(kappa) - rho_tilde over the Weyl group, merged by value.

    For a Cartan Levi every parameter is kept with dim E = 1; when the
    semisimple part of m is a single sl(2) the parameters are filtered
    to m-dominant-integral ones and dim E comes from the rank-1 Weyl
    dimension formula.  Larger Levis are not supported.
    """
    rs = p.embedding.rs
    if kappa.rs != rs:
        raise InvalidInput("central character belongs to a different root system")
    gamma = None
    if p.m_roots:
        if len(p.m_positive_roots) != 1:
            raise UnsupportedLevi(
                "Levi semisimple part beyond one sl(2) is not supported"
            )
        gamma = p.m_positive_roots[0]

    shift = p.two_rho_n_perp
    seen: dict[tuple, tuple[WeylElement, int]] = {}
    for w in weyl_group(rs):
        nu = w.apply(kappa.representative) - p.rho_tilde_adapted
        key = nu.coords
        if key in seen:
            rep, count = seen[key]
            seen[key] = (rep, count + 1)
        else:
            seen[key] = (w, 1)

    elements = []
    for key, (w, count) in seen.items():
        nu = Weight(key)
        omega = inner_product(nu, p.embedding.h_vector)
        mu = omega + shift
        if gamma is not None:
            pairing = coroot_pairing(nu, gamma)
            if pairing.denominator != 1 or pairing < 0:
                continue
            dim_e = int(pairing) + 1
        else:
            dim_e = 1
        elements.append(
            BlockElement(
                w=w,
                nu=nu,
                omega=omega,
                mu=mu,
                dim_e=dim_e,
                merged_count=count,
            )
        )
    elements.sort(key=lambda e: (e.mu, e.nu.coords))
    return tuple(elements)


def integral_weyl_subgroup(
    kappa: Weight, rs: RootSystem, positive_roots=None
) -> WeylGroup:
    """Group generated by reflections in the kappa-integral roots.

    The positive system is inherited from the given one (default: the
    standard lexicographic system).  Its simple roots, the positive integral
    roots that are not a sum of two others (Humphreys, Introduction to Lie
    Algebras, 10.1), generate the group; lengths count the positive roots
    sent to negative ones.  The group is the shared WeylGroup that
    rootsys.reflection_group keeps for that simple system, as weyl_group's
    is for the full one.
    """
    base = rs.positive_roots if positive_roots is None else tuple(positive_roots)
    integral = tuple(
        alpha
        for alpha in rs.roots
        if coroot_pairing(kappa, alpha).denominator == 1
    )
    integral_set = {alpha.coords for alpha in integral}
    positives = tuple(alpha for alpha in base if alpha.coords in integral_set)
    if 2 * len(positives) != len(integral):
        raise InternalInconsistency(
            "positive system does not split the integral roots in half"
        )
    sums = {(a + b).coords for a, b in combinations(positives, 2)}
    simples = tuple(alpha for alpha in positives if alpha.coords not in sums)
    group = reflection_group(simples, rs.ambient)
    if group[-1].length != len(positives):
        raise InternalInconsistency("longest length is not the integral root count")
    return group


@dataclass(frozen=True)
class MultiplicityMatrix:
    """Composition multiplicities m(E, D) over a block and their inverse.

    Rows and columns follow elements (ascending mu, then nu); orbit_ids
    mark the linkage classes inside the block.
    """

    elements: tuple[BlockElement, ...]
    m_matrix: tuple[tuple[int, ...], ...]
    p_matrix: tuple[tuple[int, ...], ...]
    orbit_ids: tuple[int, ...]
    integral_group_order: int


def _antidominant_point(point: Weight, group: WeylGroup) -> Weight:
    """The one point of point's regular orbit that pairs negatively with
    every simple root of group.

    The orbit is regular iff it has |group| points: the stabilizer of a
    point is generated by the reflections it contains (Steinberg; Humphreys,
    Reflection Groups and Coxeter Groups, 1.12), so a smaller orbit means a
    zero pairing with a root.  For a regular point, negative pairings with
    the simple roots mean negative pairings with every positive root.
    """
    orbit = {x.apply(point).coords for x in group}
    if len(orbit) != len(group):
        raise InternalInconsistency("regular orbit produced a zero pairing")
    found = [
        candidate
        for candidate in map(Weight, orbit)
        if all(coroot_pairing(candidate, a) < 0 for a in group.simple_roots)
    ]
    if len(found) != 1:
        raise InternalInconsistency(
            f"expected one antidominant orbit point, found {len(found)}"
        )
    return found[0]


def _check_matrix_regime(p: CompatibleParabolic) -> None:
    """The pair-only preconditions of multiplicity_matrix; builds no group."""
    if p.m_roots:
        raise UnsupportedLevi("multiplicities are computed for a Cartan Levi only")
    if p.embedding.rs.rank > 2:
        raise UnsupportedRank("multiplicities are computed for rank <= 2 only")


def multiplicity_matrix(
    kappa: CentralCharacter, p: CompatibleParabolic
) -> MultiplicityMatrix:
    """0/1 composition multiplicity matrix of a regular rank-<=2 block.

    m(E, D) = 1 iff D lies in the linkage class of E and x_D <= x_E in
    the Bruhat order of the integral Weyl subgroup, where x maps the
    antidominant point of the class to the negated shifted parameter.
    The orientation is pinned by two facts: diagonal entries are 1, and
    off-diagonal support sits strictly above the diagonal in mu; both
    are re-validated on every call.
    """
    _check_matrix_regime(p)
    if not kappa.regular:
        raise SingularBlockUnsupported("a regular central character is required")
    rs = p.embedding.rs

    elements = enumerate_block(kappa, p)
    keys = [-(e.nu + p.rho_tilde_adapted) for e in elements]

    # One dict per linkage class: each point of the class -> the element of
    # the class's integral group that places the antidominant point there.
    classes: list[tuple[WeylGroup, dict[tuple, WeylElement]]] = []
    orbit_ids = []
    placements = []
    for key in keys:
        cid = next(
            (c for c, (_, placed) in enumerate(classes) if key.coords in placed), None
        )
        if cid is None:
            group = integral_weyl_subgroup(key, rs, p.adapted_positive_roots)
            antidominant = _antidominant_point(key, group)
            placed = {x.apply(antidominant).coords: x for x in group}
            if len(placed) != len(group):
                raise InternalInconsistency(
                    "expected a unique placement in the integral group, got "
                    f"{len(group) // len(placed)}"
                )
            cid = len(classes)
            classes.append((group, placed))
        orbit_ids.append(cid)
        placements.append(classes[cid][1][key.coords])

    n = len(elements)
    m_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            same = orbit_ids[i] == orbit_ids[j]
            row.append(
                1
                if same
                and bruhat_leq_over(
                    placements[j], placements[i], classes[orbit_ids[i]][0]
                )
                else 0
            )
        m_rows.append(row)

    for i in range(n):
        if m_rows[i][i] != 1:
            raise InternalInconsistency("diagonal multiplicity is not 1")
        for j in range(n):
            if i != j and m_rows[i][j] and elements[j].mu <= elements[i].mu:
                raise InternalInconsistency(
                    "off-diagonal support must sit strictly above the diagonal in mu"
                )

    p_rows = _invert_unitriangular(m_rows)
    for row in p_rows:
        if any(v not in (-1, 0, 1) for v in row):
            raise InternalInconsistency("inverse entries left {-1, 0, 1}")
    if not _is_identity(_mat_mul_int(m_rows, p_rows)) or not _is_identity(
        _mat_mul_int(p_rows, m_rows)
    ):
        raise InternalInconsistency("matrix inverse failed the round trip")

    return MultiplicityMatrix(
        elements=elements,
        m_matrix=tuple(tuple(row) for row in m_rows),
        p_matrix=tuple(tuple(row) for row in p_rows),
        orbit_ids=tuple(orbit_ids),
        integral_group_order=len(classes[0][0]) if classes else 1,
    )


def _invert_unitriangular(m):
    """Invert an integer matrix that is unitriangular in the given order."""
    n = len(m)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1, -1, -1):
        for j in range(n):
            acc = sum(m[i][k] * inv[k][j] for k in range(i + 1, n))
            inv[i][j] = (1 if i == j else 0) - acc
    return inv


def _mat_mul_int(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _is_identity(m) -> bool:
    n = len(m)
    return all(m[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))


@dataclass(frozen=True)
class SocleCharacterResult:
    """Inverse-matrix character combination for one block element.

    The character equals the k-character of the derived-functor image of
    the simple submodule; it is the honest socle character of the series
    module exactly when genuine_socle is set.
    """

    element: BlockElement
    character: KCharacter
    genuine_socle: bool


def socle_k_character(
    p: CompatibleParabolic,
    matrix: MultiplicityMatrix,
    element: BlockElement,
    cutoff: int,
) -> SocleCharacterResult:
    """Alternating combination sum_D p(E, D) ch_k F1(p, D) through cutoff."""
    try:
        i = matrix.elements.index(element)
    except ValueError:
        raise InvalidInput("element does not belong to this block") from None
    if element.mu < 0:
        raise OutOfRegime(f"socle formula requires mu >= 0, got {element.mu}")
    accum: dict[int, int] = {}
    for j, coeff in enumerate(matrix.p_matrix[i]):
        if coeff == 0:
            continue
        d = matrix.elements[j]
        if d.omega.denominator != 1:
            raise InvalidInput("block element carries a non-integral t-weight")
        term = f1_k_character(
            p, ModuleDatumE(omega=int(d.omega), dim_e=d.dim_e), cutoff
        )
        for delta, c in term.mults.items():
            accum[delta] = accum.get(delta, 0) + coeff * c
    if any(c < 0 for c in accum.values()):
        raise InternalInconsistency("socle character went negative")
    character = KCharacter(accum, cutoff=cutoff, virtual=False)
    l1, _ = invariants(p).lambdas("n")
    genuine = Fraction(element.mu) >= Fraction(l1, 2)
    return SocleCharacterResult(
        element=element, character=character, genuine_socle=genuine
    )


@dataclass(frozen=True)
class ReconstructibilityReport:
    """Which reconstruction regimes a given mu clears."""

    mu: int
    convention: str
    socle_simple: bool
    strong: bool
    generic: bool
    regular_embedding: bool


def reconstructibility_report(
    p: CompatibleParabolic, mu: int, convention: str = "n"
) -> ReconstructibilityReport:
    """Compare mu against every reconstruction threshold of the pair."""
    if mu < 0:
        raise InvalidInput("reconstructibility is evaluated for mu >= 0")
    thresholds = bounds_report(p)
    return ReconstructibilityReport(
        mu=mu,
        convention=convention,
        socle_simple=Fraction(mu) >= thresholds.socle_simplicity(convention).exact,
        strong=Fraction(mu) >= thresholds.strong(convention).exact,
        generic=genericity_check(p, mu).generic,
        regular_embedding=is_regular(p.embedding),
    )


# Ceiling on iwasawa's a: the CLI call takes 0.23 s and peaks at 33 MB at
# 100,000, 2.9 s and 193 MB at 1,000,000 (fresh process, 2-core AMD EPYC).
MAX_IWASAWA_A = 100_000


@dataclass(frozen=True)
class IwasawaSupport:
    """b-parameters meeting a type-(a, c) principal-series family."""

    a: int
    c: Fraction
    b_values: tuple[Fraction, ...]
    k_multiplicity: int


def iwasawa_sl3_support(a: int, c) -> IwasawaSupport:
    """Support of V(a) across the rank-2 special linear root pair.

    For the family with character parameter c, the admissible second
    parameters are c - 3a + 6j for 0 <= j <= a, and the k-restricted
    multiplicity of V(a) is a + 1.
    """
    if a < 0:
        raise InvalidInput("a must be nonnegative")
    if a > MAX_IWASAWA_A:
        raise UnsupportedRegime(f"a = {a} exceeds the ceiling {MAX_IWASAWA_A}")
    c = Fraction(c)
    b_values = tuple(c - 3 * a + 6 * j for j in range(a + 1))
    return IwasawaSupport(a=a, c=c, b_values=b_values, k_multiplicity=a + 1)
