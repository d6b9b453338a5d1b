"""Central-character blocks of the series modules and their multiplicities.

A block is the dot-orbit of a central character through the adapted
positive system: every element carries nu = w(kappa) - rho_tilde, its
t-weight omega = nu(h) and minimal k-type mu = omega + 2 rho_n-perp.
For a Cartan Levi, regular central character and total rank at most 2
the multiplicities reduce to the Bruhat order of the integral Weyl
subgroup (every Kazhdan-Lusztig polynomial of a dihedral group is 1);
above total rank 2 the matrix is refused with UnsupportedRank.  Socle
k-characters follow by inverting the matrix.  Orbits, pairings and the
placement of each linkage class from its antidominant point run on int
vectors at the block's one scale, through the integer layer of rootsys;
the matrix reads each element's int point off the pass that builds the
element, and every returned weight has Fraction coordinates.  A block or
socle query is one call, _block_query: the kappa length, then the
pair-only regime before any Weyl group is built, then the central
character and the matrix.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from operator import add, itemgetter, mul

from .charseries import ModuleDatumE, _f1_combination
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
from .record import Record
from .rootsys import (
    RootSystem,
    Weight,
    WeylElement,
    WeylGroup,
    _antidominant,
    _check_dim,
    _int_root,
    _orbit,
    _pairing,
    _scale,
    _scaled,
    _unscaled,
    bruhat_leq_over,
    project_trace_zero,
    reflection_group,
    weyl_group,
)
from .sl2embed import KCharacter, is_regular


class CentralCharacter(Record):
    """Weyl-orbit datum of kappa, canonicalized to its lex-maximal point."""

    def __init__(self, rs: RootSystem, representative: Weight, regular: bool, integral: bool,
                 orbit_size: int):
        self._init(locals())


def central_character_from_kappa(kappa: Weight, rs: RootSystem) -> CentralCharacter:
    """Canonicalize kappa over its Weyl orbit.

    The trace-ambiguous block coordinates are projected to mean zero
    first, so parameters that agree against every root are identified.
    The orbit and the coroot pairings are computed in ints at one scale.
    """
    _check_kappa_length(kappa, rs)
    base = project_trace_zero(kappa, rs)
    group = weyl_group(rs)
    scale = _scale(rs.simple_roots, base)
    images = _orbit(group, _scaled(base, scale))
    orbit = set(images)
    representative = _unscaled(max(orbit), scale)
    integral = _integral_roots(images[0], scale, rs.positive_roots)
    return CentralCharacter(
        rs=rs,
        representative=representative,
        regular=len(orbit) == len(group),
        integral=len(integral) == len(rs.positive_roots),
        orbit_size=len(orbit),
    )


def _integral_roots(x: tuple[int, ...], scale: int, roots) -> list[Weight]:
    """The roots alpha with <x / scale, alpha^vee> an int, in the given order."""
    return [alpha for alpha in roots if not _pairing(x, _int_root(alpha), scale)[1]]


def _check_kappa_length(kappa: Weight, rs: RootSystem) -> None:
    if len(kappa.coords) != rs.ambient:
        raise InvalidInput(
            f"kappa has length {len(kappa.coords)}, ambient is {rs.ambient}"
        )


class BlockElement(Record):
    """One series parameter in a block."""

    def __init__(self, w: WeylElement, nu: Weight, omega: Fraction, mu: Fraction, dim_e: int,
                 merged_count: int):
        self._init(locals())


def enumerate_block(
    kappa: CentralCharacter, p: CompatibleParabolic
) -> tuple[BlockElement, ...]:
    """All nu = w(kappa) - rho_tilde over the Weyl group, merged by value.

    For a Cartan Levi every parameter is kept with dim E = 1; when the
    semisimple part of m is a single sl(2) the parameters are filtered
    to m-dominant-integral ones and dim E comes from the rank-1 Weyl
    dimension formula.  Larger Levis are not supported.
    """
    return _block_points(kappa, p)[0]


def _block_points(kappa: CentralCharacter, p: CompatibleParabolic) -> tuple[tuple, list, int]:
    """enumerate_block's elements, each one's int point w(kappa) at the block's
    scale, and that scale."""
    rs = p.embedding.rs
    if kappa.rs != rs:
        raise InvalidInput("central character belongs to a different root system")
    gamma = None
    if p.m_roots:
        if len(p.m_positive_roots) != 1:
            raise UnsupportedLevi(
                "Levi semisimple part beyond one sl(2) is not supported"
            )
        gamma = _int_root(p.m_positive_roots[0])

    # Merge w(kappa) by value over int images; the first w in group order stays.
    group = weyl_group(rs)
    scale = _scale(rs.simple_roots, kappa.representative, p.rho_tilde_adapted)
    images = _orbit(group, _scaled(kappa.representative, scale))
    first: dict[tuple, WeylElement] = {}
    for w, x in zip(group, images):
        first.setdefault(x, w)

    # omega = <nu, h> over the scale of nu times h's common denominator.
    h = p.embedding.h_vector
    h_scale = _scale((), h)
    h_ints = _scaled(h, h_scale)
    omega_scale = scale * h_scale
    shift = p.two_rho_n_perp * omega_scale
    rho = _scaled(p.rho_tilde_adapted, scale)
    keyed = []
    for x, count in Counter(images).items():
        nu = tuple([a - b for a, b in zip(x, rho)])
        omega = sum(map(mul, nu, h_ints))
        dim_e = 1
        if gamma is not None:
            pairing, r = _pairing(nu, gamma, scale)
            if r or pairing < 0:
                continue
            dim_e = pairing + 1
        keyed.append((omega + shift, nu, omega, dim_e, first[x], count, x))
    keyed.sort(key=itemgetter(0, 1))
    elements = tuple(
        BlockElement(
            w=w,
            nu=_unscaled(nu, scale),
            omega=Fraction(omega, omega_scale),
            mu=Fraction(mu, omega_scale),
            dim_e=dim_e,
            merged_count=count,
        )
        for mu, nu, omega, dim_e, w, count, _ in keyed
    )
    return elements, [key[-1] for key in keyed], scale


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
    _check_dim(kappa, rs.roots[0])
    base = rs.positive_roots if positive_roots is None else tuple(positive_roots)
    scale = _scale((), kappa)
    x = _scaled(kappa, scale)
    positives = _integral_roots(x, scale, base)
    if 2 * len(positives) != len(_integral_roots(x, scale, rs.roots)):
        raise InternalInconsistency(
            "positive system does not split the integral roots in half"
        )
    ints = [_int_root(alpha)[0] for alpha in positives]
    sums = {tuple(map(add, a, b)) for a, b in combinations(ints, 2)}
    simples = tuple(alpha for alpha, a in zip(positives, ints) if a not in sums)
    group = reflection_group(simples, rs.ambient)
    if group[-1].length != len(positives):
        raise InternalInconsistency("longest length is not the integral root count")
    return group


class MultiplicityMatrix(Record):
    """Composition multiplicities m(E, D) over a block and their inverse.

    Rows and columns follow elements (ascending mu, then nu); orbit_ids
    mark the linkage classes inside the block.
    """

    def __init__(self, elements: tuple[BlockElement, ...], m_matrix: tuple[tuple[int, ...], ...],
                 p_matrix: tuple[tuple[int, ...], ...], orbit_ids: tuple[int, ...],
                 integral_group_order: int):
        self._init(locals())


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

    # Every key -(nu + rho_tilde_adapted) = -w(kappa) is an int vector at the
    # block's scale, and so is every point of its linkage class: the walk to
    # the class's antidominant point and the class's orbit run at that scale.
    elements, points, scale = _block_points(kappa, p)
    keys = [tuple([-a for a in x]) for x in points]

    # Each point of each linkage class -> (class id, position of the element of
    # the class's integral group that places the class's antidominant point
    # there); a class is placed when the first of its keys is seen.
    where: dict[tuple, tuple[int, int]] = {}
    groups: list[WeylGroup] = []
    for key in keys:
        if key not in where:
            group = integral_weyl_subgroup(_unscaled(key, scale), rs, p.adapted_positive_roots)
            orbit = _orbit(group, _antidominant(group, key))
            distinct = len(set(orbit))
            if distinct != len(group):
                raise InternalInconsistency(
                    "expected a unique placement in the integral group, got "
                    f"{len(group) // distinct}"
                )
            where.update((x, (len(groups), i)) for i, x in enumerate(orbit))
            groups.append(group)
    placed = [where[key] for key in keys]

    m_rows = [
        [1 if c == d and bruhat_leq_over(y, x, groups[c]) else 0 for d, y in placed]
        for c, x in placed
    ]

    n = len(elements)
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
        orbit_ids=tuple(cid for cid, _ in placed),
        integral_group_order=len(groups[0]) if groups else 1,
    )


def _block_query(kappa: Weight, p: CompatibleParabolic) -> tuple[CentralCharacter, MultiplicityMatrix]:
    """The central character of kappa and its multiplicity matrix; a kappa of the
    wrong length is invalid input first, and an unsupported pair exits before
    any Weyl group is built."""
    rs = p.embedding.rs
    _check_kappa_length(kappa, rs)
    _check_matrix_regime(p)
    central = central_character_from_kappa(kappa, rs)
    return central, multiplicity_matrix(central, p)


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


class SocleCharacterResult(Record):
    """Inverse-matrix character combination for one block element.

    The character equals the k-character of the derived-functor image of
    the simple submodule; it is the honest socle character of the series
    module exactly when genuine_socle is set.
    """

    def __init__(self, element: BlockElement, character: KCharacter, genuine_socle: bool):
        self._init(locals())


def socle_k_character(
    p: CompatibleParabolic,
    matrix: MultiplicityMatrix,
    element: BlockElement,
    cutoff: int,
) -> SocleCharacterResult:
    """Alternating combination sum_D p(E, D) ch_k F1(p, D) through cutoff.

    Every term is checked before anything is built, in row order, and the
    F1 characters are read off one partition list.
    """
    try:
        i = matrix.elements.index(element)
    except ValueError:
        raise InvalidInput("element does not belong to this block") from None
    if element.mu < 0:
        raise OutOfRegime(f"socle formula requires mu >= 0, got {element.mu}")
    row = zip(matrix.p_matrix[i], matrix.elements)
    # Lazy, so that each term's datum is checked just before its F1 regime.
    accum = _f1_combination(p, ((c, _module_datum(d)) for c, d in row if c), cutoff)
    if any(c < 0 for c in accum.values()):
        raise InternalInconsistency("socle character went negative")
    character = KCharacter(accum, cutoff=cutoff, virtual=False)
    l1, _ = invariants(p).lambdas("n")
    genuine = Fraction(element.mu) >= Fraction(l1, 2)
    return SocleCharacterResult(
        element=element, character=character, genuine_socle=genuine
    )


def _module_datum(d: BlockElement) -> ModuleDatumE:
    if d.omega.denominator != 1:
        raise InvalidInput("block element carries a non-integral t-weight")
    return ModuleDatumE(omega=int(d.omega), dim_e=d.dim_e)


class ReconstructibilityReport(Record):
    """Which reconstruction regimes a given mu clears."""

    def __init__(self, mu: int, convention: str, socle_simple: bool, strong: bool, generic: bool,
                 regular_embedding: bool):
        self._init(locals())


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


class IwasawaSupport(Record):
    """b-parameters meeting a type-(a, c) principal-series family."""

    def __init__(self, a: int, c: Fraction, b_values: tuple[Fraction, ...], k_multiplicity: int):
        self._init(locals())


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
