from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest

from ghcseries import (
    BlockElement,
    InternalInconsistency,
    InvalidInput,
    MultiplicityMatrix,
    OutOfRegime,
    SingularBlockUnsupported,
    UnsupportedLevi,
    UnsupportedRank,
    UnsupportedRegime,
    Weight,
    build_root_system,
    central_character_from_kappa,
    coroot_pairing,
    enumerate_block,
    f1_k_character,
    from_principal,
    from_root,
    get_fixture,
    inner_product,
    integral_weyl_subgroup,
    iwasawa_sl3_support,
    minimal_parabolic,
    multiplicity_matrix,
    reconstructibility_report,
    socle_k_character,
    weyl_group,
)
from ghcseries import rootsys
from ghcseries import blocks
from ghcseries.blocks import MAX_IWASAWA_A
from ghcseries.charseries import MAX_CUTOFF, ModuleDatumE
from ghcseries.fixtures import parse_algebra
from ghcseries.rootsys import WeylElement
from oracles import (
    antidominant_orbit_point,
    block_scan,
    brute_multiplicity_matrix,
    brute_vector_partitions,
    central_character_scan,
    integral_positive_roots,
    reflection_closure,
)
from test_rootsys import ORDER_SPECS, _label


def _sp4_block():
    p = get_fixture("sp4-principal").build_parabolic()
    kappa = central_character_from_kappa(
        Weight.of(Fraction(3, 2), Fraction(1, 2)), p.embedding.rs
    )
    return p, kappa


def test_central_character_flags():
    rs = build_root_system((("C", 2),))
    kappa = central_character_from_kappa(Weight.of(Fraction(3, 2), Fraction(1, 2)), rs)
    assert kappa.regular
    assert not kappa.integral
    assert kappa.orbit_size == 8
    integral = central_character_from_kappa(Weight.of(2, 1), rs)
    assert integral.regular and integral.integral
    singular = central_character_from_kappa(Weight.of(1, 1), rs)
    assert not singular.regular
    with pytest.raises(InvalidInput):
        central_character_from_kappa(Weight.of(1, 1, 1), rs)


def test_central_character_canonicalizes_trace():
    rs = build_root_system((("A", 2),))
    a = central_character_from_kappa(Weight.of(3, 1, 0), rs)
    b = central_character_from_kappa(Weight.of(4, 2, 1), rs)
    assert a.representative == b.representative
    assert sum(a.representative.coords) == 0


def test_central_character_representative_is_orbit_invariant():
    rs = build_root_system((("C", 2),))
    kappa = Weight.of(Fraction(3, 2), Fraction(1, 2))
    base = central_character_from_kappa(kappa, rs).representative
    for point in [w.apply(kappa) for w in weyl_group(rs)]:
        assert central_character_from_kappa(point, rs).representative == base


def test_block_enumeration_matches_frozen_list():
    p, kappa = _sp4_block()
    block = enumerate_block(kappa, p)
    assert [e.mu for e in block] == [0, 1, 2, 5, 5, 8, 9, 10]
    assert [e.omega for e in block] == [m - 12 for m in (0, 1, 2, 5, 5, 8, 9, 10)]
    assert all(e.dim_e == 1 for e in block)
    assert all(e.merged_count == 1 for e in block)
    assert sum(1 for e in block if e.mu == 0) == 1
    assert sum(1 for e in block if e.mu == 1) == 1
    nus = [tuple(e.nu.coords) for e in block]
    assert nus[0] == (Fraction(-7, 2), Fraction(-3, 2))
    assert nus[-1] == (Fraction(-1, 2), Fraction(-1, 2))


def test_block_with_levi_sl2_weights_dimensions():
    p = get_fixture("sp4-long").build_parabolic()
    kappa = central_character_from_kappa(Weight.of(2, 1), p.embedding.rs)
    block = enumerate_block(kappa, p)
    assert [(e.mu, e.dim_e) for e in block] == [(-2, 1), (-1, 2), (1, 2), (2, 1)]


def test_integral_subgroup_orders():
    rs = build_root_system((("C", 2),))
    assert len(integral_weyl_subgroup(Weight.of(Fraction(3, 2), Fraction(1, 2)), rs)) == 4
    assert len(integral_weyl_subgroup(Weight.of(2, 1), rs)) == 8
    assert len(integral_weyl_subgroup(Weight.of(Fraction(1, 2), Fraction(1, 4)), rs)) == 1


LINKAGE_CASES = [
    (("C", 2), ["3/2,1/2", "-2,3/2", "-4,3", "-17/3,-8/3"]),
    (("G", 2), ["1,1/2,9/2", "5,4,-3", "10/3,-13/3,-2"]),
]


@pytest.mark.parametrize("spec,kappas", LINKAGE_CASES)
def test_integral_subgroups_are_memoized_fresh_closures(spec, kappas, monkeypatch):
    monkeypatch.setattr(rootsys, "_GROUPS", {})
    rs = build_root_system((spec,))
    p = minimal_parabolic(from_principal(rs))
    for text in kappas:
        kappa = Weight.of(*(Fraction(c) for c in text.split(",")))
        matrix = multiplicity_matrix(central_character_from_kappa(kappa, rs), p)
        for element in matrix.elements:
            key = -(element.nu + p.rho_tilde_adapted)
            group = integral_weyl_subgroup(key, rs, p.adapted_positive_roots)
            assert group.elements == rootsys.generate_group(
                group.simple_roots, rs.ambient
            ).elements
            again = integral_weyl_subgroup(key, rs, p.adapted_positive_roots)
            assert again is group
            assert group.elements == _oracle_subgroup(key, p.adapted_positive_roots)


@functools.lru_cache(maxsize=None)
def _oracle_closure(positives, ambient):
    return reflection_closure(positives, ambient)


def _oracle_subgroup(kappa, positive_roots):
    positives = integral_positive_roots(kappa, positive_roots)
    return _oracle_closure(positives, len(kappa.coords))


@pytest.mark.parametrize("spec", ORDER_SPECS, ids=_label)
def test_integral_subgroups_match_the_oracle_on_random_kappas(spec):
    rs = build_root_system(spec)
    p = minimal_parabolic(from_principal(rs))
    rng = random.Random(_label(spec))
    for _ in range(10):
        kappa = Weight.of(
            *(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(rs.ambient))
        )
        group = integral_weyl_subgroup(kappa, rs, p.adapted_positive_roots)
        assert group.elements == _oracle_subgroup(kappa, p.adapted_positive_roots), kappa



class _CountingMemo(dict):
    """A group memo that counts its lookups."""

    def __init__(self):
        super().__init__()
        self.reads = 0

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("spec,kappas", LINKAGE_CASES)
def test_matrix_reads_the_group_memo_once_per_linkage_class(spec, kappas, monkeypatch):
    memo = _CountingMemo()
    monkeypatch.setattr(rootsys, "_GROUPS", memo)
    compare = blocks.bruhat_leq_over
    comparisons = [0]

    def no_lookup(*args):
        assert type(args[0]) is int and type(args[1]) is int
        before = memo.reads
        result = compare(*args)
        assert memo.reads == before
        comparisons[0] += 1
        return result

    monkeypatch.setattr(blocks, "bruhat_leq_over", no_lookup)
    rs = build_root_system((spec,))
    p = minimal_parabolic(from_principal(rs))
    for text in kappas:
        kappa = central_character_from_kappa(
            Weight.of(*(Fraction(c) for c in text.split(","))), rs
        )
        before = memo.reads
        matrix = multiplicity_matrix(kappa, p)
        # One more read: the full group that the block's one pass walks.
        assert memo.reads - before == len(set(matrix.orbit_ids)) + 1, text
    assert comparisons[0] > 0


@pytest.mark.parametrize("spec,kappas", LINKAGE_CASES)
def test_matrix_takes_each_int_point_from_the_block_pass(spec, kappas, monkeypatch):
    """No element's Fraction nu is scaled back to ints: the matrix reads each
    element's int point off the pass that builds the element."""
    scaled = blocks._scaled
    seen = []

    def recorded(w, scale):
        seen.append(w)
        return scaled(w, scale)

    monkeypatch.setattr(blocks, "_scaled", recorded)
    rs = build_root_system((spec,))
    p = minimal_parabolic(from_principal(rs))
    for text in kappas:
        kappa = central_character_from_kappa(
            Weight.of(*(Fraction(c) for c in text.split(","))), rs
        )
        seen.clear()
        matrix = multiplicity_matrix(kappa, p)
        assert seen
        assert not any(w is e.nu for w in seen for e in matrix.elements), text


def _antidominant_point(point, group, factor=1):
    """rootsys._antidominant walked from point at factor times its _scale,
    as a Weight; the walk itself stays on ints."""
    scale = factor * rootsys._scale(group.simple_roots, point)
    x = rootsys._antidominant(group, rootsys._scaled(point, scale))
    assert all(type(c) is int for c in x)
    return rootsys._unscaled(x, scale)


def test_antidominant_point_refuses_a_singular_orbit():
    rs = build_root_system((("C", 2),))
    kappa = Weight.of(1, 1)
    group = integral_weyl_subgroup(kappa, rs)
    with pytest.raises(InternalInconsistency, match="regular orbit produced a zero pairing"):
        _antidominant_point(kappa, group)


@pytest.mark.parametrize("spec", ORDER_SPECS, ids=_label)
def test_antidominant_point_matches_the_orbit_scan_oracle(spec):
    rs = build_root_system(spec)
    positive_roots = minimal_parabolic(from_principal(rs)).adapted_positive_roots
    rng = random.Random(f"antidominant-{_label(spec)}")
    # 2 rho is regular and integral: its walk crosses the whole group.
    keys = [rs.rho_tilde.scaled(2)] + [
        Weight.of(
            *(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))) for _ in range(rs.ambient))
        )
        for _ in range(12)
    ]
    regular = 0
    for key in keys:
        group = integral_weyl_subgroup(key, rs, positive_roots)
        positives = integral_positive_roots(key, positive_roots)
        if any(inner_product(key, a) == 0 for a in positives):
            with pytest.raises(InternalInconsistency, match="zero pairing"):
                _antidominant_point(key, group)
            continue
        closure = _oracle_closure(positives, rs.ambient)
        expected = antidominant_orbit_point(key.coords, closure, positives)
        assert _antidominant_point(key, group).coords == expected, key
        # multiplicity_matrix walks at the block's scale, a multiple of key's.
        assert _antidominant_point(key, group, factor=6).coords == expected, key
        regular += 1
    assert regular


def test_antidominant_point_applies_no_group_element(monkeypatch):
    calls = [0]
    apply = WeylElement.apply

    def counted(self, w):
        calls[0] += 1
        return apply(self, w)

    monkeypatch.setattr(WeylElement, "apply", counted)
    for spec, key in ((("C", 2), (3, 1)), (("B", 4), (7, -5, 3, 1))):
        rs = build_root_system((spec,))
        group = weyl_group(rs)
        point = _antidominant_point(Weight.of(*key), group)
        assert all(coroot_pairing(point, a) < 0 for a in rs.simple_roots)
    assert calls[0] == 0
    group[-1].apply(point)
    assert calls[0] == 1


def _orbit_kappas(rs, rng):
    """Seeded kappas: denominators 1-7 per coordinate, one denominator 1-7 per
    kappa (so that some roots pair integrally), and 100-digit ones."""
    big = 10**100
    kappas = [
        Weight.of(*(Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rs.ambient)))
        for _ in range(3)
    ]
    for d in rng.sample(range(1, 8), 3):
        kappas.append(Weight.of(*(Fraction(rng.randint(-20, 20), d) for _ in range(rs.ambient))))
    kappas.append(Weight.of(*(rng.randint(-big, big) for _ in range(rs.ambient))))
    kappas.append(
        Weight.of(*(Fraction(rng.randint(-big, big), rng.randint(1, big)) for _ in range(rs.ambient)))
    )
    return kappas


def _fraction_orbit(group, kappa):
    scale = rootsys._scale(group.simple_roots, kappa)
    images = rootsys._orbit(group, rootsys._scaled(kappa, scale))
    return [tuple(Fraction(c, scale) for c in x) for x in images]


def _block_rows(block):
    return [(e.w, e.nu.coords, e.omega, e.mu, e.dim_e, e.merged_count) for e in block]


@pytest.mark.parametrize("spec", ORDER_SPECS, ids=_label)
def test_orbits_central_characters_and_blocks_match_the_apply_scan(spec):
    rs = build_root_system(spec)
    p = minimal_parabolic(from_principal(rs))
    # A pair whose Levi has one positive root, where the block keeps only the
    # nu pairing to a nonnegative int with it.
    levi = next(
        (q for q in map(minimal_parabolic, (from_root(rs, a) for a in rs.positive_roots))
         if len(q.m_positive_roots) == 1),
        None,
    )
    full = weyl_group(rs)
    rng = random.Random(f"orbit-{_label(spec)}")
    for kappa in _orbit_kappas(rs, rng):
        for group in (
            full,
            integral_weyl_subgroup(kappa, rs),
            integral_weyl_subgroup(kappa, rs, p.adapted_positive_roots),
        ):
            assert _fraction_orbit(group, kappa) == [w.apply(kappa).coords for w in group]
        central = central_character_from_kappa(kappa, rs)
        representative, regular, integral, size = central_character_scan(kappa, rs, full)
        assert central.representative.coords == representative
        assert (central.regular, central.integral, central.orbit_size) == (regular, integral, size)
        block = enumerate_block(central, p)
        expected = block_scan(central.representative, full, p)
        assert _block_rows(block) == expected
        assert all(e.w is w for e, (w, *_) in zip(block, expected))
        if levi is not None:
            assert _block_rows(enumerate_block(central, levi)) == block_scan(
                central.representative, full, levi
            )
        if central.regular and rs.rank <= 2:
            matrix = multiplicity_matrix(central, p)
            assert matrix.elements == block
            assert (matrix.m_matrix, matrix.orbit_ids) == brute_multiplicity_matrix(block, p)


def test_orbit_step_off_the_lattice_raises():
    group = weyl_group(build_root_system((("G", 2),)))
    # (1, 0, 0) pairs to 1/3 with the coroot of the long simple root (1, -2, 1).
    with pytest.raises(InternalInconsistency, match="a coroot pairing left the integers"):
        rootsys._orbit(group, (1, 0, 0))
    with pytest.raises(InternalInconsistency, match="does not clear"):
        rootsys._scaled(Weight.of(Fraction(1, 3)), 2)


SINGULAR_KAPPAS = [("C2", (1, 1)), ("A2", (1, 1, -2)), ("G2", (1, 1, -2))]


@pytest.mark.parametrize("algebra,kappa", SINGULAR_KAPPAS, ids=[a for a, _ in SINGULAR_KAPPAS])
def test_merged_counts_and_first_elements_match_the_orbit_scan(algebra, kappa):
    rs = build_root_system(parse_algebra(algebra))
    p = minimal_parabolic(from_principal(rs))
    central = central_character_from_kappa(Weight.of(*kappa), rs)
    assert not central.regular
    block = enumerate_block(central, p)
    expected = block_scan(central.representative, weyl_group(rs), p)
    assert _block_rows(block) == expected
    # The kept w is the group's own first element giving that nu.
    assert all(e.w is w for e, (w, *_) in zip(block, expected))
    assert {e.merged_count for e in block} == {2}
    assert sum(e.merged_count for e in block) == len(weyl_group(rs))


TYPE_CASES = [
    ("C2", "3/2,1/2"), ("C2", "2,1"), ("A2", "1,0,-1"), ("A2", "1/3,1/2,0"),
    ("G2", "5,4,-3"), ("G2", "1,1/2,9/2"), ("A1+A1", "1,0,1/2,0"), ("B3", "3,2,1"),
    ("B3", "1/2,1/3,5"),
]


@pytest.mark.parametrize("algebra,kappa", TYPE_CASES)
def test_block_results_keep_fraction_coordinates(algebra, kappa):
    rs = build_root_system(parse_algebra(algebra))
    p = minimal_parabolic(from_principal(rs))
    kappa = Weight.of(*(Fraction(c) for c in kappa.split(",")))
    central = central_character_from_kappa(kappa, rs)
    values = list(central.representative.coords)
    block = enumerate_block(central, p)
    if rs.rank <= 2:
        block += multiplicity_matrix(central, p).elements
    for e in block:
        values += [*e.nu.coords, e.omega, e.mu]
    group = integral_weyl_subgroup(kappa, rs)
    values += [c for alpha in group.simple_roots for c in alpha.coords]
    assert values and all(type(v) is Fraction for v in values)


RANK2_ALGEBRAS = ["A1", "B1", "C1", "A1+A1", "D2", "A2", "B2", "C2", "G2"]


def _cartan_levi_pairs(rs):
    """The principal and root pairs of rs whose Levi is the Cartan subalgebra."""
    embeddings = [from_principal(rs)] + [from_root(rs, a) for a in rs.positive_roots]
    pairs = [minimal_parabolic(embedding) for embedding in embeddings]
    return [p for p in pairs if not p.m_roots]


def _regular_kappas(rs, rng, denominator, count):
    found = []
    while len(found) < count:
        kappa = Weight.of(
            *(Fraction(rng.randint(-8, 8), denominator) for _ in range(rs.ambient))
        )
        central = central_character_from_kappa(kappa, rs)
        if central.regular:
            found.append(central)
    return found


@pytest.mark.parametrize("algebra", RANK2_ALGEBRAS)
def test_multiplicity_matrix_matches_the_brute_oracle(algebra):
    rs = build_root_system(parse_algebra(algebra))
    rng = random.Random(f"matrix-{algebra}")
    pairs = _cartan_levi_pairs(rs)
    assert pairs
    for p in pairs:
        for denominator in (1, 2, 3):
            for kappa in _regular_kappas(rs, rng, denominator, 3):
                matrix = multiplicity_matrix(kappa, p)
                expected = brute_multiplicity_matrix(matrix.elements, p)
                assert (matrix.m_matrix, matrix.orbit_ids) == expected, kappa

def test_multiplicity_matrix_rank_one_anchor():
    rs = build_root_system((("A", 1),))
    p = minimal_parabolic(from_principal(rs))
    kappa = central_character_from_kappa(Weight.of(Fraction(1, 2), Fraction(-1, 2)), rs)
    matrix = multiplicity_matrix(kappa, p)
    assert [e.mu for e in matrix.elements] == [-2, 0]
    assert matrix.m_matrix == ((1, 1), (0, 1))
    assert matrix.p_matrix == ((1, -1), (0, 1))


FROZEN_M = (
    (1, 0, 1, 0, 0, 1, 0, 1),
    (0, 1, 0, 1, 1, 0, 1, 0),
    (0, 0, 1, 0, 0, 0, 0, 1),
    (0, 0, 0, 1, 0, 0, 1, 0),
    (0, 0, 0, 0, 1, 0, 1, 0),
    (0, 0, 0, 0, 0, 1, 0, 1),
    (0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 1),
)

FROZEN_P = (
    (1, 0, -1, 0, 0, -1, 0, 1),
    (0, 1, 0, -1, -1, 0, 1, 0),
    (0, 0, 1, 0, 0, 0, 0, -1),
    (0, 0, 0, 1, 0, 0, -1, 0),
    (0, 0, 0, 0, 1, 0, -1, 0),
    (0, 0, 0, 0, 0, 1, 0, -1),
    (0, 0, 0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 1),
)


def test_multiplicity_matrix_frozen_eight_by_eight():
    p, kappa = _sp4_block()
    matrix = multiplicity_matrix(kappa, p)
    assert matrix.m_matrix == FROZEN_M
    assert matrix.p_matrix == FROZEN_P
    assert matrix.orbit_ids == (0, 1, 0, 1, 1, 0, 1, 0)
    assert matrix.integral_group_order == 4


def test_multiplicity_matrix_algebra_properties():
    p, kappa = _sp4_block()
    matrix = multiplicity_matrix(kappa, p)
    n = len(matrix.elements)
    mus = [e.mu for e in matrix.elements]
    for i in range(n):
        assert matrix.m_matrix[i][i] == 1
        assert matrix.p_matrix[i][i] == 1
        for j in range(n):
            if matrix.m_matrix[i][j] and i != j:
                assert mus[j] > mus[i]
                assert matrix.orbit_ids[i] == matrix.orbit_ids[j]
            assert matrix.p_matrix[i][j] in (-1, 0, 1)
            product = sum(
                matrix.m_matrix[i][k] * matrix.p_matrix[k][j] for k in range(n)
            )
            assert product == (1 if i == j else 0)


def test_two_middle_elements_are_incomparable():
    p, kappa = _sp4_block()
    matrix = multiplicity_matrix(kappa, p)
    i, j = 3, 4
    assert matrix.elements[i].mu == matrix.elements[j].mu == 5
    assert matrix.m_matrix[i][j] == 0
    assert matrix.m_matrix[j][i] == 0


def test_multiplicity_matrix_guards():
    p_long = get_fixture("sp4-long").build_parabolic()
    rs = p_long.embedding.rs
    with pytest.raises(UnsupportedLevi):
        multiplicity_matrix(central_character_from_kappa(Weight.of(2, 1), rs), p_long)
    p, _ = _sp4_block()
    singular = central_character_from_kappa(Weight.of(1, 1), p.embedding.rs)
    with pytest.raises(SingularBlockUnsupported):
        multiplicity_matrix(singular, p)
    rs4 = build_root_system((("A", 3),))
    p4 = minimal_parabolic(from_principal(rs4))
    kappa4 = central_character_from_kappa(
        Weight.of(Fraction(7, 2), Fraction(3, 2), Fraction(-3, 2), Fraction(-7, 2)), rs4
    )
    with pytest.raises(UnsupportedRank):
        multiplicity_matrix(kappa4, p4)


SOCLE_EVEN = [1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0]
SOCLE_ODD = [1, 1, 0, 1, 1, 0, 1, 1, 0, 1]


def test_socle_characters_at_the_two_smallest_types():
    p, kappa = _sp4_block()
    matrix = multiplicity_matrix(kappa, p)
    zero = [e for e in matrix.elements if e.mu == 0][0]
    one = [e for e in matrix.elements if e.mu == 1][0]
    even = socle_k_character(p, matrix, zero, 20)
    odd = socle_k_character(p, matrix, one, 19)
    assert [even.character.mult(2 * i) for i in range(11)] == SOCLE_EVEN
    assert [odd.character.mult(2 * i + 1) for i in range(10)] == SOCLE_ODD
    assert even.character.is_multiplicity_free()
    assert odd.character.is_multiplicity_free()
    assert even.character.support_min() == 0
    assert odd.character.support_min() == 1
    assert not even.genuine_socle
    assert not odd.genuine_socle


def test_socle_flags_track_the_simplicity_threshold():
    p, kappa = _sp4_block()
    matrix = multiplicity_matrix(kappa, p)
    for element in matrix.elements:
        result = socle_k_character(p, matrix, element, 24)
        assert result.genuine_socle == (element.mu >= 3)


def test_socle_rows_resum_to_the_series_character():
    p, kappa = _sp4_block()
    matrix = multiplicity_matrix(kappa, p)
    cutoff = 24
    socles = [socle_k_character(p, matrix, e, cutoff).character for e in matrix.elements]
    for i, element in enumerate(matrix.elements):
        f1 = f1_k_character(p, ModuleDatumE(omega=int(element.omega)), cutoff)
        for delta in range(cutoff + 1):
            combo = sum(
                matrix.m_matrix[i][j] * socles[j].mult(delta)
                for j in range(len(socles))
            )
            assert combo == f1.mult(delta)
            assert socles[i].mult(delta) <= f1.mult(delta)


# At cutoff 5 the terms at mu 8 and 10 read nothing from the shared list.
@pytest.mark.parametrize("cutoff", [40, 5])
def test_socle_builds_one_partition_list_per_call(cutoff, partition_limits):
    p, kappa = _sp4_block()
    matrix = multiplicity_matrix(kappa, p)
    for i, element in enumerate(matrix.elements):
        partition_limits.clear()
        socle = socle_k_character(p, matrix, element, cutoff).character
        terms = [(c, d) for c, d in zip(matrix.p_matrix[i], matrix.elements) if c]
        # The row is unitriangular, so its smallest mu is the element's own.
        assert partition_limits == [cutoff - element.mu]
        expected: dict[int, int] = {}
        for coeff, d in terms:
            f1 = f1_k_character(p, ModuleDatumE(omega=int(d.omega), dim_e=d.dim_e), cutoff)
            for delta, c in f1.mults.items():
                expected[delta] = expected.get(delta, 0) + coeff * c
        assert socle.mults == {k: v for k, v in expected.items() if v}
        brute = {
            delta: sum(
                coeff * d.dim_e * (brute_vector_partitions(p.n_weights, delta - d.mu)
                                   - brute_vector_partitions(p.n_weights, delta - d.mu - 2))
                for coeff, d in terms
            )
            for delta in range(cutoff + 1)
        }
        assert socle.mults == {k: v for k, v in brute.items() if v}


@pytest.mark.parametrize(
    "omegas, cutoff, error",
    [
        # Row 0 reads its terms at elements 0, 2, 5 and 7, in that order.
        ({2: Fraction(-21, 2), 5: Fraction(-13)}, 40, InvalidInput),
        ({2: Fraction(-13), 5: Fraction(-21, 2)}, 40, OutOfRegime),
        ({5: Fraction(-13)}, MAX_CUTOFF + 1, UnsupportedRegime),
        # Element 0 at omega 0 reads mu 12, so its own list fits MAX_CUTOFF + 3.
        ({0: Fraction(0), 2: Fraction(-13)}, MAX_CUTOFF + 3, OutOfRegime),
        ({0: Fraction(0), 5: Fraction(-21, 2)}, MAX_CUTOFF + 3, UnsupportedRegime),
    ],
)
def test_socle_refuses_a_term_in_row_order_before_any_list(omegas, cutoff, error, partition_limits):
    """The first term that f1_k_character would refuse decides the error."""
    p, kappa = _sp4_block()
    matrix = multiplicity_matrix(kappa, p)
    elements = tuple(
        BlockElement(e.w, e.nu, omegas.get(j, e.omega), e.mu, e.dim_e, e.merged_count)
        for j, e in enumerate(matrix.elements)
    )
    edited = MultiplicityMatrix(
        elements, matrix.m_matrix, matrix.p_matrix, matrix.orbit_ids, matrix.integral_group_order
    )
    with pytest.raises(error):
        socle_k_character(p, edited, elements[0], cutoff)
    assert partition_limits == []


def test_socle_rejects_foreign_elements_and_negative_mu():
    p, kappa = _sp4_block()
    matrix = multiplicity_matrix(kappa, p)
    foreign = matrix.elements[0].__class__(
        w=matrix.elements[0].w,
        nu=Weight.of(9, 9),
        omega=Fraction(0),
        mu=Fraction(0),
        dim_e=1,
        merged_count=1,
    )
    with pytest.raises(InvalidInput):
        socle_k_character(p, matrix, foreign, 10)


def test_reconstructibility_report_thresholds():
    p = get_fixture("sp4-principal").build_parabolic()
    low = reconstructibility_report(p, 2)
    assert not low.socle_simple and not low.strong and not low.generic
    mid = reconstructibility_report(p, 4)
    assert mid.socle_simple and not mid.strong and not mid.generic
    high = reconstructibility_report(p, 7)
    assert high.socle_simple and high.strong and high.generic
    assert high.regular_embedding
    with pytest.raises(InvalidInput):
        reconstructibility_report(p, -1)
    with pytest.raises(InvalidInput):
        reconstructibility_report(p, 3, convention="sideways")


def test_iwasawa_support_family():
    support = iwasawa_sl3_support(0, Fraction(7, 3))
    assert support.b_values == (Fraction(7, 3),)
    assert support.k_multiplicity == 1
    support = iwasawa_sl3_support(2, 5)
    assert support.b_values == (-1, 5, 11)
    assert support.k_multiplicity == 3
    for a in range(0, 21):
        support = iwasawa_sl3_support(a, 0)
        assert support.k_multiplicity == a + 1
        assert len(support.b_values) == a + 1
        assert support.b_values == tuple(-3 * a + 6 * j for j in range(a + 1))
    with pytest.raises(InvalidInput):
        iwasawa_sl3_support(-1, 0)
    assert len(iwasawa_sl3_support(MAX_IWASAWA_A, 0).b_values) == MAX_IWASAWA_A + 1
    with pytest.raises(UnsupportedRegime):
        iwasawa_sl3_support(MAX_IWASAWA_A + 1, 0)
