from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghcseries import (
    GroupMismatch,
    InvalidInput,
    UnsupportedAlgebra,
    Weight,
    bruhat_leq,
    build_root_system,
    coroot_pairing,
    inner_product,
    project_trace_zero,
    weyl_group,
)
from ghcseries import rootsys
from oracles import (
    bruhat_lower_intervals,
    indecomposable_roots,
    lex_positive_half,
    reflection_closure,
    simple_expansion,
    simple_root_closure,
)

SUPPORTED_SINGLE = [
    (("A", 1), 2, 2),
    (("A", 2), 6, 6),
    (("A", 3), 12, 24),
    (("A", 4), 20, 120),
    (("B", 2), 8, 8),
    (("B", 3), 18, 48),
    (("C", 2), 8, 8),
    (("C", 3), 18, 48),
    (("D", 3), 12, 24),
    (("D", 4), 24, 192),
    (("G", 2), 12, 12),
]


@pytest.mark.parametrize("spec,root_count,weyl_order", SUPPORTED_SINGLE)
def test_root_count_and_weyl_order(spec, root_count, weyl_order):
    rs = build_root_system((spec,))
    assert len(rs.roots) == root_count
    assert len(rs.positive_roots) == root_count // 2
    assert len(weyl_group(rs)) == weyl_order


FACTORS = [
    ("A", 1), ("A", 2), ("A", 3), ("B", 1), ("B", 2), ("B", 3),
    ("C", 1), ("C", 2), ("C", 3), ("D", 2), ("D", 3), ("G", 2),
]
# Every factor up to rank 3, and every direct sum of them up to total rank 3.
UP_TO_RANK_3 = [
    combo
    for n in (1, 2, 3)
    for combo in combinations_with_replacement(FACTORS, n)
    if sum(rank for _, rank in combo) <= 3
]
# Every factor up to rank 4, and direct sums that reach total rank 4.
ORDER_SPECS = [(f,) for f in FACTORS] + [
    (("A", 4),), (("B", 4),), (("C", 4),), (("D", 4),),
    (("A", 1), ("A", 1), ("A", 1), ("A", 1)),
    (("A", 2), ("A", 2)),
    (("A", 1), ("C", 2)),
    (("G", 2), ("A", 1), ("A", 1)),
    (("A", 1), ("A", 3)),
    (("B", 3), ("A", 1)),
    (("B", 2), ("G", 2)),
]


def _label(spec):
    return "+".join(f"{fam}{rank}" for fam, rank in spec)


def _fresh_group(rs):
    return rootsys.generate_group(rs.simple_roots, rs.ambient).elements


@pytest.mark.parametrize("spec", ORDER_SPECS, ids=_label)
def test_weyl_order_formula_matches_the_closure(spec):
    rs = build_root_system(spec)
    assert rs.weyl_order == len(_fresh_group(rs))


@pytest.mark.parametrize("spec", ORDER_SPECS, ids=_label)
def test_weyl_group_matches_the_all_reflections_oracle(spec):
    rs = build_root_system(spec)
    assert weyl_group(rs).elements == reflection_closure(rs.positive_roots, rs.ambient)


def test_weyl_group_is_built_once_per_root_system(monkeypatch):
    monkeypatch.setattr(rootsys, "_GROUPS", {})
    rs = build_root_system((("C", 2),))
    group = weyl_group(rs)
    assert weyl_group(rs) is group
    assert weyl_group(build_root_system((("C", 2),))) is group
    assert len(rootsys._GROUPS) == 1


def test_memoized_groups_match_a_fresh_closure_and_never_collide(monkeypatch):
    monkeypatch.setattr(rootsys, "_GROUPS", {})
    groups = {}
    for spec in UP_TO_RANK_3:
        rs = build_root_system(spec)
        groups[spec] = weyl_group(rs)
        assert groups[spec].elements == _fresh_group(rs), spec
    assert len(rootsys._GROUPS) == len(UP_TO_RANK_3)
    # B2 and C2 have the same matrices but keep separate entries.
    assert groups[(("B", 2),)] is not groups[(("C", 2),)]


def test_direct_sum_counts_multiply():
    rs = build_root_system((("A", 1), ("C", 2)))
    assert len(rs.roots) == 2 + 8
    assert len(weyl_group(rs)) == 2 * 8
    assert rs.rank == 3


@pytest.mark.parametrize(
    "spec",
    [(("E", 8),), (("F", 4),), (("A", 5),), (("G", 3),), (("D", 1),), (("Z", 2),)],
)
def test_out_of_scope_algebras_raise(spec):
    with pytest.raises(UnsupportedAlgebra):
        build_root_system(spec)


def test_total_rank_is_capped():
    with pytest.raises(UnsupportedAlgebra):
        build_root_system((("A", 3), ("A", 2)))


# Every supported factor, then direct sums with more than one factor.
PINNED_SPECS = [
    ((fam, rank),)
    for fam, ranks in (("A", (1, 2, 3, 4)), ("B", (1, 2, 3, 4)), ("C", (1, 2, 3, 4)),
                       ("D", (2, 3, 4)), ("G", (2,)))
    for rank in ranks
] + [
    (("A", 1), ("C", 2)),
    (("G", 2), ("A", 1), ("A", 1)),
    (("A", 2), ("A", 2)),
]
# sha256 of the root data of PINNED_SPECS: every coordinate and the order
# of every root list are fixed, and gradings, parabolics, Weyl groups and
# goldens all read them.
ROOT_DATA_SHA256 = "05109164355bd31b33dd836457b962fb305581f05d82995bfc74b2de43bd771d"


def test_root_data_matches_the_pinned_digest():
    digest = hashlib.sha256()
    for spec in PINNED_SPECS:
        rs = build_root_system(spec)
        fields = (rs.type_label, rs.ambient, rs.roots, rs.positive_roots,
                  rs.simple_roots, rs.rho_tilde, rs.factor_slices)
        digest.update(repr(fields).encode())
    assert digest.hexdigest() == ROOT_DATA_SHA256


@pytest.mark.parametrize("spec", PINNED_SPECS, ids=_label)
def test_root_data_matches_the_closure_oracle(spec):
    rs = build_root_system(spec)
    coords = [r.coords for r in rs.roots]
    assert len(set(coords)) == len(coords)
    assert set(coords) == simple_root_closure(rs.simple_roots)
    assert rs.positive_roots == lex_positive_half(rs.roots)
    assert 2 * len(rs.positive_roots) == len(rs.roots)
    assert len(rs.simple_roots) == rs.rank
    assert set(indecomposable_roots(rs.positive_roots)) == set(rs.simple_roots)


@pytest.mark.parametrize("spec,_rc,_wo", SUPPORTED_SINGLE)
def test_simple_roots_generate_positives(spec, _rc, _wo):
    rs = build_root_system((spec,))
    assert len(rs.simple_roots) == rs.rank
    for root in rs.positive_roots:
        coeffs = _simple_coefficients(rs, root)
        assert coeffs is not None
        assert all(c >= 0 and c.denominator == 1 for c in coeffs)


def _simple_coefficients(rs, root):
    try:
        return simple_expansion(rs.simple_roots, root.coords)
    except AssertionError:
        return None


@pytest.mark.parametrize("spec,_rc,_wo", SUPPORTED_SINGLE)
def test_rho_tilde_pairs_to_one_with_simple_coroots(spec, _rc, _wo):
    rs = build_root_system((spec,))
    for alpha in rs.simple_roots:
        assert coroot_pairing(rs.rho_tilde, alpha) == 1


@pytest.mark.parametrize("spec,_rc,_wo", SUPPORTED_SINGLE)
def test_group_elements_permute_roots_and_length_counts_inversions(spec, _rc, _wo):
    rs = build_root_system((spec,))
    root_set = {r.coords for r in rs.roots}
    positive_set = {r.coords for r in rs.positive_roots}
    for w in weyl_group(rs):
        images = {w.apply(r).coords for r in rs.roots}
        assert images == root_set
        inversions = sum(
            1 for r in rs.positive_roots if w.apply(r).coords not in positive_set
        )
        assert inversions == w.length


def _identity_matrix(rs):
    n = rs.ambient
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def test_group_is_closed_and_has_unique_identity():
    rs = build_root_system((("C", 2),))
    group = weyl_group(rs)
    probe = [Weight.of(3, 1), Weight.of(1, -2)]
    signatures = {tuple(w.apply(v).coords for v in probe): w for w in group}
    assert len(signatures) == len(group)
    identities = [w for w in group if w.matrix == _identity_matrix(rs)]
    assert len(identities) == 1
    assert identities[0].length == 0


RANK2_BRUHAT = [(("A", 1),), (("A", 1), ("A", 1)), (("A", 2),), (("C", 2),), (("G", 2),)]
RANK3_BRUHAT = [
    (("A", 3),), (("B", 3),), (("C", 3),), (("A", 1), ("A", 2)),
    (("A", 1), ("A", 1), ("A", 1)),
]


@pytest.mark.parametrize("spec", RANK2_BRUHAT + RANK3_BRUHAT)
def test_bruhat_order_matches_subword_oracle_exhaustively(spec):
    rs = build_root_system(spec)
    group = weyl_group(rs)
    below = bruhat_lower_intervals(rs, group)
    for x, y in product(group, repeat=2):
        assert bruhat_leq(x, y, rs) == (x in below[y]), (x, y)


def test_bruhat_basic_axioms():
    rs = build_root_system((("C", 2),))
    group = weyl_group(rs)
    identity = [w for w in group if w.matrix == _identity_matrix(rs)][0]
    for w in group:
        assert bruhat_leq(identity, w, rs)
        assert bruhat_leq(w, w, rs)
        if w.matrix != _identity_matrix(rs):
            assert not bruhat_leq(w, identity, rs)


def test_bruhat_rejects_foreign_elements():
    rs_a = build_root_system((("A", 2),))
    rs_c = build_root_system((("C", 2),))
    w = weyl_group(rs_c)[1]
    with pytest.raises(GroupMismatch):
        bruhat_leq(w, w, rs_a)


def test_bruhat_reuses_the_weyl_group_closure(closures):
    rs = build_root_system((("B", 3),))
    group = weyl_group(rs)
    assert closures[0] == 1
    assert bruhat_leq(group[0], group[-1], rs)
    assert not bruhat_leq(group[-1], group[1], rs)
    assert closures[0] == 1


def test_bruhat_componentwise_on_products():
    rs = build_root_system((("A", 1), ("A", 1)))
    group = weyl_group(rs)
    by_sig = {
        (w.apply(Weight.of(1, -1, 0, 0)).coords, w.apply(Weight.of(0, 0, 1, -1)).coords): w
        for w in group
    }
    e = by_sig[((1, -1, 0, 0), (0, 0, 1, -1))]
    s1 = by_sig[((-1, 1, 0, 0), (0, 0, 1, -1))]
    s2 = by_sig[((1, -1, 0, 0), (0, 0, -1, 1))]
    w0 = by_sig[((-1, 1, 0, 0), (0, 0, -1, 1))]
    assert bruhat_leq(s1, w0, rs) and bruhat_leq(s2, w0, rs)
    assert not bruhat_leq(s1, s2, rs) and not bruhat_leq(s2, s1, rs)
    assert bruhat_leq(e, s1, rs)


def test_orbit_sizes_detect_regularity():
    rs = build_root_system((("C", 2),))
    kappa = Weight.of(Fraction(3, 2), Fraction(1, 2))
    regular = {w.apply(kappa).coords for w in weyl_group(rs)}
    assert len(regular) == 8
    singular = {w.apply(Weight.of(1, 1)).coords for w in weyl_group(rs)}
    assert len(singular) < 8
    assert len(weyl_group(rs)) % len(singular) == 0


def test_trace_projection_is_invisible_to_roots():
    rs = build_root_system((("A", 2),))
    v = Weight.of(5, 1, 0)
    projected = project_trace_zero(v, rs)
    assert sum(projected.coords) == 0
    for root in rs.roots:
        assert inner_product(root, v) == inner_product(root, projected)


def test_trace_projection_is_identity_off_trace_families():
    rs = build_root_system((("C", 2),))
    v = Weight.of(5, 1)
    assert project_trace_zero(v, rs) == v


def test_weight_arithmetic_and_validation():
    a = Weight.of(1, 2)
    b = Weight.of(Fraction(1, 2), -1)
    assert (a + b).coords == (Fraction(3, 2), Fraction(1))
    assert (a - b).coords == (Fraction(1, 2), Fraction(3))
    assert a.scaled(2).coords == (2, 4)
    assert (-a).coords == (-1, -2)
    with pytest.raises(InvalidInput):
        inner_product(a, Weight.of(1, 2, 3))


@given(
    st.lists(st.integers(-6, 6), min_size=2, max_size=2),
    st.lists(st.integers(-6, 6), min_size=2, max_size=2),
)
def test_group_action_preserves_inner_products(u_coords, v_coords):
    rs = build_root_system((("C", 2),))
    u, v = Weight.of(*u_coords), Weight.of(*v_coords)
    for w in weyl_group(rs):
        assert inner_product(w.apply(u), w.apply(v)) == inner_product(u, v)


@given(st.integers(0, 11))
def test_g2_realization_is_trace_zero_and_closed(index):
    rs = build_root_system((("G", 2),))
    root = rs.roots[index % len(rs.roots)]
    assert sum(root.coords) == 0
    lengths = sorted({inner_product(r, r) for r in rs.roots})
    assert len(lengths) == 2
    assert lengths[1] == 3 * lengths[0]
