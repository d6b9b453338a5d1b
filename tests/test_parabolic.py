from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghcseries import (
    InternalInconsistency,
    InvalidInput,
    RootSystem,
    Weight,
    b_dominant,
    bounds_report,
    build_root_system,
    from_principal,
    genericity_check,
    genericity_scan,
    get_fixture,
    inner_product,
    invariants,
    minimal_parabolic,
)
from ghcseries import parabolic
from oracles import simple_expansion
from test_rootsys import ORDER_SPECS, _label

N_WEIGHTS = {
    "sl2xsl2-diagonal": (2, 2),
    "sl3-root": (1, 1, 2),
    "sl3-principal": (2, 2, 4),
    "sp4-long": (1, 1, 2),
    "sp4-short": (2, 2, 2),
    "sp4-principal": (2, 2, 4, 6),
}

INVARIANT_TABLE = {
    "sl2xsl2-diagonal": (2, 2, 2, 2, 1),
    "sl3-root": (2, 2, 1, 2, 1),
    "sl3-principal": (4, 4, 2, 6, 3),
    "sp4-long": (2, 2, 1, 2, 1),
    "sp4-short": (3, 2, 2, 4, 2),
    "sp4-principal": (7, 6, 4, 12, 6),
}


def test_n_weights_and_counts(fixture_name, pair):
    emb, p = pair
    assert p.n_weights == N_WEIGHTS[fixture_name]
    assert p.s == 1
    assert p.r == len(p.n_weights) - 1
    assert 2 * len(p.n_roots) + len(p.m_roots) + emb.rs.rank == emb.rs.dim
    assert len(p.adapted_positive_roots) == len(emb.rs.positive_roots)


def test_perp_weights_drop_one_copy_of_two(pair):
    _, p = pair
    perp = list(p.n_perp_weights())
    full = list(p.n_weights)
    full.remove(2)
    assert sorted(perp) == sorted(full)


def test_invariant_quintuple(fixture_name, pair):
    _, p = pair
    inv = invariants(p)
    rho_n, l1, l2, two_perp, generic = INVARIANT_TABLE[fixture_name]
    assert inv.rho_n == rho_n
    assert inv.rho == 1
    assert inv.lambdas("n") == (l1, l2)
    assert inv.two_rho_n_perp == two_perp
    assert bounds_report(p).genericity.exact == generic


def test_two_rho_perp_consistency(pair):
    _, p = pair
    inv = invariants(p)
    assert inv.two_rho_n_perp == 2 * inv.rho_n - 2
    assert inv.two_rho_n_perp == sum(p.n_perp_weights())


def test_lambda_defaults_on_rank_one():
    p = minimal_parabolic(from_principal(build_root_system((("A", 1),))))
    inv = invariants(p)
    assert p.n_weights == (2,)
    assert inv.lambdas("n") == (2, 2)
    assert inv.lambda2_n_defaulted
    assert inv.lambdas("perp") == (0, 0)
    assert inv.lambda1_perp_defaulted and inv.lambda2_perp_defaulted


def test_adapted_half_sum_sp4_short():
    p = get_fixture("sp4-short").build_parabolic()
    assert p.rho_tilde_adapted == Weight.of(2, -1)
    assert p.rho_tilde_n == Weight.of(Fraction(3, 2), Fraction(-3, 2))
    assert len(p.m_roots) == 2


def test_adapted_positive_roots_have_positive_grading_or_lie_in_m(pair):
    emb, p = pair
    for root in p.n_roots:
        assert inner_product(root, emb.h_vector) > 0
    for root in p.m_roots:
        assert inner_product(root, emb.h_vector) == 0


def test_genericity_scan_hand_cases():
    ok, witness = genericity_scan((2,), 0)
    assert ok and witness is None
    bad, witness = genericity_scan((2,), -2)
    assert not bad and witness == (2,)
    ok, _ = genericity_scan((2, 2, 4, 6), 6)
    assert ok
    bad, witness = genericity_scan((2, 2, 4, 6), 5)
    assert not bad and witness is not None


def test_genericity_witness_actually_violates(pair):
    _, p = pair
    for mu in range(-3, 12):
        generic, witness = genericity_scan(p.n_weights, mu)
        if witness is None:
            continue
        rho_s = Fraction(sum(witness), 2)
        assert not ((mu + 2 - rho_s) * rho_s > 0 and mu + 2 - sum(p.n_weights) / Fraction(2) >= 0)


def test_genericity_check_matches_closed_form_on_fixtures(pair):
    _, p = pair
    threshold = invariants(p).rho_n - 1
    for mu in range(0, 16):
        result = genericity_check(p, mu)
        assert result.generic == (mu >= threshold)
        assert result.closed_form_threshold == threshold
        assert result.rho_n_integral
    with pytest.raises(InvalidInput):
        genericity_check(p, -1)


@given(
    st.lists(st.integers(1, 8), min_size=1, max_size=4),
    st.integers(-4, 20),
)
def test_scan_equals_closed_form_for_even_weight_sums(weights, mu):
    weights = tuple(weights)
    if sum(weights) % 2:
        weights = weights + (1,)
    rho_n = Fraction(sum(weights), 2)
    generic, _ = genericity_scan(weights, mu)
    scalar_ok = mu + 2 - rho_n >= 0
    assert (generic and scalar_ok) == (mu >= rho_n - 1)


BOUNDS = {
    "sl2xsl2-diagonal": {"socle": 1, "strong": 2, "prior": 3},
    "sl3-root": {"socle": 1, "strong": Fraction(3, 2), "prior": None},
    "sl3-principal": {"socle": 2, "strong": 3, "prior": 7},
    "sp4-long": {"socle": 1, "strong": Fraction(3, 2), "prior": None},
    "sp4-short": {"socle": 1, "strong": 2, "prior": None},
    "sp4-principal": {"socle": 3, "strong": 5, "prior": 13},
}


def test_bounds_report_values(fixture_name, pair):
    _, p = pair
    report = bounds_report(p)
    expected = BOUNDS[fixture_name]
    assert report.weak.exact == 0
    assert report.socle_simplicity("n").exact == expected["socle"]
    assert report.strong("n").exact == expected["strong"]
    if expected["prior"] is None:
        assert report.prior_work is None
    else:
        assert report.prior_work.exact == expected["prior"]


def test_prior_work_coefficients_for_principal_sp4():
    p = get_fixture("sp4-principal").build_parabolic()
    report = bounds_report(p)
    assert report.prior_work_coefficients == (4, 3)
    assert report.prior_work.exact == 2 * (4 + 3) - 1


@pytest.mark.parametrize("spec", ORDER_SPECS, ids=_label)
def test_prior_work_coefficients_match_the_elimination_oracle(spec):
    rs = build_root_system(spec)
    two_rho = [sum(column) for column in zip(*(beta.coords for beta in rs.positive_roots))]
    coefficients = bounds_report(minimal_parabolic(from_principal(rs))).prior_work_coefficients
    assert coefficients == simple_expansion(rs.simple_roots, two_rho)
    assert all(type(c) is Fraction for c in coefficients)


def test_the_walk_up_the_positive_roots_refuses_a_root_it_misses():
    rs = build_root_system((("C", 2),))
    stray = RootSystem(
        rs.type_label, rs.ambient, rs.roots, rs.positive_roots + (Weight.of(5, 7),),
        rs.simple_roots, rs.rho_tilde, rs.factor_slices,
    )
    with pytest.raises(InternalInconsistency, match="missed a positive root"):
        parabolic._simple_root_sum(stray)


def test_every_convention_selector_refuses_an_unknown_convention():
    p = get_fixture("sp4-principal").build_parabolic()
    report, inv = bounds_report(p), invariants(p)
    assert report.socle_simplicity("perp") == report.socle_simplicity_perp
    assert report.strong("perp") == report.strong_perp
    selectors = (report.socle_simplicity, report.strong, inv.lambdas)
    for select in selectors:
        with pytest.raises(InvalidInput) as exc:
            select("sideways")
        assert str(exc.value) == "unknown lambda convention 'sideways'"
        with pytest.raises(InvalidInput) as exc:
            select("s" * 5000)
        assert str(exc.value) == f"unknown lambda convention {'s' * 64!r}... (5000 characters)"


def test_threshold_ceiling():
    p = get_fixture("sl3-root").build_parabolic()
    strong = bounds_report(p).strong("n")
    assert strong.exact == Fraction(3, 2)
    assert strong.smallest_mu == 2


def test_minimal_k_type_shift_is_two_rho_perp(pair):
    _, p = pair
    assert p.two_rho_n_perp == sum(p.n_perp_weights())
    assert p.two_rho_n_perp == invariants(p).two_rho_n_perp


def test_b_dominance(pair):
    _, p = pair
    assert b_dominant(p, p.rho_tilde_adapted)
    assert b_dominant(p, Weight.of(*([0] * len(p.rho_tilde_adapted.coords))))
    assert not b_dominant(p, -p.rho_tilde_adapted)
