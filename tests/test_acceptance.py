"""End-to-end acceptance checks, one test per shipped guarantee.

Run with -v to get one pass/fail line per criterion.  Everything is
exact integer/rational arithmetic; every comparison is equality.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ghcseries import (
    ModuleDatumE,
    TruncatedTCharacter,
    Weight,
    bounds_report,
    build_root_system,
    central_character_from_kappa,
    enumerate_block,
    euler_k_character,
    f1_k_character,
    from_defining_vector,
    from_principal,
    genericity_check,
    genericity_scan,
    get_fixture,
    invariants,
    minimal_parabolic,
    multiplicity_matrix,
    socle_k_character,
    t_character_N,
)
from oracles import koszul_euler_coefficient

FIXTURE_NAMES = (
    "sl2xsl2-diagonal",
    "sl3-root",
    "sl3-principal",
    "sp4-long",
    "sp4-short",
    "sp4-principal",
)


def _parabolic(name):
    return get_fixture(name).build_parabolic()


def _sp4_matrix():
    p = _parabolic("sp4-principal")
    kappa = central_character_from_kappa(
        Weight.of(Fraction(3, 2), Fraction(1, 2)), p.embedding.rs
    )
    return p, multiplicity_matrix(kappa, p)


def test_c01_invariant_table_of_the_six_example_pairs():
    expected = {
        "sl2xsl2-diagonal": (2, 2, 2, 2, 1),
        "sl3-root": (2, 2, 1, 2, 1),
        "sl3-principal": (4, 4, 2, 6, 3),
        "sp4-long": (2, 2, 1, 2, 1),
        "sp4-short": (3, 2, 2, 4, 2),
        "sp4-principal": (7, 6, 4, 12, 6),
    }
    for name in FIXTURE_NAMES:
        p = _parabolic(name)
        inv = invariants(p)
        l1, l2 = inv.lambdas("n")
        got = (
            inv.rho_n,
            l1,
            l2,
            inv.two_rho_n_perp,
            bounds_report(p).genericity.exact,
        )
        assert got == expected[name], name


def test_c02_block_enumeration_with_unique_smallest_types():
    p = _parabolic("sp4-principal")
    kappa = central_character_from_kappa(
        Weight.of(Fraction(3, 2), Fraction(1, 2)), p.embedding.rs
    )
    block = enumerate_block(kappa, p)
    assert len(block) == 8
    assert sorted(e.mu for e in block) == [0, 1, 2, 5, 5, 8, 9, 10]
    assert sum(1 for e in block if e.mu == 0) == 1
    assert sum(1 for e in block if e.mu == 1) == 1


def test_c03_euler_characteristic_of_the_trivial_character():
    trivial = TruncatedTCharacter({0: 1}, window=(None, None))
    theta = euler_k_character(trivial, 20)
    assert theta.items() == [(0, 2)]


def test_c04_diagonal_pair_series_restricts_to_every_even_type_once():
    p = _parabolic("sl2xsl2-diagonal")
    cutoff = 40
    f1 = f1_k_character(p, ModuleDatumE(omega=-p.two_rho_n_perp), cutoff)
    for delta in range(cutoff + 1):
        assert f1.mult(delta) == (1 if delta % 2 == 0 else 0)


def test_c05_minimal_k_type_has_multiplicity_dim_e_and_nothing_below():
    for name in FIXTURE_NAMES:
        p = _parabolic(name)
        for dim_e in (1, 2):
            for mu in range(16):
                omega = mu - p.two_rho_n_perp
                f1 = f1_k_character(p, ModuleDatumE(omega=omega, dim_e=dim_e), mu + 6)
                assert f1.mult(mu) == dim_e, (name, mu, dim_e)
                for below in range(mu):
                    assert f1.mult(below) == 0, (name, mu, below)


def test_c06_closed_form_euler_matches_koszul_oracle_on_200_characters():
    rng = random.Random(1106)
    cutoff = 16
    for _ in range(200):
        mults = {
            rng.randint(-14, 14): rng.randint(1, 5)
            for _ in range(rng.randint(1, 10))
        }
        n = TruncatedTCharacter(mults, window=(None, None))
        theta = euler_k_character(n, cutoff)
        for delta in range(cutoff + 1):
            assert theta.mult(delta) == koszul_euler_coefficient(mults, delta)


def test_c07_multiplicity_matrices_are_unitriangular_ordered_and_invertible():
    cases = []
    p_sp4, m_sp4 = _sp4_matrix()
    cases.append((p_sp4, m_sp4))
    for spec, kappa_coords in (
        ((("C", 2),), (2, 1)),
        ((("A", 2),), (1, 0, -1)),
        ((("A", 2),), (Fraction(3, 2), 0, Fraction(-3, 2))),
        ((("A", 1), ("A", 1)), (Fraction(1, 2), Fraction(-1, 2), 1, -1)),
        ((("A", 1),), (Fraction(1, 2), Fraction(-1, 2))),
    ):
        rs = build_root_system(spec)
        p = minimal_parabolic(from_principal(rs))
        kappa = central_character_from_kappa(Weight.of(*kappa_coords), rs)
        cases.append((p, multiplicity_matrix(kappa, p)))
    for p, matrix in cases:
        n = len(matrix.elements)
        mus = [e.mu for e in matrix.elements]
        for i in range(n):
            assert matrix.m_matrix[i][i] == 1
            for j in range(n):
                entry = matrix.m_matrix[i][j]
                assert entry in (0, 1)
                if entry and i != j:
                    assert mus[j] > mus[i]
                identity = sum(
                    matrix.p_matrix[i][k] * matrix.m_matrix[k][j] for k in range(n)
                )
                assert identity == (1 if i == j else 0)
        cutoff = 18
        rows = [e for e in matrix.elements if e.mu >= 0]
        socles = {
            id(e): socle_k_character(p, matrix, e, cutoff).character for e in rows
        }
        for i, e in enumerate(matrix.elements):
            if e.mu < 0:
                continue
            f1 = f1_k_character(
                p, ModuleDatumE(omega=int(e.omega), dim_e=e.dim_e), cutoff
            )
            for delta in range(cutoff + 1):
                recombined = sum(
                    matrix.m_matrix[i][j] * socles[id(d)].mult(delta)
                    for j, d in enumerate(matrix.elements)
                    if matrix.m_matrix[i][j] and d.mu >= 0
                )
                assert recombined == f1.mult(delta)


def test_c08_smallest_type_socle_characters_are_multiplicity_free():
    p, matrix = _sp4_matrix()
    cutoff = 40
    zero = [e for e in matrix.elements if e.mu == 0][0]
    one = [e for e in matrix.elements if e.mu == 1][0]
    for element, lowest in ((zero, 0), (one, 1)):
        result = socle_k_character(p, matrix, element, cutoff)
        char = result.character
        assert char.support_min() == lowest
        assert char.is_multiplicity_free()
        assert all(c >= 0 for _, c in char.items())
        assert max(d for d, _ in char.items()) <= cutoff


def test_c09_genericity_scan_equals_closed_form_on_1000_valid_pairs():
    for name in FIXTURE_NAMES:
        p = _parabolic(name)
        threshold = invariants(p).rho_n - 1
        for mu in range(0, 21):
            assert genericity_check(p, mu).generic == (mu >= threshold)

    rng = random.Random(2109)
    specs = [
        (("A", 1),),
        (("A", 1), ("A", 1)),
        (("A", 2),),
        (("B", 2),),
        (("C", 2),),
        (("G", 2),),
    ]
    systems = [build_root_system(s) for s in specs]
    checked = 0
    while checked < 1000:
        rs = systems[rng.randrange(len(systems))]
        h = Weight.of(*(rng.randint(-3, 3) for _ in range(rs.ambient)))
        try:
            emb = from_defining_vector(rs, h)
        except Exception:
            continue
        p = minimal_parabolic(emb)
        if not p.n_weights or sum(p.n_weights) % 2:
            continue
        rho_n = Fraction(sum(p.n_weights), 2)
        mu = rng.randint(0, 20)
        generic, _ = genericity_scan(p.n_weights, mu)
        scalar = mu + 2 - rho_n >= 0
        assert (generic and scalar) == (mu >= rho_n - 1)
        result = genericity_check(p, mu)
        assert result.generic == (mu >= rho_n - 1)
        checked += 1


def test_c10_principal_series_family_meets_each_type_a_plus_one_times():
    from ghcseries import iwasawa_sl3_support

    c = Fraction(1, 3)
    for a in range(21):
        support = iwasawa_sl3_support(a, c)
        assert support.k_multiplicity == a + 1
        assert support.b_values == tuple(c - 3 * a + 6 * j for j in range(a + 1))


def test_c11_threshold_orderings_differ_between_pairs():
    sp4 = bounds_report(_parabolic("sp4-principal"))
    assert sp4.prior_work.exact == 13
    assert sp4.strong("n").exact == 5
    assert sp4.prior_work.exact > sp4.strong("n").exact
    sl3 = bounds_report(_parabolic("sl3-root"))
    assert sl3.socle_simplicity("n").exact == 1
    assert sl3.strong("n").exact == Fraction(3, 2)
    assert sl3.socle_simplicity("n").exact < sl3.strong("n").exact
