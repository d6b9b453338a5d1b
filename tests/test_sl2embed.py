from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghcseries import (
    InvalidInput,
    NoSl2Triple,
    NonIntegralGrading,
    NotARoot,
    NotIntegrable,
    Weight,
    build_root_system,
    from_defining_vector,
    from_principal,
    from_root,
    get_fixture,
    inner_product,
    is_regular,
    minimal_parabolic,
    sl2_decomposition,
    t_character_of_g,
)
from ghcseries.sl2embed import expand_decomposition
from oracles import (
    fraction_coroot,
    fraction_coroot_sum,
    fraction_pair,
    principal_defining_vector,
)
from test_rootsys import ORDER_SPECS, _label


PRINCIPAL_H = [
    ((("A", 1), ("A", 1)), (1, -1, 1, -1)),
    ((("A", 2),), (2, 0, -2)),
    ((("B", 2),), (4, 2)),
    ((("C", 2),), (3, 1)),
    ((("G", 2),), (Fraction(10, 3), Fraction(-2, 3), Fraction(-8, 3))),
]


@pytest.mark.parametrize("spec,h", PRINCIPAL_H)
def test_principal_defining_vectors(spec, h):
    rs = build_root_system(spec)
    emb = from_principal(rs)
    assert emb.h_vector == Weight.of(*h)
    assert emb.kind == "principal"
    grading = dict(zip(rs.roots, emb.grading))
    for alpha in rs.simple_roots:
        assert grading[alpha] == 2
    assert is_regular(emb)


@pytest.mark.parametrize("spec", ORDER_SPECS, ids=_label)
def test_principal_h_matches_the_elimination_oracle(spec):
    rs = build_root_system(spec)
    assert from_principal(rs).h_vector.coords == principal_defining_vector(rs)


def test_root_embedding_defining_vector():
    rs = build_root_system((("C", 2),))
    long = from_root(rs, Weight.of(2, 0))
    assert long.h_vector == Weight.of(1, 0)
    short = from_root(rs, Weight.of(1, -1))
    assert short.h_vector == Weight.of(1, -1)
    assert long.kind == short.kind == "root"
    assert not is_regular(long)


def test_from_root_rejects_non_roots():
    rs = build_root_system((("A", 2),))
    with pytest.raises(NotARoot):
        from_root(rs, Weight.of(1, 1, -2))
    with pytest.raises(NotARoot):
        from_root(rs, Weight.of(1, -1))


def test_explicit_vector_validation_order():
    pair = build_root_system((("A", 1), ("A", 1)))
    with pytest.raises(NonIntegralGrading):
        from_defining_vector(pair, Weight.of(Fraction(1, 3), Fraction(-1, 3), 1, -1))
    with pytest.raises(NoSl2Triple):
        from_defining_vector(build_root_system((("C", 2),)), Weight.of(4, 0))
    with pytest.raises(NotIntegrable):
        from_defining_vector(pair, Weight.of(1, -1, 3, -3))
    with pytest.raises(InvalidInput):
        from_defining_vector(pair, Weight.of(1, -1))


FACTORS = [(fam, n) for fam in "ABC" for n in (1, 2, 3, 4)] + [
    ("D", 2), ("D", 3), ("D", 4), ("G", 2),
]
# Every type, and every direct sum of types, up to total rank 4.
UP_TO_RANK_4 = [
    combo
    for n in (1, 2, 3, 4)
    for combo in combinations_with_replacement(FACTORS, n)
    if sum(rank for _, rank in combo) <= 4
]


def _assert_grading_is_inner_products(emb):
    rs = emb.rs
    values = [inner_product(alpha, emb.h_vector) for alpha in rs.roots]
    assert emb.grading == tuple(values)
    assert all(type(v) is int for v in emb.grading)
    assert is_regular(emb) == (0 not in values)
    adjoint = Counter(values)
    adjoint[0] += rs.rank
    assert t_character_of_g(emb).mults == dict(adjoint)
    p = minimal_parabolic(emb)
    assert p.n_weights == tuple(sorted(v for v in values if v > 0))
    assert p.n_weights == tuple(inner_product(a, emb.h_vector) for a in p.n_roots)


@pytest.mark.parametrize(
    "spec", UP_TO_RANK_4, ids=["+".join(f"{f}{n}" for f, n in s) for s in UP_TO_RANK_4]
)
def test_principal_grading_matches_inner_products(spec):
    _assert_grading_is_inner_products(from_principal(build_root_system(spec)))


def _typed(values) -> list:
    return [(type(v), v) for v in values]


def _assert_pair_matches_the_fraction_oracle(emb, h):
    """emb and its parabolic against fraction_pair, in value and exact type."""
    rs = emb.rs
    want = fraction_pair([a.coords for a in rs.roots], h)
    assert _typed(emb.h_vector.coords) == _typed(h)
    assert _typed(emb.grading) == _typed(want.grading)
    assert _typed(rs.rho_tilde.coords) == _typed(want.rho_tilde)
    p = minimal_parabolic(emb)
    assert [_typed(a.coords) for a in p.n_roots] == [_typed(a) for a in want.n_roots]
    assert [_typed(a.coords) for a in p.m_roots] == [_typed(a) for a in want.m_roots]
    assert _typed(p.n_weights) == _typed(want.n_weights)
    assert _typed(p.rho_tilde_n.coords) == _typed(want.rho_tilde_n)
    assert _typed(p.rho_tilde_adapted.coords) == _typed(want.rho_tilde_adapted)


def _reflected(v, alpha):
    """s_alpha(v) = v - <v, alpha> alpha^vee, in Fractions."""
    pairing = sum(a * x for a, x in zip(alpha, v))
    return tuple(x - pairing * c for x, c in zip(v, fraction_coroot(alpha)))


@pytest.mark.parametrize("spec", UP_TO_RANK_4, ids=_label)
def test_pair_construction_matches_the_fraction_oracle(spec):
    rs = build_root_system(spec)
    roots = [a.coords for a in rs.roots]
    principal = from_principal(rs)
    _assert_pair_matches_the_fraction_oracle(principal, fraction_coroot_sum(roots))
    for beta in rs.positive_roots:
        _assert_pair_matches_the_fraction_oracle(
            from_root(rs, beta), fraction_coroot(beta.coords)
        )
    # Weyl conjugates of the principal h and of coroots, with trace-zero
    # blocks shifted by a constant, are valid defining vectors with
    # Fraction entries.  Every root coordinate is 0, +-1 or +-2, and every
    # coordinate is nonzero on some root, so moving one entry by 1/4 makes
    # a root non-integral.
    rng = random.Random(_label(spec))
    for _ in range(4):
        h = rng.choice([principal.h_vector.coords, fraction_coroot(rng.choice(roots))])
        for _ in range(rng.randint(1, 3)):
            h = _reflected(h, rng.choice(roots))
        h = list(h)
        for (fam, _), (lo, hi) in zip(rs.type_label, rs.factor_slices):
            if fam in "AG":
                shift = rng.choice([Fraction(1, 2), Fraction(-1, 3), Fraction(2, 7)])
                h[lo:hi] = [c + shift for c in h[lo:hi]]
        h = tuple(h)
        _assert_pair_matches_the_fraction_oracle(from_defining_vector(rs, h), h)
        k = rng.randrange(rs.ambient)
        bad = h[:k] + (h[k] + Fraction(1, 4),) + h[k + 1 :]
        root, value = fraction_pair(roots, bad).first_non_integral
        with pytest.raises(NonIntegralGrading) as info:
            from_defining_vector(rs, bad)
        point = ", ".join(str(c) for c in root)
        assert str(info.value) == f"root ({point}) evaluates to non-integer {value}"


def test_fixture_grading_matches_inner_products(pair):
    emb, _ = pair
    _assert_grading_is_inner_products(emb)


def test_adjoint_t_character_shape(pair):
    emb, _ = pair
    char = t_character_of_g(emb)
    assert char.is_symmetric()
    assert char.total() == emb.rs.dim
    assert char.mult(2) >= 1


ADJOINT_DECOMPOSITIONS = {
    "sl2xsl2-diagonal": ((2, 2),),
    "sl3-root": ((0, 1), (1, 2), (2, 1)),
    "sl3-principal": ((2, 1), (4, 1)),
    "sp4-long": ((0, 3), (1, 2), (2, 1)),
    "sp4-short": ((0, 1), (2, 3)),
    "sp4-principal": ((2, 1), (6, 1)),
}


def test_adjoint_decompositions(fixture_name, pair):
    emb, _ = pair
    decomp = sl2_decomposition(t_character_of_g(emb))
    assert decomp.counts == ADJOINT_DECOMPOSITIONS[fixture_name]
    assert decomp.dimension() == emb.rs.dim


def test_principal_g2_adjoint_is_two_plus_ten():
    emb = from_principal(build_root_system((("G", 2),)))
    decomp = sl2_decomposition(t_character_of_g(emb))
    assert decomp.counts == ((2, 1), (10, 1))


def test_expand_decomposition_round_trip(pair):
    emb, _ = pair
    char = t_character_of_g(emb)
    decomp = sl2_decomposition(char)
    assert expand_decomposition(decomp) == char


@given(st.integers(-4, 4), st.integers(-4, 4))
def test_defining_vector_validation_never_lies(a, b):
    rs = build_root_system((("C", 2),))
    h = Weight.of(a, b)
    try:
        emb = from_defining_vector(rs, h)
    except (NonIntegralGrading, NoSl2Triple, NotIntegrable):
        return
    char = t_character_of_g(emb)
    decomp = sl2_decomposition(char)
    assert decomp.dimension() == rs.dim
    assert char.mult(2) >= 1
    assert expand_decomposition(decomp) == char
