from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcseries import (
    InvalidInput,
    KCharacter,
    ModuleDatumE,
    OutOfRegime,
    TruncatedTCharacter,
    UnsupportedRegime,
    WindowTooNarrow,
    euler_k_character,
    f1_k_character,
    get_fixture,
    partition_function,
    t_character_N,
)
from ghcseries import charseries
from ghcseries.charseries import MAX_CUTOFF, _partition_counts
from oracles import brute_vector_partitions, koszul_euler_coefficient


def test_partition_table_frozen_values(partition_tables):
    # Every weight is even, so the table steps by 2 and the odd counts are 0.
    expected = [1, 2, 4, 7, 11, 16, 23, 31, 41, 53, 67]
    assert _partition_counts((2, 2, 4, 6), 21) == (2, expected)
    assert [partition_function((2, 2, 4, 6), x) for x in range(22)][1::2] == [0] * 11
    assert _partition_counts((2, 2, 4, 6), -4) == (2, [])
    assert partition_function((2, 2, 4, 6), -4) == 0


def test_partition_table_rejects_nonpositive_weights():
    with pytest.raises(InvalidInput):
        _partition_counts((2, 0), 5)
    with pytest.raises(InvalidInput):
        _partition_counts((2, -1), -1)
    with pytest.raises(InvalidInput):
        partition_function((2, -1), 3)


def test_partition_lists_stop_at_the_ceiling(partition_tables):
    assert MAX_CUTOFF > 800
    assert len(_partition_counts((1, 2, 2, 4, 6), MAX_CUTOFF)[1]) == MAX_CUTOFF + 1
    with pytest.raises(UnsupportedRegime):
        _partition_counts((2, 2, 4, 6), MAX_CUTOFF + 1)
    with pytest.raises(UnsupportedRegime):
        partition_function((1,), MAX_CUTOFF + 1)


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
    st.integers(0, 18),
)
def test_partition_function_matches_enumeration(weights, x):
    weights = tuple(weights)
    assert partition_function(weights, x) == brute_vector_partitions(weights, x)


_GCD_ONE_BASES = st.lists(st.integers(1, 5), min_size=1, max_size=4).filter(
    lambda ws: math.gcd(*ws) == 1
)


@settings(max_examples=80)
@given(
    st.lists(_GCD_ONE_BASES, min_size=1, max_size=2),
    st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(-3, 40), min_size=1, max_size=5),
    st.sampled_from(["ascending", "descending", "repeated", "drawn"]),
    st.booleans(),
)
def test_partition_tables_match_enumeration(bases, gcds, limits, order, interleaved):
    """Multisets of gcd 1, 2 and 3 (the same base under several gcds shares a
    table), limits in each order, the multisets one after another or
    interleaved; every list matches the oracle, and scribbling on a returned
    list changes no later result."""
    multisets = [tuple(g * w for w in base) for base in bases for g in gcds]
    if order == "ascending":
        limits = sorted(limits)
    elif order == "descending":
        limits = sorted(limits, reverse=True)
    elif order == "repeated":
        limits = [x for x in limits for _ in range(2)]
    if interleaved:
        calls = [(ws, x) for x in limits for ws in multisets]
    else:
        calls = [(ws, x) for ws in multisets for x in limits]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charseries, "_TABLES", {})
        for ws, limit in calls + calls:
            g, counts = _partition_counts(ws, limit)
            assert g == math.gcd(*ws)
            expected = [brute_vector_partitions(ws, x) for x in range(limit + 1)]
            assert not any(c for x, c in enumerate(expected) if x % g)
            assert counts == expected[::g]
            counts[:] = [-1] * (len(counts) + 1)


def test_partition_table_is_lazy_but_consistent(partition_tables):
    _, low = _partition_counts((1, 2), 4)
    _, high = _partition_counts((1, 2), 40)
    assert high[:5] == low == [1, 1, 2, 2, 3]
    assert high[40] == partition_function((1, 2), 40) == 21


def test_module_datum_validation():
    with pytest.raises(InvalidInput):
        ModuleDatumE(omega=0, dim_e=0)


def test_series_t_character_starts_above_minimal_k_type(pair):
    _, p = pair
    for mu in (0, 1, 5):
        omega = mu - p.two_rho_n_perp
        n_char = t_character_N(p, ModuleDatumE(omega=omega), 25)
        assert n_char.window == (None, 25)
        support = [w for w, _ in n_char.items()]
        assert min(support) == mu + 2
        assert n_char.mult(mu + 2) == 1
        assert n_char.mult(mu + 1) == 0
        assert n_char.mult(-100) == 0


def test_series_t_character_is_shifted_partition_count(pair):
    _, p = pair
    omega = 4 - p.two_rho_n_perp
    n_char = t_character_N(p, ModuleDatumE(omega=omega, dim_e=3), 20)
    for x in range(0, 21):
        assert n_char.mult(x) == 3 * partition_function(p.n_weights, x - 6)


def test_series_characters_match_brute_partitions(pair):
    """Cutoffs mu-1 .. mu+3 give empty and one-entry tables; 10, 20, 40 a ladder."""
    _, p = pair
    brute = {x: brute_vector_partitions(p.n_weights, x) for x in range(-2, 41)}
    for mu in (0, 3):
        datum = ModuleDatumE(omega=mu - p.two_rho_n_perp, dim_e=2)
        for cutoff in (mu - 1, mu, mu + 1, mu + 2, mu + 3, 10, 20, 40):
            n_char = t_character_N(p, datum, cutoff)
            expected_n = {
                x: 2 * brute.get(x - mu - 2, 0) for x in range(mu + 2, cutoff + 1)
            }
            assert n_char.mults == {x: c for x, c in expected_n.items() if c}
            assert n_char.window == (None, cutoff)
            f1 = f1_k_character(p, datum, cutoff)
            expected_f1 = {
                d: 2 * (brute.get(d - mu, 0) - brute.get(d - mu - 2, 0))
                for d in range(0, cutoff + 1)
            }
            assert f1.mults == {d: c for d, c in expected_f1.items() if c}
            assert f1.cutoff == cutoff


def test_euler_window_requirements():
    narrow = TruncatedTCharacter({2: 1}, window=(0, 12))
    with pytest.raises(WindowTooNarrow):
        euler_k_character(narrow, 12)
    with pytest.raises(WindowTooNarrow):
        euler_k_character(TruncatedTCharacter({2: 1}, window=(-30, 11)), 10)
    ok = TruncatedTCharacter({2: 1}, window=(-12, 12))
    theta = euler_k_character(ok, 10)
    assert theta.mult(2) == 1 and theta.mult(0) == -1


def test_euler_refuses_a_k_character():
    with pytest.raises(InvalidInput, match="nonnegative"):
        euler_k_character(KCharacter({0: 1, 2: 1}, cutoff=30), 10)


def test_euler_of_finite_k_characters_doubles_them():
    for delta in (0, 1, 4):
        weights = {w: 1 for w in range(-delta, delta + 1, 2)}
        n = TruncatedTCharacter(weights, window=(None, None))
        theta = euler_k_character(n, 10)
        assert theta.virtual
        assert theta.items() == [(delta, 2)]


def test_euler_matches_koszul_oracle_on_random_characters():
    rng = random.Random(20240)
    for _ in range(120):
        mults = {
            rng.randint(-12, 12): rng.randint(1, 4)
            for _ in range(rng.randint(1, 9))
        }
        n = TruncatedTCharacter(mults, window=(None, None))
        theta = euler_k_character(n, 14)
        for delta in range(0, 15):
            assert theta.mult(delta) == koszul_euler_coefficient(mults, delta)


@given(
    st.dictionaries(st.integers(-10, 10), st.integers(1, 5), min_size=1, max_size=8)
)
def test_euler_matches_koszul_oracle_property(mults):
    n = TruncatedTCharacter(mults, window=(None, None))
    theta = euler_k_character(n, 12)
    for delta in range(0, 13):
        assert theta.mult(delta) == koszul_euler_coefficient(mults, delta)


def test_euler_equals_minus_f1_in_the_vanishing_regime():
    p = get_fixture("sp4-principal").build_parabolic()
    for mu in (0, 3, 7):
        omega = mu - p.two_rho_n_perp
        datum = ModuleDatumE(omega=omega)
        f1 = f1_k_character(p, datum, 18)
        theta = euler_k_character(t_character_N(p, datum, 20), 18)
        for delta in range(0, 19):
            assert theta.mult(delta) == -f1.mult(delta)


def test_f1_values_for_sp4_principal():
    p = get_fixture("sp4-principal").build_parabolic()
    f1 = f1_k_character(p, ModuleDatumE(omega=3 - p.two_rho_n_perp), 15)
    assert f1.items() == [(3, 1), (5, 1), (7, 2), (9, 3), (11, 4), (13, 5), (15, 7)]
    assert isinstance(f1, KCharacter)
    assert not f1.virtual


def test_f1_respects_dim_e(pair):
    _, p = pair
    omega = 2 - p.two_rho_n_perp
    single = f1_k_character(p, ModuleDatumE(omega=omega, dim_e=1), 12)
    triple = f1_k_character(p, ModuleDatumE(omega=omega, dim_e=3), 12)
    assert {d: 3 * c for d, c in single.mults.items()} == triple.mults


def test_f1_requires_nonnegative_mu(pair):
    _, p = pair
    omega = -1 - p.two_rho_n_perp
    with pytest.raises(OutOfRegime):
        f1_k_character(p, ModuleDatumE(omega=omega), 12)
