from __future__ import annotations

import functools
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcseries import (
    FIXTURES,
    GhcseriesError,
    IndexOutOfRange,
    InvalidInput,
    KCharacter,
    ModuleDatumE,
    Regime,
    TruncatedTCharacter,
    VirtualNotAllowed,
    WindowTooNarrow,
    build_root_system,
    cohomology,
    e1_page_dimension,
    exterior_weights,
    f1_k_character,
    get_fixture,
    minimal_parabolic,
    nk_cohomology,
    top_degree_regime,
    top_n_vanishing,
)
from ghcseries.fixtures import parse_algebra, parse_embedding
from oracles import brute_e1_page_dimension, brute_exterior_weights


def test_k_character_validation_and_lookup():
    char = KCharacter({0: 1, 4: 2}, cutoff=10)
    assert char.mult(4) == 2
    assert char.mult(7) == 0
    with pytest.raises(WindowTooNarrow):
        char.mult(11)
    with pytest.raises(InvalidInput):
        char.mult(-1)
    with pytest.raises(InvalidInput):
        KCharacter({-2: 1})
    with pytest.raises(InvalidInput):
        KCharacter({0: -1})
    virtual = KCharacter({0: -1}, virtual=True)
    assert virtual.mult(0) == -1
    complete = KCharacter({3: 1})
    assert complete.mult(10 ** 6) == 0


def test_truncated_character_window_semantics():
    char = TruncatedTCharacter({2: 1, 5: 3}, window=(0, 6))
    assert char.mult(5) == 3
    assert char.mult(6) == 0
    with pytest.raises(WindowTooNarrow):
        char.mult(7)
    with pytest.raises(WindowTooNarrow):
        char.mult(-1)
    with pytest.raises(InvalidInput):
        TruncatedTCharacter({9: 1}, window=(0, 6))
    one_sided = TruncatedTCharacter({2: 1}, window=(None, 6))
    assert one_sided.mult(-(10 ** 6)) == 0


def test_cohomology_degrees_of_a_finite_character():
    m = KCharacter({0: 2, 3: 1})
    h0, h1 = nk_cohomology(m)
    assert h0.items() == [(0, 2), (3, 1)]
    assert h1.items() == [(-5, 1), (-2, 2)]
    assert h0.window == (None, None)
    assert h1.window == (None, None)


def test_cohomology_windows_follow_the_cutoff():
    m = KCharacter({0: 1, 6: 4}, cutoff=6)
    h0, h1 = nk_cohomology(m)
    assert h0.window == (None, 6)
    assert h1.window == (-8, None)
    assert h0.mult(6) == 4
    with pytest.raises(WindowTooNarrow):
        h0.mult(7)
    assert h1.mult(-8) == 4
    with pytest.raises(WindowTooNarrow):
        h1.mult(-9)
    assert h1.mult(5) == 0


def test_cohomology_rejects_virtual_input():
    with pytest.raises(VirtualNotAllowed):
        nk_cohomology(KCharacter({0: -1}, virtual=True))


def test_exterior_weights_basics():
    assert exterior_weights((2, 2, 4), 0) == {0: 1}
    assert exterior_weights((2, 2, 4), 1) == {2: 2, 4: 1}
    assert exterior_weights((2, 2, 4), 2) == {4: 1, 6: 2}
    assert exterior_weights((2, 2, 4), 3) == {8: 1}
    assert exterior_weights((2, 2, 4), 4) == {}
    assert exterior_weights((), 0) == {0: 1}


@given(st.lists(st.integers(-5, 9), min_size=0, max_size=7), st.integers(0, 7))
def test_exterior_weights_match_enumeration(weights, j):
    assert exterior_weights(tuple(weights), j) == brute_exterior_weights(weights, j)


@given(st.lists(st.integers(1, 9), min_size=1, max_size=6))
def test_exterior_layers_have_binomial_sizes(weights):
    total = 0
    for j in range(len(weights) + 1):
        total += sum(exterior_weights(tuple(weights), j).values())
    assert total == 2 ** len(weights)


def test_e1_page_degree_window():
    p = get_fixture("sp4-principal").build_parabolic()
    m = KCharacter({0: 1})
    with pytest.raises(IndexOutOfRange):
        e1_page_dimension(m, p, -1, 0)
    with pytest.raises(IndexOutOfRange):
        e1_page_dimension(m, p, p.r + 2, 0)


def test_e1_page_dimensions_trivial_coefficients():
    p = get_fixture("sp4-principal").build_parabolic()
    m = KCharacter({0: 1})
    perp = p.n_perp_weights()
    for j in range(p.r + 2):
        expected = sum(
            c for wt, c in exterior_weights(perp, j).items() if wt == 0
        ) + sum(
            c for wt, c in exterior_weights(perp, j - 1).items() if wt == -2
        )
        assert e1_page_dimension(m, p, j, 0) == expected
    assert e1_page_dimension(m, p, 0, 0) == 1
    assert e1_page_dimension(m, p, p.r + 1, -sum(perp) + 2 - 2 + 0) >= 0


def test_top_page_term_detects_h1():
    p = get_fixture("sl3-root").build_parabolic()
    m = KCharacter({4: 1})
    shift = sum(p.n_weights) - 2
    assert e1_page_dimension(m, p, p.r + 1, -4 - 2 - shift + 2) == 0
    assert e1_page_dimension(m, p, p.r + 1, -4 - 2 - shift) == 1
    assert not top_n_vanishing(m, p, -4 - 2 - shift)
    assert top_n_vanishing(m, p, 5)


# Every fixture, plus the rank-4 principal and highest-root pairs.
E1_PAIRS = sorted(FIXTURES) + [
    ("C4", "principal"), ("C4", "root:2,0,0,0"),
    ("B4", "principal"), ("B4", "root:1,1,0,0"),
]


@functools.cache
def _parabolic(pair):
    if isinstance(pair, str):
        return get_fixture(pair).build_parabolic()
    algebra, embedding = pair
    rs = build_root_system(parse_algebra(algebra))
    return minimal_parabolic(parse_embedding(embedding, rs))


def _pair_id(pair):
    return pair if isinstance(pair, str) else "-".join(pair)


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except GhcseriesError as exc:
        return type(exc), str(exc)


def _colex_first_sums(weights, j):
    """Distinct j-subset sums in the order they first arise, subsets in colex order."""
    subsets = sorted(combinations(range(len(weights)), j), key=lambda c: c[::-1])
    return list(dict.fromkeys(sum(weights[i] for i in c) for c in subsets))


def _assert_layers_match_enumeration(weights):
    powers = cohomology._exterior_powers(weights)
    assert len(powers) == len(weights) + 1
    for j in range(-1, len(weights) + 2):
        expected = brute_exterior_weights(weights, j) if j >= 0 else {}
        assert exterior_weights(weights, j) == expected
        if 0 <= j <= len(weights):
            assert powers[j] == expected
            assert list(powers[j]) == _colex_first_sums(weights, j)


@pytest.mark.parametrize("pair", E1_PAIRS, ids=_pair_id)
def test_exterior_powers_of_each_perp_match_enumeration(pair):
    _assert_layers_match_enumeration(_parabolic(pair).n_perp_weights())


@given(st.lists(st.integers(-5, 9), max_size=7))
def test_exterior_powers_match_enumeration(weights):
    _assert_layers_match_enumeration(tuple(weights))


def test_exterior_weights_returns_a_fresh_dict():
    p = _parabolic(("C4", "principal"))
    perp = p.n_perp_weights()
    m = f1_k_character(p, ModuleDatumE(omega=5 - p.two_rho_n_perp), 120)
    page = e1_page_dimension(m, p, 3, 5)
    first = exterior_weights(perp, 3)
    expected = dict(first)
    first.clear()
    first[-1] = 7
    assert exterior_weights(perp, 3) == expected
    assert e1_page_dimension(m, p, 3, 5) == page


@st.composite
def k_characters(draw):
    """Genuine or (one time in four) virtual k-characters, complete or cut off."""
    cutoff = draw(st.none() | st.integers(0, 80))
    virtual = draw(st.integers(0, 3)) == 0
    values = st.integers(-3, 3) if virtual else st.integers(0, 3)
    top = 80 if cutoff is None else cutoff
    mults = draw(st.dictionaries(st.integers(0, top), values, max_size=40))
    return KCharacter(mults, cutoff=cutoff, virtual=virtual)


@settings(max_examples=400)
@given(st.sampled_from(E1_PAIRS), k_characters(), st.integers(-60, 60), st.data())
def test_e1_page_matches_brute_force(pair, m, kappa, data):
    p = _parabolic(pair)
    j = data.draw(st.integers(-1, p.r + 2), label="j")
    assert _outcome(e1_page_dimension, m, p, j, kappa) == _outcome(
        brute_e1_page_dimension, m, p, j, kappa
    )


@pytest.mark.parametrize("pair", E1_PAIRS, ids=_pair_id)
def test_e1_window_on_series_characters_matches_brute_force(pair):
    p = _parabolic(pair)
    m = f1_k_character(p, ModuleDatumE(omega=5 - p.two_rho_n_perp), 120)
    for kappa in (1, 5, 8, 118):
        for j in range(p.r + 2):
            assert _outcome(e1_page_dimension, m, p, j, kappa) == _outcome(
                brute_e1_page_dimension, m, p, j, kappa
            )


@settings(max_examples=300)
@given(st.sampled_from(E1_PAIRS), k_characters(), st.integers(-60, 60))
def test_top_n_vanishing_reads_the_degree_one_character(pair, m, kappa):
    p = _parabolic(pair)
    shift = sum(p.n_weights) - 2

    def from_character():
        return nk_cohomology(m)[1].mult(kappa + shift) == 0

    assert _outcome(top_n_vanishing, m, p, kappa) == _outcome(from_character)


def test_e1_window_builds_no_characters(monkeypatch):
    p = _parabolic(("C4", "principal"))
    m = f1_k_character(p, ModuleDatumE(omega=5 - p.two_rho_n_perp), 400)
    built = []
    init = TruncatedTCharacter.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(TruncatedTCharacter, "__init__", counted)
    for kappa in range(1, 9):
        for j in range(p.r + 2):
            e1_page_dimension(m, p, j, kappa)
        top_n_vanishing(m, p, kappa)
    assert built == []
    nk_cohomology(m)
    assert built == [TruncatedTCharacter, TruncatedTCharacter]


def test_e1_windows_share_one_table_per_perp_multiset(perp_powers):
    def window(p):
        m = f1_k_character(p, ModuleDatumE(omega=5 - p.two_rho_n_perp), 400)
        for kappa in range(1, 9):
            for j in range(p.r + 2):
                e1_page_dimension(m, p, j, kappa)
            top_n_vanishing(m, p, kappa)

    c4 = _parabolic(("C4", "principal"))
    window(c4)
    assert perp_powers == {"built": 1, "exterior_weights": 0}
    window(c4)
    assert perp_powers == {"built": 1, "exterior_weights": 0}
    b4 = _parabolic(("B4", "principal"))
    assert b4.n_perp_weights() == c4.n_perp_weights()
    window(b4)
    assert perp_powers == {"built": 1, "exterior_weights": 0}
    assert list(cohomology._PERP_POWERS) == [c4.n_perp_weights()]


REGIMES = {
    "sp4-principal": [(0, Regime.NONE), (2, Regime.NONE), (3, Regime.UPPER_BOUND),
                      (4, Regime.UPPER_BOUND), (5, Regime.EQUALITY), (9, Regime.EQUALITY)],
    "sl3-root": [(0, Regime.NONE), (1, Regime.UPPER_BOUND), (2, Regime.EQUALITY)],
}


@pytest.mark.parametrize("name", sorted(REGIMES))
def test_top_degree_regimes(name):
    p = get_fixture(name).build_parabolic()
    for mu, regime in REGIMES[name]:
        assert top_degree_regime(p, mu) == regime
    with pytest.raises(InvalidInput):
        top_degree_regime(p, -1)


def test_regime_respects_convention():
    p = get_fixture("sl3-root").build_parabolic()
    assert top_degree_regime(p, 1, convention="perp") == Regime.EQUALITY
    assert top_degree_regime(p, 1, convention="n") == Regime.UPPER_BOUND
