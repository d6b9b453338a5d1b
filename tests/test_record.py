"""The value types against frozen-dataclass twins built here.

Each twin comes from dataclasses.make_dataclass with the field names listed
below, so it shares no code with ghcseries.record; on sample instances the
two must agree on repr, equality, hashing, construction, the error raised
on assignment and deletion, and pickle and copy round trips.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

import ghcseries
from ghcseries import (
    InvalidInput,
    ModuleDatumE,
    Weight,
    WeylGroup,
    bounds_report,
    central_character_from_kappa,
    genericity_check,
    get_fixture,
    invariants,
    iwasawa_sl3_support,
    multiplicity_matrix,
    reconstructibility_report,
    socle_k_character,
    weyl_group,
)
from ghcseries.record import Record

FIELDS = {
    "Weight": "coords",
    "RootSystem": "type_label ambient roots positive_roots simple_roots rho_tilde factor_slices",
    "WeylElement": "matrix length",
    "WeylGroup": "simple_roots elements index left parents",
    "Sl2Embedding": "rs h_vector kind grading decomposition",
    "Sl2Decomposition": "counts",
    "CompatibleParabolic": "embedding n_roots m_roots n_weights m_positive_roots "
    "adapted_positive_roots rho_tilde_n rho_tilde_adapted",
    "ParabolicInvariants": "rho_n rho two_rho_n_perp lambda1_n lambda2_n lambda1_perp "
    "lambda2_perp lambda2_n_defaulted lambda1_perp_defaulted lambda2_perp_defaulted",
    "GenericityResult": "mu generic witness closed_form_threshold rho_n_integral",
    "Threshold": "exact smallest_mu",
    "BoundsReport": "weak socle_simplicity_n strong_n socle_simplicity_perp strong_perp "
    "genericity prior_work prior_work_coefficients",
    "ModuleDatumE": "omega dim_e",
    "FixturePair": "name algebra embedding summary",
    "CentralCharacter": "rs representative regular integral orbit_size",
    "BlockElement": "w nu omega mu dim_e merged_count",
    "MultiplicityMatrix": "elements m_matrix p_matrix orbit_ids integral_group_order",
    "SocleCharacterResult": "element character genuine_socle",
    "ReconstructibilityReport": "mu convention socle_simple strong generic regular_embedding",
    "IwasawaSupport": "a c b_values k_multiplicity",
}


def _samples() -> list:
    fixture = get_fixture("sp4-principal")
    p = fixture.build_parabolic()
    rs = p.embedding.rs
    kappa = central_character_from_kappa(Weight.of(Fraction(3, 2), Fraction(1, 2)), rs)
    matrix = multiplicity_matrix(kappa, p)
    element = next(e for e in matrix.elements if e.mu >= 0 and e.omega.denominator == 1)
    group = weyl_group(rs)
    report = bounds_report(p)
    return [
        rs.rho_tilde, rs, group[1], group, p.embedding, p.embedding.decomposition, p,
        invariants(p), genericity_check(p, 3), report.weak, report, ModuleDatumE(4, dim_e=2),
        fixture, kappa, element, matrix, socle_k_character(p, matrix, element, 20),
        reconstructibility_report(p, 3), iwasawa_sl3_support(2, Fraction(1, 3)),
    ]


SAMPLES = _samples()


def _twin(cls):
    names = FIELDS[cls.__name__].split()
    if cls is ModuleDatumE:

        def post_init(self):
            if self.dim_e < 1:
                raise InvalidInput("dim E must be a positive integer")

        return dataclasses.make_dataclass(
            "ModuleDatumE",
            ["omega", ("dim_e", int, dataclasses.field(default=1))],
            namespace={"__post_init__": post_init},
            frozen=True,
        )
    return dataclasses.make_dataclass(cls.__name__, names, frozen=True, eq=cls is not WeylGroup)


def _outcome(fn, *args):
    """What fn(*args) did: ("ok", result) or (exception type name, message)."""
    try:
        return "ok", fn(*args)
    except (AttributeError, TypeError, InvalidInput) as exc:
        return type(exc).__name__, str(exc)


def test_every_value_type_has_a_sample_and_is_exported():
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(FIELDS)
    assert {type(x).__name__ for x in SAMPLES} == set(FIELDS)
    assert all(getattr(ghcseries, name).__module__.startswith("ghcseries.") for name in FIELDS)


@pytest.mark.parametrize("x", SAMPLES, ids=lambda x: type(x).__name__)
def test_value_type_behaves_as_its_frozen_dataclass_twin(x):
    cls, twin = type(x), _twin(type(x))
    names = FIELDS[cls.__name__].split()
    values = [getattr(x, name) for name in names]
    y = twin(*values)
    assert repr(x) == repr(y)
    by_name = dict(zip(names, values))
    assert repr(cls(*values)) == repr(cls(**by_name)) == repr(twin(**by_name)) == repr(x)
    other_record = next(s for s in SAMPLES if type(s) is not cls)
    assert x.__eq__(0) is x.__eq__(y) is x.__eq__(other_record) is y.__eq__(0) is NotImplemented
    assert (x != 0) is (y != 0) is (x != y) is True
    if cls is not WeylGroup:  # compared by identity: see the test below
        assert cls(*values) == x == cls(**by_name)
        assert not cls(*values) != x
        # A field holding a character makes both unhashable.
        assert _outcome(hash, x) == _outcome(hash, y)
    for name in names + ["unlisted"]:
        ours, theirs = _outcome(setattr, x, name, 0), _outcome(setattr, y, name, 0)
        assert ours == theirs == ("FrozenInstanceError", f"cannot assign to field {name!r}")
        ours, theirs = _outcome(delattr, x, name), _outcome(delattr, y, name)
        assert ours == theirs == ("FrozenInstanceError", f"cannot delete field {name!r}")
    with pytest.raises(AttributeError):
        setattr(x, names[0], 0)
    assert repr(x) == repr(y)
    # The twin has no import path to pickle by, so only its copies are compared.
    assert repr(copy.copy(y)) == repr(copy.deepcopy(y)) == repr(y)
    for clone in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(clone) is cls and repr(clone) == repr(x)
        if cls is not WeylGroup:
            assert clone == x and _outcome(hash, clone) == _outcome(hash, x)


def test_weyl_groups_compare_and_hash_by_identity():
    group = weyl_group(get_fixture("sp4-principal").build_parabolic().embedding.rs)
    same_fields = WeylGroup(*(getattr(group, name) for name in FIELDS["WeylGroup"].split()))
    assert group == group and group != same_fields
    assert hash(group) == object.__hash__(group)
    assert hash(same_fields) == object.__hash__(same_fields)


def test_module_datum_default_and_refusal_match_the_twin():
    twin = _twin(ModuleDatumE)
    assert repr(ModuleDatumE(5)) == repr(twin(5)) == "ModuleDatumE(omega=5, dim_e=1)"
    assert repr(ModuleDatumE(omega=5, dim_e=3)) == repr(twin(omega=5, dim_e=3))
    for dim_e in (0, -2):
        ours, theirs = _outcome(ModuleDatumE, 5, dim_e), _outcome(twin, 5, dim_e)
        assert ours == theirs == ("InvalidInput", "dim E must be a positive integer")


@pytest.mark.parametrize("x", SAMPLES, ids=lambda x: type(x).__name__)
def test_instance_dict_holds_the_fields_in_order(x):
    """__eq__ compares the instance dicts and __hash__ hashes their values,
    so each must hold exactly the fields, in signature order."""
    assert list(vars(x)) == FIELDS[type(x).__name__].split()


@pytest.mark.parametrize("x", SAMPLES, ids=lambda x: type(x).__name__)
def test_construction_argument_errors_match_the_twin(x):
    cls, twin = type(x), _twin(type(x))
    names = FIELDS[cls.__name__].split()
    values = [getattr(x, name) for name in names]
    for args, kwargs in [
        ((), {}),
        ((), dict(zip(names[1:], values[1:]))),  # the first field missing
        ((*values, 0), {}),
        (values, {"unlisted": 0}),
        (values, {names[0]: values[0]}),  # the first field given twice
    ]:
        ours = _outcome(lambda: cls(*args, **kwargs))
        theirs = _outcome(lambda: twin(*args, **kwargs))
        assert ours[0] == "TypeError" and ours == theirs
