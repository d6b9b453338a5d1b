from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from ghcseries import FIXTURES, charseries, cohomology, get_fixture, rootsys

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

FIXTURE_NAMES = sorted(FIXTURES)


@pytest.fixture(params=FIXTURE_NAMES)
def fixture_name(request):
    return request.param


@pytest.fixture
def pair(fixture_name):
    p = get_fixture(fixture_name).build_parabolic()
    return p.embedding, p


@pytest.fixture
def closures(monkeypatch):
    """Count generate_group runs, starting from an empty group memo."""
    count = [0]
    fresh = rootsys.generate_group

    def counted(*args):
        count[0] += 1
        return fresh(*args)

    monkeypatch.setattr(rootsys, "_GROUPS", {})
    monkeypatch.setattr(rootsys, "generate_group", counted)
    return count


@pytest.fixture
def perp_powers(monkeypatch):
    """Count _exterior_powers runs and exterior_weights calls, from an empty table."""
    count = {"built": 0, "exterior_weights": 0}
    build, public = cohomology._exterior_powers, cohomology.exterior_weights

    def counted_build(*args):
        count["built"] += 1
        return build(*args)

    def counted_public(*args):
        count["exterior_weights"] += 1
        return public(*args)

    monkeypatch.setattr(cohomology, "_PERP_POWERS", {})
    monkeypatch.setattr(cohomology, "_exterior_powers", counted_build)
    monkeypatch.setattr(cohomology, "exterior_weights", counted_public)
    return count


@pytest.fixture
def partition_tables(monkeypatch):
    """Count the partition-table entries grown, starting from an empty table memo."""
    count = [0]
    grow = charseries._grown

    def counted(table, weights, size):
        count[0] += size - len(table[0])
        return grow(table, weights, size)

    monkeypatch.setattr(charseries, "_TABLES", {})
    monkeypatch.setattr(charseries, "_grown", counted)
    return count


@pytest.fixture
def partition_limits(monkeypatch):
    """The limit of every charseries._partition_counts call, in order."""
    limits = []
    counts = charseries._partition_counts

    def counted(weights, limit):
        limits.append(limit)
        return counts(weights, limit)

    monkeypatch.setattr(charseries, "_partition_counts", counted)
    return limits
