from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from ghcseries import FIXTURES, get_fixture, rootsys

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
