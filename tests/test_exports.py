from __future__ import annotations

import ghcseries


def test_every_exported_name_resolves_once():
    names = ghcseries.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(ghcseries, name), name
