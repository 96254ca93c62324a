"""Results unchanged: every family of the seeded parity corpus (tests/parity.py)
matches its committed digest."""

import pytest

import parity


def test_every_family_has_a_digest():
    assert sorted(parity.load()) == sorted(parity.FAMILIES)


@pytest.mark.parametrize("family", sorted(parity.FAMILIES))
def test_family_matches_its_digest(family):
    report = parity.check(family, parity.load()[family])
    assert report is None, report
