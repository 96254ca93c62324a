"""Results unchanged: every family of the seeded parity corpus (tests/parity.py)
matches its committed digest, and no family's values are mostly zero."""

import pytest

import parity


def test_every_family_has_a_digest():
    assert sorted(parity.load()) == sorted(parity.FAMILIES)


@pytest.mark.parametrize("family", sorted(parity.FAMILIES))
def test_family_matches_its_digest(family):
    report = parity.check(family, parity.load()[family])
    assert report is None, report


@pytest.mark.parametrize("family", sorted(parity.FAMILIES))
def test_family_is_not_mostly_zero(family):
    """A family whose results are mostly the zero series tests little: at most
    half of its values may be zero.  Errors count as values, not as zeros."""
    values = [value for _, value in parity.results(family)]
    zeros = sum(map(parity.is_zero, values))
    assert 2 * zeros <= len(values), f"{zeros} of {len(values)} values are zero"
