"""Property tests: each integral representation equals its Borel-plane
conjugation, term for term and window for window, on polynomials drawn in
independently drawn windows."""

from hypothesis import given, settings, strategies as st

from starborel import (
    MOYAL,
    STANDARD,
    FormalSeries,
    Truncation,
    VariableSet,
    borel_star,
    borel_T,
    eval_borel_star_rep,
    eval_formulahigh,
    eval_moyal_rep,
    eval_That_rep,
)

B1 = VariableSet.phase_space(1, "xi")
B2 = VariableSet.phase_space(2, "xi")
B3 = VariableSet.phase_space(3, "xi")
COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def windowed_poly(draw, vars):
    """Up to four terms inside a window whose two caps are drawn from 0..7."""
    trunc = Truncation(draw(st.integers(0, 7)), draw(st.integers(0, 7)))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        rest = [0] * (len(vars.names) - 1)
        for _ in range(draw(st.integers(0, trunc.deg_xy))):
            rest[draw(st.integers(0, len(rest) - 1))] += 1
        terms[(draw(st.integers(0, trunc.deg_t)), *rest)] = draw(COEFFS)
    return FormalSeries(vars, trunc, terms)


def assert_same(got, want):
    assert (got.trunc, got.terms) == (want.trunc, want.terms)


@PROPERTY
@given(windowed_poly(B1), windowed_poly(B1))
def test_standard_rep_is_conjugation(f, g):
    assert_same(eval_borel_star_rep(f, g), borel_star(f, g, STANDARD))


@PROPERTY
@given(windowed_poly(B1), windowed_poly(B1))
def test_moyal_rep_is_conjugation(f, g):
    assert_same(eval_moyal_rep(f, g), borel_star(f, g, MOYAL))


@PROPERTY
@given(windowed_poly(B1), st.booleans())
def test_transition_rep_is_conjugation(f, inverse):
    assert_same(eval_That_rep(f, inverse=inverse), borel_T(f, inverse=inverse))


@settings(PROPERTY, max_examples=40)
@given(windowed_poly(B2), windowed_poly(B2))
def test_formulahigh_two_dof_is_conjugation(f, g):
    assert_same(eval_formulahigh(f, g), borel_star(f, g, STANDARD))


@settings(PROPERTY, max_examples=40)
@given(windowed_poly(B2), windowed_poly(B2))
def test_moyal_rep_two_dof_is_conjugation(f, g):
    assert_same(eval_moyal_rep(f, g), borel_star(f, g, MOYAL))


@settings(PROPERTY, max_examples=40)
@given(windowed_poly(B2), st.booleans())
def test_transition_rep_two_dof_is_conjugation(f, inverse):
    assert_same(eval_That_rep(f, inverse=inverse), borel_T(f, inverse=inverse))


@settings(PROPERTY, max_examples=20)
@given(windowed_poly(B3), windowed_poly(B3))
def test_moyal_rep_three_dof_is_conjugation(f, g):
    assert_same(eval_moyal_rep(f, g), borel_star(f, g, MOYAL))
