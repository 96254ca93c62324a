"""Property tests: every stored coefficient is canonical, an int when it is
integral and a Fraction with denominator > 1 otherwise, never a float, on the
results of every layer: the ring, the star products, the Borel plane, the
integral representations and the polynomial calculus."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from starborel import (
    MOYAL,
    STANDARD,
    FormalSeries,
    MultiPoly,
    Truncation,
    UniOverPoly,
    VariableSet,
    borel,
    borel_star,
    eval_borel_star_rep,
    eval_formulahigh,
    eval_moyal_rep,
    eval_That_rep,
    hadamard_contour,
    inverse_borel,
    moyal_star,
    mp_divexact,
    mp_gcd,
    standard_star,
    sylvester_resultant,
    transition_T,
)
from starborel.poly import product_discriminant

S1 = VariableSet.phase_space(1)
B1 = VariableSet.phase_space(1, "xi")
B2 = VariableSet.phase_space(2, "xi")
V2 = VariableSet(("z1", "z2"), dof=0)
# integers and proper fractions alike
COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=3)
CANONICAL = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def canonical(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def assert_canonical(*results):
    for r in results:
        bad = [c for c in r.terms.values() if not canonical(c)]
        assert not bad, f"non-canonical coefficients {bad[:3]} in {r!r}"


@st.composite
def windowed(draw, vars):
    """Up to five terms in (t or xi, q, p) inside a window with caps 0..5."""
    trunc = Truncation(draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        xy = draw(st.integers(0, trunc.deg_xy))
        q = draw(st.integers(0, xy))
        terms[(draw(st.integers(0, trunc.deg_t)), q, xy - q)] = draw(COEFFS)
    return FormalSeries(vars, trunc, terms)


@st.composite
def windowed_dof2(draw):
    """Up to five terms in (xi, q1, q2, p1, p2) inside a window with caps 0..5."""
    trunc = Truncation(draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        rest = [0] * 4
        for _ in range(draw(st.integers(0, trunc.deg_xy))):
            rest[draw(st.integers(0, 3))] += 1
        terms[(draw(st.integers(0, trunc.deg_t)), *rest)] = draw(COEFFS)
    return FormalSeries(B2, trunc, terms)


POLY = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 2)), COEFFS,
                       max_size=5).map(lambda t: MultiPoly(V2, t))


@CANONICAL
@given(windowed(S1), windowed(S1), COEFFS)
def test_ring_and_star_products(f, g, c):
    assert_canonical(f, f + g, f - g, -f, f * g, f * c, f * 2, f.pow(2),
                     f.diff("p"), f.substitute("q", g), f.evaluate_partial({"p": c}),
                     standard_star(f, g), moyal_star(f, g),
                     transition_T(f), transition_T(f, inverse=True))


@CANONICAL
@given(windowed(B1), windowed(B1))
def test_borel_plane_and_representations(f, g):
    assert_canonical(borel(inverse_borel(f)), inverse_borel(f),
                     borel_star(f, g, STANDARD), borel_star(f, g, MOYAL),
                     eval_borel_star_rep(f, g), eval_moyal_rep(f, g),
                     eval_That_rep(f), hadamard_contour(f, g))


@CANONICAL
@given(windowed_dof2(), windowed_dof2())
def test_representations_at_two_dof(f, g):
    assert_canonical(eval_formulahigh(f, g), eval_moyal_rep(f, g),
                     eval_That_rep(f), eval_That_rep(f, inverse=True))


@CANONICAL
@given(POLY, POLY)
def test_polynomial_calculus(A, B):
    assume(not B.is_zero)
    assert_canonical(mp_divexact(A * B, B), mp_gcd(A, B))
    assume(not A.is_zero and A.degree("z1") + B.degree("z1") > 0)
    P, Q = UniOverPoly("z1", A), UniOverPoly("z1", B)
    assert_canonical(sylvester_resultant(P, Q))
    if P.degree > 0 and Q.degree > 0:
        assert_canonical(product_discriminant(P, Q))
