"""Property tests: each integral representation equals its Borel-plane
conjugation, term for term and window for window, on polynomials drawn in
independently drawn windows; and the int builder equals a reference builder
in rational arithmetic, coefficient types included."""

from fractions import Fraction
from math import factorial, prod

import pytest
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
def windowed_poly(draw, vars, max_terms=4):
    """Up to ``max_terms`` terms inside a window whose two caps are drawn from 0..7."""
    trunc = Truncation(draw(st.integers(0, 7)), draw(st.integers(0, 7)))
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        rest = [0] * (len(vars.names) - 1)
        for _ in range(draw(st.integers(0, trunc.deg_xy))):
            rest[draw(st.integers(0, len(rest) - 1))] += 1
        terms[(draw(st.integers(0, trunc.deg_t)), *rest)] = draw(COEFFS)
    return FormalSeries(vars, trunc, terms)


def assert_same(got, want):
    assert (got.trunc, got.terms) == (want.trunc, want.terms)


# -- reference builder: the representations in Fraction series arithmetic ---

HALF = Fraction(1, 2)
STANDARD_PAIRINGS = lambda q, p: [(p, q, 1)]
MOYAL_PAIRINGS = lambda q, p: [(q, p, -HALF), (p, q, HALF)]


def transition_pairings(inverse):
    return lambda q, p: [(q, p, HALF if inverse else -HALF)]


def reference_taylor(f, shifts):
    """Multi-index a -> prod_v c_v^{a_v} / a_v! d^a f, each order from the last."""
    out = {(): f}
    for v, c in shifts:
        nxt = {}
        for a, h in out.items():
            n = 0
            while not h.is_zero:
                nxt[a + (n,)] = h
                n += 1
                h = h.diff(v, shrink_window=False) * (c * Fraction(1, n))
        out = nxt
    return out


def reference_dirichlet(h, helpers, vars, trunc):
    """prod e_j^{a_j} m(q, p) -> prod a_j! / |a|! xi^{|a|} m(q, p), termwise."""
    idx = [h.vars.index(n) for n in helpers]
    keep = [h.vars.index(n) for n in vars.names[1:]]
    terms = {}
    for e, c in h.terms.items():
        a = [e[i] for i in idx]
        key = (sum(a),) + tuple(e[i] for i in keep)
        terms[key] = terms.get(key, 0) + Fraction(c * prod(map(factorial, a)), factorial(sum(a)))
    return FormalSeries(vars, trunc, terms)


def reference_represent(per_dof, f, g=None):
    """The representation built from Fraction Taylor expansions, their pairing
    and Dirichlet's map, in the extended ring on window (cap, cap)."""
    pairings = [e for q, p in f.vars.phase_pairs() for e in per_dof(q, p)]
    out = f.trunc if g is None else f.trunc.meet(g.trunc)
    es = tuple(f"_e{k}" for k in range(1, len(pairings) + 1))
    helpers = ("_ef", "_eg")[:1 if g is None else 2] + es
    cap = out.deg_t + out.deg_xy
    vars, trunc = VariableSet(f.vars.names + helpers, dof=f.vars.dof), Truncation(cap, cap)
    zero = FormalSeries.zero(vars, trunc)
    shifts = [(b, FormalSeries.variable(vars, trunc, e).scale(w))
              for (_, b, w), e in zip(pairings, es)]
    fx = reference_taylor(f.rename_distinguished("_ef").truncate(trunc).rehome(vars),
                          [(a, 1) for a, _, _ in pairings])
    if g is None:
        paired = sum((reference_taylor(h, shifts).get(a, zero) for a, h in fx.items()), zero)
    else:
        gx = reference_taylor(g.rename_distinguished("_eg").truncate(trunc).rehome(vars), shifts)
        paired = sum((h * gx[a] for a, h in fx.items() if a in gx), zero)
    return reference_dirichlet(paired, helpers, f.vars, out)


def assert_same_typed(got, want):
    """Same window, terms and coefficient types (int when integral)."""
    assert_same(got, want)
    assert {e: type(c) for e, c in got.terms.items()} == {e: type(c) for e, c in want.terms.items()}


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


@pytest.mark.parametrize("vars", [B1, B2, B3], ids=["dof1", "dof2", "dof3"])
def test_int_builder_equals_the_rational_reference(vars):
    """Standard, Moyal and T^{+-1} on independent windows, zero caps included,
    against the Fraction reference builder; eight terms a side, so that orders
    of two and more in one pair turn up at dof 3 too."""
    @PROPERTY
    @given(windowed_poly(vars, 8), windowed_poly(vars, 8), st.booleans())
    def check(f, g, inverse):
        assert_same_typed(eval_formulahigh(f, g), reference_represent(STANDARD_PAIRINGS, f, g))
        assert_same_typed(eval_moyal_rep(f, g), reference_represent(MOYAL_PAIRINGS, f, g))
        assert_same_typed(eval_That_rep(f, inverse=inverse),
                          reference_represent(transition_pairings(inverse), f))

    check()
