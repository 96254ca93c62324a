"""Properties of the series ring's one derivative loop, one windowed
product loop and one binding loop, against references computed here from
plain term dicts."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from starborel import DegenerateError, FormalSeries, MultiPoly, Truncation, VariableSet

PHASE = [VariableSet.phase_space(1), VariableSet.phase_space(2)]
ZVARS = VariableSet(("z1", "z2", "z3"))
COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def typed(terms):
    return {e: (c, type(c)) for e, c in terms.items()}


def plain(terms):
    """Canonical coefficients of a plain dict of Fractions: ints when integral."""
    return {e: c.numerator if c.denominator == 1 else c for e, c in terms.items() if c}


@st.composite
def term_dicts(draw, vars):
    exps = st.tuples(*[st.integers(0, 4)] * len(vars.names))
    return draw(st.dictionaries(exps, COEFFS, max_size=7))


@st.composite
def operand_pairs(draw):
    """(f, g) over one variable set: series at dof 1-2 with windows of caps
    0-8, mostly apart, or polynomials in z1..z3."""
    if draw(st.booleans()):
        vars = draw(st.sampled_from(PHASE))
        tf, tg = (Truncation(draw(st.integers(0, 8)), draw(st.integers(0, 8))) for _ in "fg")
        return (FormalSeries(vars, tf, draw(term_dicts(vars))),
                FormalSeries(vars, tg, draw(term_dicts(vars))))
    return MultiPoly(ZVARS, draw(term_dicts(ZVARS))), MultiPoly(ZVARS, draw(term_dicts(ZVARS)))


@PROPERTY
@given(operand_pairs(), st.data(), st.integers(0, 4), st.booleans())
def test_diff_is_the_falling_factorial(pair, data, n, shrink):
    f = pair[0]
    i = data.draw(st.integers(0, len(f.vars.names) - 1))
    out = f.diff(f.vars.names[i], n, shrink_window=shrink)
    trunc = f.trunc
    if trunc is not None and shrink and i == 0:
        trunc = Truncation(max(trunc.deg_t - n, 0), trunc.deg_xy)
    elif trunc is not None and shrink:
        trunc = Truncation(trunc.deg_t, max(trunc.deg_xy - n, 0))
    want = {}
    for e, c in f.terms.items():
        if e[i] >= n:
            key = e[:i] + (e[i] - n,) + e[i + 1:]
            want[key] = Fraction(c) * (factorial(e[i]) // factorial(e[i] - n))
    want = plain({e: c for e, c in want.items() if trunc is None or trunc.admits(e)})
    assert type(out) is type(f) and out.vars == f.vars
    assert out.trunc == trunc
    assert typed(out.terms) == typed(want)


@PROPERTY
@given(operand_pairs())
def test_windowed_product_is_the_clipped_plain_product(pair):
    f, g = pair
    trunc = None if f.trunc is None else f.trunc.meet(g.trunc)
    want = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            want[e] = want.get(e, 0) + Fraction(c1) * c2
    want = plain({e: c for e, c in want.items() if trunc is None or trunc.admits(e)})
    out = f * g
    assert out.trunc == trunc
    assert typed(out.terms) == typed(want)


# zero, negative and integral values, and denominators up to 10^6
VALUES = st.one_of(st.integers(-3, 3),
                   st.fractions(min_value=-3, max_value=3, max_denominator=10 ** 6))


@st.composite
def bound_operands(draw, full):
    """(f, bindings): f a polynomial in z1..z3 or a windowed series at dof
    1-2; bindings of every variable if ``full``, else of any subset of them
    (empty, partial or all) that leaves a series' distinguished variable free."""
    if draw(st.booleans()):
        vars = draw(st.sampled_from(PHASE))
        trunc = Truncation(draw(st.integers(0, 8)), draw(st.integers(0, 8)))
        f = FormalSeries(vars, trunc, draw(term_dicts(vars)))
    else:
        f = MultiPoly(ZVARS, draw(term_dicts(ZVARS)))
    names = f.vars.names if full or f.trunc is None else f.vars.names[1:]
    if not full:
        names = draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names)))
    return f, {n: draw(VALUES) for n in names}


def bound_reference(f, bindings):
    """The terms with the bound values put in, in plain Fractions, summed by
    the exponents left (the bound ones zeroed)."""
    idx = {f.vars.index(n): Fraction(v) for n, v in bindings.items()}
    want = {}
    for e, c in f.terms.items():
        v = Fraction(c)
        for i, x in idx.items():
            v *= x ** e[i]
        key = tuple(0 if i in idx else k for i, k in enumerate(e))
        want[key] = want.get(key, 0) + v
    return want


@PROPERTY
@given(bound_operands(full=False))
def test_evaluate_partial_is_the_plain_loop(case):
    f, bindings = case
    out = f.evaluate_partial(bindings)
    assert type(out) is type(f) and out.vars == f.vars and out.trunc == f.trunc
    assert typed(out.terms) == typed(plain(bound_reference(f, bindings)))


@PROPERTY
@given(bound_operands(full=True))
def test_evaluate_is_the_plain_loop(case):
    f, bindings = case
    want = sum(bound_reference(f, bindings).values(), Fraction(0))
    got = f.evaluate(bindings)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


@pytest.mark.parametrize("f, name", [
    (FormalSeries.from_string("p^2*q + t", VariableSet.phase_space(1), Truncation(4, 4)), "p"),
    (FormalSeries.from_string("p^2*q + t", VariableSet.phase_space(1), Truncation(4, 4)), "t"),
    (MultiPoly.from_string("z1^2*z2 + z3", ZVARS), "z1"),
])
def test_diff_rejects_a_negative_order(f, name):
    with pytest.raises(DegenerateError, match="negative"):
        f.diff(name, -1)
