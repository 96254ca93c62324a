"""Each convention of the series ring lives in one place: the graded-lex key,
the token pass closed by a sentinel, the window clip of equality and the
slicing of substitution.  Checked against references computed here from
plain term dicts, and on the grammar's whole alphabet."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from starborel import (
    FormalSeries,
    MultiPoly,
    ParseError,
    StarBorelError,
    Truncation,
    VariableMismatchError,
    VariableSet,
    WindowOverflowError,
    borel,
    inverse_borel,
    moyal_commutator,
)
from starborel.cli import main

PHASE = [VariableSet.phase_space(1), VariableSet.phase_space(2)]
ZVARS = VariableSet(("z1", "z2", "z3"))
COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6)
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def typed(terms):
    return {e: (c, type(c)) for e, c in terms.items()}


def plain(terms):
    """Canonical coefficients of a plain dict of Fractions: ints when integral."""
    return {e: c.numerator if c.denominator == 1 else c for e, c in terms.items() if c}


def inside(e, trunc):
    return trunc is None or (e[0] <= trunc.deg_t and sum(e[1:]) <= trunc.deg_xy)


@st.composite
def term_dicts(draw, vars, top=4):
    exps = st.tuples(*[st.integers(0, top)] * len(vars.names))
    return draw(st.dictionaries(exps, COEFFS, max_size=7))


@st.composite
def operand_pairs(draw, top=4):
    """(f, g) over one variable set: series at dof 1-2 with windows of caps
    0-8, or polynomials in z1..z3.  Half the time g holds f's terms, some
    of them overwritten, so that equal pairs are common."""
    if draw(st.booleans()):
        vars = draw(st.sampled_from(PHASE))
        windows = [[Truncation(draw(st.integers(0, 8)), draw(st.integers(0, 8)))] for _ in "fg"]
    else:
        vars, windows = ZVARS, [[], []]
    ring = FormalSeries if windows[0] else MultiPoly
    f = ring(vars, *windows[0], draw(term_dicts(vars, top)))
    g_terms = draw(term_dicts(vars, top))
    if draw(st.booleans()):
        g_terms = {**f.terms, **g_terms}
    return f, ring(vars, *windows[1], g_terms)


# -- the token pass ----------------------------------------------------------

ALPHABET = ["t", "q", "p", "xi", "q1", "z2", "_a", *"0123456789", *"/^*+-", " ", "  ", "$"]


@PROPERTY
@given(st.lists(st.sampled_from(ALPHABET), max_size=14), st.booleans())
def test_the_grammar_raises_only_its_own_errors(pieces, windowed):
    text = "".join(pieces)
    window = [Truncation(6, 6)] if windowed else []
    try:
        out = FormalSeries.from_string(text, VariableSet.phase_space(1), *window) if windowed \
            else MultiPoly.from_string(text, VariableSet(("t", "q", "p")))
    except StarBorelError:
        return
    assert str(out)


@pytest.mark.parametrize("text", ["t*", "2*", "t^2*", "q + t*", "t* "])
def test_a_trailing_star_is_a_parse_error(text):
    with pytest.raises(ParseError):
        FormalSeries.from_string(text, VariableSet.phase_space(1), Truncation(4, 4))


def test_cli_reports_a_trailing_star(capsys):
    assert main(["star", "t*", "q"]) == 1
    assert capsys.readouterr().err.startswith("error:")


# -- the graded-lex key ------------------------------------------------------

@PROPERTY
@given(operand_pairs())
def test_leading_is_the_first_printed_term(pair):
    f = pair[0]
    if f.is_zero:
        return
    e, c = f.leading()
    assert e == max(f.terms, key=lambda x: (sum(x), x)) and c == f.terms[e]
    alone = str(f._new(f.trunc, {e: c}))
    assert (str(f) + " ").startswith(alone + " ")


# -- the window clip of equality ---------------------------------------------

def equal_reference(f, g):
    """Coefficient-wise equality over the exponents either side has, on the
    common window."""
    if f.vars != g.vars:
        return False
    window = None if f.trunc is None else f.trunc.meet(g.trunc)
    return all(f.terms.get(e, 0) == g.terms.get(e, 0)
               for e in set(f.terms) | set(g.terms) if inside(e, window))


@PROPERTY
@given(operand_pairs())
def test_equality_is_the_exponent_walk_on_the_common_window(pair):
    f, g = pair
    assert (f == g) is (g == f) is equal_reference(f, g)


# -- the slicing of substitution ---------------------------------------------

def clipped_product(a, b, trunc):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if inside(e, trunc):
                out[e] = out.get(e, 0) + Fraction(c1) * c2
    return out


@PROPERTY
@given(operand_pairs(top=3), st.data())
def test_substitute_is_the_sum_of_clipped_products(pair, data):
    f, g = pair
    i = data.draw(st.integers(0, len(f.vars.names) - 1))
    trunc = None if f.trunc is None else f.trunc.meet(g.trunc)
    want = {}
    for e, c in f.terms.items():
        term = {e[:i] + (0,) + e[i + 1:]: c}
        for _ in range(e[i]):
            term = clipped_product(term, g.terms, trunc)
        for k, v in term.items():
            if inside(k, trunc):
                want[k] = want.get(k, 0) + Fraction(v)
    out = f.substitute(f.vars.names[i], g)
    assert type(out) is type(f) and out.trunc == trunc
    assert typed(out.terms) == typed(plain(want))


# -- the Borel transform -----------------------------------------------------

@PROPERTY
@given(st.sampled_from(PHASE), st.data())
def test_borel_divides_by_the_factorial(vars, data):
    f = FormalSeries(vars, Truncation(8, 8), data.draw(term_dicts(vars, top=8)))
    hat = borel(f, "u")
    assert hat.vars.names == ("u",) + f.vars.names[1:] and hat.trunc == f.trunc
    want = plain({e: Fraction(c) / factorial(e[0]) for e, c in f.terms.items()})
    assert typed(hat.terms) == typed(want)
    back = inverse_borel(hat)
    assert back.vars == f.vars and typed(back.terms) == typed(f.terms)


def test_borel_keeps_the_name_collision_error():
    f = FormalSeries.from_string("t*q", VariableSet.phase_space(1), Truncation(3, 3))
    with pytest.raises(VariableMismatchError):
        borel(f, "q")


# -- the Moyal commutator ----------------------------------------------------

def test_commutator_needs_a_positive_t_window():
    """[p, q]_M = 1 needs the t^1 term of the products: on a t-window of 0
    it cannot be known and is not reported as 0."""
    vars = VariableSet.phase_space(1)
    p, q = (FormalSeries.from_string(s, vars, Truncation(0, 8)) for s in "pq")
    with pytest.raises(WindowOverflowError):
        moyal_commutator(p, q)
    p, q = (FormalSeries.from_string(s, vars, Truncation(1, 8)) for s in "pq")
    assert str(moyal_commutator(p, q)) == "1"
