"""The packed-monomial layer of poly.py: the Bareiss determinant against a
cofactor expansion, the resultant and discriminant against sympy, the packed
exact division on the cases that reach its guard bits, and the packed order
against the series ring's graded-lex key."""

import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from starborel import (
    DegenerateError,
    MultiPoly,
    UniOverPoly,
    VariableSet,
    discriminant_locus,
    mp_divexact,
    mp_gcd,
    sylvester_resultant,
)
from starborel import poly
from starborel.series import _glex_key

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def cofactor_det(M):
    """The determinant by expansion along the first row: only MultiPoly * and
    +, so no division is involved."""
    if len(M) == 1:
        return M[0][0]
    out = MultiPoly.zero(M[0][0].vars)
    for j, a in enumerate(M[0]):
        if not a.is_zero:
            minor = cofactor_det([row[:j] + row[j + 1:] for row in M[1:]])
            out = out + a * minor * (-1) ** j
    return out


def random_entry(rng, V, top=3):
    terms = {tuple(rng.randint(0, top) for _ in V.names): rng.randint(-9, 9)
             for _ in range(rng.randint(0, 3))}
    return MultiPoly(V, terms)


# 25 seeded draws of each kind: plain, a zero leading pivot (a row swap), a
# zero pivot at the second step (a swap after one elimination), singular, one
# entry of total degree >= 130 (fields wider than a byte), and every entry of
# one total degree d (the last products reach 2 (n - 1) d of the bound 2 n d)
KINDS = ("plain", "zero-pivot", "zero-second-pivot", "singular", "high-degree", "full-degree")


def draw_matrix(rng, kind):
    V = VariableSet(tuple(f"v{i}" for i in range(rng.randint(2, 6))))
    n = rng.randint(3 if kind == "zero-second-pivot" else 2, 5)
    M = [[random_entry(rng, V) for _ in range(n)] for _ in range(n)]
    if kind == "zero-pivot":
        M[0][0] = MultiPoly.zero(V)
        M[1][0] = random_entry(rng, V) + 1
    elif kind == "zero-second-pivot":
        M[0][0] = random_entry(rng, V) + 1
        M[1][:2] = M[0][:2]  # M[1][1] M[0][0] - M[1][0] M[0][1] = 0 after step 0
    elif kind == "singular":
        factor = random_entry(rng, V) + 1
        M[-1] = [a * factor for a in M[0]]
    elif kind == "high-degree":
        i, j = rng.randrange(n), rng.randrange(n)
        e = [0] * len(V.names)
        for _ in range(130 + rng.randint(0, 20)):
            e[rng.randrange(len(e))] += 1
        M[i][j] = M[i][j] + MultiPoly(V, {tuple(e): rng.randint(1, 9)})
    elif kind == "full-degree":
        d = rng.randint(5, 16)
        for row in M:
            for j, a in enumerate(row):
                e = [0] * len(V.names)
                for _ in range(d):
                    e[rng.randrange(len(e))] += 1
                row[j] = a + MultiPoly(V, {tuple(e): rng.randint(1, 9)})
    return M


@pytest.mark.parametrize("kind", KINDS)
def test_bareiss_equals_the_cofactor_expansion(kind):
    rng = random.Random(f"bareiss-{kind}")
    for _ in range(25):
        M = draw_matrix(rng, kind)
        det = poly._bareiss_det(M)
        assert det.terms == cofactor_det(M).terms
        if kind == "singular":
            assert det.is_zero
        if kind == "high-degree":
            top = 2 * sum(max(a.total_degree() for a in row) for row in M)
            assert poly._packing(len(det.vars.names), top)[0] > 8


def test_bareiss_on_a_zero_column_is_zero():
    V = VariableSet(("x", "y"))
    x, y = (MultiPoly.variable(V, n) for n in V.names)
    zero = MultiPoly.zero(V)
    M = [[zero, x, y], [zero, y, x], [zero, x * y, x + y]]
    assert poly._bareiss_det(M).is_zero
    with pytest.raises(DegenerateError):
        poly._bareiss_det([])


V3 = VariableSet(("x", "y", "z"))
SYMBOLS = sp.symbols("x y z")


def to_sympy(P):
    return sp.sympify(str(P).replace("^", "**"))


def from_sympy(expr):
    terms = sp.Poly(expr, *SYMBOLS).terms()
    return MultiPoly(V3, {e: Fraction(int(c.p), int(c.q)) for e, c in terms})


def random_sympy(rng, top):
    x, y, z = SYMBOLS
    return sum(sp.Rational(rng.randint(-6, 6), rng.randint(1, 3)) * x ** a * y ** b * z ** c
               for a, b, c in {(rng.randint(0, top), rng.randint(0, 2), rng.randint(0, 2))
                               for _ in range(rng.randint(2, 5))})


def test_resultant_and_discriminant_equal_sympys():
    # the Sylvester layout differs from sympy's by (-1)^(deg P * deg Q)
    rng = random.Random(20)
    x = SYMBOLS[0]
    done = 0
    while done < 25:
        a, b = random_sympy(rng, 3), random_sympy(rng, 2)
        m, n = sp.degree(a, x), sp.degree(b, x)
        if m < 1 or n < 1:
            continue
        A, B = UniOverPoly("x", from_sympy(a)), UniOverPoly("x", from_sympy(b))
        assert sylvester_resultant(A, B) == from_sympy((-1) ** (m * n) * sp.resultant(a, b, x))
        assert discriminant_locus(A) == from_sympy(sp.resultant(a, sp.diff(a, x), x))
        done += 1


# -- packed division --------------------------------------------------------

def packed(*polys):
    """The polys packed at one width, and the width's guards."""
    n = len(polys[0].vars.names)
    w, guards = poly._packing(n, max(P.total_degree() for P in polys))
    return [poly._pack(P.terms, w) for P in polys], guards


def P3(text):
    return MultiPoly.from_string(text, V3)


@pytest.mark.parametrize("a, b", [
    ("x*z", "y"),          # x z - y borrows from the x field into the y field
    ("x*z + y^2", "y"),    # the borrow comes after the leading term divided
    ("x", "x^2"),          # the divisor has the higher total degree
    ("x^2 + 1", "x + 2"),  # an inexact remainder
])
def test_packed_division_refuses_what_does_not_divide(a, b):
    (pa, pb), guards = packed(P3(a), P3(b))
    assert poly._divide(pa, pb, guards) is None
    with pytest.raises(DegenerateError, match="not exact"):
        mp_divexact(P3(a), P3(b))


@pytest.mark.parametrize("a, b", [
    ("x^2 + 1", "x + 2"),
    ("x^2*y*z - 3*x^2 + y*z - 3", "x*y*z - 3*x + 2*y*z - 6"),
    ("2*x^3 + 2*x", "4*x^2*z + 8*x*z"),
])
def test_an_inexact_remainder_leaves_the_gcd_to_sympy(a, b):
    A, B = P3(a), P3(b)
    assert mp_gcd(A, B) == from_sympy(sp.gcd(to_sympy(A), to_sympy(B)))


def test_packed_division_quotients():
    q = mp_divexact(P3("2*x"), P3("3*x"))
    assert q.terms == {(0, 0, 0): Fraction(2, 3)}
    assert mp_divexact(P3("x*y*z"), P3("y")) == P3("x*z")
    big = P3("x^200*y - x^3*z^150")
    assert mp_divexact(big * P3("x - 2*z"), P3("x - 2*z")) == big


@st.composite
def exponents(draw):
    n = draw(st.integers(1, 6))
    tup = st.tuples(*[st.integers(0, 300)] * n)
    return draw(st.lists(tup, min_size=1, max_size=12, unique=True)), draw(tup)


@PROPERTY
@given(exponents())
def test_packed_order_is_the_graded_lex_order(case):
    es, f = case
    n = len(f)
    w, guards = poly._packing(n, max(map(sum, es + [f])))
    keys = {e: next(iter(poly._pack({e: 1}, w))) for e in es + [f]}
    # descending ints list the exponents as the graded-lex key does, largest first
    by_int = sorted(es, key=keys.__getitem__, reverse=True)
    assert by_int == sorted(es, key=_glex_key)
    assert list(poly._unpack({keys[e]: 1 for e in by_int}, n, w)) == by_int
    # a difference of keys has no guard bit set exactly when f divides e
    for e in es:
        assert (not (keys[e] - keys[f]) & guards) == all(a >= b for a, b in zip(e, f))
