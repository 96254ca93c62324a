"""The heuristic gcd (GCDHEU) in front of ``mp_gcd``: every function of the
gcd chain returns what the remainder-sequence fallback returns, term for
term and type for type, and agrees with sympy."""

import ast
import importlib
import inspect
import random
from fractions import Fraction
from unittest import mock

import sympy as sp
from hypothesis import given, settings, strategies as st

from starborel import (
    MultiPoly,
    UniOverPoly,
    VariableSet,
    content_primitive,
    gcd_over_fraction_field,
    is_simple,
    mp_gcd,
    simple_decompose,
)

poly = importlib.import_module("starborel.poly")

V3 = VariableSet(("x", "y", "z"), dof=0)
COEFF = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
MONOMIAL = st.tuples(*[st.integers(0, 3)] * 3).filter(lambda e: sum(e) <= 3)
FACTOR = st.dictionaries(MONOMIAL, COEFF, min_size=1, max_size=3).map(lambda t: MultiPoly(V3, t))
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def to_sympy(P):
    return sp.sympify(str(P).replace("^", "**"))


def typed(P):
    return {e: (c, type(c)) for e, c in P.terms.items()}


def chain(A, B, var):
    """The five gcd-chain results on (A, B), each as typed terms."""
    out = {"mp_gcd": typed(mp_gcd(A, B))}
    if not A.is_zero:
        UA = UniOverPoly(var, A)
        content, primitive = content_primitive(UA)
        out["content_primitive"] = typed(content), typed(primitive.poly)
        out["is_simple"] = is_simple(UA)
        out["simple_decompose"] = typed(simple_decompose(UA).poly)
        if not B.is_zero:
            out["gcd_over_fraction_field"] = typed(
                gcd_over_fraction_field(UA, UniOverPoly(var, B)).poly)
    return out


def fallback(A, B, var):
    """``chain`` with the heuristic failing every time: the remainder sequence alone."""
    with mock.patch.object(poly, "_heu_gcd", lambda a, b: None):
        return chain(A, B, var)


def assert_sympy_unit(G, A, B):
    """G is sympy's gcd of A and B times a nonzero rational."""
    quot = sp.cancel(to_sympy(G) / sp.gcd(to_sympy(A), to_sympy(B)))
    assert quot.is_number and quot != 0


@st.composite
def operands(draw):
    """(var, A, B): products of 2-3 factors sharing one; or B zero, a nonzero
    rational constant, or the shared factor itself; in either order."""
    var = draw(st.sampled_from(V3.names))
    c = draw(FACTOR)
    A, B = c, c
    for _ in range(draw(st.integers(1, 2))):
        A = A * draw(FACTOR)
    shape = draw(st.sampled_from(["shared", "zero", "constant", "divides"]))
    if shape == "shared":
        for _ in range(draw(st.integers(1, 2))):
            B = B * draw(FACTOR)
    elif shape == "zero":
        B = MultiPoly.zero(V3)
    elif shape == "constant":
        B = MultiPoly.constant(V3, draw(COEFF))
    return (var, A, B) if draw(st.booleans()) else (var, B, A)


class TestHeuristicAgainstFallback:
    @PROPERTY
    @given(operands())
    def test_chain_equals_the_remainder_sequence(self, case):
        var, A, B = case
        assert chain(A, B, var) == fallback(A, B, var)

    @PROPERTY
    @given(operands())
    def test_gcd_is_sympys_up_to_a_rational_unit(self, case):
        _, A, B = case
        assert_sympy_unit(mp_gcd(A, B), A, B)

    def test_heuristic_serves_the_chain(self):
        # with the remainder sequence unreachable, the heuristic alone answers
        x, y = MultiPoly.variable(V3, "x"), MultiPoly.variable(V3, "y")
        c = x * y + MultiPoly.constant(V3, Fraction(1, 2))
        with mock.patch.object(poly, "_prs", side_effect=AssertionError("fallback ran")):
            g = mp_gcd(c * (x + y).scale(3), c * (x - y).scale(6))
            assert is_simple(UniOverPoly("x", c * c * x + y)) is True
        assert g == c.scale(3)  # rational_content(A, B) = 3/2 times the primitive 2xy + 1


def _factor(rng, terms, deg):
    """A term dict of ``terms`` distinct exponents, each at most deg per variable."""
    t = {}
    while len(t) < terms:
        t[tuple(rng.randint(0, deg) for _ in range(3))] = Fraction(
            rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
    return MultiPoly(V3, t)


class TestLargeInputs:
    """Inputs on which the remainder sequence alone runs for minutes."""

    def test_squares_of_products_of_degree_three_factors(self):
        # (a c)^2 and (b c)^2 for 4-term factors of degree <= 3 in each variable
        rng = random.Random(8)
        a, b, c = (_factor(rng, 4, 3) for _ in range(3))
        A, B = (a * c) * (a * c), (b * c) * (b * c)
        assert (len(A.terms), len(B.terms)) == (80, 84)
        with mock.patch.object(poly, "_prs", side_effect=AssertionError("fallback ran")):
            G = mp_gcd(A, B)
        assert_sympy_unit(G, A, B)
        assert G.leading()[1] > 0

    def test_is_simple_on_a_174_term_product(self):
        # P Q for P = a c k1, Q = b c k2: 3-term factors of degree <= 2 in each
        # variable and 2-term contents free of x; c^2 makes it not simple
        rng = random.Random(929)
        a, b, c = (_factor(rng, 3, 2) for _ in range(3))
        k1, k2 = (MultiPoly(V3, {(0,) + e[1:]: v for e, v in _factor(rng, 2, 1).terms.items()})
                  for _ in range(2))
        PQ = a * c * k1 * b * c * k2
        assert (len(PQ.terms), PQ.degree("z")) == (174, 9)
        for P in (PQ, a * c * k1 * b):
            expr = to_sympy(P)
            for var in map(sp.Symbol, V3.names):
                simple = sp.degree(sp.gcd(expr, sp.diff(expr, var)), var) == 0
                assert is_simple(UniOverPoly(var.name, P)) == simple


class TestBigCoefficients:
    def test_two_hundred_digit_coefficients(self):
        # images at xi far beyond the float range: every step stays in ints,
        # so no OverflowError can escape, and the heuristic answers
        rng = random.Random(5)
        big = lambda: rng.choice((-1, 1)) * rng.randrange(10 ** 199, 10 ** 200)
        x, y, z = (MultiPoly.variable(V3, n) for n in V3.names)
        c = (x * y).scale(big()) + z.scale(big()) + MultiPoly.constant(V3, Fraction(big(), big()))
        a = (x * x).scale(big()) + y.scale(big())
        b = (y * z).scale(Fraction(big(), big())) + MultiPoly.constant(V3, 7)
        small = x + y + MultiPoly.constant(V3, 1)
        for A, B in ((a * c, b * c), (a * c * c, c * small), (a * small, b * small)):
            assert poly._heu_gcd(poly._split_content(A)[1].terms,
                                 poly._split_content(B)[1].terms) is not None
            G = mp_gcd(A, B)
            assert_sympy_unit(G, A, B)
            assert typed(G) == fallback(A, B, "x")["mp_gcd"]

    def test_heuristic_uses_no_float(self):
        tree = ast.parse(inspect.getsource(poly._heu_gcd) + inspect.getsource(poly._put))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not names & {"float", "sqrt", "log", "Fraction"}
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Div)
                    or isinstance(node, ast.Constant) and isinstance(node.value, float)]
