import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from starborel import (
    DegenerateError,
    MultiPoly,
    UniOverPoly,
    UnknownVariableError,
    VariableMismatchError,
    VariableSet,
    content_primitive,
    discriminant_locus,
    gcd_over_fraction_field,
    is_simple,
    mp_divexact,
    mp_gcd,
    simple_decompose,
    sylvester_resultant,
)
from starborel import poly
from starborel.locus import _cleared_family
from starborel.poly import product_discriminant

V2 = VariableSet(("z1", "z2"), dof=0)
Z1, Z2 = sp.symbols("z1 z2")


def P(text, vars=V2):
    return MultiPoly.from_string(text, vars)


def U(text, var="z1", vars=V2):
    return UniOverPoly.from_multipoly(P(text, vars), var)


def to_sympy(Q):
    return sp.sympify(str(Q).replace("^", "**"))


def rand_sp(rng, maxdeg=3):
    return sum(sp.Integer(rng.randrange(-4, 5)) * Z1**a * Z2**b
               for a in range(maxdeg) for b in range(2))


def from_sympy(expr):
    return P(str(sp.expand(expr)).replace("**", "^"))


class TestView:
    def test_reads_one_polynomial(self):
        Q = P("z2*z1^3 - z1 + z2^2")
        view = UniOverPoly.from_multipoly(Q, "z1")
        assert view.coeffs == Q.univariate_coeffs("z1")
        assert view.to_multipoly() == Q
        assert view.degree == Q.degree("z1") == 3
        with pytest.raises(DegenerateError):
            UniOverPoly.from_multipoly(MultiPoly.zero(V2), "z1")
        with pytest.raises(UnknownVariableError):
            UniOverPoly.from_multipoly(Q, "w")
        with pytest.raises(TypeError):
            hash(view)


class TestGcd:
    def test_matches_sympy_up_to_unit(self):
        rng = random.Random(41)
        done = 0
        while done < 30:
            a, b, c = rand_sp(rng, 2), rand_sp(rng, 2), rand_sp(rng, 2)
            if a == 0 or b == 0 or c == 0:
                continue
            A, B = from_sympy(a * c), from_sympy(b * c)
            mine = to_sympy(mp_gcd(A, B))
            ref = sp.Poly(sp.gcd(sp.expand(a * c), sp.expand(b * c)),
                          Z1, Z2).as_expr()
            quot = sp.cancel(mine / ref)
            assert quot.is_number and quot != 0
            done += 1

    def test_divexact(self):
        A = P("z1^2 - z2^2")
        B = P("z1 - z2")
        assert mp_divexact(A, B) == P("z1 + z2")

    def test_gcd_of_coprime(self):
        g = mp_gcd(P("z1 + 1"), P("z2 + 1"))
        assert to_sympy(g).is_number

    def test_constant_operand_gives_shared_content(self):
        assert mp_gcd(P("3/2"), P("3*z1^2 + 6")) == P("3/2")
        assert mp_gcd(P("3*z1^2 + 6"), P("-3/2")) == P("3/2")
        assert mp_gcd(P("2"), P("-1/3")) == P("1/3")

    def test_zero_operand_gives_other_with_positive_lead(self):
        B = P("3*z2 - 2*z1^2")  # graded-lex leading term -2*z1^2
        zero = MultiPoly.zero(V2)
        assert mp_gcd(zero, B) == mp_gcd(B, zero) == mp_gcd(zero, -B) == P("2*z1^2 - 3*z2")
        assert mp_gcd(zero, zero).is_zero


class TestSimple:
    # (z1 - z2)^2 (z1 + 1), expanded
    CUBE = ("z1^3 + z1^2 - 2*z1^2*z2 - 2*z1*z2 + z1*z2^2 + z2^2")

    def test_is_simple(self):
        assert is_simple(U("z1^2 - z2"))
        assert not is_simple(U(self.CUBE))
        assert is_simple(U("z2 + 1"))  # degree 0 in z1

    def test_decompose_square_free(self):
        out = simple_decompose(U(self.CUBE))
        assert is_simple(out)
        quot = sp.cancel(to_sympy(out.to_multipoly()) / ((Z1 - Z2) * (Z1 + 1)))
        assert quot.is_number and quot != 0

    def test_decompose_zero_set_random_points(self):
        orig = to_sympy(U(self.CUBE).to_multipoly())
        out = to_sympy(simple_decompose(U(self.CUBE)).to_multipoly())
        rng = random.Random(42)
        for _ in range(300):
            a = Fraction(rng.randrange(-20, 21), rng.randrange(1, 8))
            b = Fraction(rng.randrange(-20, 21), rng.randrange(1, 8))
            vo = orig.subs({Z1: sp.Rational(a), Z2: sp.Rational(b)})
            vs = out.subs({Z1: sp.Rational(a), Z2: sp.Rational(b)})
            assert (vo == 0) == (vs == 0)

    def test_degree_zero_passthrough(self):
        p = U("z2^2 + 1")
        assert simple_decompose(p) == p

    def test_content_sheet_kept(self):
        # content z2 carries a genuine zero sheet; it must survive
        out = simple_decompose(U("z2*z1^2"))
        expr = to_sympy(out.to_multipoly())
        assert expr.subs({Z1: 5, Z2: 0}) == 0
        assert expr.subs({Z1: 0, Z2: 5}) == 0

    def test_gcd_over_fraction_field(self):
        g = gcd_over_fraction_field(U(self.CUBE), U(self.CUBE).diff())
        quot = sp.cancel(to_sympy(g.to_multipoly()) / (Z1 - Z2))
        assert quot.is_number and quot != 0


class TestResultant:
    def test_pinned_fixtures(self):
        assert sylvester_resultant(U("z1^2 - z2"), U("2*z1")) == P("-4*z2")
        assert sylvester_resultant(U("z1 - z2"), U("z1 + z2")) == P("-2*z2")

    def test_matches_sympy_up_to_layout_sign(self):
        # row ordering differs from sympy by (-1)^(deg P * deg Q)
        rng = random.Random(43)
        done = 0
        while done < 30:
            a, b = rand_sp(rng), rand_sp(rng)
            if sp.degree(a, Z1) < 1 or sp.degree(b, Z1) < 1:
                continue
            mine = to_sympy(sylvester_resultant(from_sympy_u(a), from_sympy_u(b)))
            ref = sp.expand(sp.resultant(a, b, Z1))
            sign = (-1) ** (sp.degree(a, Z1) * sp.degree(b, Z1))
            assert sp.expand(mine - sign * ref) == 0
            done += 1

    def test_vanishes_iff_common_root(self):
        res = sylvester_resultant(U("z1^2 - z2"), U("z1 - 2"))
        # common root exactly when z2 = 4
        assert to_sympy(res).subs({Z2: 4}) == 0
        assert to_sympy(res).subs({Z2: 3}) != 0

    def test_degenerate(self):
        with pytest.raises(DegenerateError):
            sylvester_resultant(U("z2 + 1"), U("z2 - 1"))

    def test_operands_over_different_variable_sets_are_rejected(self):
        # the Sylvester matrix of z1 - z2 and z1 - z3 lives over (z1, z2, z3),
        # which neither operand's ring is: no determinant is taken
        A = U("z1 - z2", vars=VariableSet(("z1", "z2")))
        B = U("z1 - z3", vars=VariableSet(("z1", "z3")))
        common = VariableSet(("z1", "z2", "z3"))
        assert sylvester_resultant(U("z1 - z2", vars=common), U("z1 - z3", vars=common)) \
            == P("z3 - z2", common)
        for build in (sylvester_resultant, product_discriminant):
            with pytest.raises(VariableMismatchError):
                build(A, B)

    @pytest.mark.parametrize("a, b", [
        ("3/2*z1^2 - 2/3*z2", "5/4*z1 - 1/7*z2"),
        ("1/2*z1^3 - 2/3*z2*z1 + 1/5", "3/4*z1^2 - 1/6*z2"),
        ("z1^2 - 1/3*z2*z1 + 2", "2/9*z2*z1^3 + 7/2*z1 - z2"),
        ("5/6 - z2", "3/2*z1^2 + z2*z1"),
    ])
    def test_rational_coefficients_match_sympy(self, a, b):
        # the determinant runs on integer primitive parts and rescales once
        A, B = sp.sympify(a.replace("^", "**")), sp.sympify(b.replace("^", "**"))
        mine = to_sympy(sylvester_resultant(U(a), U(b)))
        sign = (-1) ** (sp.degree(A, Z1) * sp.degree(B, Z1))
        assert sp.expand(mine - sign * sp.resultant(A, B, Z1)) == 0


class TestDiscriminant:
    def test_quadratic(self):
        vars = VariableSet(("z1", "b", "c"), dof=0)
        p = UniOverPoly.from_multipoly(
            MultiPoly.from_string("z1^2 + b*z1 + c", vars), "z1")
        d = to_sympy(discriminant_locus(p))
        bb, cc = sp.symbols("b c")
        quot = sp.cancel(d / (bb**2 - 4 * cc))
        assert quot.is_number and quot != 0

    def test_linear_gives_leading(self):
        d = discriminant_locus(U("z2*z1 + 1"))
        quot = sp.cancel(to_sympy(d) / Z2)
        assert quot.is_number and quot != 0


class TestProductDiscriminant:
    """The product formula equals the full discriminant of the product,
    sign included: (-1)^(mn) for z-degrees m and n."""

    @staticmethod
    def rand_factor(rng, deg):
        terms = {(a, b): rng.randrange(-4, 5) for a in range(deg) for b in range(2)}
        terms[(deg, rng.randrange(2))] = rng.choice((-3, -2, -1, 1, 2, 3))
        return MultiPoly(V2, terms)

    @staticmethod
    def assert_formula(F, G, var):
        full = discriminant_locus(UniOverPoly(var, F * G))
        assert product_discriminant(UniOverPoly(var, F), UniOverPoly(var, G)) == full
        return full

    @pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
    def test_random_degree_pairs(self, m, n):
        rng = random.Random(70 + 10 * m + n)
        for _ in range(4):
            F, G = self.rand_factor(rng, m), self.rand_factor(rng, n)
            assert (F.degree("z1"), G.degree("z1")) == (m, n)
            self.assert_formula(F, G, "z1")

    @pytest.mark.parametrize("pf, qg", [
        ("3 - xi1 - 2*q - p", "4 - xi2 - q - 5*p"),                       # lin
        ("2 - xi1 - q - p - 3*q*p", "5 - xi2 - q - 2*p - q*p"),           # bilin
        ("4 - xi1 - 3*p", "2 - xi2 - 5*q^2"),                             # cubic
    ])
    def test_hadamard_families(self, pf, qg):
        ring = VariableSet(("xi1", "xi2", "xi3", "q", "p", "z"), dof=0)
        f = P(pf, VariableSet(("xi1", "q", "p"))).rehome(ring)
        f = f.substitute("p", P("p + z", ring))
        Qg = P(qg, VariableSet(("xi2", "q", "p")))
        g = _cleared_family(Qg.univariate_coeffs("q"), ring, "q", "xi3", "z")
        assert not self.assert_formula(f, g, "z").is_zero

    @pytest.mark.parametrize("pf, qg", [
        ("3/2 - xi1 - 2/3*p - q*p", "1 - q"),
        ("3/2 - xi1 - 2/3*p - q*p", "5/4 - xi2 - 1/3*q - 2*p"),
        ("1/2 - xi1 - p^2", "2/3 - xi2 - 3/5*q"),
    ])
    def test_rational_hadamard_families(self, pf, qg):
        self.test_hadamard_families(pf, qg)

    def test_needs_positive_degrees(self):
        with pytest.raises(DegenerateError):
            product_discriminant(U("z2 + 1"), U("z1 - z2"))


V3 = VariableSet(("x", "y", "z"), dof=0)
EXPONENT = st.tuples(*[st.integers(0, 3)] * 3)
NONZERO = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
SPARSE = st.dictionaries(EXPONENT, NONZERO, max_size=5).map(lambda t: MultiPoly(V3, t))
DIVIDE = settings(max_examples=80, deadline=None, derandomize=True, database=None)


class TestDivexactProperties:
    @DIVIDE
    @given(SPARSE, SPARSE.filter(lambda B: not B.is_zero), EXPONENT, NONZERO)
    def test_exact_inexact_and_zero(self, A, B, e, c):
        assert mp_divexact(A * B, B) == A
        assert mp_divexact(MultiPoly.zero(V3), B).is_zero
        # B divides a monomial only if B is a monomial dividing it
        eb, _ = B.leading()
        assume(len(B.terms) > 1 or any(k < kb for k, kb in zip(e, eb)))
        with pytest.raises(DegenerateError):
            mp_divexact(A * B + MultiPoly(V3, {e: c}), B)


FACTOR = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), NONZERO, min_size=1,
                         max_size=3).map(lambda t: MultiPoly(V3, t))


class TestGcdNormalForm:
    @DIVIDE
    @given(FACTOR, FACTOR, FACTOR, st.sampled_from(V3.names))
    def test_fraction_field_gcd_is_primitive_part_of_full_gcd(self, a, b, c, var):
        # content_primitive of the full gcd was the definition; it is the oracle
        Pu, Qu = UniOverPoly(var, a * c), UniOverPoly(var, b * c)
        want = content_primitive(UniOverPoly(var, mp_gcd(Pu.poly, Qu.poly)))[1]
        got = gcd_over_fraction_field(Pu, Qu)
        assert got.var == var and got.poly.terms == want.poly.terms


class TestIntegerPaths:
    """Integer coefficients divide with // only when the quotient is whole."""

    def test_divexact_quotient_is_exact(self):
        q = mp_divexact(P("3*z1"), P("2*z1"))
        assert q.terms == {(0, 0): Fraction(3, 2)}
        assert type(q.terms[(0, 0)]) is Fraction

    def test_divexact_integer_quotient_is_int(self):
        q = mp_divexact(P("6*z1^2 + 4*z1*z2"), P("2*z1"))
        assert q == P("3*z1 + 2*z2")
        assert all(type(c) is int for c in q.terms.values())

    def test_divexact_inexact_integer_case_raises(self):
        with pytest.raises(DegenerateError, match="division is not exact"):
            mp_divexact(P("3*z1^2 + 1"), P("2*z1"))


INTEGRAL = st.dictionaries(EXPONENT, st.integers(-5, 5).filter(bool), min_size=1, max_size=4)
CONTENT = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(
    lambda r: abs(r) not in (0, 1))


def with_content(terms, r):
    """The integer polynomial's primitive part times the rational r: its content is |r|."""
    g = math.gcd(*terms.values())
    return MultiPoly(V3, {e: Fraction(c, g) for e, c in terms.items()}).scale(r)


class TestRationalContents:
    """Exact division divides the integer primitive parts and scales by the
    contents' ratio, so rational operands reach the integer loop."""

    @DIVIDE
    @given(INTEGRAL, CONTENT, INTEGRAL, CONTENT)
    def test_exact_and_inexact(self, a, ra, b, rb):
        A, B = with_content(a, ra), with_content(b, rb)
        q = mp_divexact(A * B, B)
        assert q.terms == A.terms
        assert all(type(c) is int if c.denominator == 1 else type(c) is Fraction
                   for c in q.terms.values())
        assume(B.total_degree() > 0)
        with pytest.raises(DegenerateError, match="division is not exact"):
            mp_divexact(A * B + 1, B)

    def test_inexact_divisions_stop_early(self):
        # a leftover constant term below 4*x, then a leading quotient 2/4 over Z
        V1 = VariableSet(("x",))
        with pytest.raises(DegenerateError, match="division is not exact"):
            mp_divexact(MultiPoly.from_string("2*x + 1", V1), MultiPoly.from_string("4*x", V1))
        with pytest.raises(DegenerateError, match="division is not exact"):
            mp_divexact(MultiPoly.from_string("2*x + 3", V1),
                        MultiPoly.from_string("4*x + 1", V1))


class TestTransforms:
    def test_shift(self):
        out = P("z1^2").substitute("z1", P("z1 + z2"))
        assert out == P("z1^2 + 2*z1*z2 + z2^2")

    def test_reciprocal(self):
        # z^2 Q(z1 + xi/z) for Q = z1^2 - z2; at z1 = 0 it is z^2 Q(xi/z)
        vars = VariableSet(("z1", "xi", "z2", "z"), dof=0)
        out = _cleared_family([P("-z2"), P("0"), P("1")], vars, "z1", "xi", "z")
        assert out == MultiPoly.from_string(
            "z1^2*z^2 + 2*z1*xi*z + xi^2 - z2*z^2", vars)
        zero = MultiPoly.zero(vars)
        assert out.substitute("z1", zero) == MultiPoly.from_string("xi^2 - z2*z^2", vars)

    @DIVIDE
    @given(st.lists(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), NONZERO,
                                    max_size=3), min_size=1, max_size=5))
    def test_cleared_family_is_the_sum_of_its_terms(self, slices):
        # b_0..b_N (N = 0..4, zero ones included) over (w, y); the reference
        # is sum_k b_k (x z + xi)^k z^(N-k), every power taken by pow
        ring = VariableSet(("x", "xi", "w", "y", "z"), dof=0)
        coeffs = [MultiPoly(VariableSet(("w", "y"), dof=0), b) for b in slices]
        x, xi, z = (MultiPoly.variable(ring, n) for n in ("x", "xi", "z"))
        N = len(coeffs) - 1
        want = MultiPoly.zero(ring)
        for k, b in enumerate(coeffs):
            want = want + b.rehome(ring) * (x * z + xi).pow(k) * z.pow(N - k)
        got = _cleared_family(coeffs, ring, "x", "xi", "z")
        assert {e: (c, type(c)) for e, c in got.terms.items()} == \
            {e: (c, type(c)) for e, c in want.terms.items()}


def from_sympy_u(expr):
    return UniOverPoly.from_multipoly(from_sympy(expr), "z1")


@st.composite
def fraction_field_operands(draw):
    """(var, P, Q) over x, y, z with a shared factor, each scaled by a
    rational content and a content in the other variables; or Q of degree 0
    in var; or Q dividing P, so that the remainder sequence returns it."""
    var = draw(st.sampled_from(V3.names))
    i = V3.index(var)

    def content():
        terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 1)] * 3), NONZERO,
                                     min_size=1, max_size=2))
        # one or two terms in the other variables, with rational coefficients
        k = MultiPoly(V3, {e[:i] + (0,) + e[i + 1:]: c for e, c in terms.items()})
        return k if not k.is_zero else MultiPoly.constant(V3, draw(NONZERO))

    a, b, c = draw(FACTOR), draw(FACTOR), draw(FACTOR)
    shape = draw(st.sampled_from(["shared", "degree 0", "divides"]))
    Q = content() if shape == "degree 0" else b * c * content()
    P = Q * a if shape == "divides" else a * c * content()
    return (var, Q, P) if draw(st.booleans()) else (var, P, Q)


class TestFractionFieldGcdContents:
    """The fraction-field gcd splits one content and the square-free test
    none: inputs with contents give the same results as the full gcd."""

    @DIVIDE
    @given(fraction_field_operands())
    def test_gcd_is_primitive_part_of_full_gcd(self, case):
        var, P, Q = case
        want = content_primitive(UniOverPoly(var, mp_gcd(P, Q)))[1]
        got = gcd_over_fraction_field(UniOverPoly(var, P), UniOverPoly(var, Q))
        assert got.var == var
        assert {e: (c, type(c)) for e, c in got.poly.terms.items()} == \
            {e: (c, type(c)) for e, c in want.poly.terms.items()}

    @DIVIDE
    @given(fraction_field_operands())
    def test_is_simple_is_a_constant_gcd_with_the_derivative(self, case):
        # a monomial factor of degree 2 or more in var makes P not simple
        var, P, _ = case
        U = UniOverPoly(var, P)
        want = U.degree == 0 or gcd_over_fraction_field(U, U.diff()).degree == 0
        assert is_simple(U) == want


def rational_content(*polys) -> Fraction:
    """The definition: the gcd of every coefficient's numerator over the lcm of
    every denominator, 1 when all the polys are zero."""
    num, den = 0, 1
    for Q in polys:
        for c in Q.terms.values():
            num = math.gcd(num, c.numerator)
            den = math.lcm(den, c.denominator)
    return Fraction(num, den) if num else Fraction(1)


class TestContentSplit:
    """``poly._split_content`` against the definition of the rational content."""

    @DIVIDE
    @given(SPARSE)
    def test_split_is_the_content_and_an_integer_primitive_part(self, A):
        r, Q = poly._split_content(A)
        assert type(r) is Fraction and r > 0
        assert r == rational_content(A)
        assert all(type(c) is int for c in Q.terms.values())
        assert math.gcd(*Q.terms.values()) == (1 if Q.terms else 0)
        assert Q.scale(r) == A
        assert Q.terms.keys() == A.terms.keys()

    def test_zero_has_content_one(self):
        r, Q = poly._split_content(MultiPoly.zero(V3))
        assert r == 1 and Q.is_zero

    @DIVIDE
    @given(SPARSE, SPARSE)
    def test_gcd_carries_the_joint_content(self, A, B):
        assume(not A.is_zero and not B.is_zero)
        g = mp_gcd(A, B)
        assert poly._split_content(g)[0] == rational_content(A, B)

    def test_gcd_of_rational_constants(self):
        assert mp_gcd(P("3/2"), P("9/4")) == P("3/4")
        assert mp_gcd(P("3/2"), P("9/4*z1")) == P("3/4")
        assert mp_gcd(P("9/4*z1"), P("-3/2")) == P("3/4")
