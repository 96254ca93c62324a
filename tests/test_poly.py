import random
from fractions import Fraction

import pytest
import sympy as sp

from starborel import (
    DegenerateError,
    MultiPoly,
    UniOverPoly,
    UnknownVariableError,
    VariableSet,
    discriminant_locus,
    gcd_over_fraction_field,
    is_simple,
    mp_divexact,
    mp_gcd,
    simple_decompose,
    sylvester_resultant,
)
from starborel.locus import _cleared_family

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


def from_sympy_u(expr):
    return UniOverPoly.from_multipoly(from_sympy(expr), "z1")
