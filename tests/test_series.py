import random
from fractions import Fraction

import pytest

from starborel import (
    BindingError,
    DegenerateError,
    FormalSeries,
    MultiPoly,
    ParseError,
    Truncation,
    UnknownVariableError,
    VariableMismatchError,
    VariableSet,
    WindowOverflowError,
)
from starborel.integral import _dirichlet

V = VariableSet.phase_space(1)
T = Truncation(6, 6)


def S(text, vars=V, trunc=T):
    return FormalSeries.from_string(text, vars, trunc)


def rand_series(rng, vars=V, trunc=T, nterms=5):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randrange(3) for _ in vars.names)
        terms[e] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
    return FormalSeries(vars, trunc, terms)


class TestParsePrint:
    def test_roundtrip_canonical(self):
        rng = random.Random(42)
        for _ in range(500):
            f = rand_series(rng)
            assert S(str(f)) == f if not f.is_zero else str(f) == "0"

    def test_canonical_order(self):
        assert str(S("t^3 + t^2*p*q")) == "t^2*p*q + t^3"

    def test_rationals(self):
        assert str(S("-7/2*t + 3")) == "-7/2*t + 3"

    def test_whitespace_insignificant(self):
        assert S(" t ^ 2 * p + 1 ") == S("t^2*p + 1")

    def test_zero(self):
        assert str(FormalSeries.zero(V, T)) == "0"
        assert S("t - t").is_zero

    def test_parse_errors(self):
        for bad in ["t +", "* t", "t^", "t q", "3..5", "t^2^3", "1/0*t"]:
            with pytest.raises(ParseError):
                S(bad)

    def test_exponent_is_a_digit_string(self):
        # the fraction 4/2 reduces to 2, but an exponent must be written as digits
        for bad in ["t^4/2", "t^2/1", "p^1 / 1*q"]:
            with pytest.raises(ParseError, match="exponent must be a nonnegative integer"):
                S(bad)
        assert S("4/2*t") == S("2*t") and S("t^ 2*p") == S("t^2*p")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            S("w^2")


class TestRing:
    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for _ in range(25):
            f, g, h = (rand_series(rng) for _ in range(3))
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f * g == g * f
            assert f + g == g + f

    def test_unit_and_zero(self):
        rng = random.Random(8)
        f = rand_series(rng)
        assert f * FormalSeries.one(V, T) == f
        assert (f + FormalSeries.zero(V, T)) == f

    def test_mul_truncates_silently(self):
        f = S("t^4")
        assert (f * f).is_zero  # t^8 falls outside deg_t = 6

    def test_variable_mismatch(self):
        other = VariableSet.phase_space(2)
        with pytest.raises(VariableMismatchError):
            S("t") + FormalSeries.one(other, T)

    @pytest.mark.parametrize("build", [
        lambda: MultiPoly(VariableSet(("x", "y")), {(-1, 0): 1, (1, 0): 1}),
        lambda: FormalSeries(V, T, {(0, -1, 0): 1}),
        lambda: FormalSeries(V, T, {(0, 1.5, 0): 1}),
    ], ids=["negative-poly", "negative-series", "fractional-series"])
    def test_rejects_invalid_exponents(self, build):
        with pytest.raises(VariableMismatchError):
            build()

    def test_pow(self):
        assert S("1 + p").pow(3) == S("1 + 3*p + 3*p^2 + p^3")
        with pytest.raises(DegenerateError):
            S("1 + p").pow(-1)
        with pytest.raises(DegenerateError):
            MultiPoly.from_string("1 + p", V).pow(-1)

    def test_a_power_that_is_not_an_int(self):
        with pytest.raises(DegenerateError, match="power must be an int"):
            S("1 + p").pow(1.5)

    def test_coeff_of_a_multi_index_of_the_wrong_arity(self):
        f = S("t*p")
        assert f.coeff((1, 0, 1)) == 1
        with pytest.raises(VariableMismatchError, match="wrong arity"):
            f.coeff((1, 0))
        with pytest.raises(VariableMismatchError, match="wrong arity"):
            MultiPoly.from_string("p", V).coeff((0, 0, 1, 0))

    def test_scale_coerces_its_factor_as_the_constructor_does(self):
        f = S("t*p + 2*q")
        assert f.scale("1/2") == f.scale(Fraction(1, 2)) == S("1/2*t*p + q")
        assert f.scale("4/2").terms == {(1, 0, 1): 2, (0, 1, 0): 4}
        with pytest.raises(TypeError, match="exact rational"):
            f.scale(0.5)
        with pytest.raises(ParseError):
            f.scale("half")


class TestCalculus:
    def test_mixed_partials_commute(self):
        rng = random.Random(9)
        for _ in range(20):
            f = rand_series(rng)
            assert f.diff("p").diff("q") == f.diff("q").diff("p")

    def test_derivative_values(self):
        f = S("p^2*q")
        assert f.diff("p") == S("2*p*q").truncate(f.diff("p").trunc)
        assert f.diff("p", 3).is_zero

    def test_integrate_then_diff_identity(self):
        # with one helper the closed-form simplex integral is d/dt of the
        # integral of f(e) from 0 to t, which gives f back
        ring = VariableSet(V.names + ("_e",), dof=V.dof)
        rng = random.Random(10)
        for _ in range(20):
            f = rand_series(rng).truncate(Truncation(4, 4))
            h = f.rename_distinguished("_e").truncate(Truncation(8, 8)).rehome(ring)
            assert _dirichlet(h, ["_e"], V, f.trunc) == f

    def test_definite_integral_polynomial_upper(self):
        # iterated simplex integral of xi1*xi2 gives xi^4/24
        vars = VariableSet(("xi", "xi1", "xi2"))
        trunc = Truncation(8, 8)
        h = FormalSeries.from_string("xi1*xi2", vars, trunc)
        base = VariableSet(("xi",))
        outer = FormalSeries.from_string("1/24*xi^4", base, trunc)
        got = _dirichlet(h, ["xi1", "xi2"], base, trunc)
        assert got == outer.diff("xi", 2).truncate(trunc)

    def test_evaluate_partial(self):
        f = S("t*p^2 + q")
        got = f.evaluate_partial({"p": Fraction(1, 2)})
        assert got == S("1/4*t + q")

    def test_a_derivative_order_that_is_not_an_int(self):
        with pytest.raises(DegenerateError, match="order must be an int"):
            S("q^3").diff("q", 1.5)
        with pytest.raises(DegenerateError, match="negative"):
            S("q^3").diff("q", -1)

    def test_evaluate_partial_distinguished_rejected(self):
        with pytest.raises(BindingError):
            S("t").evaluate_partial({"t": 1})

    def test_evaluate_commutes_with_ring_ops(self):
        # window wide enough that no product term is truncated away
        wide = Truncation(6, 12)
        rng = random.Random(11)
        for _ in range(20):
            f, g = rand_series(rng, trunc=wide), rand_series(rng, trunc=wide)
            b = {"p": Fraction(rng.randrange(-3, 4), 2)}
            assert (f * g).evaluate_partial(b) == \
                f.evaluate_partial(b) * g.evaluate_partial(b)
            assert (f + g).evaluate_partial(b) == \
                f.evaluate_partial(b) + g.evaluate_partial(b)


class TestShape:
    def test_degree_of_zero(self):
        assert FormalSeries.zero(V, T).degree("t") == -1

    def test_truncation_meet(self):
        assert Truncation(3, 5).meet(Truncation(4, 2)) == Truncation(3, 2)

    @pytest.mark.parametrize("caps", [(2.5, 3), ("2", 3), (2, 3.0), (-1, 3)])
    def test_truncation_caps_are_nonnegative_ints(self, caps):
        with pytest.raises(WindowOverflowError):
            Truncation(*caps)

    def test_embed_and_drop(self):
        small = VariableSet(("xi", "q", "p"))
        big = VariableSet(("xi", "q", "p", "w"))
        f = FormalSeries.from_string("xi*p + q", small, T)
        assert f.truncate(T).rehome(big).rehome(small) == f

    def test_rename_distinguished(self):
        f = S("t^2*p")
        g = f.rename_distinguished("xi")
        assert str(g) == "xi^2*p"
        assert g.vars.names[0] == "xi"
