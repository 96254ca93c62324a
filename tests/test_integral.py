import random
from fractions import Fraction
from itertools import product

import pytest
import sympy as sp

from starborel import (
    MOYAL,
    STANDARD,
    FormalSeries,
    Truncation,
    VariableMismatchError,
    VariableSet,
    borel_T,
    borel_star,
    eval_borel_star_rep,
    eval_formulahigh,
    eval_moyal_rep,
    eval_That_rep,
    hadamard,
    hadamard_contour,
)
from starborel.integral import _dirichlet

B1 = VariableSet.phase_space(1, "xi")
B2 = VariableSet.phase_space(2, "xi")
T1 = Truncation(6, 5)
T2 = Truncation(5, 4)


def rand_poly(rng, vars, trunc, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = [rng.randrange(3) for _ in vars.names]
        e[0] = rng.randrange(2)
        terms[tuple(e)] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 3))
    return FormalSeries(vars, trunc, terms)


class TestStandardRep:
    def test_matches_borel_star_one_dof(self):
        rng = random.Random(51)
        for _ in range(25):
            f = rand_poly(rng, B1, T1)
            g = rand_poly(rng, B1, T1)
            assert eval_borel_star_rep(f, g) == borel_star(f, g, STANDARD)

    def test_pinned_cubic(self):
        # f = g = xi gives the pure convolution value xi^2/2
        xi = FormalSeries.variable(B1, T1, "xi")
        got = eval_borel_star_rep(xi, xi)
        assert got == borel_star(xi, xi, STANDARD)

    def test_general_r_two_dof(self):
        rng = random.Random(52)
        for _ in range(10):
            f = rand_poly(rng, B2, T2)
            g = rand_poly(rng, B2, T2)
            assert eval_formulahigh(f, g) == borel_star(f, g, STANDARD)

    def test_zero_inputs(self):
        z = FormalSeries.zero(B1, T1)
        f = FormalSeries.variable(B1, T1, "p")
        assert eval_formulahigh(z, f).is_zero
        assert eval_formulahigh(f, z).is_zero


class TestMoyalRep:
    def test_matches_borel_star_one_dof(self):
        rng = random.Random(53)
        for _ in range(25):
            f = rand_poly(rng, B1, T1)
            g = rand_poly(rng, B1, T1)
            assert eval_moyal_rep(f, g) == borel_star(f, g, MOYAL)

    def test_antisymmetric_leading_term(self):
        p = FormalSeries.variable(B1, T1, "p")
        q = FormalSeries.variable(B1, T1, "q")
        comm = eval_moyal_rep(p, q) - eval_moyal_rep(q, p)
        assert comm == FormalSeries.variable(B1, T1, "xi")


class TestThatRep:
    def test_matches_operator(self):
        rng = random.Random(54)
        for _ in range(25):
            f = rand_poly(rng, B1, T1)
            assert eval_That_rep(f) == borel_T(f)
            assert eval_That_rep(f, inverse=True) == borel_T(f, inverse=True)

    def test_roundtrip(self):
        rng = random.Random(55)
        f = rand_poly(rng, B1, T1)
        assert eval_That_rep(eval_That_rep(f), inverse=True) == f


class TestDofChecks:
    @pytest.mark.parametrize("rep", [
        eval_formulahigh, eval_borel_star_rep, eval_moyal_rep,
        lambda f, g: eval_That_rep(f), lambda f, g: eval_That_rep(f, inverse=True)])
    def test_every_evaluator_needs_a_phase_space(self, rep):
        z = FormalSeries.variable(VariableSet(("xi", "z")), T1, "z")
        with pytest.raises(VariableMismatchError):
            rep(z, z)

    def test_borel_star_rep_is_stated_for_one_dof(self):
        f = FormalSeries.variable(B2, T2, "p1")
        with pytest.raises(VariableMismatchError):
            eval_borel_star_rep(f, f)

    def test_formulahigh_checks_the_asked_dof(self):
        f = FormalSeries.variable(B1, T1, "p")
        with pytest.raises(VariableMismatchError):
            eval_formulahigh(f, f, r=2)


class TestHadamardContour:
    def test_matches_coefficientwise(self):
        vars = VariableSet(("xi",))
        trunc = Truncation(8, 0)
        rng = random.Random(56)
        for _ in range(25):
            a = FormalSeries(vars, trunc,
                             {(k,): Fraction(rng.randrange(-4, 5))
                              for k in range(7)})
            b = FormalSeries(vars, trunc,
                             {(k,): Fraction(rng.randrange(-4, 5))
                              for k in range(7)})
            assert hadamard_contour(a, b) == hadamard(a, b)


class TestDirichlet:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_iterated_integration(self, n):
        """d^n/dxi^n of the simplex integral of prod e_j^{a_j} q^b p^c,
        exponents 0..3, against iterated sympy integrals: each antiderivative
        vanishes at 0, so the inner one is evaluated at its upper limit."""
        helpers = [f"_e{j}" for j in range(1, n + 1)]
        vars = VariableSet(B1.names + tuple(helpers), dof=1)
        rng = random.Random(57 + n)
        terms = {(0, rng.randrange(3), rng.randrange(3)) + a:
                 Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                 for a in product(range(4), repeat=n)}
        got = _dirichlet(FormalSeries(vars, Truncation(0, 20), terms), helpers, B1,
                         Truncation(20, 20))
        gens = sp.symbols(vars.names)
        xi, es = gens[0], gens[3:]
        poly = sp.Poly({e: sp.Rational(c.numerator, c.denominator) for e, c in terms.items()},
                       *gens)
        for j in reversed(range(n)):
            inner = poly.integrate(es[j]).as_expr().subs(es[j], xi - sum(es[:j]))
            poly = sp.Poly(inner, *gens)
        want = sp.Poly(poly.diff((xi, n)).as_expr(), *gens[:3])
        assert got.terms == {e: Fraction(int(c.p), int(c.q)) for e, c in want.terms()}
