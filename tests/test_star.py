import random
from fractions import Fraction

import pytest

from starborel import (
    MOYAL,
    STANDARD,
    FormalSeries,
    StarKind,
    Truncation,
    VariableMismatchError,
    VariableSet,
    moyal_commutator,
    moyal_star,
    poisson_bracket,
    standard_star,
    star,
    transition_T,
)

V1 = VariableSet.phase_space(1)
T66 = Truncation(6, 6)
# wide window: holds all intermediate products of small random polynomials exactly
TBIG = Truncation(24, 24)


def S(text, vars=V1, trunc=T66):
    return FormalSeries.from_string(text, vars, trunc)


def rand_poly(rng, vars, trunc, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = [0] * len(vars.names)
        e[0] = rng.randrange(2)
        for k in range(1, len(vars.names)):
            e[k] = rng.randrange(3)
        terms[tuple(e)] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 3))
    return FormalSeries(vars, trunc, terms)


class TestStandardStar:
    def test_unit(self):
        one = FormalSeries.one(V1, T66)
        f = S("p^2*q + t*p")
        assert standard_star(f, one) == f
        assert standard_star(one, f) == f

    def test_basic_value(self):
        # p * q picks up a single contraction: p q + t
        assert standard_star(S("p"), S("q")) == S("p*q + t")
        assert standard_star(S("q"), S("p")) == S("p*q")

    def test_pq_noncommutativity(self):
        f, g = S("p"), S("q")
        diff = standard_star(f, g) - standard_star(g, f)
        assert diff == S("t")

    def test_higher_contraction(self):
        # p^2 * q^2: k = 0, 1, 2 terms
        got = standard_star(S("p^2"), S("q^2"))
        assert got == S("p^2*q^2 + 4*t*p*q + 2*t^2")

    def test_associativity_random(self):
        rng = random.Random(21)
        for _ in range(30):
            f = rand_poly(rng, V1, TBIG)
            g = rand_poly(rng, V1, TBIG)
            h = rand_poly(rng, V1, TBIG)
            assert standard_star(standard_star(f, g), h) == \
                standard_star(f, standard_star(g, h))


class TestMoyalStar:
    def test_unit(self):
        one = FormalSeries.one(V1, T66)
        f = S("p^2*q + t*p")
        assert moyal_star(f, one) == f
        assert moyal_star(one, f) == f

    def test_pq_symmetric_split(self):
        assert moyal_star(S("p"), S("q")) == S("p*q + 1/2*t")
        assert moyal_star(S("q"), S("p")) == S("p*q - 1/2*t")

    def test_commutator_canonical(self):
        # [p, q] with the t-normalized bracket is the constant 1
        assert moyal_commutator(S("p"), S("q")) == \
            FormalSeries.one(V1, Truncation(5, 6))

    def test_commutator_matches_poisson_at_leading_order(self):
        rng = random.Random(22)
        for _ in range(25):
            f = rand_poly(rng, V1, TBIG)
            g = rand_poly(rng, V1, TBIG)
            comm = moyal_commutator(f, g)
            pb = poisson_bracket(f, g)
            assert comm.truncate(Truncation(0, comm.trunc.deg_xy)) == \
                pb.truncate(Truncation(0, comm.trunc.deg_xy))

    def test_associativity_random_two_dof(self):
        rng = random.Random(23)
        V2 = VariableSet.phase_space(2)
        for _ in range(15):
            f = rand_poly(rng, V2, TBIG)
            g = rand_poly(rng, V2, TBIG)
            h = rand_poly(rng, V2, TBIG)
            assert moyal_star(moyal_star(f, g), h) == \
                moyal_star(f, moyal_star(g, h))

    def test_ccr_two_dof(self):
        V2 = VariableSet.phase_space(2)

        def v(name):
            return FormalSeries.variable(V2, T66, name)

        one = FormalSeries.one(V2, Truncation(5, 6))
        zero = FormalSeries.zero(V2, Truncation(5, 6))
        assert moyal_commutator(v("p1"), v("q1")) == one
        assert moyal_commutator(v("p1"), v("q2")) == zero
        assert moyal_commutator(v("q1"), v("q2")) == zero
        assert moyal_commutator(v("p1"), v("p2")) == zero


class TestTransition:
    def test_inverse_roundtrip(self):
        rng = random.Random(24)
        for _ in range(20):
            f = rand_poly(rng, V1, TBIG)
            assert transition_T(transition_T(f), inverse=True) == f

    def test_intertwines_products(self):
        rng = random.Random(25)
        for _ in range(25):
            f = rand_poly(rng, V1, TBIG)
            g = rand_poly(rng, V1, TBIG)
            lhs = transition_T(standard_star(f, g))
            rhs = moyal_star(transition_T(f), transition_T(g))
            assert lhs == rhs

    @pytest.mark.parametrize("dof", [2, 3])
    def test_intertwines_two_dof(self, dof):
        rng = random.Random(26)
        V = VariableSet.phase_space(dof)
        for _ in range(10):
            f = rand_poly(rng, V, TBIG)
            g = rand_poly(rng, V, TBIG)
            assert transition_T(standard_star(f, g)) == \
                moyal_star(transition_T(f), transition_T(g))

    def test_value_on_pq(self):
        assert transition_T(S("p*q")) == S("p*q - 1/2*t")


@pytest.mark.parametrize("dof", [1, 2, 3])
def test_last_pair_contracts(dof):
    # the intertwining identity also holds if every product skips the same
    # pair, so check each operator on the last pair directly
    V = VariableSet.phase_space(dof)
    p, q, t = (FormalSeries.variable(V, T66, name)
               for name in (V.p_name(dof), V.q_name(dof), "t"))
    half = Fraction(1, 2)
    assert standard_star(p, q) == p * q + t
    assert moyal_star(p, q) == p * q + half * t
    assert transition_T(p * q) == p * q - half * t


def test_dispatcher():
    f, g = S("p"), S("q")
    assert star(f, g, STANDARD) == standard_star(f, g)
    assert star(f, g, MOYAL) == moyal_star(f, g)
    with pytest.raises(VariableMismatchError, match="unknown star kind"):
        StarKind("weyl")


def test_commutator_checks_divisibility_by_t(monkeypatch):
    from importlib import import_module

    from starborel import StarBorelError

    star_mod = import_module("starborel.star")  # the package binds the name to star()
    # a "product" that leaves f - g, with its t^0 terms, in the commutator
    monkeypatch.setattr(star_mod, "moyal_star", lambda f, g: f)
    with pytest.raises(StarBorelError, match="not divisible by t"):
        moyal_commutator(S("p"), S("q"))
