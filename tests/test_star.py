import random
from fractions import Fraction
from importlib import import_module
from itertools import product
from math import factorial, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from starborel import (
    MOYAL,
    STANDARD,
    FormalSeries,
    StarBorelError,
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

star_mod = import_module("starborel.star")  # the package binds the name to star()
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
    # a kernel pass that leaves f, with its t^0 terms, in the commutator
    monkeypatch.setattr(star_mod, "_exp_pairing", lambda f, g, pairings, **kw: f)
    with pytest.raises(StarBorelError, match="not divisible by t"):
        moyal_commutator(S("p"), S("q"))


# -- the kernel against a slow Fraction reference ------------------------------

def reference_pairing(f, g, pairings, odd=False):
    """sum over multi-indices n of prod_e w_e^(n_e) / n_e! * t^|n| *
    d^(a.n) f * d^(b.n) g, clipped to the common window, in Fractions;
    with ``odd``, over the n of odd |n| only."""
    trunc = f.trunc.meet(g.trunc)
    want = {}
    for ns in product(range(trunc.deg_t + 1), repeat=len(pairings)):
        if sum(ns) > trunc.deg_t or (odd and sum(ns) % 2 == 0):
            continue
        df, dg = f, g
        for (a, b, _), n in zip(pairings, ns):
            for name in a:
                df = df.diff(name, n, shrink_window=False)
            for name in b:
                dg = dg.diff(name, n, shrink_window=False)
        coef = prod((Fraction(w) ** n / factorial(n) for (_, _, w), n in zip(pairings, ns)),
                    start=Fraction(1))
        for e1, c1 in df.terms.items():
            for e2, c2 in dg.terms.items():
                key = (e1[0] + e2[0] + sum(ns),) + tuple(x + y for x, y in zip(e1[1:], e2[1:]))
                if trunc.admits(key):
                    want[key] = want.get(key, 0) + coef * c1 * c2
    return trunc, {e: c.numerator if c.denominator == 1 else c
                   for e, c in want.items() if c}


def typed(terms):
    return {e: (c, type(c)) for e, c in terms.items()}


def assert_matches(out, f, g, pairings):
    trunc, want = reference_pairing(f, g, pairings)
    assert out.vars == f.vars
    assert out.trunc == trunc
    assert typed(out.terms) == typed(want)
    assert all(type(c) is int or c.denominator > 1 for c in out.terms.values())


MIXED = st.fractions(min_value=-6, max_value=6, max_denominator=7).filter(bool)


@st.composite
def windowed(draw, vars, trunc):
    """One to six terms whose t-degree and xy-degree reach the window's caps,
    or now and then the zero series."""
    if draw(st.integers(0, 31)) == 0:
        return FormalSeries.zero(vars, trunc)
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        rest = [0] * (len(vars.names) - 1)
        for _ in range(draw(st.integers(0, trunc.deg_xy))):
            rest[draw(st.integers(0, len(rest) - 1))] += 1
        terms[(draw(st.integers(0, trunc.deg_t)),) + tuple(rest)] = draw(MIXED)
    return FormalSeries(vars, trunc, terms)


@st.composite
def operand_pairs(draw, max_dof=2):
    """(f, g) at dof 1 to ``max_dof``; windows with caps 0-8, shared or apart."""
    vars = VariableSet.phase_space(draw(st.integers(1, max_dof)))
    tf = Truncation(draw(st.integers(0, 8)), draw(st.integers(0, 8)))
    tg = draw(st.sampled_from([tf, Truncation(draw(st.integers(0, 8)), draw(st.integers(0, 8)))]))
    return draw(windowed(vars, tf)), draw(windowed(vars, tg))


def phase_pairings(vars, per_dof):
    return [e for j in range(1, vars.dof + 1) for e in per_dof(vars.q_name(j), vars.p_name(j))]


HALF = Fraction(1, 2)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(operand_pairs())
def test_star_products_match_the_reference(case):
    f, g = case
    assert_matches(standard_star(f, g), f, g,
                   phase_pairings(f.vars, lambda q, p: [((p,), (q,), 1)]))
    assert_matches(moyal_star(f, g), f, g,
                   phase_pairings(f.vars, lambda q, p: [((p,), (q,), HALF), ((q,), (p,), -HALF)]))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(operand_pairs(), st.booleans())
def test_transition_matches_the_reference(case, inverse):
    f, _ = case
    one = FormalSeries.one(f.vars, f.trunc)
    weight = HALF if inverse else -HALF
    assert_matches(transition_T(f, inverse=inverse), f, one,
                   phase_pairings(f.vars, lambda q, p: [((q, p), (), weight)]))


# weights whose denominators are not 2, so that D = lcm of them is 15
ODD_WEIGHTS = [
    lambda q, p: [((p,), (q,), Fraction(1, 3)), ((q,), (p,), Fraction(-2, 5))],
    lambda q, p: [((q, p), (), Fraction(-2, 5)), ((p,), (), Fraction(1, 3))],
    lambda q, p: [((p, p), (q,), Fraction(1, 3)), ((q,), (), Fraction(-2, 5)), ((), (p,), 1)],
]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(operand_pairs(), st.sampled_from(ODD_WEIGHTS), st.booleans())
def test_kernel_matches_the_reference_for_other_weights(case, per_dof, unit):
    f, g = case
    if unit:
        g = FormalSeries.one(f.vars, g.trunc)
    pairings = phase_pairings(f.vars, per_dof)
    assert_matches(star_mod._exp_pairing(f, g, pairings), f, g, pairings)


# the standard and Moyal pairings, then the weights above
KERNEL_WEIGHTS = [lambda q, p: [((p,), (q,), 1)],
                  lambda q, p: [((p,), (q,), HALF), ((q,), (p,), -HALF)], *ODD_WEIGHTS]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(operand_pairs(), st.sampled_from(KERNEL_WEIGHTS), st.booleans())
def test_odd_kernel_matches_the_reference(case, per_dof, unit):
    """``over_t`` keeps 2/t of the odd orders: the odd reference terms moved
    down by t, doubled, on the window (cap - 1, dxy)."""
    f, g = case
    if unit:
        g = FormalSeries.one(f.vars, g.trunc)
    assume(f.trunc.meet(g.trunc).deg_t >= 1)
    pairings = phase_pairings(f.vars, per_dof)
    trunc, odd = reference_pairing(f, g, pairings, odd=True)
    want = {(e[0] - 1,) + e[1:]: 2 * c for e, c in odd.items()}
    out = star_mod._exp_pairing(f, g, pairings, over_t=True)
    assert out.vars == f.vars
    assert out.trunc == Truncation(trunc.deg_t - 1, trunc.deg_xy)
    assert typed(out.terms) == typed({e: c.numerator if c.denominator == 1 else c
                                      for e, c in want.items()})


def commutator_by_definition(f, g):
    """(f ⋆_M g - g ⋆_M f) / t from two full products, on the window
    (deg_t - 1, deg_xy); raises if the difference has t^0 terms."""
    c = moyal_star(f, g) - moyal_star(g, f)
    if any(e[0] == 0 for e in c.terms):
        raise StarBorelError("Moyal commutator not divisible by t")
    trunc = Truncation(c.trunc.deg_t - 1, c.trunc.deg_xy)
    return FormalSeries(c.vars, trunc, {(e[0] - 1,) + e[1:]: v for e, v in c.terms.items()})


def outcome(fn, f, g):
    """fn(f, g), or the class and message of the StarBorelError it raises."""
    try:
        return fn(f, g)
    except StarBorelError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(operand_pairs(max_dof=3))
def test_commutator_is_the_two_product_difference(case):
    f, g = case
    got, want = outcome(moyal_commutator, f, g), outcome(commutator_by_definition, f, g)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.vars == want.vars and got.trunc == want.trunc
    assert typed(got.terms) == typed(want.terms)
    assert moyal_commutator(g, f) == -got
