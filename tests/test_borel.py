import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from starborel import (
    MOYAL,
    STANDARD,
    FormalSeries,
    Truncation,
    UnknownVariableError,
    VariableMismatchError,
    VariableSet,
    borel,
    borel_star,
    borel_star_standard_formula,
    borel_T,
    hadamard,
    inverse_borel,
    odot_ij,
    standard_star,
    star,
    transition_T,
)

V1 = VariableSet.phase_space(1)
B1 = VariableSet.phase_space(1, "xi")
TBIG = Truncation(20, 20)


def S(text, vars=V1, trunc=TBIG):
    return FormalSeries.from_string(text, vars, trunc)


def rand_poly(rng, vars, trunc=TBIG, nterms=4):
    terms = {}
    for _ in range(nterms):
        e = [rng.randrange(3) for _ in vars.names]
        e[0] = rng.randrange(2)
        terms[tuple(e)] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 3))
    return FormalSeries(vars, trunc, terms)


class TestTransform:
    def test_values(self):
        assert borel(S("t^3*p")) == S("1/6*xi^3*p", B1)
        assert borel(S("1 + t")) == S("1 + xi", B1)

    def test_roundtrip(self):
        rng = random.Random(31)
        for _ in range(30):
            f = rand_poly(rng, V1)
            assert inverse_borel(borel(f)) == f

    def test_linear(self):
        rng = random.Random(32)
        f, g = rand_poly(rng, V1), rand_poly(rng, V1)
        assert borel(f + g) == borel(f) + borel(g)


class TestBorelStar:
    def test_conjugation_identity(self):
        # the Borel star is the conjugated image of the t-plane star
        rng = random.Random(33)
        for kind in (STANDARD, MOYAL):
            for _ in range(20):
                f = rand_poly(rng, V1)
                g = rand_poly(rng, V1)
                lhs = borel_star(borel(f), borel(g), kind)
                rhs = borel(star(f, g, kind))
                assert lhs == rhs

    def test_closed_formula_agrees(self):
        rng = random.Random(34)
        for _ in range(25):
            fh = rand_poly(rng, B1)
            gh = rand_poly(rng, B1)
            assert borel_star(fh, gh, STANDARD) == \
                borel_star_standard_formula(fh, gh)

    def test_phase_constants_convolve(self):
        # with no q, p dependence the star is the image of plain
        # multiplication: xi^m -> t^m, t^m t^n -> xi^(m+n)/(m+n)! * m!n!
        fh = S("xi", B1)
        gh = S("xi", B1)
        assert borel_star(fh, gh, STANDARD) == S("1/2*xi^2", B1)
        assert borel_star(S("xi^2", B1), gh, MOYAL) == S("1/3*xi^3", B1)

    def test_transition_conjugation(self):
        rng = random.Random(35)
        for _ in range(20):
            f = rand_poly(rng, V1)
            assert borel_T(borel(f)) == borel(transition_T(f))
            assert borel_T(borel_T(borel(f)), inverse=True) == borel(f)


class TestHadamard:
    def test_univariate(self):
        vars = VariableSet(("xi",))
        trunc = Truncation(8, 0)
        a = FormalSeries.from_string("1 + 2*xi + 3*xi^2", vars, trunc)
        b = FormalSeries.from_string("5*xi + 7*xi^2", vars, trunc)
        assert hadamard(a, b) == \
            FormalSeries.from_string("10*xi + 21*xi^2", vars, trunc)

    def test_geometric_idempotent(self):
        vars = VariableSet(("xi",))
        trunc = Truncation(10, 0)
        geo = FormalSeries(vars, trunc, {(k,): Fraction(1) for k in range(11)})
        assert hadamard(geo, geo) == geo

    def test_series_valued_coefficients(self):
        a = S("xi*p + xi^2*q", B1)
        b = S("xi*q + 3*xi^2", B1)
        assert hadamard(a, b) == S("xi*p*q + 3*xi^2*q", B1)

    def test_mismatch(self):
        with pytest.raises(VariableMismatchError):
            hadamard(S("xi", B1), S("t"))


class TestOdot:
    def test_basic_pairing(self):
        vars = VariableSet(("u", "z1", "z2"))
        f = FormalSeries.from_string("z1*z2", vars, TBIG)
        out = odot_ij(f, "z1", "z2")
        assert out.vars.names[0] == "xi"
        assert out == FormalSeries.from_string(
            "z1*z2 + xi", out.vars, out.trunc)

    def test_square_pairing(self):
        vars = VariableSet(("u", "z1", "z2"))
        f = FormalSeries.from_string("z1^2*z2^2", vars, TBIG)
        out = odot_ij(f, "z1", "z2")
        # sum_a (d^a z1^2)(d^a z2^2) xi^a / a!^2
        assert out == FormalSeries.from_string(
            "z1^2*z2^2 + 4*z1*z2*xi + xi^2", out.vars, out.trunc)

    def test_rejects_distinguished(self):
        vars = VariableSet(("z1", "z2"))
        f = FormalSeries.from_string("z1*z2", vars, TBIG)
        with pytest.raises(VariableMismatchError):
            odot_ij(f, "z1", "z2")

    def test_rejects_equal_slots(self):
        vars = VariableSet(("u", "z1", "z2"))
        f = FormalSeries.from_string("z1", vars, TBIG)
        with pytest.raises(VariableMismatchError):
            odot_ij(f, "z1", "z1")

    @pytest.mark.parametrize("names, i, j, error, message", [
        (("u", "z1", "z2"), "z1", "z1", VariableMismatchError,
         "the two pairing variables must differ"),
        (("u", "z1", "z2"), "z1", "w", UnknownVariableError, "unknown variable 'w'"),
        (("u", "z1", "z2"), "u", "z2", VariableMismatchError,
         "cannot pair in the distinguished variable"),
        (("u", "z1", "xi"), "z1", "xi", VariableMismatchError,
         "variable name 'xi' already in use"),
    ])
    def test_input_errors(self, names, i, j, error, message):
        f = FormalSeries.from_string("1", VariableSet(names), TBIG)
        with pytest.raises(error) as info:
            odot_ij(f, i, j)
        assert type(info.value) is error
        assert str(info.value) == message


ODOT_VARS = (VariableSet(("u", "z1", "z2")), VariableSet(("u", "z1", "z2", "z3")),
             VariableSet.phase_space(1))
COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def odot_inputs(draw):
    """(F, i, j): up to five terms inside a window with caps 0..4, each term's
    distinguished degree and xy-degree drawn up to the caps, so terms sit on
    them too."""
    vars = draw(st.sampled_from(ODOT_VARS))
    i, j = draw(st.permutations(vars.names[1:]))[:2]
    trunc = Truncation(draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        rest = [0] * (len(vars.names) - 1)
        for _ in range(draw(st.integers(0, trunc.deg_xy))):
            rest[draw(st.integers(0, len(rest) - 1))] += 1
        terms[(draw(st.integers(0, trunc.deg_t)),) + tuple(rest)] = draw(COEFFS)
    return FormalSeries(vars, trunc, terms), i, j


def typed(terms):
    return {e: (c, type(c)) for e, c in terms.items()}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(odot_inputs())
def test_odot_is_the_weighted_derivative_sum(case):
    # odot_ij(F) = sum_a (d_i^a d_j^a F) / (a!)^2 xi^a, built here term by term
    F, i, j = case
    want, h, a = {}, F, 0
    while not h.is_zero:
        for e, c in h.terms.items():
            w = Fraction(c, factorial(a) ** 2)
            want[(a,) + e] = w.numerator if w.denominator == 1 else w
        h = h.diff(i, shrink_window=False).diff(j, shrink_window=False)
        a += 1
    out = odot_ij(F, i, j)
    assert out.vars == VariableSet(("xi",) + F.vars.names, F.vars.dof)
    # xi-cap: the largest a for which d_i^a d_j^a can be nonzero; xy-cap: F's
    # total degree cap
    assert out.trunc == Truncation(max(min(F.degree(i), F.degree(j)), 0),
                                   F.trunc.deg_t + F.trunc.deg_xy)
    assert typed(out.terms) == typed(want)


@st.composite
def hadamard_inputs(draw):
    """(phi, psi) over the Borel plane at dof 1 or 2, each with up to seven
    terms of degree 0..4 in every variable and its own window with caps 0..6,
    so the common window clips in both directions."""
    vars = draw(st.sampled_from([VariableSet.phase_space(dof, "xi") for dof in (1, 2)]))
    exps = st.tuples(*[st.integers(0, 4)] * len(vars.names))
    return tuple(FormalSeries(vars, Truncation(draw(st.integers(0, 6)), draw(st.integers(0, 6))),
                              draw(st.dictionaries(exps, COEFFS, max_size=7))) for _ in "ab")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(hadamard_inputs())
def test_hadamard_pairs_equal_xi_degrees_on_the_common_window(pair):
    # terms of equal xi-degree pair up, their other exponents add, and the
    # products are clipped to the common window
    phi, psi = pair
    trunc = phi.trunc.meet(psi.trunc)
    want = {}
    for e1, c1 in phi.terms.items():
        for e2, c2 in psi.terms.items():
            if e1[0] == e2[0]:
                e = (e1[0],) + tuple(a + b for a, b in zip(e1[1:], e2[1:]))
                want[e] = want.get(e, 0) + Fraction(c1) * c2
    want = {e: c.numerator if c.denominator == 1 else c for e, c in want.items()
            if c and trunc.admits(e)}
    out = hadamard(phi, psi)
    assert out.vars == phi.vars and out.trunc == trunc
    assert typed(out.terms) == typed(want)


def test_borel_of_standard_star_matches_formula_path():
    # both routes from the t-plane to the xi-plane product agree
    rng = random.Random(36)
    for _ in range(15):
        f = rand_poly(rng, V1)
        g = rand_poly(rng, V1)
        assert borel(standard_star(f, g)) == \
            borel_star_standard_formula(borel(f), borel(g))
