"""Each exact product enters ints once and leaves once: the Borel-plane
conjugations run one kernel pass whose one division includes β's 1/n!, and
``*`` multiplies the operands' int numerators.  The properties check the
conjugations against their definitions, term for term and coefficient type
for type, and check that no operand's terms change, as ``_scaled`` hands
integral operands over without a copy.  ``*`` against a pair-and-clip of
``Fraction``s is ``test_windowed_product_is_the_clipped_plain_product``."""

from importlib import import_module

from hypothesis import given, settings, strategies as st

from starborel import (
    MOYAL,
    STANDARD,
    FormalSeries,
    MultiPoly,
    Truncation,
    VariableSet,
    borel,
    borel_star,
    borel_T,
    inverse_borel,
    moyal_star,
    odot_ij,
    standard_star,
    transition_T,
)

star_mod = import_module("starborel.star")  # the package binds the name to star()
PHASE = {1: VariableSet.phase_space(1, "xi"), 2: VariableSet.phase_space(2, "xi")}
ZVARS = VariableSet(("u", "z1", "z2"))
PVARS = VariableSet(("z1", "z2", "z3"))
INTS = st.integers(-6, 6)
RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=7)
PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def typed(s):
    """A result as (variables, window, {exponent: (coefficient, its type)})."""
    return s.vars, s.trunc, {e: (c, type(c)) for e, c in s.terms.items()}


def snapshot(*operands):
    return [[(e, c, type(c)) for e, c in f.terms.items()] for f in operands]


@st.composite
def term_dicts(draw, vars, trunc=None):
    """Up to six terms (possibly none: the zero operand), all int or not, inside ``trunc``."""
    coeffs = draw(st.sampled_from([INTS, RATIONALS]))
    top = 4 if trunc is None else trunc.deg_t
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        e = [draw(st.integers(0, min(top, 4)))] + [draw(st.integers(0, 3)) for _ in vars.names[1:]]
        if trunc is None or sum(e[1:]) <= trunc.deg_xy:
            terms[tuple(e)] = draw(coeffs)
    return terms


@st.composite
def borel_pairs(draw):
    """(f̂, ĝ) in the Borel plane at dof 1 or 2, each in its own window, t-cap 0 included."""
    vars = PHASE[draw(st.sampled_from([1, 2]))]
    out = []
    for _ in "fg":
        trunc = Truncation(draw(st.sampled_from([0, 1, 2, 3, 5])), draw(st.integers(0, 6)))
        out.append(FormalSeries(vars, trunc, draw(term_dicts(vars, trunc))))
    return tuple(out)


@PROPERTY
@given(borel_pairs(), st.sampled_from([STANDARD, MOYAL]))
def test_borel_star_is_its_conjugation(pair, kind):
    fhat, ghat = pair
    want = borel(star_mod.star(inverse_borel(fhat), inverse_borel(ghat), kind), "xi")
    assert typed(borel_star(fhat, ghat, kind)) == typed(want)


@PROPERTY
@given(borel_pairs(), st.booleans())
def test_borel_T_is_its_conjugation(pair, inverse):
    fhat = pair[0]
    want = borel(transition_T(inverse_borel(fhat), inverse=inverse), "xi")
    assert typed(borel_T(fhat, inverse=inverse)) == typed(want)


@PROPERTY
@given(st.data(), st.sampled_from([0, 1, 3]), st.integers(0, 6))
def test_odot_is_the_borel_image_of_the_pairing(data, cap_t, cap_xy):
    trunc = Truncation(cap_t, cap_xy)
    F = FormalSeries(ZVARS, trunc, data.draw(term_dicts(ZVARS, trunc)))
    lifted_window = Truncation(max(min(F.degree("z1"), F.degree("z2")), 0), cap_t + cap_xy)
    lifted = FormalSeries(VariableSet(("xi",) + ZVARS.names), lifted_window,
                          {(0,) + e: c for e, c in F.terms.items()})
    want = borel(star_mod._exp_pairing(lifted, lifted._constant(1), [(("z1", "z2"), (), 1)]))
    assert typed(odot_ij(F, "z1", "z2")) == typed(want)


@st.composite
def product_pairs(draw):
    """(f, g): windowed series at dof 1-2 or polynomials in z1..z3."""
    if draw(st.booleans()):
        vars = PHASE[draw(st.sampled_from([1, 2]))]
        tf, tg = (Truncation(draw(st.integers(0, 6)), draw(st.integers(0, 6))) for _ in "fg")
        return (FormalSeries(vars, tf, draw(term_dicts(vars, tf))),
                FormalSeries(vars, tg, draw(term_dicts(vars, tg))))
    return MultiPoly(PVARS, draw(term_dicts(PVARS))), MultiPoly(PVARS, draw(term_dicts(PVARS)))


@PROPERTY
@given(product_pairs(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_no_operand_changes(pair, value):
    f, g = pair
    before = snapshot(f, g)
    results = [f * g, g * f, f * f, f.evaluate({n: value for n in f.vars.names})]
    if isinstance(f, FormalSeries):
        ft, gt = f.rename_distinguished("t"), g.rename_distinguished("t")
        before_t = snapshot(ft, gt)
        results += [standard_star(ft, gt), moyal_star(ft, gt), borel_star(f, g, MOYAL),
                    f.evaluate_partial({f.vars.names[1]: value})]
        assert snapshot(ft, gt) == before_t
    assert snapshot(f, g) == before
    operand_dicts = {id(f.terms), id(g.terms)}
    assert not [r for r in results if id(getattr(r, "terms", None)) in operand_dicts]
