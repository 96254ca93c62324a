"""Each kernel pass leaves its ints once: the commutator's 2/t, the Borel
conjugations' β⁻¹ and a constant right operand are taken inside the star
kernel and ``series._window_product``, and subtraction is one pass of the
addition loop.  Results are checked term for term and type for type against
the operations they replace.  The gcd chain and ``inverse_borel`` enter ints
once too, through ``_scaled`` and ``_borel_scaled``."""

import ast
from fractions import Fraction
from importlib import import_module
from pathlib import Path

from hypothesis import given, settings, strategies as st

from starborel import FormalSeries, MultiPoly, Truncation, VariableSet, inverse_borel
from starborel.series import _scaled, _window_product

star_mod = import_module("starborel.star")  # the package binds the name to star()
SRC = Path(__file__).resolve().parent.parent / "src" / "starborel"
PHASE = [VariableSet.phase_space(dof, "xi") for dof in (1, 2)]
COEFFS = [st.integers(-9, 9), st.fractions(min_value=-7, max_value=7, max_denominator=12)]
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def typed(terms):
    return {e: (c, type(c)) for e, c in terms.items()}


@st.composite
def windowed(draw, vars, caps=range(9)):
    """A series over ``vars`` on a window of t-cap in ``caps``: no terms (the
    zero series) up to eight, with all-int or all-rational coefficients."""
    trunc = Truncation(draw(st.sampled_from(caps)), draw(st.integers(0, 5)))
    coeffs = draw(st.sampled_from(COEFFS))
    terms = {}
    for _ in range(draw(st.integers(0, 8))):
        e = (draw(st.integers(0, trunc.deg_t)),) + tuple(
            draw(st.integers(0, 2)) for _ in vars.names[1:])
        terms[e] = draw(coeffs)
    return FormalSeries(vars, trunc, terms)


@PROPERTY
@given(st.data())
def test_borel_entry_is_the_scaled_inverse_transform(data):
    """The kernel's β⁻¹ on ints is ``_scaled(inverse_borel(f̂))`` exactly: the
    same denominator and the same int numerators, so the gcd with s is divided out."""
    fhat = data.draw(windowed(data.draw(st.sampled_from(PHASE))))
    s, nums = star_mod._borel_scaled(fhat)
    want_s, want = _scaled(inverse_borel(fhat))
    assert (s, typed(nums)) == (want_s, typed(want))


@PROPERTY
@given(st.data(), st.sampled_from(COEFFS))
def test_a_constant_right_operand_keeps_the_left_keys(data, coeffs):
    """``_window_product`` against one term at the zero exponent adds each
    left term that the window admits, times the constant, under its own key."""
    left = data.draw(windowed(PHASE[1], range(5))).terms
    c = data.draw(coeffs.filter(bool))
    dt, dxy = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 8))
    acc = {(0, 0, 0, 0, 1): 1}
    want = {e: c * v for e, v in left.items() if e[0] <= dt and sum(e[1:]) <= dxy}
    want[(0, 0, 0, 0, 1)] = want.get((0, 0, 0, 0, 1), 0) + 1
    assert _window_product(acc, left, {(0,) * 5: c}, dt, dxy) is acc
    assert typed(acc) == typed(want)


@PROPERTY
@given(st.data())
def test_subtraction_is_adding_the_negative(data):
    vars = data.draw(st.sampled_from(PHASE))
    f, g = data.draw(windowed(vars)), data.draw(windowed(vars))
    r = data.draw(st.one_of(*COEFFS))
    for got, want in ((f - g, f + -g), (f - r, f + -r)):
        assert (got.trunc, typed(got.terms)) == (want.trunc, typed(want.terms))
    assert (f - f).is_zero
    P = MultiPoly(VariableSet(("x", "y")), {(1, 0): Fraction(1, 2), (0, 2): 3})
    assert typed((P - 2).terms) == {(1, 0): (Fraction(1, 2), Fraction), (0, 2): (3, int),
                                    (0, 0): (-2, int)}


def _body(module, name):
    body, = [node for node in ast.parse((SRC / module).read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    return body


def test_the_commutator_takes_its_two_over_t_in_the_kernel():
    """``moyal_commutator`` leaves the kernel's ints once: it builds no
    comprehension over the kernel's result."""
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = [node.lineno for node in ast.walk(_body("star.py", "moyal_commutator"))
             if isinstance(node, comprehensions)]
    assert not found, f"comprehensions in moyal_commutator at lines {found}"


def test_the_conjugations_enter_the_kernel_from_the_borel_plane():
    """``borel_star`` and ``borel_T`` hand their operands to the kernel as
    they are: neither goes through ``inverse_borel``."""
    for name in ("borel_star", "borel_T"):
        used = {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(_body("borel.py", name))
                if isinstance(node, (ast.Name, ast.Attribute))}
        assert "inverse_borel" not in used, f"{name} references inverse_borel"


def test_the_gcd_enters_ints_through_scaled():
    """``mp_gcd`` hands ``_scaled``'s ints to the heuristic gcd and leaves
    through one ``_new``: it splits off no content with ``_split_content``
    and joins none as a ``Fraction``."""
    used = {node.id for node in ast.walk(_body("poly.py", "mp_gcd")) if isinstance(node, ast.Name)}
    found = used & {"_split_content", "Fraction"}
    assert not found, f"mp_gcd references {sorted(found)}"


def test_inverse_borel_is_the_kernels_entry():
    """``inverse_borel`` is the kernel's β⁻¹ on ints, ``_borel_scaled``, through
    ``_new``'s one division: it builds no comprehension of its own."""
    body = _body("borel.py", "inverse_borel")
    used = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    assert "_borel_scaled" in used, "inverse_borel does not reference _borel_scaled"
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = [node.lineno for node in ast.walk(body) if isinstance(node, comprehensions)]
    assert not found, f"comprehensions in inverse_borel at lines {found}"
