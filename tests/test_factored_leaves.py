"""Factored leaves: the 5-variable Hadamard z-discriminant leaf keeps the
product formula's factors [±disc f, disc g, res(f, g), res(f, g)] next to
their product, which is the full z-discriminant term for term; exact
membership tests each factor and agrees with the product's value."""

import ast
import random
from fractions import Fraction
from functools import reduce
from operator import mul
from pathlib import Path

import pytest

from starborel import (
    DegenerateError,
    Leaf,
    MultiPoly,
    UniOverPoly,
    Variety,
    VariableSet,
    discriminant_locus,
    hadamard_locus_5var,
)
from starborel import locus
from starborel.locus import _cleared_family
from starborel.poly import product_discriminant

SRC = Path(__file__).resolve().parent.parent / "src" / "starborel"
VF, VG = VariableSet(("xi1", "q", "p")), VariableSet(("xi2", "q", "p"))
RING = VariableSet(("xi1", "xi2", "xi3", "q", "p", "z"), dof=0)
# (Pf simple in p, Qg simple in q); "a".."e" are seeded rationals.  The
# z-degrees (m, n) of f and g are those of Pf in p and Qg in q: the first
# three are the benchmark's lin, bilin and cubic families.
SHAPES = {
    "1x1": ("a - xi1 - b*q - p", "c - xi2 - q - d*p"),
    "1x1-bilinear": ("a - xi1 - b*q - p - e*q*p", "c - xi2 - q - d*p - e*q*p"),
    "1x2": ("a - xi1 - b*p", "c - xi2 - d*q^2"),
    "2x1": ("a - xi1 - b*p^2 - q", "c - xi2 - q - d*p"),
    "2x2": ("a - xi1 - b*p^2 - e*q*p", "c - xi2 - d*q^2 - p"),
}
# the full z-discriminant of W = f g takes about a minute at 2x2
FULL = ("1x1", "1x1-bilinear", "1x2", "2x1")


def rat(rng, top=5):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, 3))


def germs(shape, seed):
    rng = random.Random(seed)
    vals = {k: str(rat(rng)) for k in "abcde"}
    fill = lambda text: "".join(vals.get(ch, ch) for ch in text)
    pf, qg = SHAPES[shape]
    return (UniOverPoly("p", MultiPoly.from_string(fill(pf), VF)),
            UniOverPoly("q", MultiPoly.from_string(fill(qg), VG)))


def family(Pf, Qg):
    """f = Pf(xi1, q, p + z) and g = z^N Qg(xi2, q + xi3/z, p) over RING, as
    ``hadamard_locus_5var`` forms them."""
    z, p = MultiPoly.variable(RING, "z"), MultiPoly.variable(RING, "p")
    f = Pf.poly.rehome(RING).substitute("p", p + z)
    return f, _cleared_family(Qg.coeffs, RING, "q", "xi3", "z")


def z_leaf(L):
    leaf, = [leaf for leaf in L.all_leaves() if leaf.label == "z-discriminant"]
    return leaf


def typed(P):
    return {e: (c, type(c)) for e, c in P.terms.items()}


CASES = [(shape, seed) for shape in SHAPES for seed in (1, 2)]


@pytest.mark.parametrize("shape, seed", CASES)
def test_the_factors_multiply_to_the_product_discriminant(shape, seed):
    Pf, Qg = germs(shape, seed)
    L = hadamard_locus_5var(Pf, Qg)
    leaf = z_leaf(L)
    f, g = family(Pf, Qg)
    m, n = f.degree("z"), g.degree("z")
    assert (m, n) == tuple(map(int, shape[:3].split("x")))
    assert len(leaf.factors) == 4 and leaf.factors[2] is leaf.factors[3]  # moved over once
    want = product_discriminant(UniOverPoly("z", f), UniOverPoly("z", g)).rehome(L.vars)
    assert typed(reduce(mul, leaf.factors)) == typed(want)
    assert typed(leaf.poly) == typed(want)
    if shape in FULL:
        full = discriminant_locus(UniOverPoly("z", f * g)).rehome(L.vars)
        assert typed(leaf.poly) == typed(full)


def linear_roots(F, rng, count=2):
    """Up to ``count`` rational points where F vanishes: for each variable in
    which F has degree 1, the others at seeded rationals and that one solved."""
    import sympy

    names = F.vars.names
    syms = sympy.symbols(names)
    expr = sum(sympy.Rational(c.numerator, c.denominator) * sympy.prod(
        [s ** k for s, k in zip(syms, e)]) for e, c in F.terms.items())
    points = []
    for factor, _ in sympy.factor_list(expr)[1]:
        for v, sym in zip(names, syms):
            if len(points) >= count or sympy.degree(factor, sym) != 1:
                continue
            bound = {n: rat(rng) for n in names if n != v}
            linear = sympy.Poly(factor.subs({s: bound[n] for n, s in zip(names, syms) if n != v}), sym)
            if linear.degree() == 1:
                b1, b0 = linear.all_coeffs()
                points.append({**bound, v: Fraction(int((-b0 / b1).p), int((-b0 / b1).q))})
    return points


def common_roots(Pf, Qg, rng, count=2):
    """Points where f and g share a root z0 != 0, so res(f, g) vanishes: xi1
    solves f(z0) = 0 (f = A - xi1) and xi2 solves g(z0) = 0 (g = B - xi2 z0^N)."""
    f, g = family(Pf, Qg)
    points = []
    for _ in range(count):
        z0 = rat(rng)
        pt = {"xi1": 0, "xi2": 0, "xi3": rat(rng), "q": rat(rng), "p": rat(rng), "z": z0}
        A, B = f.evaluate(pt), g.evaluate(pt)
        points.append({**pt, "xi1": A, "xi2": B / z0 ** g.degree("z")})
        del points[-1]["z"]
    return points


def off_points(L, rng, count=4):
    points = []
    while len(points) < count:
        pt = {n: rat(rng) for n in L.vars.names}
        if all(F.evaluate(pt) for leaf in L.all_leaves() for F in leaf.factors):
            points.append(pt)
    return points


@pytest.mark.parametrize("shape, seed", CASES)
def test_exact_membership_tests_each_factor(shape, seed):
    """On a root of res(f, g), of each discriminant and off all of them,
    ``contains_exact`` agrees with the product's value, for the locus and for
    each leaf alone."""
    rng = random.Random(100 + seed)
    Pf, Qg = germs(shape, seed)
    L = hadamard_locus_5var(Pf, Qg)
    leaf = z_leaf(L)
    dp, dq, res, _ = leaf.factors
    on = {"res": (res, common_roots(Pf, Qg, rng))}
    for name, F in (("disc 1", dp), ("disc 2", dq)):
        # a constant discriminant has no roots
        on[name] = (F, linear_roots(F, rng) if F.total_degree() > 0 else [])
    assert on["res"][1] and on["disc 1"][1] + on["disc 2"][1]
    for name, (F, points) in on.items():
        for pt in points:
            assert F.evaluate(pt) == 0, f"{name} point is not on its factor"
            assert Variety(L.vars, [[leaf]]).contains_exact(pt)
    for pt in [pt for _, points in on.values() for pt in points] + off_points(L, rng):
        want = all(any(lf.poly.evaluate(pt) == 0 for lf in group) for group in L.groups)
        assert L.contains_exact(pt) == want
        for lf in L.all_leaves():
            assert Variety(L.vars, [[lf]]).contains_exact(pt) == (lf.poly.evaluate(pt) == 0)


V = VariableSet(("x", "y"), dof=0)


def test_a_one_factor_leaf_is_its_polynomial():
    P = MultiPoly.from_string("x^2 - 3/2*y", V)
    leaf = Leaf("x", P)
    assert leaf.factors == (P,)
    assert leaf.poly is P
    assert str(leaf) == 'cond "x": x^2 - 3/2*y'


def test_a_zero_factor_raises():
    P, zero = MultiPoly.from_string("x - y", V), MultiPoly.zero(V)
    for factors in ((zero,), (P, zero), (zero, P, P)):
        with pytest.raises(DegenerateError, match="identically zero"):
            Leaf("z", *factors)
    with pytest.raises(TypeError):
        Leaf("none")


def test_a_leaf_of_constant_factors_is_dropped():
    c, d = MultiPoly.constant(V, Fraction(-2, 3)), MultiPoly.constant(V, 5)
    x = MultiPoly.variable(V, "x")
    constant, mixed, plain = Leaf("c d", c, d), Leaf("c x", c, x), Leaf("x", x)
    L = Variety(V, [[constant, mixed], [constant], [plain, constant]])
    assert L.groups == [[mixed], [], [plain]]
    assert L.contains_exact({"x": 0, "y": 1}) is False  # the emptied group holds nowhere
    assert Variety(V, [[mixed]]).contains_exact({"x": 0, "y": 1})


def test_numeric_membership_and_printing_read_the_product():
    Pf, Qg = germs("1x2", 1)
    L = hadamard_locus_5var(Pf, Qg)
    leaf = z_leaf(L)
    assert str(leaf) == f'cond "z-discriminant": {reduce(mul, leaf.factors)}'
    pt = common_roots(Pf, Qg, random.Random(7), 1)[0]
    assert L.contains_numeric({n: float(c) for n, c in pt.items()})


def test_exact_membership_evaluates_a_repeated_factor_once(monkeypatch):
    Pf, Qg = germs("1x2", 1)
    leaf = z_leaf(hadamard_locus_5var(Pf, Qg))
    L = Variety(leaf.poly.vars, [[leaf]])
    pt = off_points(L, random.Random(3), 1)[0]
    evaluated = []
    evaluate = MultiPoly.evaluate
    monkeypatch.setattr(MultiPoly, "evaluate",
                        lambda P, pt: evaluated.append(P) or evaluate(P, pt))
    assert not L.contains_exact(pt)
    assert [id(P) for P in evaluated] == [id(P) for P in leaf.factors[:3]]


def test_empty_slices_share_one_zero():
    P = MultiPoly.from_string("x^4*y + 2*x", V)
    slices = P.univariate_coeffs("x")
    assert [str(b) for b in slices] == ["0", "2", "0", "0", "y"]
    assert slices[0] is slices[2] is slices[3]
    assert slices[0] == MultiPoly.zero(V)


# -- structure ----------------------------------------------------------------

def _function(path, name):
    body, = [node for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    return body


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_the_product_formula_is_stated_once():
    """``product_discriminant`` multiplies the private factor list; only
    ``_product_disc_factors`` takes both a discriminant and a resultant."""
    used = _names(_function(SRC / "poly.py", "product_discriminant"))
    assert {"_product", "_product_disc_factors"} <= used
    assert not used & {"sylvester_resultant", "discriminant_locus"}
    formula = [f"{path.name}:{node.name}" for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.FunctionDef)
               and {"sylvester_resultant", "discriminant_locus"} <= _names(node)]
    assert formula == ["poly.py:_product_disc_factors"], formula


def test_the_discriminant_factors_are_multiplied_once_by_halves(monkeypatch):
    """``_clearing_leaves`` multiplies nothing but W = f g; the leaf
    multiplies its factors once, as (±disc f · disc g)(res · res)."""
    body = _function(SRC / "locus.py", "_clearing_leaves")
    used = _names(body)
    assert "_product_disc_factors" in used
    assert not used & {"product_discriminant", "_product", "reduce", "prod", "__mul__", "poly"}
    products = [(getattr(n.left, "id", None), getattr(n.right, "id", None))
                for n in ast.walk(body) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)]
    assert products == [("f", "g")], products  # W = f g only

    returned, operands = [], []
    factors = locus._product_disc_factors
    monkeypatch.setattr(locus, "_product_disc_factors",
                        lambda P, Q: returned.extend(factors(P, Q)) or returned[-4:])
    product = MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "__mul__",
                        lambda a, b: operands.extend((a, b)) or product(a, b))
    leaf = z_leaf(hadamard_locus_5var(*germs("1x2", 1)))
    assert len(returned) == 4
    kept = returned + list(leaf.factors)
    touched = [(id(a), id(b)) for a, b in zip(operands[::2], operands[1::2])
               if any(op is F for op in (a, b) for F in kept)]
    dp, dq, res, _ = leaf.factors
    assert touched == [(id(dp), id(dq)), (id(res), id(res))]
