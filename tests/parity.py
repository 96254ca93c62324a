"""Seeded parity corpus: per-family sha256 digests of typed results.

Each family is a fixed, seeded list of cases.  A case's value is written
with its coefficient types (``i`` for an int, ``f`` for a ``Fraction``) and
its terms in sorted order, or as the error class and message.  The committed
file ``parity_digests.json`` holds, per family, the sha256 of all its cases
and a short hash per case, so that a mismatch names the first differing case.

    python tests/parity.py                   # check every family, print the verdicts
    python tests/parity.py --write           # add the digests of new families
    python tests/parity.py --write NAME ...  # also rewrite the named families' digests

``--write`` never overwrites a committed digest that it is not given by
name: it prints the family's first differing case and fails, so a new
family's digest is written on the unchanged code first.  ``tests/test_parity.py``
runs the check in the test suite.  A change that alters a digest on purpose
names the family in CHANGES.md and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd as int_gcd, lcm as int_lcm
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "parity_digests.json"
if __name__ == "__main__":  # run as a script from a checkout
    sys.path.insert(0, str(HERE.parent / "src"))

from starborel import (  # noqa: E402
    MOYAL,
    STANDARD,
    FormalSeries,
    MultiPoly,
    StarBorelError,
    Truncation,
    UniOverPoly,
    VariableSet,
    borel,
    borel_star,
    borel_star_standard_formula,
    borel_T,
    conv_locus,
    discriminant_locus,
    hadamard,
    hadamard_locus_5var,
    inverse_borel,
    moyal_commutator,
    moyal_star,
    mp_divexact,
    mp_gcd,
    odot_ij,
    odot_locus,
    simple_decompose,
    standard_star,
    sylvester_resultant,
    transition_T,
)
from starborel.cli import main as cli_main  # noqa: E402
from starborel.locus import Variety, _cleared_family  # noqa: E402
from starborel.poly import product_discriminant  # noqa: E402
from starborel.series import SparseTerms  # noqa: E402


# -- typed text of a value ----------------------------------------------------

def typed(value) -> str:
    """The value as text that keeps every coefficient's type and term order."""
    if isinstance(value, SparseTerms):
        terms = " ".join(f"{e}:{typed(c)}" for e, c in sorted(value.terms.items()))
        return f"{type(value).__name__}{value.vars.names}{value.trunc}[{terms}]"
    if isinstance(value, UniOverPoly):
        return f"U[{value.var}]{typed(value.poly)}"
    if isinstance(value, Variety):
        leaves = " ".join(typed(leaf.poly) for leaf in value.all_leaves())
        return f"{value.serialize()}\n{leaves}"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return f"i{value}"
    if isinstance(value, Fraction):
        return f"f{value.numerator}/{value.denominator}"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(map(typed, value)) + ")"
    if isinstance(value, str):
        return repr(value)
    raise TypeError(f"no typed form for {type(value).__name__}")


def outcome(value) -> str:
    """typed(value), or a package error as its class and message."""
    if isinstance(value, StarBorelError):
        return f"!{type(value).__name__}: {value}"
    return typed(value)


def is_zero(value) -> bool:
    """A series or polynomial without terms, the number 0, or a nonempty tuple
    or list of zeros.  An error is an outcome, not a zero."""
    if isinstance(value, SparseTerms):
        return value.is_zero
    if isinstance(value, (tuple, list)):
        return bool(value) and all(map(is_zero, value))
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool) and value == 0


# -- seeded inputs ------------------------------------------------------------

def _rat(rng, top=6):
    return Fraction(rng.randint(-top, top), rng.randint(1, 3))


def _terms(rng, n, nterms, max_exp):
    return {tuple(rng.randrange(max_exp + 1) for _ in range(n)): _rat(rng)
            for _ in range(nterms)}


def _poly(rng, vars, nterms=4, max_exp=2):
    return MultiPoly(vars, _terms(rng, len(vars.names), nterms, max_exp))


def _nonzero_poly(rng, vars, nterms=4, max_exp=2):
    while True:
        P = _poly(rng, vars, nterms, max_exp)
        if not P.is_zero:
            return P


def _series(rng, vars, trunc, nterms=6, max_exp=3):
    return FormalSeries(vars, trunc, {e: c for e, c in _terms(
        rng, len(vars.names), nterms, max_exp).items() if trunc.admits(e)})


def _in_window(rng, vars, trunc, nterms=6):
    """Up to ``nterms`` terms inside ``trunc``: the distinguished degree up to
    its cap, the other degree up to the xy-cap, spread over the other variables."""
    terms = {}
    for _ in range(nterms):
        e = [rng.randint(0, trunc.deg_t)] + [0] * (len(vars.names) - 1)
        for _ in range(rng.randint(0, trunc.deg_xy)):
            e[rng.randrange(1, len(vars.names))] += 1
        terms[tuple(e)] = _rat(rng)
    return FormalSeries(vars, trunc, terms)


def _ints(f):
    """f with every coefficient replaced by its numerator: an int-coefficient operand."""
    return FormalSeries(f.vars, f.trunc, {e: c.numerator for e, c in f.terms.items()})


def _phase_operands(rng, i, deform="t"):
    """(f, g) over the phase space of dof 1 + i % 3: rational coefficients for
    odd i, ints for even i; one window for i % 4 < 2, else two."""
    V = VariableSet.phase_space(1 + i % 3, deform)
    tf = Truncation(rng.randint(1, 6), rng.randint(0, 6))
    tg = tf if i % 4 < 2 else Truncation(rng.randint(1, 6), rng.randint(0, 6))
    f, g = _in_window(rng, V, tf, 8), _in_window(rng, V, tg, 8)
    return (f, g) if i % 2 else (_ints(f), _ints(g))


def _in_var(rng, vars, var, degree, nterms=3):
    """A polynomial of exact degree ``degree`` >= 1 in ``var``: a random
    nonzero top coefficient times var^degree plus random lower terms."""
    i = vars.index(var)
    top = _nonzero_poly(rng, vars, 2, 1)
    top = MultiPoly(vars, {e[:i] + (degree,) + e[i + 1:]: c for e, c in top.terms.items()})
    low = MultiPoly(vars, {e[:i] + (min(e[i], degree - 1),) + e[i + 1:]: c
                           for e, c in _terms(rng, len(vars.names), nterms, 2).items()})
    return top + low


# -- the families -------------------------------------------------------------

XYZ = VariableSet(("x", "y", "z"))


def substitute_windowed():
    """substitute on windowed series, for every variable, t and xi included."""
    rng = random.Random(101)
    for i in range(16):
        V = VariableSet.phase_space(1 + i % 2, "t" if i % 3 else "xi")
        f = _in_window(rng, V, Truncation(rng.randint(0, 4), rng.randint(0, 4)))
        for name in V.names:
            g = _in_window(rng, V, Truncation(rng.randint(0, 4), rng.randint(0, 4)), 4)
            yield f"{i}/{name}", lambda f=f, name=name, g=g: f.substitute(name, g)


def substitute_poly():
    """substitute on polynomials."""
    rng = random.Random(102)
    for i in range(16):
        f = _poly(rng, XYZ, 5, 3)
        for name in XYZ.names:
            g = _poly(rng, XYZ, 3, 2)
            yield f"{i}/{name}", lambda f=f, name=name, g=g: f.substitute(name, g)


def cleared_family():
    """z^N Q(x + xi/z) from Q's coefficients b_0..b_N, zero ones included."""
    rng = random.Random(103)
    small = VariableSet(("x", "w"))
    ring = VariableSet(("x", "xi", "w", "z"))
    for i in range(30):
        coeffs = [_poly(rng, small, rng.randint(0, 3), 2) for _ in range(i % 5 + 1)]
        yield f"{i}", lambda coeffs=coeffs: _cleared_family(coeffs, ring, "x", "xi", "z")


def divexact():
    """mp_divexact: exact, inexact, rational contents, one-term negative divisors."""
    rng = random.Random(104)
    for i in range(20):
        A, B = _poly(rng, XYZ), _nonzero_poly(rng, XYZ)
        yield f"exact/{i}", lambda A=A, B=B: mp_divexact(A * B, B)
        C = _nonzero_poly(rng, XYZ, 2, 1)
        yield f"inexact/{i}", lambda A=A, B=B, C=C: mp_divexact(A * B + C, B)
        r, s = _rat(rng) or Fraction(2, 3), _rat(rng) or Fraction(-5, 2)
        yield f"contents/{i}", lambda A=A, B=B, r=r, s=s: mp_divexact((A * B).scale(r), B.scale(s))
    for i in range(12):
        A = _poly(rng, XYZ)
        c = -Fraction(rng.randint(1, 5), rng.randint(1, 3))
        B = MultiPoly(XYZ, {tuple(rng.randrange(2) for _ in range(3)): c})
        yield f"monomial/{i}", lambda A=A, B=B: mp_divexact(A * B, B)
        yield f"monomial-inexact/{i}", lambda A=A, B=B: mp_divexact(A * B + MultiPoly.one(XYZ), B)
    one, minus = MultiPoly.one(XYZ), MultiPoly.constant(XYZ, -1)
    yield "one/minus-one", lambda: mp_divexact(one * minus, minus)
    yield "by-zero", lambda: mp_divexact(one, MultiPoly.zero(XYZ))
    yield "zero/minus-one", lambda: mp_divexact(MultiPoly.zero(XYZ), minus)


def gcd():
    """mp_gcd of products with a common factor, zero and constant operands."""
    rng = random.Random(105)
    for i in range(20):
        G, A, B = (_poly(rng, XYZ, 3, 1) for _ in range(3))
        yield f"{i}", lambda G=G, A=A, B=B: mp_gcd(G * A, G * B)
    Z, c = MultiPoly.zero(XYZ), MultiPoly.constant(XYZ, Fraction(-4, 9))
    P = _nonzero_poly(rng, XYZ)
    for label, a, b in (("zero/zero", Z, Z), ("zero/P", Z, P), ("P/zero", P, Z),
                        ("const/P", c, P), ("P/const", P, c)):
        yield label, lambda a=a, b=b: mp_gcd(a, b)


ZAB = VariableSet(("z", "a", "b"))
AB = VariableSet(("a", "b"))


def product_disc():
    """product_discriminant of factors of z-degrees 1..3, m·n odd and even."""
    rng = random.Random(106)
    for i in range(24):
        m, n = 1 + i % 3, 1 + (i // 3) % 3
        P, Q = _in_var(rng, ZAB, "z", m), _in_var(rng, ZAB, "z", n)
        yield f"{m}x{n}/{i}", lambda P=P, Q=Q: product_discriminant(
            UniOverPoly("z", P), UniOverPoly("z", Q))


def simple():
    """simple_decompose of A^2 B in x."""
    rng = random.Random(107)
    for i in range(16):
        A, B = _in_var(rng, XYZ, "x", 1 + i % 2, 2), _in_var(rng, XYZ, "x", 1, 2)
        yield f"{i}", lambda A=A, B=B: simple_decompose(UniOverPoly("x", A * A * B))


def borel_formula():
    """borel_star_standard_formula on dof-1 series over (xi, q, p)."""
    rng = random.Random(108)
    V = VariableSet(("xi", "q", "p"), 1)
    for i in range(16):
        T = Truncation(rng.randint(0, 6), rng.randint(0, 5))
        f, g = _series(rng, V, T, 4), _series(rng, V, T, 4)
        yield f"{i}", lambda f=f, g=g: borel_star_standard_formula(f, g)


def _points(rng, names, count, zero):
    return [{n: Fraction(0) if n == zero and k % 2 else _rat(rng) for n in names}
            for k in range(count)]


def _membership(build, points):
    """The variety, then contains_exact and every leaf's value at each point."""
    def run():
        L = build()
        return L, [(L.contains_exact(pt), tuple(leaf.poly.evaluate(pt) for leaf in L.all_leaves()))
                   for pt in points]
    return run


def loci():
    """The h5, odot and conv loci: serialize(), leaves and exact membership."""
    rng = random.Random(109)
    Vf, Vg = VariableSet(("xi1", "q", "p")), VariableSet(("xi2", "q", "p"))
    h5 = (("a - xi1 - b*q - p", "c - xi2 - q - d*p"),
          ("a - xi1 - b*q - p - e*q*p", "c - xi2 - q - d*p - f*q*p"),
          ("a - xi1 - b*p", "c - xi2 - d*q^2"))
    for i, (pf, qg) in enumerate(h5):
        vals = {k: str(_rat(rng, 5) or 1) for k in "abcdef"}
        fill = lambda text: "".join(vals.get(ch, ch) for ch in text)
        Pf = UniOverPoly("p", MultiPoly.from_string(fill(pf), Vf))
        Qg = UniOverPoly("q", MultiPoly.from_string(fill(qg), Vg))
        points = _points(rng, ("xi1", "xi2", "xi3", "q", "p"), 4, "xi3")
        yield f"h5/{i}", _membership(lambda Pf=Pf, Qg=Qg: hadamard_locus_5var(Pf, Qg), points)
    Vo = VariableSet(("z1", "z2", "z3"))
    for i in range(5):
        P = _nonzero_poly(rng, Vo, 5, 2)
        points = _points(rng, ("xi", "z1", "z2", "z3"), 4, "xi")
        yield f"odot/{i}", _membership(lambda P=P: odot_locus(P, "z1", "z2"), points)
    Vp, Vbar = VariableSet(("z1", "z2")), VariableSet(("z", "z2"))
    for i in range(6):
        P = _in_var(rng, Vp, "z1", 1 + i % 3, 3)
        Pbar = MultiPoly(Vbar, {(1, 0): _rat(rng) or 1, (0, 1): Fraction(i % 2)})
        points = _points(rng, ("z", "z2"), 4, "z2")
        yield f"conv/{i}", _membership(
            lambda P=P, Pbar=Pbar: conv_locus(UniOverPoly("z1", P), Pbar), points)


def stars():
    """standard and Moyal star and the commutator at dof 1-3 (int and rational
    coefficients, one window or two); t-cap 0 and a dof mismatch raise."""
    rng = random.Random(110)
    ops = (("standard", standard_star), ("moyal", moyal_star), ("commutator", moyal_commutator))
    for i in range(36):
        f, g = _phase_operands(rng, i)
        for name, op in ops:
            yield f"{name}/{i}", lambda op=op, f=f, g=g: op(f, g)
    flat = Truncation(0, 5)
    f, g = (_in_window(rng, VariableSet.phase_space(dof), flat) for dof in (2, 1))
    for name, op in ops:
        yield f"{name}/t-cap-0", lambda op=op: op(f, f)
        yield f"{name}/dof-mismatch", lambda op=op: op(f, g)


def transition():
    """T^{±1} at dof 1-3, and borel_T in both directions."""
    rng = random.Random(111)
    for i in range(16):
        f, _ = _phase_operands(rng, i)
        fhat, _ = _phase_operands(rng, i, "xi")
        for inverse in (False, True):
            yield f"T/{i}/{inverse}", lambda f=f, inverse=inverse: transition_T(f, inverse)
            yield f"borel_T/{i}/{inverse}", lambda f=fhat, inverse=inverse: borel_T(f, inverse)


def borel_plane():
    """borel_star of both kinds, odot_ij, and * and hadamard against a one-term
    constant series (or polynomial), on either side."""
    rng = random.Random(112)
    for i in range(16):
        fhat, ghat = _phase_operands(rng, i, "xi")
        for kind in (STANDARD, MOYAL):
            yield f"{kind.tag}/{i}", lambda f=fhat, g=ghat, kind=kind: borel_star(f, g, kind)
        window = fhat.trunc if i % 3 else Truncation(rng.randint(0, 6), rng.randint(0, 6))
        c = FormalSeries.constant(fhat.vars, window, _rat(rng) if i % 2 else rng.randint(-6, 6))
        for name, op in (("mul", lambda a, b: a * b), ("hadamard", hadamard)):
            yield f"{name}/{i}", lambda op=op, f=fhat, c=c: (op(f, c), op(c, f))
    ZV = VariableSet(("u", "z1", "z2", "z3"))
    for i in range(8):
        F = _in_window(rng, ZV, Truncation(rng.randint(0, 4), rng.randint(0, 6)))
        F = F if i % 2 else _ints(F)
        for a, b in (("z1", "z2"), ("z3", "z1")):
            yield f"odot/{i}/{a}{b}", lambda F=F, a=a, b=b: odot_ij(F, a, b)
        P, c = _poly(rng, XYZ, 5, 3), MultiPoly.constant(XYZ, _rat(rng) or 1)
        yield f"poly-mul/{i}", lambda P=P, c=c: (P * c, c * P)


def transforms():
    """borel and inverse_borel at dof 1-3 and t-caps 0-8 (int and rational
    coefficients), the round trips both ways, and a name already in use."""
    rng = random.Random(113)
    for i in range(18):
        trunc = Truncation(i % 9, rng.randint(0, 5))
        f, fhat = (_in_window(rng, VariableSet.phase_space(1 + i % 3, plane), trunc)
                   for plane in ("t", "xi"))
        f, fhat = (f, fhat) if i % 2 else (_ints(f), _ints(fhat))
        yield f"borel/{i}", lambda f=f: borel(f)
        yield f"inverse/{i}", lambda fhat=fhat: inverse_borel(fhat)
        yield f"round-trips/{i}", lambda f=f, fhat=fhat: (inverse_borel(borel(f)),
                                                          borel(inverse_borel(fhat)))
    f = _in_window(rng, VariableSet.phase_space(1), Truncation(3, 3))
    fhat = _in_window(rng, VariableSet(("xi", "t", "q")), Truncation(3, 3))
    yield "borel/name-in-use", lambda: borel(f, "q")
    yield "inverse/name-in-use", lambda: inverse_borel(fhat)


def _primitive(P):
    """P's integer primitive part, with P's sign: the content 1."""
    s = reduce(int_lcm, (c.denominator for c in P.terms.values()), 1)
    g = reduce(int_gcd, (c.numerator * (s // c.denominator) for c in P.terms.values()))
    return MultiPoly(P.vars, {e: c * s // g for e, c in P.terms.items()})


def resultants():
    """sylvester_resultant and discriminant_locus on their own: unit, integer
    and rational contents, z-degrees 0-3, and the degenerate cases."""
    rng = random.Random(114)
    contents = (lambda: 1, lambda: rng.choice((-1, 1)) * rng.randint(2, 6),
                lambda: Fraction(rng.randint(-7, 7) or 1, rng.randint(2, 5)))
    for i in range(27):
        m, n = 1 + i % 3, (i // 3) % 3
        P = _primitive(_in_var(rng, ZAB, "z", m)).scale(contents[i % 3]())
        Q = _in_var(rng, ZAB, "z", n) if n else MultiPoly(ZAB, {(0,) + e: c for e, c in
                                                              _nonzero_poly(rng, AB).terms.items()})
        Q = _primitive(Q).scale(contents[i // 9]())
        P, Q = UniOverPoly("z", P), UniOverPoly("z", Q)
        yield f"res/{m}x{n}/{i}", lambda P=P, Q=Q: (sylvester_resultant(P, Q),
                                                    sylvester_resultant(Q, P))
        yield f"disc/{m}/{i}", lambda P=P: discriminant_locus(P)
        yield f"disc/{n}/{i}", lambda Q=Q: discriminant_locus(Q)
    c = UniOverPoly("z", MultiPoly.constant(ZAB, Fraction(-3, 4)))
    a = UniOverPoly("a", MultiPoly.from_string("a*z - b", ZAB))
    yield "res/constants", lambda: sylvester_resultant(c, c)
    yield "res/two-variables", lambda: sylvester_resultant(a, UniOverPoly("z", a.poly))


CLI_LINES = (
    ("verify", "examples"),
    ("verify", "integral-reps", "--seed", "7"),
    ("locus", "conv", "--vars", "z1,z2", "--bar-vars", "z,z2", "z2*z1 + 1", "z"),
    ("resultant", "--var", "z1", "--vars", "z1,z2", "z1^2 - z2", "2*z1"),
    ("simple-poly", "--var", "z1", "--vars", "z1,z2", "z1^2 - 2*z1*z2 + z2^2"),
)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cli():
    """CLI stdout, stderr and exit code on the verify suites and README lines."""
    for argv in CLI_LINES:
        yield " ".join(argv), lambda argv=argv: _cli(argv)


# The README's CLI lines that ``CLI_LINES`` leaves out, and ``unborel``, each
# also with --json.  Floats are compared to 12 significant digits.
README_LINES = (
    ("star", "t*p", "t*q"),
    ("star", "--kind", "moyal", "p", "q"),
    ("borel", "t^3*p"),
    ("borel-star", "--kind", "moyal", "xi*p", "xi*q"),
    ("transition", "t^2*p*q"),
    ("hadamard", "xi + xi^2", "xi"),
    ("odot", "--i", "z1", "--j", "z2", "--vars", "u,z1,z2", "z1*z2"),
    ("verify", "integral-reps", "--seed", "1"),
    ("verify", "radius"),
    ("unborel", "1/6*xi^3*p + 2/3*xi*q - 5"),
    ("unborel", "--dof", "2", "--trunc-t", "4", "1/8*xi^4*q1*p2 + 1/3*xi^2 + 7*xi"),
    ("unborel", "--trunc-t", "0", "3/2*p"),
    ("unborel", "xi^"),
)
_FLOAT = re.compile(r"\d+\.\d+(?:e[-+]?\d+)?")


def cli_readme():
    """CLI stdout, stderr and exit code on README_LINES, without and with --json."""
    for argv in README_LINES:
        for extra in ((), ("--json",)):
            yield " ".join(argv + extra), lambda argv=argv + extra: tuple(
                _FLOAT.sub(lambda m: format(float(m[0]), ".12g"), text)
                if isinstance(text, str) else text for text in _cli(argv))


def _ring_cases(label, f, g, rng):
    """+, -, * of f and g; f's powers 0-3; f's derivatives of orders 0-3 in one
    variable, with and without shrinking the window; f at a rational point; f
    with some of its other variables bound."""
    names = f.vars.names
    for op, run in (("+", lambda: f + g), ("-", lambda: f - g), ("*", lambda: f * g)):
        yield f"{op}/{label}", run
    yield f"pow/{label}", lambda: tuple(f.pow(n) for n in range(4))
    name = names[rng.randrange(len(names))]
    yield f"diff/{label}/{name}", lambda: tuple(
        f.diff(name, k, shrink) for k in range(4) for shrink in (True, False))
    point = {n: _rat(rng) for n in names}
    yield f"evaluate/{label}", lambda: f.evaluate(point)
    bound = {n: _rat(rng) or 1 for n in names[1:] if rng.randrange(2)}
    yield f"evaluate_partial/{label}", lambda: f.evaluate_partial(bound)


def ring():
    """The ring operations on series (one window or two, dof 1-3, int and
    rational coefficients) and on polynomials; binding the distinguished
    variable of a series raises."""
    rng = random.Random(115)
    for i in range(16):
        f, g = _phase_operands(rng, i)
        yield from _ring_cases(f"series/{i}", f, g, rng)
    for i in range(12):
        P, Q = _nonzero_poly(rng, XYZ, 5, 2), _nonzero_poly(rng, XYZ, 4, 2)
        yield from _ring_cases(f"poly/{i}", P, Q, rng)
        x = _rat(rng)
        yield f"evaluate_partial/poly/{i}/x", lambda P=P, x=x: P.evaluate_partial({"x": x})
    f, _ = _phase_operands(rng, 1)
    yield "evaluate_partial/distinguished", lambda: f.evaluate_partial({"t": 1})


PARSE_VALID = (
    "t^3 + t^2*p*q", "-7/2*t + 3", " t ^ 2 * p + 1 ", "4/2*t", "t - t", "0", "3*p*2*q",
    "p^2*p", "- -p + -q", "1/3 + 2/6*q^2*t", "t^0*p^1", "t^6*p^6",
)
PARSE_BAD = (
    "t +", "t^2^3", "1/0*t", "t^4/2", "t^2/1", "p^1 / 1*q", "t*", "p*q*", "w^2", "t^7",
    "p^7", "", "* t", "t^", "t q", "3..5", "2/p", "/ 2", "p^2/q",
)


def _printed(cls, text, vars, *window):
    """The parsed value and its canonical print."""
    P = cls.from_string(text, vars, *window)
    return P, str(P)


def parse():
    """The canonical print of valid texts, windowed on (6, 6) and unwindowed,
    seeded round trips, and the error class and message of bad texts."""
    V, window = VariableSet.phase_space(1), Truncation(6, 6)
    rng = random.Random(116)
    cases = [(text, V) for text in PARSE_VALID]
    for i in range(12):
        W = VariableSet.phase_space(1 + i % 3)
        cases.append((str(_in_window(rng, W, window)), W))
    for text, vars in cases:
        yield f"series/{text}", lambda t=text, v=vars: _printed(FormalSeries, t, v, window)
        yield f"poly/{text}", lambda t=text, v=vars: _printed(MultiPoly, t, v)
    for text in PARSE_BAD:
        yield f"bad/{text}", lambda text=text: FormalSeries.from_string(text, V, window)
        yield f"bad-poly/{text}", lambda text=text: MultiPoly.from_string(text, V)


FAMILIES = {f.__name__: f for f in (
    substitute_windowed, substitute_poly, cleared_family, divexact, gcd, product_disc,
    simple, borel_formula, loci, cli, stars, transition, borel_plane, transforms,
    resultants, cli_readme, ring, parse)}


# -- digests ------------------------------------------------------------------

def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@lru_cache(maxsize=None)
def results(name: str) -> tuple:
    """((label, value or the package error it raises)) for every case of the
    family, in order; each family runs once per process."""
    out = []
    for label, thunk in FAMILIES[name]():
        try:
            out.append((label, thunk()))
        except StarBorelError as exc:
            out.append((label, exc))
    return tuple(out)


def run_family(name: str) -> list:
    """[(label, typed outcome)] for every case of the family, in order."""
    return [(label, outcome(value)) for label, value in results(name)]


def digest(cases: list) -> dict:
    """The family digest and one short hash per case."""
    return {"sha256": _hash("\n".join(f"{label}\n{value}" for label, value in cases)),
            "cases": [_hash(f"{label}\n{value}")[:12] for label, value in cases]}


def load() -> dict:
    return json.loads(DIGESTS.read_text())


def check(name: str, want: dict):
    """None when the family matches its committed digest, else a report
    naming its first differing case and the value it has now."""
    return compare(name, run_family(name), want)


def compare(name: str, cases: list, want: dict):
    """``check`` on the family's cases as computed."""
    got = digest(cases)
    if got["sha256"] == want["sha256"]:
        return None
    for k, ((label, value), h) in enumerate(zip(cases, got["cases"])):
        if k >= len(want["cases"]) or h != want["cases"][k]:
            shown = value if len(value) <= 2000 else value[:2000] + " ..."
            return f"family {name}: case {k} ({label}) differs; it is now:\n{shown}"
    return f"family {name}: {len(want['cases'])} cases committed, {len(cases)} now"


def write(named) -> int:
    """Add the digests of families that have none and rewrite the named ones;
    a differing family that is not named keeps its digest and fails the run."""
    want, refused = load(), 0
    for name in FAMILIES:
        if name in want and name not in named:
            report = check(name, want[name])
            if report:
                print(f"{report}\nnot overwritten: name the family to rewrite it")
                refused += 1
            continue
        cases = run_family(name)
        if name in want:
            print(compare(name, cases, want[name]) or f"family {name}: unchanged")
        want[name] = digest(cases)
        print(f"family {name}: written, {len(cases)} cases")
    want = {name: want[name] for name in FAMILIES}
    DIGESTS.write_text(json.dumps(want, indent=1, sort_keys=True) + "\n")
    return 1 if refused else 0


def main(argv) -> int:
    if argv[:1] == ["--write"] and set(argv[1:]) <= set(FAMILIES):
        return write(set(argv[1:]))
    if argv:
        print("usage: python tests/parity.py [--write [FAMILY ...]]", file=sys.stderr)
        return 1
    want, failed = load(), 0
    for name in FAMILIES:
        report = check(name, want[name]) if name in want else f"family {name}: no digest"
        print(report or f"family {name}: ok")
        failed += report is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
