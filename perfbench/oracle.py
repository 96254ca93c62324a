"""Reference computations that share no code with the package under test.

Polynomials are plain dicts {exponent tuple: Fraction}; the exponent order
matches the package's phase-space variable sets: the distinguished variable,
then q_1..q_N, then p_1..p_N.  Star products are expanded monomial by
monomial with closed falling-factorial coefficients, instead of the
package's derivative-of-series loops.  The sympy helpers are imported only
when a check needs them, after the timed passes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial, perm


def _pair_terms(a, b, c, d, moyal):
    """Order-(m+n) contributions of one (q, p) pair to q^a p^b * q^c p^d:
    yields (m + n, weight, q exponent, p exponent)."""
    for m in range(min(b, c) + 1):
        for n in range(min(a, d) + 1 if moyal else 1):
            w = Fraction(perm(b, m) * perm(a, n) * perm(c, m) * perm(d, n),
                         factorial(m) * factorial(n))
            if moyal:
                w = w * (-1) ** n / 2 ** (m + n)
            yield m + n, w, a + c - m - n, b + d - m - n


def clip(terms, deg_t, deg_xy):
    """Drop zero coefficients and terms outside the (deg_t, deg_xy) window."""
    return {e: c for e, c in terms.items()
            if c and e[0] <= deg_t and sum(e[1:]) <= deg_xy}


def star(f, g, dof, deg_t, deg_xy, moyal=False):
    """Standard (moyal=False) or Moyal star product of two polynomials,
    clipped to the window."""
    out = {}
    for ef, cf in f.items():
        for eg, cg in g.items():
            per_pair = [list(_pair_terms(ef[j], ef[dof + j], eg[j], eg[dof + j], moyal))
                        for j in range(1, dof + 1)]
            for combo in product(*per_pair):
                t = ef[0] + eg[0] + sum(x[0] for x in combo)
                w = cf * cg
                for x in combo:
                    w *= x[1]
                key = (t,) + tuple(x[2] for x in combo) + tuple(x[3] for x in combo)
                out[key] = out.get(key, 0) + w
    return clip(out, deg_t, deg_xy)


def transition(f, dof, deg_t, deg_xy, inverse=False):
    """exp(-/+ (t/2) sum_j d_qj d_pj) f, one pair at a time."""
    s = Fraction(1, 2) if inverse else Fraction(-1, 2)
    out = {}
    for e, c in f.items():
        per_pair = [[(j, s ** j / factorial(j) * perm(e[i], j) * perm(e[dof + i], j))
                     for j in range(min(e[i], e[dof + i]) + 1)]
                    for i in range(1, dof + 1)]
        for combo in product(*per_pair):
            w = c
            for x in combo:
                w *= x[1]
            key = ((e[0] + sum(x[0] for x in combo),)
                   + tuple(e[i] - x[0] for i, x in zip(range(1, dof + 1), combo))
                   + tuple(e[dof + i] - x[0] for i, x in zip(range(1, dof + 1), combo)))
            out[key] = out.get(key, 0) + w
    return clip(out, deg_t, deg_xy)


def borel(f):
    """t^n -> xi^n / n! on the dict."""
    return {e: c / factorial(e[0]) for e, c in f.items()}


def inverse_borel(f):
    return {e: c * factorial(e[0]) for e, c in f.items()}


def sub(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def euler_tseries(deg_t, deg_xy):
    """Coefficients of sum_k k! t^k ((1-p)(1-q))^(-k-1) at one degree of
    freedom: t^k q^b p^a carries k! C(a+k, k) C(b+k, k)."""
    return {(k, b, a): Fraction(factorial(k) * comb(a + k, k) * comb(b + k, k))
            for k in range(deg_t + 1)
            for a in range(deg_xy + 1) for b in range(deg_xy + 1 - a)}


# -- sympy side -------------------------------------------------------------

def to_sympy(terms, names):
    """A sympy expression from {exponent tuple: Fraction} over ``names``."""
    import sympy
    syms = sympy.symbols(names)
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[s ** k for s, k in zip(syms, e)])
                       for e, c in terms.items()])


def from_sympy(expr, names):
    """{exponent tuple: Fraction} from a sympy polynomial expression."""
    import sympy
    if expr == 0:
        return {}
    poly = sympy.Poly(sympy.expand(expr), *sympy.symbols(names))
    return {tuple(e): Fraction(int(c.p), int(c.q)) for e, c in poly.terms()}


def proportional(a, b):
    """True when the two nonzero term dicts differ by a nonzero rational factor."""
    if not a or not b or a.keys() != b.keys():
        return False
    e0 = next(iter(a))
    r = a[e0] / b[e0]
    return all(a[e] == r * b[e] for e in a)
