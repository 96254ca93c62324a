"""Exact termwise evaluation of the integral representations of the
Borel-plane operators: derivatives in xi of simplex integrals of an angular
average or of a contour residue.

These evaluators are deliberately independent of the conjugation-based
definitions in :mod:`starborel.borel`; they serve as cross-check oracles.
Everything is computed over the rationals, by one builder at every dof from
pairing triples (a, b, w) per pair (q_j, p_j).  Each integrand is a product
of f and g at arguments shifted by formal symbols (e^{+-i theta} on a circle,
z^{+-1} on a contour): f by the symbol in a, g by w e_k over it in b.  Both
factors are Taylor-expanded in their shifts, and the average or the residue
keeps exactly the terms whose symbols cancel: the pairing of equal
multi-indices of the two expansions (for T, with no g, of f's orders in the
a's with its own in the b's).  The simplex integral and its xi-derivatives
are one closed-form termwise map.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .errors import VariableMismatchError
from .series import FormalSeries, Truncation, VariableSet

_HALF = Fraction(1, 2)

# -- shared wiring ---------------------------------------------------------


def _taylor(f: FormalSeries, shifts) -> dict:
    """Taylor coefficients of f(.., v + c_v s_v, ..) in formal symbols s_v,
    for ``shifts`` a list of (v, c_v) with c_v a rational or a series free
    of v: multi-index a -> prod_v c_v^{a_v} / a_v! * d^a f.  Each order is
    taken from the previous one, up to the first vanishing derivative."""
    out = {(): f}
    for v, c in shifts:
        nxt = {}
        for a, h in out.items():
            n = 0
            while not h.is_zero:
                nxt[a + (n,)] = h
                n += 1
                h = h.diff(v, shrink_window=False) * (c * Fraction(1, n))
        out = nxt
    return out


def _pair(fx: dict, gx: dict, zero: FormalSeries) -> FormalSeries:
    """sum_a fx[a] * gx[a] over the multi-indices both expansions hold."""
    return sum((h * gx[a] for a, h in fx.items() if a in gx), zero)


def _dirichlet(h: FormalSeries, helpers, vars: VariableSet, trunc: Truncation) -> FormalSeries:
    """d^n/dxi^n of the integral of h (free of xi) over the simplex 0 <= sum of
    the n helpers <= xi, re-homed to ``vars`` on ``trunc``.  By Dirichlet's
    formula the integral of prod e_j^{a_j} is prod a_j! / (|a| + n)! xi^{|a| + n},
    so each term prod e_j^{a_j} m(q, p) maps to prod a_j! / |a|! xi^{|a|} m(q, p)."""
    idx = [h.vars.index(n) for n in helpers]
    keep = [h.vars.index(n) for n in vars.names[1:]]
    terms = {}
    for e, c in h.terms.items():
        a = [e[i] for i in idx]
        key = (sum(a),) + tuple(e[i] for i in keep)
        terms[key] = terms.get(key, 0) + Fraction(c * prod(map(factorial, a)), factorial(sum(a)))
    return FormalSeries(vars, trunc, terms)


def _represent(per_dof, f: FormalSeries, g: FormalSeries = None) -> FormalSeries:
    """The representation of the pairings ``per_dof(q_j, p_j)`` on f and g, or
    on f alone, with helpers _ef, _eg (the factors' xi) and one e_k per pairing.
    The ring extended by them is windowed at cap = deg_t + deg_xy of the output:
    every step keeps or raises the joint degree a term contributes to the output
    and the Dirichlet map preserves it, so a term the window drops could never
    reach the output.  The xi cap is cap too, as inputs are clipped while xi is
    still their distinguished name."""
    if g is not None:
        f._check_compatible(g)
    pairings = [e for q, p in f.vars.phase_pairs() for e in per_dof(q, p)]
    out = f.trunc if g is None else f.trunc.meet(g.trunc)
    es = tuple(f"_e{k}" for k in range(1, len(pairings) + 1))
    helpers = ("_ef", "_eg")[:1 if g is None else 2] + es
    cap = out.deg_t + out.deg_xy
    vars, trunc = VariableSet(f.vars.names + helpers, dof=f.vars.dof), Truncation(cap, cap)
    zero = FormalSeries.zero(vars, trunc)
    shifts = [(b, FormalSeries.variable(vars, trunc, e).scale(w))
              for (_, b, w), e in zip(pairings, es)]
    fx = _taylor(f.rename_distinguished("_ef").truncate(trunc).rehome(vars),
                 [(a, 1) for a, _, _ in pairings])
    if g is None:
        paired = sum((_taylor(h, shifts).get(a, zero) for a, h in fx.items()), zero)
    else:
        gbig = g.rename_distinguished("_eg").truncate(trunc).rehome(vars)
        paired = _pair(fx, _taylor(gbig, shifts), zero)
    return _dirichlet(paired, helpers, f.vars, out)


# -- the representations ---------------------------------------------------

def eval_formulahigh(fhat: FormalSeries, ghat: FormalSeries, r: int = None) -> FormalSeries:
    """Standard Borel star at r degrees of freedom via the nested-integral
    circle-average representation: d^{r+2}/dxi^{r+2} of the (r+2)-fold simplex
    integral of the r-fold angular average of fhat(_ef, q_j, p_j + sqrt(e_j)
    e^{-i theta_j}) ghat(_eg, q_j + sqrt(e_j) e^{i theta_j}, p_j), the pairings
    (p_j, q_j, 1).  Mode 0 pairs equal orders in p_j and q_j, whose factor
    sqrt(e_j)^{2 a_j} = e_j^{a_j} is put whole on g's side.
    """
    if r is not None and r != fhat.vars.dof:
        raise VariableMismatchError(f"variable set has dof {fhat.vars.dof}, asked for {r}")
    return _represent(lambda q, p: [(p, q, 1)], fhat, ghat)


def eval_borel_star_rep(fhat: FormalSeries, ghat: FormalSeries) -> FormalSeries:
    """One-degree-of-freedom case: d^3/dxi^3 of three nested integrals of the
    single angular average."""
    if fhat.vars.dof != 1:
        raise VariableMismatchError("this representation is stated for dof 1")
    return eval_formulahigh(fhat, ghat)


def eval_moyal_rep(fhat: FormalSeries, ghat: FormalSeries) -> FormalSeries:
    """Moyal Borel star at r degrees of freedom: d^{2r+2}/dxi^{2r+2} of 2r + 2
    nested integrals of the contour extraction, against dz_j dw_j / (2 pi i z_j)(2 pi i w_j), of
    fhat(_ef, q_j + z_j, p_j + w_j) ghat(_eg, q_j + e_{2j}/(2 w_j), p_j - e_{2j-1}/(2 z_j)):
    the pairings (q_j, p_j, -1/2) and (p_j, q_j, 1/2).
    """
    return _represent(lambda q, p: [(q, p, -_HALF), (p, q, _HALF)], fhat, ghat)


def eval_That_rep(fhat: FormalSeries, inverse: bool = False) -> FormalSeries:
    """Borel transition operator at r degrees of freedom: d^{r+1}/dxi^{r+1} of
    the integral over the simplex _ef + sum_j e_j <= xi of the z_j^{-1}
    coefficients of fhat(_ef, q_j + z_j, p_j -+ e_j/(2 z_j)) / z_j, the pairings
    (q_j, p_j, -+1/2) on fhat alone.  At r = 1 one d/dxi of it is the integral
    over e_1 in (0, xi) of the residue at _ef = xi - e_1."""
    return _represent(lambda q, p: [(q, p, _HALF if inverse else -_HALF)], fhat)


def hadamard_contour(phi: FormalSeries, psi: FormalSeries) -> FormalSeries:
    """Hadamard product as a contour integral: the z^{-1} coefficient of
    phi(z) psi(xi/z) / z, extracted termwise: phi's xi^k slice pairs with
    xi^k times psi's."""
    phi._check_compatible(psi)
    vars, trunc = phi.vars, phi.trunc.meet(psi.trunc)
    xi = vars.distinguished
    phix = dict(enumerate(phi.truncate(trunc).univariate_coeffs(xi)))
    psix = {k: b * FormalSeries.variable(vars, trunc, xi, power=k)
            for k, b in enumerate(psi.truncate(trunc).univariate_coeffs(xi))}
    return _pair(phix, psix, FormalSeries.zero(vars, trunc))
