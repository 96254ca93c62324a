"""Exact termwise evaluation of the integral representations of the
Borel-plane operators: derivatives in xi of simplex integrals of an angular
average or of a contour residue.

These evaluators are deliberately independent of the conjugation-based
definitions in :mod:`starborel.borel`; they serve as cross-check oracles.
Everything is computed over the rationals.  Each integrand is a product of
f and g at arguments shifted by formal symbols (e^{+-i theta} on a circle,
z^{+-1} on a contour).  Both factors are Taylor-expanded in their shifts, and
the angular average or the residue keeps exactly the terms whose symbols
cancel: the pairing of equal multi-indices of the two expansions.  The
simplex integral and its xi-derivatives are one closed-form termwise map.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .errors import VariableMismatchError
from .series import FormalSeries, Truncation, VariableSet

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


def _extended_ring(base: VariableSet, extra, out: Truncation):
    """Ring with helper variables appended, windowed at cap = deg_t + deg_xy of
    the output window ``out``: every step keeps or raises the joint degree a
    term contributes to the output and the Dirichlet map preserves it, so a
    term the window drops could never reach the output.  The xi cap is cap
    too, as inputs are clipped while xi is still their distinguished name."""
    cap = out.deg_t + out.deg_xy
    return VariableSet(base.names + tuple(extra), dof=base.dof), Truncation(cap, cap)


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


# -- the representations ---------------------------------------------------

def eval_formulahigh(fhat: FormalSeries, ghat: FormalSeries, r: int = None) -> FormalSeries:
    """Standard Borel star at r degrees of freedom via the nested-integral
    circle-average representation:
    d^{r+2}/dxi^{r+2} of the (r+2)-fold simplex integral of the r-fold
    angular average of
    fhat(e_{r+1}, q, p + sqrt(e_j) e^{-i theta_j})
    ghat(e_{r+2}, q + sqrt(e_j) e^{i theta_j}, p).
    Mode 0 pairs equal orders a_j in p_j and q_j, whose factor
    sqrt(e_j)^{2 a_j} = e_j^{a_j} is put whole on g's side.
    """
    fhat._check_compatible(ghat)
    base = fhat.vars
    r = base.dof if r is None else r
    if r != base.dof or r < 1:
        raise VariableMismatchError(f"variable set has dof {base.dof}, asked for {r}")
    helpers = [f"_e{j}" for j in range(1, r + 3)]
    out = fhat.trunc.meet(ghat.trunc)
    vars, trunc = _extended_ring(base, helpers, out)
    # f's xi goes to e_{r+1}, g's to e_{r+2}
    fbig = fhat.rename_distinguished(helpers[r]).truncate(trunc).rehome(vars)
    gbig = ghat.rename_distinguished(helpers[r + 1]).truncate(trunc).rehome(vars)
    fx = _taylor(fbig, [(base.p_name(j), 1) for j in range(1, r + 1)])
    gx = _taylor(gbig, [(base.q_name(j), FormalSeries.variable(vars, trunc, helpers[j - 1]))
                        for j in range(1, r + 1)])
    return _dirichlet(_pair(fx, gx, FormalSeries.zero(vars, trunc)), helpers, base, out)


def eval_borel_star_rep(fhat: FormalSeries, ghat: FormalSeries) -> FormalSeries:
    """One-degree-of-freedom case: d^3/dxi^3 of three nested integrals of the
    single angular average."""
    if fhat.vars.dof != 1:
        raise VariableMismatchError("this representation is stated for dof 1")
    return eval_formulahigh(fhat, ghat)


def eval_moyal_rep(fhat: FormalSeries, ghat: FormalSeries) -> FormalSeries:
    """Moyal Borel star at one degree of freedom:
    d^4/dxi^4 of four nested integrals of a double contour extraction of
    fhat(e_1, q+z_1, p+z_2) ghat(e_2, q + e_4/(2 z_2), p - e_3/(2 z_1))
    against the measure dz_1 dz_2 / (2 pi i z_1)(2 pi i z_2).
    """
    fhat._check_compatible(ghat)
    base = fhat.vars
    if base.dof != 1:
        raise VariableMismatchError("this representation is stated for dof 1")
    q, p = base.q_name(1), base.p_name(1)
    helpers = ["_e1", "_e2", "_e3", "_e4"]
    out = fhat.trunc.meet(ghat.trunc)
    vars, trunc = _extended_ring(base, helpers, out)
    e3, e4 = (FormalSeries.variable(vars, trunc, n) for n in helpers[2:])
    fbig = fhat.rename_distinguished("_e1").truncate(trunc).rehome(vars)
    gbig = ghat.rename_distinguished("_e2").truncate(trunc).rehome(vars)
    # the residues keep z_1^0 z_2^0: f's orders (a, b) in (q, p) meet g's (a, b) in (p, q)
    fx = _taylor(fbig, [(q, 1), (p, 1)])
    gx = _taylor(gbig, [(p, e3 * Fraction(-1, 2)), (q, e4 * Fraction(1, 2))])
    return _dirichlet(_pair(fx, gx, FormalSeries.zero(vars, trunc)), helpers, base, out)


def eval_That_rep(fhat: FormalSeries, inverse: bool = False) -> FormalSeries:
    """Borel transition operator at one degree of freedom:
    d^2/dxi^2 of the integral over the simplex e_0 + e_1 <= xi of the z^{-1}
    coefficient of fhat(e_0, q+z, p -+ e_1/(2z)) / z: one d/dxi of it is the
    integral over e_1 in (0, xi) of the residue at e_0 = xi - e_1.
    """
    base = fhat.vars
    if base.dof != 1:
        raise VariableMismatchError("this representation is stated for dof 1")
    helpers = ["_e0", "_e1"]
    vars, trunc = _extended_ring(base, helpers, fhat.trunc)
    e1 = FormalSeries.variable(vars, trunc, "_e1")
    fbig = fhat.rename_distinguished("_e0").truncate(trunc).rehome(vars)
    # the residue keeps z^0: equal orders in q and in p
    fx = _taylor(fbig, [(base.q_name(1), 1),
                        (base.p_name(1), e1 * Fraction(1 if inverse else -1, 2))])
    res = sum((h for (n, m), h in fx.items() if n == m), FormalSeries.zero(vars, trunc))
    return _dirichlet(res, helpers, base, fhat.trunc)


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
