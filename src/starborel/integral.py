"""Exact termwise evaluation of the integral representations of the
Borel-plane operators: nested simplex integrals with polynomial upper
limits of an angular average or of a contour residue.

These evaluators are deliberately independent of the conjugation-based
definitions in :mod:`starborel.borel`; they serve as cross-check oracles.
Everything is computed over the rationals.  Each integrand is a product of
f and g at arguments shifted by formal symbols (e^{+-i theta} on a circle,
z^{+-1} on a contour).  Both factors are Taylor-expanded in their shifts, and
the angular average or the residue keeps exactly the terms whose symbols
cancel: the pairing of equal multi-indices of the two expansions.
"""

from __future__ import annotations

from fractions import Fraction

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


def _extended_ring(base: VariableSet, extra, *series):
    """Ring with helper variables appended and a window wide enough that all
    strict substitutions along the simplex integrals stay exact."""
    cap = sum(s.trunc.deg_t + s.trunc.deg_xy for s in series) + len(extra)
    return VariableSet(base.names + tuple(extra), dof=base.dof), Truncation(cap, cap)


def _simplex_integrate(h: FormalSeries, helper_names) -> FormalSeries:
    """Innermost-first iterated integral over the simplex
    0 <= sum(helpers) <= xi: the j-th upper limit is xi minus the earlier
    helpers."""
    xi = FormalSeries.variable(h.vars, h.trunc, h.vars.distinguished)
    helpers = [FormalSeries.variable(h.vars, h.trunc, n) for n in helper_names]
    for j in range(len(helper_names) - 1, -1, -1):
        upper = xi
        for earlier in helpers[:j]:
            upper = upper - earlier
        h = h.integrate(helper_names[j], upper=upper)
    return h


def _finish(h: FormalSeries, order: int, out_vars: VariableSet,
            out_trunc: Truncation) -> FormalSeries:
    """Apply d^order/d xi^order, drop the helpers, re-home to the base ring."""
    h = h.diff(h.vars.distinguished, order, shrink_window=False)
    return h.rehome(out_vars).truncate(out_trunc)


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
    if r is None:
        r = base.dof
    if r != base.dof or r < 1:
        raise VariableMismatchError(f"variable set has dof {base.dof}, asked for {r}")
    helpers = [f"_e{j}" for j in range(1, r + 3)]
    vars, trunc = _extended_ring(base, helpers, fhat, ghat)
    # f's xi goes to e_{r+1}, g's to e_{r+2}
    fbig = fhat.rename_distinguished(helpers[r]).truncate(trunc).rehome(vars)
    gbig = ghat.rename_distinguished(helpers[r + 1]).truncate(trunc).rehome(vars)
    fx = _taylor(fbig, [(base.p_name(j), 1) for j in range(1, r + 1)])
    gx = _taylor(gbig, [(base.q_name(j), FormalSeries.variable(vars, trunc, helpers[j - 1]))
                        for j in range(1, r + 1)])
    averaged = _pair(fx, gx, FormalSeries.zero(vars, trunc))
    integrated = _simplex_integrate(averaged, helpers)
    return _finish(integrated, r + 2, base, fhat.trunc.meet(ghat.trunc))


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
    vars, trunc = _extended_ring(base, helpers, fhat, ghat)
    e3, e4 = (FormalSeries.variable(vars, trunc, n) for n in helpers[2:])
    fbig = fhat.rename_distinguished("_e1").truncate(trunc).rehome(vars)
    gbig = ghat.rename_distinguished("_e2").truncate(trunc).rehome(vars)
    # the residues keep z_1^0 z_2^0: f's orders (a, b) in (q, p) meet g's (a, b) in (p, q)
    fx = _taylor(fbig, [(q, 1), (p, 1)])
    gx = _taylor(gbig, [(p, e3 * Fraction(-1, 2)), (q, e4 * Fraction(1, 2))])
    integrated = _simplex_integrate(_pair(fx, gx, FormalSeries.zero(vars, trunc)), helpers)
    return _finish(integrated, 4, base, fhat.trunc.meet(ghat.trunc))


def eval_That_rep(fhat: FormalSeries, inverse: bool = False) -> FormalSeries:
    """Borel transition operator at one degree of freedom:
    d/dxi of the integral over e_1 in (0, xi) of the z^{-1} coefficient of
    fhat(xi - e_1, q+z, p -+ e_1/(2z)) / z.
    """
    base = fhat.vars
    if base.dof != 1:
        raise VariableMismatchError("this representation is stated for dof 1")
    vars, trunc = _extended_ring(base, ["_e1"], fhat)
    xi = FormalSeries.variable(vars, trunc, base.distinguished)
    e1 = FormalSeries.variable(vars, trunc, "_e1")
    fbig = fhat.truncate(trunc).rehome(vars).substitute(base.distinguished, xi - e1, strict=True)
    # the residue keeps z^0: equal orders in q and in p
    fx = _taylor(fbig, [(base.q_name(1), 1),
                        (base.p_name(1), e1 * Fraction(1 if inverse else -1, 2))])
    res = sum((h for (n, m), h in fx.items() if n == m), FormalSeries.zero(vars, trunc))
    return _finish(_simplex_integrate(res, ["_e1"]), 1, base, fhat.trunc)


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
