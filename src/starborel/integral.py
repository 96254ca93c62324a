"""Exact termwise evaluation of the integral representations of the
Borel-plane operators: nested simplex integrals with polynomial upper
limits, termwise circle averages, and contour (residue) extractions.

These evaluators are deliberately independent of the conjugation-based
definitions in :mod:`starborel.borel`; they serve as cross-check oracles.
Everything is computed over the rationals: the angular integrals are done
termwise (only the zero Fourier mode survives, and with it only even powers
of the square-root bookkeeping variable), and contour integrals are Laurent
coefficient extractions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial

from .errors import StarBorelError, VariableMismatchError
from .series import FormalSeries, Truncation, VariableSet


class LaurentSlice:
    """Finite Laurent expansion in one contour variable: integer exponent ->
    coefficient.  Coefficients are FormalSeries (or nested LaurentSlices for
    several contour variables).  The contour integral with measure
    dz/(2*pi*i) is the exponent -1 coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for k, v in coeffs.items():
                if not _is_zero(v):
                    clean[int(k)] = v
        self.coeffs = clean

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, k: int):
        return self.coeffs.get(k)

    def shift(self, n: int) -> "LaurentSlice":
        """Multiply by z^n."""
        return LaurentSlice({k + n: v for k, v in self.coeffs.items()})

    def residue(self):
        """Coefficient of z^{-1}; None if absent."""
        return self.coeffs.get(-1)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return LaurentSlice(out)

    def __mul__(self, other):
        out = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                v = v1 * v2
                out[k] = out[k] + v if k in out else v
        return LaurentSlice(out)

    def __neg__(self):
        return LaurentSlice({k: -v for k, v in self.coeffs.items()})


def _is_zero(v) -> bool:
    return v.is_zero if hasattr(v, "is_zero") else not v


class TrigExpansion:
    """Termwise expansion in r circle angles: keys are (modes, halfpows)
    with modes[j] the e^{i*theta_j} Fourier mode and halfpows[j] the power of
    sqrt(xi_j) carried along; values are FormalSeries.  Averaging over the
    angles keeps only the all-zero-mode terms, whose half powers are then
    automatically even, so no square root ever reaches the output.
    """

    __slots__ = ("data", "r")

    def __init__(self, r: int, data=None):
        self.r = r
        self.data = {}
        if data:
            for key, v in data.items():
                if not v.is_zero:
                    self.data[key] = v

    @classmethod
    def expand_shifts(cls, f: FormalSeries, shift_vars, mode_sign: int) -> "TrigExpansion":
        """Taylor-expand f with each shift_vars[j] shifted by
        sqrt(xi_j) e^{i*mode_sign*theta_j}."""
        r = len(shift_vars)
        ranges = [range(f.degree(v) + 1) for v in shift_vars]
        data = {}
        for avec in product(*ranges):
            g = f
            coef = Fraction(1)
            for v, a in zip(shift_vars, avec):
                if a:
                    g = g.diff(v, a, shrink_window=False)
                    coef /= factorial(a)
            if g.is_zero:
                continue
            key = (tuple(mode_sign * a for a in avec), tuple(avec))
            data[key] = g * coef
        return cls(r, data)

    def __mul__(self, other: "TrigExpansion") -> "TrigExpansion":
        out = {}
        for (m1, h1), v1 in self.data.items():
            for (m2, h2), v2 in other.data.items():
                key = (tuple(a + b for a, b in zip(m1, m2)),
                       tuple(a + b for a, b in zip(h1, h2)))
                v = v1 * v2
                out[key] = out[key] + v if key in out else v
        return TrigExpansion(self.r, out)

    def average(self, half_vars) -> FormalSeries:
        """Integrate each angle over the circle (termwise): keep mode 0,
        replace sqrt(xi_j)^{2s} by xi_j^s."""
        out = None
        for (modes, halfs), v in self.data.items():
            if any(modes):
                continue
            if any(h % 2 for h in halfs):
                raise StarBorelError("odd half power at mode zero")
            expo_shift = [0] * len(v.vars.names)
            for name, h in zip(half_vars, halfs):
                expo_shift[v.vars.index(name)] = h // 2
            terms = {}
            for e, c in v.terms.items():
                key = tuple(a + b for a, b in zip(e, expo_shift))
                if v.trunc.admits(key):
                    terms[key] = terms.get(key, Fraction(0)) + c
            piece = FormalSeries(v.vars, v.trunc, terms)
            out = piece if out is None else out + piece
        if out is None:
            raise VariableMismatchError("empty trig expansion")
        return out


# -- shared wiring ---------------------------------------------------------

def _extended_ring(base: VariableSet, extra, margin: int,
                   f: FormalSeries, g: FormalSeries = None):
    """Ring with helper variables appended and a window wide enough that all
    strict substitutions along the simplex integrals stay exact."""
    series = [f] if g is None else [f, g]
    total = sum(s.trunc.deg_t + s.trunc.deg_xy for s in series)
    cap = total + margin
    vars = VariableSet(base.names + tuple(extra), dof=base.dof)
    trunc = Truncation(cap, cap)
    return vars, trunc


def _simplex_integrate(h: FormalSeries, helper_names, xi: FormalSeries) -> FormalSeries:
    """Innermost-first iterated integral over the simplex
    0 <= sum(helpers) <= xi: the j-th upper limit is xi minus the earlier
    helpers."""
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
    """
    fhat._check_compatible(ghat)
    base = fhat.vars
    if r is None:
        r = base.dof
    if r != base.dof or r < 1:
        raise VariableMismatchError(f"variable set has dof {base.dof}, asked for {r}")
    if fhat.is_zero or ghat.is_zero:
        return FormalSeries.zero(base, fhat.trunc.meet(ghat.trunc))
    helpers = [f"_e{j}" for j in range(1, r + 3)]
    vars, trunc = _extended_ring(base, helpers, r + 2, fhat, ghat)
    xi = FormalSeries.variable(vars, trunc, base.distinguished)
    # f's xi goes to e_{r+1}, g's to e_{r+2}
    fbig = fhat.rename_distinguished(helpers[r]).truncate(trunc).rehome(vars)
    gbig = ghat.rename_distinguished(helpers[r + 1]).truncate(trunc).rehome(vars)
    p_names = [base.p_name(j) for j in range(1, r + 1)]
    q_names = [base.q_name(j) for j in range(1, r + 1)]
    ftrig = TrigExpansion.expand_shifts(fbig, p_names, mode_sign=-1)
    gtrig = TrigExpansion.expand_shifts(gbig, q_names, mode_sign=+1)
    averaged = (ftrig * gtrig).average(helpers[:r])
    integrated = _simplex_integrate(averaged, helpers, xi)
    out_trunc = fhat.trunc.meet(ghat.trunc)
    return _finish(integrated, r + 2, base, out_trunc)


def eval_borel_star_rep(fhat: FormalSeries, ghat: FormalSeries) -> FormalSeries:
    """One-degree-of-freedom case: d^3/dxi^3 of three nested integrals of the
    single angular average."""
    if fhat.vars.dof != 1:
        raise VariableMismatchError("this representation is stated for dof 1")
    return eval_formulahigh(fhat, ghat, 1)


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
    if fhat.is_zero or ghat.is_zero:
        return FormalSeries.zero(base, fhat.trunc.meet(ghat.trunc))
    q, p = base.q_name(1), base.p_name(1)
    helpers = ["_e1", "_e2", "_e3", "_e4"]
    vars, trunc = _extended_ring(base, helpers, 4, fhat, ghat)
    xi = FormalSeries.variable(vars, trunc, base.distinguished)
    e3 = FormalSeries.variable(vars, trunc, "_e3")
    e4 = FormalSeries.variable(vars, trunc, "_e4")
    fbig = fhat.rename_distinguished("_e1").truncate(trunc).rehome(vars)
    gbig = ghat.rename_distinguished("_e2").truncate(trunc).rehome(vars)
    half = Fraction(1, 2)

    # fhat(e1, q+z1, p+z2): z1-slice of z2-slices
    fsl = {}
    for a in range(fbig.degree(q) + 1):
        inner = {}
        fa = fbig.diff(q, a, shrink_window=False) * Fraction(1, factorial(a))
        for b in range(fa.degree(p) + 1):
            fab = fa.diff(p, b, shrink_window=False) * Fraction(1, factorial(b))
            inner[b] = fab
        if inner:
            fsl[a] = LaurentSlice(inner)
    fslice = LaurentSlice(fsl)

    # ghat(e2, q + e4/(2 z2), p - e3/(2 z1)): z1 exponent -d, z2 exponent -c
    gsl = {}
    for d in range(gbig.degree(p) + 1):
        inner = {}
        gd = gbig.diff(p, d, shrink_window=False) * ((-half) ** d / factorial(d)) * e3.pow(d)
        for c in range(gd.degree(q) + 1):
            gdc = gd.diff(q, c, shrink_window=False) * (half ** c / factorial(c)) * e4.pow(c)
            inner[-c] = gdc
        if inner:
            gsl[-d] = LaurentSlice(inner)
    gslice = LaurentSlice(gsl)

    # include the 1/z1 z2 measure factors, then take both residues
    integrand = (fslice * gslice).shift(-1)
    inner_res = integrand.residue()
    if inner_res is None:
        integrated = FormalSeries.zero(vars, trunc)
    else:
        res = inner_res.shift(-1).residue()
        integrated = res if res is not None else FormalSeries.zero(vars, trunc)
    integrated = _simplex_integrate(integrated, helpers, xi)
    out_trunc = fhat.trunc.meet(ghat.trunc)
    return _finish(integrated, 4, base, out_trunc)


def eval_That_rep(fhat: FormalSeries, inverse: bool = False) -> FormalSeries:
    """Borel transition operator at one degree of freedom:
    d/dxi of the integral over e_1 in (0, xi) of the z^{-1} coefficient of
    fhat(xi - e_1, q+z, p -+ e_1/(2z)) / z.
    """
    base = fhat.vars
    if base.dof != 1:
        raise VariableMismatchError("this representation is stated for dof 1")
    q, p = base.q_name(1), base.p_name(1)
    helpers = ["_e1"]
    vars, trunc = _extended_ring(base, helpers, 1, fhat)
    xi = FormalSeries.variable(vars, trunc, base.distinguished)
    e1 = FormalSeries.variable(vars, trunc, "_e1")
    fbig = fhat.truncate(trunc).rehome(vars).substitute(base.distinguished, xi - e1, strict=True)
    half = Fraction(1, 2) if inverse else Fraction(-1, 2)

    sl = {}
    for n in range(fbig.degree(q) + 1):
        fn = fbig.diff(q, n, shrink_window=False) * Fraction(1, factorial(n))
        for m in range(fn.degree(p) + 1):
            fnm = fn.diff(p, m, shrink_window=False) * (half ** m / factorial(m)) * e1.pow(m)
            k = n - m
            sl[k] = sl[k] + fnm if k in sl else fnm
    integrand = LaurentSlice(sl).shift(-1)
    res = integrand.residue()
    if res is None:
        res = FormalSeries.zero(vars, trunc)
    integrated = res.integrate("_e1", upper=xi)
    return _finish(integrated, 1, base, fhat.trunc)


def hadamard_contour(phi: FormalSeries, psi: FormalSeries) -> FormalSeries:
    """Hadamard product as a contour integral: the z^{-1} coefficient of
    phi(z) psi(xi/z) / z, extracted termwise."""
    phi._check_compatible(psi)
    trunc = phi.trunc.meet(psi.trunc)
    phisl = {}
    for e, c in phi.terms.items():
        k = e[0]
        piece = FormalSeries(phi.vars, trunc, {(0,) + e[1:]: c})
        phisl[k] = phisl[k] + piece if k in phisl else piece
    psisl = {}
    for e, c in psi.terms.items():
        k = e[0]
        piece = FormalSeries(psi.vars, trunc, {e: c})  # carries xi^k
        psisl[-k] = psisl[-k] + piece if -k in psisl else piece
    integrand = (LaurentSlice(phisl) * LaurentSlice(psisl)).shift(-1)
    res = integrand.residue()
    if res is None:
        return FormalSeries.zero(phi.vars, trunc)
    return FormalSeries(phi.vars, trunc, res.terms)
