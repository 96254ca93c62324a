"""Borel transform and its star-product counterparts.

The Borel-plane products are defined by conjugation: pull back along the
inverse transform, apply the t-plane product, push forward.  Closed
coefficient formulas are provided alongside as independent cross-checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import UnknownVariableError, VariableMismatchError
from .series import FormalSeries, Truncation, VariableSet, _window_product
from .star import StarKind, STANDARD, _exp_pairing, star, transition_T


def borel(f: FormalSeries, new_name: str = "xi") -> FormalSeries:
    """beta: t^n -> xi^n / n!, coefficientwise."""
    fact = [factorial(n) for n in range(f.degree(f.vars.distinguished) + 1)]
    return f._new(f.trunc, {e: Fraction(c.numerator, c.denominator * fact[e[0]])
                            for e, c in f.terms.items()}, f.vars.renamed_distinguished(new_name))


def inverse_borel(fhat: FormalSeries) -> FormalSeries:
    """beta^{-1}: xi^n -> n! t^n, coefficientwise."""
    fact = [factorial(n) for n in range(fhat.degree(fhat.vars.distinguished) + 1)]
    return fhat._new(fhat.trunc, {e: c * fact[e[0]] for e, c in fhat.terms.items()},
                     fhat.vars.renamed_distinguished("t"))


def borel_star(fhat: FormalSeries, ghat: FormalSeries,
               kind: StarKind = STANDARD) -> FormalSeries:
    """Borel counterpart of the chosen star product, by conjugation."""
    fhat._check_compatible(ghat)
    name = fhat.vars.distinguished
    prod = star(inverse_borel(fhat), inverse_borel(ghat), kind)
    return borel(prod, name)


def borel_star_standard_formula(fhat: FormalSeries, ghat: FormalSeries) -> FormalSeries:
    """Closed coefficient form of the standard Borel star at one degree of
    freedom: sum over m, n, s of
    n! m! / ((n+m+s)! s!) (d_p^s f_m)(d_q^s g_n) xi^{m+n+s},
    where f_m, g_n are the xi-coefficients.  Cross-check oracle only.
    """
    fhat._check_compatible(ghat)
    vars = fhat.vars
    if vars.dof != 1:
        raise VariableMismatchError("closed formula is stated for dof 1")
    (q, p), = vars.phase_pairs()
    trunc = fhat.trunc.meet(ghat.trunc)
    acc = {}
    rest = (0,) * (len(vars.names) - 1)

    def derivatives(f, name, k):
        """The running derivatives of the xi^k coefficient f, up to the window."""
        out = [f]
        for _ in range(min(f.degree(name), trunc.deg_t - k)):
            out.append(out[-1].diff(name, shrink_window=False))
        return out

    xi = vars.distinguished
    fparts = [derivatives(fm, p, m) for m, fm in enumerate(fhat.univariate_coeffs(xi))]
    gparts = [derivatives(gn, q, n) for n, gn in enumerate(ghat.univariate_coeffs(xi))]
    for m, dfm in enumerate(fparts):
        for n, dgn in enumerate(gparts):
            for s in range(min(len(dfm), len(dgn), trunc.deg_t - m - n + 1)):
                coef = Fraction(factorial(n) * factorial(m),
                                factorial(n + m + s) * factorial(s))
                _window_product(acc, (dfm[s] * dgn[s]).terms, {(m + n + s,) + rest: coef},
                                trunc.deg_t, trunc.deg_xy)
    return FormalSeries(vars, trunc, acc)


def borel_T(fhat: FormalSeries, inverse: bool = False) -> FormalSeries:
    """Borel counterpart of the transition operator, by conjugation."""
    name = fhat.vars.distinguished
    return borel(transition_T(inverse_borel(fhat), inverse=inverse), name)


def hadamard(phi: FormalSeries, psi: FormalSeries) -> FormalSeries:
    """Coefficientwise product on the common window: the xi^n coefficients multiply."""
    phi._check_compatible(psi)
    trunc = phi.trunc.meet(psi.trunc)
    xi, rest = phi.vars.distinguished, (0,) * (len(phi.vars.names) - 1)
    terms = {}
    for n, (a, b) in enumerate(zip(phi.univariate_coeffs(xi), psi.univariate_coeffs(xi))):
        if a.terms and b.terms:  # the slices' product, then moved to xi^n
            _window_product(terms, _window_product({}, a.terms, b.terms, 0, trunc.deg_xy),
                            {(n,) + rest: 1}, trunc.deg_t, trunc.deg_xy)
    return phi._new(trunc, terms)


def odot_ij(F: FormalSeries, i: str, j: str) -> FormalSeries:
    """Diagonal pairing in the variables i and j: prepends a fresh
    distinguished variable xi and returns
    sum over a of (d_i^a d_j^a F) / (a!)^2 xi^a,
    the termwise angular average of the paper-style circle substitution.
    This is the Borel image (t^a -> xi^a / a!) of exp(t d_i d_j) F, with F
    lifted to t-degree 0, so the star products' kernel evaluates it.
    """
    if i == j:
        raise VariableMismatchError("the two pairing variables must differ")
    for name in (i, j):
        if name not in F.vars.names:
            raise UnknownVariableError(f"unknown variable {name!r}")
        if name == F.vars.distinguished:
            raise VariableMismatchError("cannot pair in the distinguished variable")
    if "xi" in F.vars.names:
        raise VariableMismatchError("variable name 'xi' already in use")
    trunc = Truncation(max(min(F.degree(i), F.degree(j)), 0), F.trunc.deg_t + F.trunc.deg_xy)
    lifted = F._new(trunc, {(0,) + e: c for e, c in F.terms.items()},
                    VariableSet(("xi",) + F.vars.names, F.vars.dof))
    return borel(_exp_pairing(lifted, lifted._constant(1), [((i, j), (), 1)]))
