"""Symbolic candidate singular varieties for convolution-type, Hadamard,
and diagonal-pairing products, with exact and numeric membership tests.

A Variety is an intersection (over groups) of unions of labeled polynomial
zero sets.  The constructions are deliberately supersets of the true
singular sets; tests assert containment, never equality.
"""

from __future__ import annotations

from math import inf, isfinite, prod

from .errors import (
    DegenerateError,
    NotSimpleError,
    OnVarietyError,
    VariableMismatchError,
)
from .poly import (
    MultiPoly,
    UniOverPoly,
    discriminant_locus,
    is_simple,
    product_discriminant,
)
from .series import VariableSet, as_rat


class Leaf:
    """One labeled polynomial condition {poly = 0}."""

    __slots__ = ("label", "poly")

    def __init__(self, label: str, poly: MultiPoly):
        if poly.is_zero:
            raise DegenerateError(f"leaf {label!r} is identically zero")
        self.label = label
        self.poly = poly

    def __str__(self):
        return f'cond "{self.label}": {self.poly}'


class Variety:
    """Intersection over groups of unions of leaves."""

    __slots__ = ("vars", "groups")

    def __init__(self, vars: VariableSet, groups):
        self.vars = vars
        # a leaf is never zero, so degree 0 means a nonzero constant: no zeros
        self.groups = [[leaf for leaf in group if leaf.poly.total_degree() > 0]
                       for group in groups]

    def contains_exact(self, point: dict) -> bool:
        """Exact membership at a rational point binding every variable."""
        for group in self.groups:
            if not any(leaf.poly.evaluate(point) == 0 for leaf in group):
                return False
        return True

    def contains_numeric(self, point: dict, tol: float = 1e-9) -> bool:
        """Numeric membership, scale-free: leaf P holds where |P(x)| <= tol * sum_e |c_e x^e|."""
        for group in self.groups:
            if not any(_vanishes(leaf.poly, point, tol) for leaf in group):
                return False
        return True

    def all_leaves(self):
        for group in self.groups:
            yield from group

    def serialize(self) -> str:
        lines = ["intersect {"]
        for group in self.groups:
            lines.append("  union {")
            for leaf in group:
                lines.append(f"    {leaf}")
            lines.append("  }")
        lines.append("}")
        return "\n".join(lines)

    def __str__(self):
        return self.serialize()


def _vanishes(P: MultiPoly, point: dict, tol: float) -> bool:
    """|sum_e c_e x^e| <= tol * sum_e |c_e x^e|, both sums in one complex pass."""
    value, scale = 0j, 0.0
    try:
        x = [complex(point[n]) for n in P.vars.names]
        for e, c in P.terms.items():
            term = float(c) * prod(map(pow, x, e))
            value += term
            scale += abs(term)
    except OverflowError:
        scale = inf
    if not isfinite(abs(value) + scale):
        raise DegenerateError("leaf value outside the float range")
    return abs(value) <= tol * scale


def _union_ring(a: VariableSet, b: VariableSet) -> VariableSet:
    names = list(a.names)
    for n in b.names:
        if n not in names:
            names.append(n)
    return VariableSet(tuple(names), dof=0)


def _without(vars: VariableSet, name: str) -> VariableSet:
    names = tuple(n for n in vars.names if n != name)
    return VariableSet(names, dof=0)


def conv_locus(P: UniOverPoly, Pbar: MultiPoly) -> Variety:
    """Candidate singular variety of a convolution-type integral whose
    integrand is governed by the simple polynomial P (in its distinguished
    variable) with endpoint branch Pbar.

    Leaves: {leading coefficient = 0}, {P at 0 = 0}, {discriminant = 0},
    and, unless Pbar is identically a root of P (the degenerate case,
    decided by the exact identity P(Pbar) = 0), the endpoint leaf
    {P(Pbar) = 0}.
    """
    var = P.var
    # res(P, P') = 0 exactly when P is not square-free: lc(P') = deg(P) lc(P) != 0
    disc = discriminant_locus(P) if P.degree >= 1 else None
    if disc is not None and disc.is_zero:
        raise NotSimpleError(f"polynomial is not square-free in {var!r}")
    ring = _union_ring(P.vars, Pbar.vars)
    Pmp = P.poly.rehome(ring)
    Pbar_big = Pbar.rehome(ring)
    if Pbar_big.degree(var) > 0:
        raise VariableMismatchError(f"endpoint branch must not involve {var!r}")
    if Pbar.coeff((0,) * len(Pbar.vars.names)):
        raise DegenerateError("endpoint branch must vanish at the origin")
    locus_vars = _without(ring, var)

    coeffs = P.coeffs
    leaves = [Leaf("leading coefficient", coeffs[-1].rehome(locus_vars))]
    if not coeffs[0].is_zero:
        leaves.append(Leaf("value at 0", coeffs[0].rehome(locus_vars)))
    if disc is not None:
        leaves.append(Leaf("discriminant", disc.rehome(locus_vars)))
    endpoint = Pmp.substitute(var, Pbar_big)
    if not endpoint.is_zero:
        # the endpoint sheet: Pbar is generically not a root of P
        leaves.append(Leaf("endpoint", endpoint.rehome(locus_vars)))
    return Variety(locus_vars, [leaves])


def hadamard_locus_1d(S_f, S_g) -> Variety:
    """Zero set {xi = 0} union {xi = s*t} over the two singularity sets,
    as a single univariate polynomial leaf."""
    vars = VariableSet(("xi",), dof=0)
    x = MultiPoly.variable(vars, "xi")
    poly = x
    for s in S_f:
        for t in S_g:
            poly = poly * (x - MultiPoly.constant(vars, as_rat(s) * as_rat(t)))
    return Variety(vars, [[Leaf("origin and products", poly)]])


_H5_NAMES = ("xi1", "xi2", "xi3", "q", "p")


def hadamard_locus_5var(Pf: UniOverPoly, Qg: UniOverPoly) -> Variety:
    """Candidate singular variety in (xi1, xi2, xi3, q, p) for the Hadamard
    pairing of two germs with polynomial singular supports Pf (simple in p,
    over (xi1, q, p)) and Qg (simple in q, over (xi2, q, p)).

    Builds the denominator-cleared family W = f g, with f = Pf(xi1, q, p+z)
    and g = z^N Qg(xi2, q + xi3/z, p), then emits the leading z-coefficient,
    the constant z-coefficient, the z-discriminant of W, and the hyperplane
    {xi3 = 0}.  The z-discriminant is assembled from the discriminants of f
    and g and their resultant (``product_discriminant``); it is the same
    polynomial as the full one.  When Pf has degree 0 in p or Qg degree 0 in
    q, a factor has z-degree 0, the product formula does not hold, and the
    full z-discriminant of W is computed instead.
    """
    if Pf.var != "p" or Qg.var != "q":
        raise VariableMismatchError("expected Pf simple in 'p' and Qg simple in 'q'")
    if not is_simple(Pf):
        raise NotSimpleError("Pf is not square-free in 'p'")
    if not is_simple(Qg):
        raise NotSimpleError("Qg is not square-free in 'q'")
    ring = VariableSet(_H5_NAMES + ("z",), dof=0)
    z = MultiPoly.variable(ring, "z")
    pv = MultiPoly.variable(ring, "p")

    # Pf(xi1, q, p+z)
    f_shift = Pf.poly.rehome(ring).substitute("p", pv + z)
    # z^N Qg(xi2, q + xi3/z, p)
    g_clear = _cleared_family(Qg.coeffs, ring, "q", "xi3", "z")

    locus_vars = VariableSet(_H5_NAMES, dof=0)
    leaves = [Leaf("xi3 = 0", MultiPoly.variable(locus_vars, "xi3"))]
    leaves += _clearing_leaves(locus_vars, f_shift, g_clear)
    return Variety(locus_vars, [leaves])


def odot_locus(P: MultiPoly, i: str, j: str) -> Variety:
    """Candidate singular variety of the diagonal pairing in variables i, j:
    forms Q(z) = z^N P(..., z_i + z, ..., z_j + xi/z, ...) with the minimal
    clearing power N = deg_j(P), then emits the leading and constant
    z-coefficients and the z-discriminant."""
    if i == j:
        raise VariableMismatchError("the two pairing variables must differ")
    if P.is_zero:
        raise DegenerateError("zero polynomial")
    if "xi" in P.vars.names or "z" in P.vars.names:
        raise VariableMismatchError("helper names collide with existing variables")
    ring = VariableSet(P.vars.names + ("xi", "z"), dof=0)
    Q = _cleared_family(P.univariate_coeffs(j), ring, j, "xi", "z")
    Q = Q.substitute(i, MultiPoly.variable(ring, i) + MultiPoly.variable(ring, "z"))

    locus_vars = VariableSet(("xi",) + P.vars.names, dof=0)
    return Variety(locus_vars, [_clearing_leaves(locus_vars, Q)])


def _cleared_family(coeffs, ring: VariableSet, x: str, xi: str, z: str) -> MultiPoly:
    """z^N Q(x + xi/z) = sum_k b_k (x z + xi)^k z^(N-k) over ``ring``, for
    Q = sum_k b_k x^k of degree N given by its coefficients b_0..b_N."""
    zv = MultiPoly.variable(ring, z)
    core = MultiPoly.variable(ring, x) * zv + MultiPoly.variable(ring, xi)
    N = len(coeffs) - 1
    out = MultiPoly.zero(ring)
    for k, b in enumerate(coeffs):
        out = out + b.rehome(ring) * core.pow(k) * zv.pow(N - k)
    return out


def _clearing_leaves(locus_vars: VariableSet, f: MultiPoly, g: MultiPoly = None) -> list:
    """Leaves of a denominator-cleared family W = f (or f*g) in its clearing
    variable z: W itself if it does not involve z, else its leading and
    (nonzero) constant z-coefficients and (nonzero) z-discriminant.  When f
    and g both involve z the discriminant is assembled from them
    (``product_discriminant``); otherwise it is the full one of W."""
    W = f if g is None else f * g
    U = UniOverPoly.from_multipoly(W, "z")
    coeffs = U.coeffs
    if len(coeffs) == 1:
        return [Leaf("product", coeffs[0].rehome(locus_vars))]
    leaves = [Leaf("leading z-coefficient", coeffs[-1].rehome(locus_vars))]
    if not coeffs[0].is_zero:
        leaves.append(Leaf("constant z-coefficient", coeffs[0].rehome(locus_vars)))
    if g is not None and f.degree("z") > 0 and g.degree("z") > 0:
        disc = product_discriminant(UniOverPoly("z", f), UniOverPoly("z", g))
    else:
        disc = discriminant_locus(U)
    if not disc.is_zero:
        leaves.append(Leaf("z-discriminant", disc.rehome(locus_vars)))
    return leaves
