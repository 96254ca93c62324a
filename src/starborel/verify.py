"""Floating-point cross-checks: radius-of-convergence estimates against the
distance to a constructed locus, and a trapezoid-quadrature check of the
contour form of the Hadamard product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import AliasingError, DegenerateError, OnVarietyError, VariableMismatchError
from .locus import Variety
from .series import FormalSeries, as_rat


@dataclass(frozen=True)
class RadiusReport:
    point: tuple
    estimate: float
    method: str
    order_used: int
    locus_distance: float
    relative_gap: float
    verdict: str

    def line(self) -> str:
        pt = "(" + ", ".join(str(v) for v in self.point) + ")"
        return (f"point={pt} estimate={self.estimate:.15g} "
                f"locus={self.locus_distance:.15g} "
                f"gap={self.relative_gap:.15g} verdict={self.verdict}")


def _unit_scale(x: Fraction) -> Fraction:
    """The power of two that brings |x| near 1; multiplying by it is exact."""
    return Fraction(2) ** (x.denominator.bit_length() - x.numerator.bit_length())


def radius_estimate(coeffs, method: str = "ratio") -> float:
    """Radius of convergence from a coefficient list a_0..a_K.

    ratio: mean of |a_k / a_{k+1}| over the last 5 consecutive nonzero pairs.
    root: |a_K|^{-1/K} at the largest nonzero index.
    Zeros are tested exactly and ratios are rounded only after scaling, so
    only a radius beyond the float range, not a coefficient, raises.
    """
    try:
        vals = [Fraction(c) for c in coeffs]
    except (ValueError, OverflowError):  # nan, inf, or a string that is no number
        raise DegenerateError("coefficients must be finite numbers") from None
    nonzero = [k for k, v in enumerate(vals) if v]
    if len(nonzero) < 8:
        raise DegenerateError("need at least 8 nonzero coefficients")
    if method not in ("ratio", "root"):
        raise DegenerateError(f"unknown method {method!r}")
    nonzero_set = set(nonzero)
    pairs = [(vals[k], vals[k + 1]) for k in nonzero if k + 1 in nonzero_set]
    if method == "ratio" and len(pairs) < 5:
        raise DegenerateError("too few consecutive nonzero pairs for the ratio method")
    try:
        if method == "root":
            a = abs(vals[nonzero[-1]])
            est = math.exp((math.log(a.denominator) - math.log(a.numerator)) / nonzero[-1])
        else:
            ratios = []
            for a, b in pairs[-5:]:
                # a power of two that brings a near 1 keeps the float(a) / float(b) rounding
                s = _unit_scale(a)
                ratios.append(abs(float(a * s) / float(b * s)))
            est = sum(ratios) / len(ratios)
    except (OverflowError, ZeroDivisionError):
        est = math.inf
    if not 0 < est < math.inf:
        raise DegenerateError("radius outside the float range")
    return est


def locus_distance_xi(V: Variety, point: dict) -> float:
    """Minimum modulus over the nonzero roots in the one unbound variable of
    every bound leaf; +inf when every bound leaf is a nonzero constant.

    The origin is excluded exactly: the germs under study are regular at 0 by
    construction, so a {xi = 0} sheet never bounds the principal disc.
    Leaves are scaled by a power of two first, so no scale moves a root."""
    import numpy as np  # on first use: importing the package does not load numpy

    free = [n for n in V.vars.names if n not in point]
    if len(free) != 1:
        raise DegenerateError(f"expected exactly one unbound variable, got {free}")
    xi = free[0]
    best = math.inf
    for leaf in V.all_leaves():
        bound = leaf.poly.evaluate_partial({k: as_rat(v) for k, v in point.items()})
        coeffs = bound.univariate_coeffs(xi)
        if not coeffs:
            raise OnVarietyError(
                f"leaf {leaf.label!r} vanishes identically at this point")
        exact = [c.coeff((0,) * len(c.vars.names)) for c in reversed(coeffs)]
        while not exact[-1]:
            exact.pop()  # a root at xi = 0, exactly
        s = _unit_scale(max(exact, key=abs))
        for root in np.roots([float(c * s) for c in exact]):
            best = min(best, abs(root))
    return best


def check_radius_vs_locus(family, V: Variety, points, tol: float,
                          method: str = "ratio") -> list:
    """For each point (bindings of all locus variables except xi) expand the
    family's xi-coefficients, estimate the radius, and compare with the
    distance to the locus.  Pass iff the relative gap is within tol and the
    estimate does not exceed the locus distance beyond tol."""
    reports = []
    for point in points:
        coeffs = family(point)
        est = radius_estimate(coeffs, method)
        dist = locus_distance_xi(V, point)
        if math.isinf(dist):
            gap = math.inf
            verdict = "fail"
        else:
            gap = abs(est - dist) / dist
            verdict = "pass" if (gap <= tol and est <= dist * (1 + tol)) else "fail"
        key = tuple(str(point[n]) for n in sorted(point))
        reports.append(RadiusReport(key, est, method, len(coeffs) - 1, dist,
                                    gap, verdict))
    return reports


def quadrature_hadamard(phi: FormalSeries, psi: FormalSeries, nodes: int) -> list:
    """Trapezoid rule on the unit circle for the contour form of the Hadamard
    product: c_n = b_n (1/N) sum_j phi(z_j) z_j^-n at z_j = e^{2 pi i j/N},
    two products with the nodes' Vandermonde matrix, for n up to the smaller
    order.  Fewer nodes than the combined degree alias and are rejected."""
    import numpy as np

    phi._check_compatible(psi)
    if not isinstance(nodes, int):
        raise DegenerateError(f"the node count must be an int, got {nodes!r}")
    xi = phi.vars.distinguished
    if any(sum(e) - e[0] for f in (phi, psi) for e in f.terms):
        raise VariableMismatchError("quadrature needs series in xi alone")
    deg = max(phi.degree(xi), 0) + max(psi.degree(xi), 0)
    if nodes <= deg:
        raise AliasingError(f"{nodes} nodes cannot resolve Fourier content up to {deg}")
    try:  # dense coefficients 0..deg_t; each xi-coefficient is a constant series
        a, b = (np.array([float(sum(c.terms.values())) for c in f.univariate_coeffs(xi)]
                         + [0.0] * (f.trunc.deg_t - f.degree(xi))) for f in (phi, psi))
    except OverflowError:
        raise DegenerateError("coefficient outside the float range") from None
    V = np.vander(np.exp(2j * np.pi * np.arange(nodes) / nodes), len(a), increasing=True)
    # V has len(a) columns, so both slices stop at the smaller order
    out = (V[:, :len(b)].conj().T @ (V @ a) / nodes * b[:len(a)]).real
    if not np.isfinite(out).all():
        raise DegenerateError("result outside the float range")
    return out.tolist()


# -- closed-form coefficient families --------------------------------------

def _family_base(q, p) -> Fraction:
    """The base c = (1-p)(1-q) of both families; it must be nonzero."""
    c = (1 - as_rat(p)) * (1 - as_rat(q))
    if c == 0:
        raise DegenerateError("degenerate point: (1-p)(1-q) = 0")
    return c


def euler_borel_coeffs(q, p, order: int) -> list:
    """xi-coefficients of the Borel image of the Euler-type product series at
    fixed (q, p): the geometric family c^{-k-1} with c = (1-p)(1-q)."""
    c = _family_base(q, p)
    return [c ** (-k - 1) for k in range(order + 1)]


def logstar_borel_coeffs(q, p, order: int) -> list:
    """xi-coefficients (constant term set to 0) of the Borel image of the
    log-log product at fixed (q, p): the dilogarithm family c^{-k}/k^2."""
    c = _family_base(q, p)
    return [Fraction(0)] + [c ** (-k) / Fraction(k * k) for k in range(1, order + 1)]
