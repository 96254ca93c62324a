"""Standard and Moyal star products, the Moyal commutator, and the
transition operator intertwining them, for N degrees of freedom.

The exponential bidifferential operators are evaluated as finite sums: the
summation order is bounded by the distinguished-degree cap and by the actual
(q, p)-degrees of the inputs, so polynomial inputs come out exact.  For
truncated inputs the caller is responsible for padding the window (derivatives
of a truncation are only reliable below the padded degree).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial

from .errors import StarBorelError, VariableMismatchError
from .series import FormalSeries, Truncation

_ZERO = Fraction(0)


@dataclass(frozen=True)
class StarKind:
    tag: str

    def __post_init__(self):
        if self.tag not in ("standard", "moyal"):
            raise VariableMismatchError(f"unknown star kind {self.tag!r}")


STANDARD = StarKind("standard")
MOYAL = StarKind("moyal")


def _phase_pairs(vars):
    if vars.dof < 1:
        raise VariableMismatchError("star products need a phase space with dof >= 1")
    return [(vars.q_name(j), vars.p_name(j)) for j in range(1, vars.dof + 1)]


def add_shifted(acc: dict, term: FormalSeries, k: int, coef: Fraction, trunc: Truncation):
    """acc += coef * t^k * term, termwise, keeping only the multi-indices
    inside ``trunc``."""
    dt, dxy = trunc.deg_t - k, trunc.deg_xy
    for e, c in term.terms.items():
        if e[0] <= dt and sum(e) - e[0] <= dxy:
            key = (e[0] + k,) + e[1:]
            acc[key] = acc.get(key, _ZERO) + c * coef


def _diff_multi(f: FormalSeries, names, orders) -> FormalSeries:
    for name, k in zip(names, orders):
        if k:
            f = f.diff(name, k, shrink_window=False)
            if f.is_zero:
                break
    return f


def standard_star(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """f ⋆_S g = sum over k-vectors of t^|k|/∏k_j! (∂_p^k f)(∂_q^k g)."""
    f._check_compatible(g)
    vars = f.vars
    pairs = _phase_pairs(vars)
    trunc = f.trunc.meet(g.trunc)
    ranges = [range(min(f.degree(p), g.degree(q)) + 1) for q, p in pairs]
    acc = {}
    for kvec in product(*ranges):
        k = sum(kvec)
        if k > trunc.deg_t:
            continue
        df = _diff_multi(f, [p for q, p in pairs], kvec)
        if df.is_zero:
            continue
        dg = _diff_multi(g, [q for q, p in pairs], kvec)
        if dg.is_zero:
            continue
        coef = Fraction(1)
        for kj in kvec:
            coef /= factorial(kj)
        add_shifted(acc, df * dg, k, coef, trunc)
    return FormalSeries(vars, trunc, acc)


def moyal_star(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """f ⋆_M g from the exponential of the antisymmetric bidifferential operator.

    Expanded multinomially: the order-k term carries, for each pair of
    count vectors (m, n) with |m| + |n| = k,
    (-1)^|n| / (2^k ∏ m_j! n_j!) (∂_p^m ∂_q^n f)(∂_q^m ∂_p^n g) t^k.
    """
    f._check_compatible(g)
    vars = f.vars
    pairs = _phase_pairs(vars)
    trunc = f.trunc.meet(g.trunc)
    m_ranges = [range(min(f.degree(p), g.degree(q)) + 1) for q, p in pairs]
    n_ranges = [range(min(f.degree(q), g.degree(p)) + 1) for q, p in pairs]
    qn = [q for q, p in pairs]
    pn = [p for q, p in pairs]
    acc = {}
    for mvec in product(*m_ranges):
        for nvec in product(*n_ranges):
            k = sum(mvec) + sum(nvec)
            if k > trunc.deg_t:
                continue
            df = _diff_multi(_diff_multi(f, pn, mvec), qn, nvec)
            if df.is_zero:
                continue
            dg = _diff_multi(_diff_multi(g, qn, mvec), pn, nvec)
            if dg.is_zero:
                continue
            coef = Fraction((-1) ** sum(nvec), 2 ** k)
            for mj, nj in zip(mvec, nvec):
                coef /= factorial(mj) * factorial(nj)
            add_shifted(acc, df * dg, k, coef, trunc)
    return FormalSeries(vars, trunc, acc)


def star(f: FormalSeries, g: FormalSeries, kind: StarKind = STANDARD) -> FormalSeries:
    return moyal_star(f, g) if kind.tag == "moyal" else standard_star(f, g)


def moyal_commutator(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """[f, g]_M = (f ⋆_M g - g ⋆_M f) / t; its t^0 part is the Poisson bracket."""
    c = moyal_star(f, g) - moyal_star(g, f)
    if any(e[0] == 0 for e in c.terms):
        raise StarBorelError("Moyal commutator not divisible by t")
    trunc = Truncation(max(c.trunc.deg_t - 1, 0), c.trunc.deg_xy)
    return FormalSeries(c.vars, trunc, {(e[0] - 1,) + e[1:]: v for e, v in c.terms.items()})


def poisson_bracket(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """{f, g} = Σ_j ∂_p_j f ∂_q_j g - ∂_q_j f ∂_p_j g."""
    f._check_compatible(g)
    out = FormalSeries.zero(f.vars, f.trunc.meet(g.trunc))
    for q, p in _phase_pairs(f.vars):
        out = out + f.diff(p, shrink_window=False) * g.diff(q, shrink_window=False)
        out = out - f.diff(q, shrink_window=False) * g.diff(p, shrink_window=False)
    return out


def transition_T(f: FormalSeries, inverse: bool = False) -> FormalSeries:
    """T^{±1} f = exp(∓(t/2) Σ_j ∂_{q_j}∂_{p_j}) f, exact on the window."""
    pairs = _phase_pairs(f.vars)
    trunc = f.trunc
    half = Fraction(1, 2) if inverse else Fraction(-1, 2)
    acc = {}
    h = f
    j = 0
    while not h.is_zero and j <= trunc.deg_t:
        add_shifted(acc, h, j, half ** j / factorial(j), trunc)
        nxt = FormalSeries.zero(f.vars, trunc)
        for q, p in pairs:
            nxt = nxt + h.diff(q, shrink_window=False).diff(p, shrink_window=False)
        h = nxt
        j += 1
    return FormalSeries(f.vars, trunc, acc)
