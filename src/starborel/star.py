"""Standard and Moyal star products, the Moyal commutator, and the
transition operator intertwining them, for N degrees of freedom.

All three are exponentials of constant-coefficient differential operators,
evaluated by one kernel: exp(t Σ_e w_e ∂_{a_e} ⊗ ∂_{b_e}) applied to f ⊗ g
and multiplied out on the common window, in ints (f, g and the weights are
scaled to integers) with one division per output term.  A pairing
(a_e, b_e, w_e) names the derivatives taken of f, those taken of g, and a
rational weight.  Per degree of freedom (q, p) the pairings are
(∂_p ⊗ ∂_q, 1) for the standard product, (∂_p ⊗ ∂_q, 1/2) and
(∂_q ⊗ ∂_p, -1/2) for the Moyal product, and (∂_q ∂_p ⊗ 1, ∓1/2) on f and
the unit series for T^{±1}; ``borel.odot_ij`` is (∂_i ∂_j ⊗ 1, 1) on F
lifted to t-degree 0.  The sums stop at the t-cap or where a derivative
vanishes, so polynomial inputs come out exact; truncated inputs need a padded window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .errors import StarBorelError, VariableMismatchError
from .series import FormalSeries, Truncation, _derive, _scaled, _window_product

_HALF = Fraction(1, 2)

# StarKind tag -> the pairings of one degree of freedom (q, p)
_PAIRINGS = {
    "standard": lambda q, p: [((p,), (q,), Fraction(1))],
    "moyal": lambda q, p: [((p,), (q,), _HALF), ((q,), (p,), -_HALF)],
}


@dataclass(frozen=True)
class StarKind:
    tag: str

    def __post_init__(self):
        if self.tag not in _PAIRINGS:
            raise VariableMismatchError(f"unknown star kind {self.tag!r}")


STANDARD = StarKind("standard")
MOYAL = StarKind("moyal")


def _dof_pairings(f: FormalSeries, g: FormalSeries, per_dof) -> list:
    """The pairings ``per_dof(q_j, p_j)`` of every dof j, once f and g are compatible."""
    f._check_compatible(g)
    return [e for q, p in f.vars.phase_pairs() for e in per_dof(q, p)]


def _exp_pairing(f: FormalSeries, g: FormalSeries, pairings) -> FormalSeries:
    """exp(t Σ_e w_e ∂_{a_e} ⊗ ∂_{b_e}) (f ⊗ g) on the common window of two
    compatible series, t distinguished, for ``pairings`` (a_e, b_e, w_e) that each
    name a derivative: every order differentiates f or g, so the orders k stop at
    K = min(t-cap, f's xy-degree + g's xy-degree).  Depth first in ints: f, g scaled
    by the lcm sf, sg of their denominators, W_e = D·w_e for D the lcm of the weights',
    order k adding k!/∏n_e!·∏W_e^(n_e) times K!/k!·D^(K-k): one division per term, by sf·sg·K!·D^K."""
    trunc = f.trunc.meet(g.trunc)
    cap, dxy = trunc.deg_t, trunc.deg_xy
    (sf, F), (sg, G) = _scaled(f), _scaled(g)
    top = min(cap, sum(max((sum(e) - e[0] for e in h), default=0) for h in (F, G)))
    D = lcm(*(w.denominator for _, _, w in pairings))
    pairs = [([f.vars.index(n) for n in a], [f.vars.index(n) for n in b],
              w.numerator * (D // w.denominator)) for a, b, w in pairings]
    scale = [factorial(top) // factorial(k) * D ** (top - k) for k in range(top + 1)]
    acc = {}

    def walk(i, df, dg, k, coef):
        if i < len(pairs):
            a, b, W = pairs[i]
            for n in range(1, cap - k + 2):
                walk(i + 1, df, dg, k + n - 1, coef)
                if k + n > cap or not (df := _derive(df, a)) or not (dg := _derive(dg, b)):
                    return
                coef = coef * W * (k + n) // n
            return
        # the leaf: t^k ∂^a f ∂^b g on the window, times its coefficient
        c = coef * scale[k]
        _window_product(acc, {(e[0] + k,) + e[1:]: c * v for e, v in df.items()}, dg, cap, dxy)

    walk(0, F, G, 0, 1)
    den = sf * sg * scale[0]
    return f._new(trunc, {e: Fraction(c, den) if c % den else c // den for e, c in acc.items()})


def standard_star(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """f ⋆_S g = exp(t Σ_j ∂_{p_j} ⊗ ∂_{q_j}) (f ⊗ g)."""
    return _exp_pairing(f, g, _dof_pairings(f, g, _PAIRINGS["standard"]))


def moyal_star(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """f ⋆_M g = exp((t/2) Σ_j (∂_{p_j} ⊗ ∂_{q_j} - ∂_{q_j} ⊗ ∂_{p_j})) (f ⊗ g)."""
    return _exp_pairing(f, g, _dof_pairings(f, g, _PAIRINGS["moyal"]))


def star(f: FormalSeries, g: FormalSeries, kind: StarKind = STANDARD) -> FormalSeries:
    return moyal_star(f, g) if kind == MOYAL else standard_star(f, g)


def moyal_commutator(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """[f, g]_M = (f ⋆_M g - g ⋆_M f) / t; its t^0 part is the Poisson bracket.
    The result's t-cap is one below the operands', so a t-cap of 0 raises."""
    c = moyal_star(f, g) - moyal_star(g, f)
    if any(e[0] == 0 for e in c.terms):
        raise StarBorelError("Moyal commutator not divisible by t")
    trunc = Truncation(c.trunc.deg_t - 1, c.trunc.deg_xy)
    return c._new(trunc, {(e[0] - 1,) + e[1:]: v for e, v in c.terms.items()})


def poisson_bracket(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """{f, g} = Σ_j ∂_p_j f ∂_q_j g - ∂_q_j f ∂_p_j g."""
    f._check_compatible(g)
    out = FormalSeries.zero(f.vars, f.trunc.meet(g.trunc))
    for q, p in f.vars.phase_pairs():
        out = out + f.diff(p, shrink_window=False) * g.diff(q, shrink_window=False)
        out = out - f.diff(q, shrink_window=False) * g.diff(p, shrink_window=False)
    return out


def transition_T(f: FormalSeries, inverse: bool = False) -> FormalSeries:
    """T^{±1} f = exp(∓(t/2) Σ_j ∂_{q_j}∂_{p_j}) f, exact on the window."""
    pairings = [((q, p), (), _HALF if inverse else -_HALF) for q, p in f.vars.phase_pairs()]
    return _exp_pairing(f, FormalSeries.one(f.vars, f.trunc), pairings)
