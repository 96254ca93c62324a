"""Standard and Moyal star products, the Moyal commutator, and the
transition operator intertwining them, for N degrees of freedom.

All three are exponentials of constant-coefficient differential operators, evaluated by one
kernel: exp(t Σ_e w_e ∂_{a_e} ⊗ ∂_{b_e}) applied to f ⊗ g and multiplied out on the common window,
in ints (f, g and the weights are scaled to integers) over one denominator, which ``_new`` divides
out.  A pairing (a_e, b_e, w_e) names the derivatives taken of f, those taken of g, and a rational
weight.  Per degree of freedom (q, p) the pairings are (∂_p ⊗ ∂_q, 1) for the standard product,
(∂_p ⊗ ∂_q, 1/2) and (∂_q ⊗ ∂_p, -1/2) for the Moyal product, and (∂_q ∂_p ⊗ 1, ∓1/2) on f and
the unit series for T^{±1}; ``borel.odot_ij`` is (∂_i ∂_j ⊗ 1, 1) on F lifted to t-degree 0.  The
sums stop at the t-cap or where a derivative vanishes, so polynomial inputs come out exact;
truncated inputs need a padded window.  The Moyal commutator is the odd orders of one pass,
[f, g]_M = (2/t) Σ_{k odd} (t/2)^k/k! Π^k(f, g), with its 2/t taken in the leaves.  The Borel
plane enters by β⁻¹ on ``_scaled``'s ints and leaves by β, in the same one division.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm

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


def _exp_pairing(f: FormalSeries, g: FormalSeries, pairings, odd=False, xi=None,
                 over_t=False) -> FormalSeries:
    """exp(t Σ_e w_e ∂_{a_e} ⊗ ∂_{b_e}) (f ⊗ g) on the common window of two
    compatible series, t distinguished, for ``pairings`` (a_e, b_e, w_e) that each
    name a derivative: every order differentiates f or g, so the orders k stop at
    K = min(t-cap, f's xy-degree + g's xy-degree).  Depth first in ints: f, g scaled
    by the lcm sf, sg of their denominators, W_e = D·w_e for D the lcm of the weights',
    order k adding k!/∏n_e!·∏W_e^(n_e) times K!/k!·D^(K-k), all over sf·sg·K!·D^K, which ``_new`` divides.
    ``odd`` keeps only the odd orders k (the even leaves skip their products); ``over_t``, 2/t of
    them (at t^(k-1), doubled, on (cap-1, dxy)); ``xi`` takes f, g in the Borel plane, returns β."""
    trunc = f.trunc.meet(g.trunc)
    cap, dxy = trunc.deg_t, trunc.deg_xy
    dt, trunc = (cap - 1, Truncation(cap - 1, dxy)) if over_t else (cap, trunc)
    (sf, F), (sg, G) = map(_scaled if xi is None else _borel_scaled, (f, g))
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
        if k % 2 or not (odd or over_t):
            c, k = coef * scale[k] << over_t, k - over_t
            _window_product(acc, {(e[0] + k,) + e[1:]: c * v for e, v in df.items()}, dg, dt, dxy)

    walk(0, F, G, 0, 1)
    den = sf * sg * scale[0]
    return f._new(trunc, acc, None, den) if xi is None else _borel_new(f, trunc, den, acc, xi)


def _borel_scaled(fhat: FormalSeries) -> tuple:
    """β⁻¹ (xi^n -> n! t^n) on fhat's ``_scaled`` ints: (s, the ints times n!), their gcd with s divided out."""
    s, nums = _scaled(fhat)
    nums = {e: c * factorial(e[0]) for e, c in nums.items()}
    d = gcd(s, *nums.values())
    return s // d, nums if d == 1 else {e: c // d for e, c in nums.items()}


def _borel_new(f: FormalSeries, trunc, den: int, nums: dict, xi: str) -> FormalSeries:
    """β (t^n -> xi^n/n!, ``xi`` distinguished) in ``_new``'s one division: N!/n!·nums over N!·den."""
    fact = factorial(max((e[0] for e in nums), default=0))
    return f._new(trunc, {e: c * (fact // factorial(e[0])) for e, c in nums.items()},
                  f.vars.renamed_distinguished(xi), den * fact)


def standard_star(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """f ⋆_S g = exp(t Σ_j ∂_{p_j} ⊗ ∂_{q_j}) (f ⊗ g)."""
    return _exp_pairing(f, g, _dof_pairings(f, g, _PAIRINGS["standard"]))


def moyal_star(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """f ⋆_M g = exp((t/2) Π) (f ⊗ g) for Π = Σ_j ∂_{p_j} ⊗ ∂_{q_j} - ∂_{q_j} ⊗ ∂_{p_j}."""
    return _exp_pairing(f, g, _dof_pairings(f, g, _PAIRINGS["moyal"]))


def star(f: FormalSeries, g: FormalSeries, kind: StarKind = STANDARD) -> FormalSeries:
    return moyal_star(f, g) if kind == MOYAL else standard_star(f, g)


def moyal_commutator(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """[f, g]_M = (f ⋆_M g - g ⋆_M f) / t = (2/t) Σ_{k odd} (t/2)^k/k! Π^k(f, g), Π antisymmetric:
    one kernel pass.  Its t^0 part is the Poisson bracket; its t-cap is one less, so 0 raises."""
    c = _exp_pairing(f, g, _dof_pairings(f, g, _PAIRINGS["moyal"]), over_t=True)
    if Truncation(c.trunc.deg_t + 1, c.trunc.deg_xy) != f.trunc.meet(g.trunc):  # quotient: (cap-1, dxy)
        raise StarBorelError("Moyal commutator not divisible by t")
    return c


def poisson_bracket(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """{f, g} = Σ_j ∂_p_j f ∂_q_j g - ∂_q_j f ∂_p_j g."""
    f._check_compatible(g)
    out = FormalSeries.zero(f.vars, f.trunc.meet(g.trunc))
    for q, p in f.vars.phase_pairs():
        out = out + f.diff(p, shrink_window=False) * g.diff(q, shrink_window=False)
        out = out - f.diff(q, shrink_window=False) * g.diff(p, shrink_window=False)
    return out


def _transition_args(f: FormalSeries, inverse: bool) -> tuple:
    """The kernel's arguments for T^{±1} f: f, the unit series and the pairings."""
    pairings = [((q, p), (), _HALF if inverse else -_HALF) for q, p in f.vars.phase_pairs()]
    return f, f._constant(1), pairings


def transition_T(f: FormalSeries, inverse: bool = False) -> FormalSeries:
    """T^{±1} f = exp(∓(t/2) Σ_j ∂_{q_j}∂_{p_j}) f, exact on the window."""
    return _exp_pairing(*_transition_args(f, inverse))
