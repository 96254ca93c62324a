"""Standard and Moyal star products, the Moyal commutator, and the
transition operator intertwining them, for N degrees of freedom.

All three are exponentials of constant-coefficient differential operators,
evaluated by one kernel: exp(t Σ_e w_e ∂_{a_e} ⊗ ∂_{b_e}) applied to f ⊗ g
and multiplied out on the common window.  A pairing (a_e, b_e, w_e) names
the derivatives taken of f, those taken of g, and a rational weight.  Per
degree of freedom (q, p) the pairings are (∂_p ⊗ ∂_q, 1) for the standard
product, (∂_p ⊗ ∂_q, 1/2) and (∂_q ⊗ ∂_p, -1/2) for the Moyal product, and
(∂_q ∂_p ⊗ 1, ∓1/2) on f and the unit series for T^{±1}.  The diagonal
pairing ``borel.odot_ij`` is (∂_i ∂_j ⊗ 1, 1) on F lifted to t-degree 0.

The sums stop at the distinguished-degree cap or where a derivative
vanishes, so polynomial inputs come out exact.  For truncated inputs the
caller pads the window (derivatives of a truncation are only reliable below
the padded degree).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import StarBorelError, VariableMismatchError
from .series import FormalSeries, Truncation, canonical

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


def _phase_pairs(vars):
    if vars.dof < 1:
        raise VariableMismatchError("star products need a phase space with dof >= 1")
    return [(vars.q_name(j), vars.p_name(j)) for j in range(1, vars.dof + 1)]


def add_shifted(acc: dict, term: FormalSeries, k: int, coef: Fraction, trunc: Truncation):
    """acc += coef * t^k * term, termwise, keeping only the multi-indices
    inside ``trunc``."""
    dt, dxy = trunc.deg_t - k, trunc.deg_xy
    coef = canonical(coef)
    for e, c in term.terms.items():
        if e[0] <= dt and sum(e) - e[0] <= dxy:
            key = (e[0] + k,) + e[1:]
            acc[key] = acc.get(key, 0) + c * coef


def _derive(f: FormalSeries, names) -> FormalSeries:
    for name in names:
        f = f.diff(name, shrink_window=False)
    return f


def _dof_pairings(f: FormalSeries, g: FormalSeries, per_dof) -> list:
    """The pairings ``per_dof(q_j, p_j)`` of every dof j, once f and g are compatible."""
    f._check_compatible(g)
    return [e for q, p in _phase_pairs(f.vars) for e in per_dof(q, p)]


def _exp_pairing(f: FormalSeries, g: FormalSeries, pairings) -> FormalSeries:
    """exp(t Σ_e w_e ∂_{a_e} ⊗ ∂_{b_e}) (f ⊗ g) on the common window of two
    compatible series, t distinguished, for the ``pairings`` (a_e, b_e, w_e).

    Depth first over the pairings: the order-n derivatives of a pairing are
    taken from its order-(n-1) ones, with weight w^n / n!, until either
    vanishes or the total order passes the t-cap."""
    trunc = f.trunc.meet(g.trunc)
    acc = {}

    def walk(i, df, dg, k, coef):
        if i == len(pairings):
            add_shifted(acc, df * dg, k, coef, trunc)
            return
        a, b, w = pairings[i]
        n = 0
        while not (df.is_zero or dg.is_zero):
            walk(i + 1, df, dg, k + n, coef)
            n += 1
            if k + n > trunc.deg_t:
                break
            df, dg, coef = _derive(df, a), _derive(dg, b), coef * w / n

    walk(0, f, g, 0, Fraction(1))
    return f._new(trunc, acc)


def standard_star(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """f ⋆_S g = exp(t Σ_j ∂_{p_j} ⊗ ∂_{q_j}) (f ⊗ g)."""
    return _exp_pairing(f, g, _dof_pairings(f, g, _PAIRINGS["standard"]))


def moyal_star(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """f ⋆_M g = exp((t/2) Σ_j (∂_{p_j} ⊗ ∂_{q_j} - ∂_{q_j} ⊗ ∂_{p_j})) (f ⊗ g)."""
    return _exp_pairing(f, g, _dof_pairings(f, g, _PAIRINGS["moyal"]))


def star(f: FormalSeries, g: FormalSeries, kind: StarKind = STANDARD) -> FormalSeries:
    return moyal_star(f, g) if kind == MOYAL else standard_star(f, g)


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
    pairings = [((q, p), (), _HALF if inverse else -_HALF) for q, p in _phase_pairs(f.vars)]
    return _exp_pairing(f, FormalSeries.one(f.vars, f.trunc), pairings)
