"""Packaged verification suites behind the `verify` CLI command.

Each suite returns (ok, lines): an overall flag and a line-oriented report.
Randomized suites are deterministic for a given seed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from .borel import borel, borel_star, borel_star_standard_formula, borel_T, hadamard
from .integral import (
    eval_borel_star_rep,
    eval_formulahigh,
    eval_moyal_rep,
    eval_That_rep,
    hadamard_contour,
)
from .locus import Leaf, Variety, conv_locus, hadamard_locus_1d
from .poly import MultiPoly, UniOverPoly
from .series import FormalSeries, Truncation, VariableSet
from .star import MOYAL, STANDARD, moyal_commutator, moyal_star, standard_star, transition_T
from .verify import check_radius_vs_locus, euler_borel_coeffs, logstar_borel_coeffs

DEFAULT_SEED = 20240811


def random_series(rng: random.Random, vars: VariableSet, trunc: Truncation,
                  nterms: int = 5, max_exp: int = 3) -> FormalSeries:
    """Sparse random series with small rational coefficients."""
    terms = {}
    for _ in range(nterms):
        expo = tuple(rng.randrange(max_exp) for _ in vars.names)
        if trunc.admits(expo):
            terms[expo] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
    return FormalSeries(vars, trunc, terms)


def euler_singular_locus() -> Variety:
    """The singular sheet {xi = (1-q)(1-p)} of the Borel images of the
    Euler-type and log-log product families."""
    vars = VariableSet(("xi", "q", "p"))
    poly = MultiPoly.from_string("xi - 1 + q + p - q*p", vars)
    return Variety(vars, [[Leaf("singular point", poly)]])


def euler_product_tseries(vars: VariableSet, trunc: Truncation) -> FormalSeries:
    """Window expansion of the product of the two geometric factors under the
    standard star: sum_k k! t^k ((1-p)(1-q))^{-k-1}, realized by star-multiplying
    the truncated factors 1/(1-p) and 1/(1-q).

    The factors are padded to twice the joint-degree cap: the order-k star
    term differentiates each factor k times, so padding keeps every retained
    coefficient exact."""
    pad = Truncation(trunc.deg_t, 2 * trunc.deg_xy)
    f = FormalSeries(vars, pad,
                     {(0, 0, k): Fraction(1) for k in range(pad.deg_xy + 1)})
    g = FormalSeries(vars, pad,
                     {(0, k, 0): Fraction(1) for k in range(pad.deg_xy + 1)})
    return standard_star(f, g).truncate(trunc)


def log_tseries(vars: VariableSet, trunc: Truncation, which: str) -> FormalSeries:
    """Truncated log(1-p) (which='p') or log(1-q) (which='q')."""
    idx = 2 if which == "p" else 1
    terms = {}
    for k in range(1, trunc.deg_xy + 1):
        e = [0, 0, 0]
        e[idx] = k
        terms[tuple(e)] = Fraction(-1, k)
    return FormalSeries(vars, trunc, terms)


def _check(lines, name, ok):
    lines.append(f"{'PASS' if ok else 'FAIL'}  {name}")
    return ok


def examples_suite() -> tuple:
    """The worked examples with closed-form answers."""
    lines = []
    ok = True
    V = VariableSet.phase_space(1)
    T = Truncation(8, 8)
    S = lambda s: FormalSeries.from_string(s, V, T)

    ok &= _check(lines, "(tp) star_S (tq) = t^2 p q + t^3",
                 standard_star(S("t*p"), S("t*q")) == S("t^2*p*q + t^3"))
    ok &= _check(lines, "(tq) star_S (tp) = t^2 p q",
                 standard_star(S("t*q"), S("t*p")) == S("t^2*p*q"))
    ok &= _check(lines, "T(t^2 p q) = t^2 p q - t^3/2",
                 transition_T(S("t^2*p*q")) == S("t^2*p*q - 1/2*t^3"))
    ok &= _check(lines, "[p, q]_M = 1",
                 moyal_commutator(S("p"), S("q")) == S("1"))

    V3 = VariableSet.phase_space(3)
    T3 = Truncation(4, 4)
    ccr = True
    pairs = [[FormalSeries.variable(V3, T3, n) for n in pair] for pair in V3.phase_pairs()]
    for i, (qi, pi) in enumerate(pairs):
        for j, (qj, pj) in enumerate(pairs):
            want = FormalSeries.one(V3, T3) if i == j else FormalSeries.zero(V3, T3)
            ccr &= moyal_commutator(pi, qj) == want
            ccr &= moyal_commutator(pi, pj).is_zero
            ccr &= moyal_commutator(qi, qj).is_zero
    ok &= _check(lines, "CCR at three degrees of freedom", ccr)

    # each series's k-th coefficient times base^(k + 1 - first) is want(k);
    # log star log's factors are padded as in euler_product_tseries
    prod = euler_product_tseries(V, T)
    bprod = borel(prod)
    Tpad = Truncation(T.deg_t, 2 * T.deg_xy)
    lg = standard_star(log_tseries(V, Tpad, "p"),
                       log_tseries(V, Tpad, "q")).truncate(T)
    blg = borel(lg)
    Vx = bprod.vars
    c = S("1 - p - q + p*q")  # (1-p)(1-q)
    cx = FormalSeries.from_string("1 - p - q + p*q", Vx, T)
    closed_forms = (
        ("Euler-type product coefficients k! ((1-p)(1-q))^(-k-1)",
         prod, c, 0, factorial),
        ("Borel image is geometric in xi/((1-p)(1-q))", bprod, cx, 0, lambda k: 1),
        ("log star log coefficients (k-1)!/k ((1-p)(1-q))^(-k)",
         lg, c, 1, lambda k: Fraction(factorial(k - 1), k)),
        ("Borel image carries dilogarithm coefficients 1/k^2",
         blg, cx, 1, lambda k: Fraction(1, k * k)),
    )
    for label, series, base, first, want in closed_forms:
        parts = series.univariate_coeffs(series.vars.distinguished)
        good = len(parts) == T.deg_t + 1
        for k in range(first, len(parts)):
            good &= (base.pow(k + 1 - first) * parts[k]
                     == FormalSeries.constant(series.vars, T, want(k)))
        ok &= _check(lines, label, good)

    # pinned regression: the xi^3 coefficient of (xi p) * (xi q) is 1/3!, not 1/2!
    Tx = Truncation(6, 6)
    xp = FormalSeries.from_string("xi*p", Vx, Tx)
    xq = FormalSeries.from_string("xi*q", Vx, Tx)
    got = borel_star(xp, xq, STANDARD)
    ok &= _check(lines, "(xi p)*(xi q) has xi^3/3! (not xi^3/2!)",
                 got == FormalSeries.from_string("1/2*xi^2*p*q + 1/6*xi^3", Vx, Tx)
                 and got.coeff((3, 0, 0)) == Fraction(1, 6))

    # convolution loci of the worked rational examples at 200 random points each
    Vp = VariableSet(("z1", "z2"))
    Vbar = VariableSet(("z", "z2"))
    zbar = MultiPoly.from_string("z", Vbar)
    rng = random.Random(DEFAULT_SEED)
    rows = (
        ("convolution locus {z2 (z2 z + 1) = 0}", "z2*z1 + 1",
         lambda z, z2: z2 * (z2 * z + 1) == 0),
        ("convolution locus {z2 (z+1)(z+z2+1)(z2+1) = 0}", "z1^2 + 2*z1 + z1*z2 + z2 + 1",
         lambda z, z2: z2 * (z + 1) * (z + z2 + 1) * (z2 + 1) == 0),
    )
    for label, text, on_locus in rows:
        L = conv_locus(UniOverPoly.from_multipoly(MultiPoly.from_string(text, Vp), "z1"), zbar)
        points = [(Fraction(rng.randrange(-8, 9), rng.randrange(1, 5)),
                   Fraction(rng.randrange(-8, 9), rng.randrange(1, 5))) for _ in range(200)]
        ok &= _check(lines, label, all(L.contains_exact({"z": z, "z2": z2}) == on_locus(z, z2)
                                       for z, z2 in points))

    P3 = UniOverPoly.from_multipoly(
        MultiPoly.from_string("-z1^2 + 2*z1*z2 - z2^2 - z1 + z2", Vp), "z1")
    L3 = conv_locus(P3, MultiPoly.from_string("z2", Vbar))
    m_ok = all(L3.contains_exact({"z": Fraction(7), "z2": v}) == (v in (0, 1))
               for v in (Fraction(0), Fraction(1), Fraction(2), Fraction(-1),
                         Fraction(1, 2)))
    ok &= _check(lines, "degenerate-branch locus restricts to {z2 = 0, 1}", m_ok)

    H = hadamard_locus_1d([Fraction(1)], [Fraction(1)])
    m_ok = (H.contains_exact({"xi": 0}) and H.contains_exact({"xi": 1})
            and not H.contains_exact({"xi": 2}))
    ok &= _check(lines, "Hadamard 1d locus {0, 1}", m_ok)

    # hadamard coefficientwise: log(1-xi) squared termwise is the dilogarithm
    Vu = VariableSet(("xi",))
    Tu = Truncation(10, 0)
    lgu = FormalSeries(Vu, Tu, {(k,): Fraction(-1, k) for k in range(1, 11)})
    li2 = FormalSeries(Vu, Tu, {(k,): Fraction(1, k * k) for k in range(1, 11)})
    ok &= _check(lines, "log(1-xi) had log(1-xi) = Li2(xi)", hadamard(lgu, lgu) == li2)
    return ok, lines


def integral_reps_suite(seed: int = DEFAULT_SEED) -> tuple:
    """Random-input equivalence of every integral representation with its
    conjugation-based definition, on 50 random inputs per representation."""
    count = 50
    rng = random.Random(seed)
    lines = []
    ok = True
    Vx = VariableSet(("xi", "q", "p"), 1)
    T = Truncation(6, 5)

    def pairs(V, T, nterms, max_exp=3):
        return lambda: (random_series(rng, V, T, nterms, max_exp),
                        random_series(rng, V, T, nterms, max_exp))

    rows = (
        ("standard-star integral representation", pairs(Vx, T, 4),
         lambda a, b: eval_borel_star_rep(a, b) == borel_star(a, b, STANDARD)),
        ("Moyal-star integral representation", pairs(Vx, T, 4),
         lambda a, b: eval_moyal_rep(a, b) == borel_star(a, b, MOYAL)),
        ("transition-operator integral representation",
         lambda: (random_series(rng, Vx, T, 4),),
         lambda a: (eval_That_rep(a) == borel_T(a)
                    and eval_That_rep(a, inverse=True) == borel_T(a, inverse=True))),
        ("closed coefficient formula", pairs(Vx, T, 4),
         lambda a, b: borel_star_standard_formula(a, b) == borel_star(a, b, STANDARD)),
        ("two-dof integral representation",
         pairs(VariableSet(("xi", "q1", "q2", "p1", "p2"), 2), Truncation(5, 4), 3, 2),
         lambda a, b: eval_formulahigh(a, b) == borel_star(a, b, STANDARD)),
        ("Hadamard contour representation",
         pairs(VariableSet(("xi",)), Truncation(8, 0), 5, 9),
         lambda a, b: hadamard_contour(a, b) == hadamard(a, b)),
    )
    for label, draw, agree in rows:
        n_ok = sum(agree(*draw()) for _ in range(count))
        ok &= _check(lines, f"{label} ({n_ok}/{count})", n_ok == count)

    Vx6 = VariableSet(("xi", "q", "p"), 1)
    T6 = Truncation(6, 6)
    xp = FormalSeries.from_string("xi*p", Vx6, T6)
    xq = FormalSeries.from_string("xi*q", Vx6, T6)
    got = eval_borel_star_rep(xp, xq)
    ok &= _check(lines, "pinned regression: (xi p)*(xi q) carries xi^3/3!",
                 got.coeff((3, 0, 0)) == Fraction(1, 6))
    return ok, lines


def radius_suite(seed: int = DEFAULT_SEED) -> tuple:
    """Radius-of-convergence estimates versus the constructed singular sheet."""
    rng = random.Random(seed)
    lines = []
    ok = True
    V = euler_singular_locus()

    points = []
    while len(points) < 10:
        q = Fraction(rng.randrange(-3, 4), 10)
        p = Fraction(rng.randrange(-3, 4), 10)
        if (1 - q) * (1 - p) != 0:
            points.append({"q": q, "p": p})

    fam = lambda pt: euler_borel_coeffs(pt["q"], pt["p"], 14)
    reports = check_radius_vs_locus(fam, V, points, 1e-6, method="ratio")
    lines.extend(r.line() for r in reports)
    ok &= _check(lines, "geometric family, ratio method, tol 1e-6",
                 all(r.verdict == "pass" for r in reports))

    fam2 = lambda pt: logstar_borel_coeffs(pt["q"], pt["p"], 40)
    reports = check_radius_vs_locus(fam2, V, points, 0.1, method="ratio")
    lines.extend(r.line() for r in reports)
    ok &= _check(lines, "dilogarithm family at order 40, tol 10%",
                 all(r.verdict == "pass" for r in reports))

    shifted = Variety(V.vars, [[Leaf("shifted",
                                     V.groups[0][0].poly + MultiPoly.one(V.groups[0][0].poly.vars))]])
    reports = check_radius_vs_locus(fam, shifted, points, 1e-6, method="ratio")
    ok &= _check(lines, "negative control: shifted locus fails",
                 all(r.verdict == "fail" for r in reports))
    return ok, lines
