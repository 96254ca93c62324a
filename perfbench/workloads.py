"""The three seeded workloads.

Each workload function takes the imported ``starborel`` package and a seed and returns
a fixed list of cases.  A case's ``run`` is the timed call into the public
API; ``check`` judges its output against an oracle outside the timed span
and returns None or the reason it failed; ``inp`` is the generated input as
plain data.  Calls go through module attributes at call time, so the traced
run sees the wrapped functions.  The first case of every list is cheap: it
is the set-up warm-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from fractions import Fraction

import oracle


class Case:
    __slots__ = ("name", "run", "check", "inp")

    def __init__(self, name, run, check, inp):
        self.name = name
        self.run = run
        self.check = check
        self.inp = inp


def plain(x):
    """Output as plain comparable data, to compare passes with each other."""
    if hasattr(x, "groups"):  # Variety
        return [[(leaf.label, dict(leaf.poly.terms)) for leaf in g] for g in x.groups]
    if hasattr(x, "terms"):
        return dict(x.terms)
    if hasattr(x, "coeffs") and hasattr(x, "var"):  # UniOverPoly
        return [dict(b.terms) for b in x.coeffs]
    if isinstance(x, (tuple, list)):
        return tuple(plain(v) for v in x)
    return x


def _coef(rng, top=9):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, 4))


def _rat(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 5))


def _expect(got, want, what):
    return None if got == want else f"{what} differs from the oracle"


# -- star-window --------------------------------------------------------------

# (dof, window K, terms per factor, joint (q, p)-degree cap of the factors)
STAR_CONFIGS = ((1, 8, 8, 4), (1, 12, 10, 6), (1, 16, 12, 8),
                (2, 8, 8, 4), (2, 9, 8, 4), (2, 10, 8, 5), (3, 6, 6, 3))
STAR_PAIRS = 3
EULER_WINDOWS = (8, 10)


def _star_poly(rng, support, dof, nterms, max_xy):
    """nterms distinct monomials, t-degree <= 2, joint (q, p)-degree between
    max_xy / 2 and max_xy.  The support comes from its own generator, named
    after the case and not after the seed, so that the cost of a case hardly
    depends on the seed; ``rng`` draws the coefficients."""
    shape = random.Random(support)
    expos = set()
    while len(expos) < nterms:
        expo = [0] * (2 * dof)
        for _ in range(shape.randint(max_xy // 2, max_xy)):
            expo[shape.randrange(2 * dof)] += 1
        expos.add((shape.randint(0, 2),) + tuple(expo))
    return {e: _coef(rng) for e in sorted(expos)}


def star_window(sb, seed):
    rng = random.Random(seed)
    cases = []
    for dof, K, nterms, max_xy in STAR_CONFIGS:
        V = sb.VariableSet.phase_space(dof)
        Vx = sb.VariableSet.phase_space(dof, "xi")
        W = sb.Truncation(K, K)
        for i in range(STAR_PAIRS):
            tag = f"dof{dof}/K{K}/{i}"
            f = _star_poly(rng, tag + "/f", dof, nterms, max_xy)
            g = _star_poly(rng, tag + "/g", dof, nterms, max_xy)
            cases.extend(_star_cases(sb, tag, dof, K, V, Vx, W, f, g))
    for K in EULER_WINDOWS:
        cases.append(_euler_case(sb, K))
    return cases


def _star_cases(sb, tag, dof, K, V, Vx, W, f, g):
    F, G = sb.FormalSeries(V, W, f), sb.FormalSeries(V, W, g)
    Fx, Gx = sb.FormalSeries(Vx, W, f), sb.FormalSeries(Vx, W, g)
    star = lambda a, b, moyal: oracle.star(a, b, dof, K, K, moyal)
    inp = (f, g)

    def check_commutator(out):
        # (f *M g - g *M f) / t on the window (K - 1, K)
        diff = oracle.sub(star(f, g, True), star(g, f, True))
        want = oracle.clip({(e[0] - 1,) + e[1:]: c for e, c in diff.items()}, K - 1, K)
        t0 = {e: c for e, c in out.terms.items() if e[0] == 0}
        pb = {e: c for e, c in sb.poisson_bracket(F, G).terms.items() if e[0] == 0}
        return _expect(out.terms, want, "commutator") or _expect(t0, pb, "t^0 part vs Poisson")

    def check_transition(out):
        Tf, back = out
        want = oracle.transition(f, dof, K, K)
        return _expect(Tf.terms, want, "T f") or _expect(back.terms, f, "T^-1 T f")

    def check_borel(moyal):
        def check(out):
            want = oracle.borel(star(oracle.inverse_borel(f), oracle.inverse_borel(g), moyal))
            bad = _expect(out.terms, want, "Borel star")
            if not bad and not moyal and dof == 1:
                formula = sb.borel_star_standard_formula(Fx, Gx)
                bad = _expect(out.terms, formula.terms, "closed formula")
            return bad
        return check

    return [
        Case(f"standard/{tag}", lambda: sb.standard_star(F, G),
             lambda out: _expect(out.terms, star(f, g, False), "standard star"), inp),
        Case(f"moyal/{tag}", lambda: sb.moyal_star(F, G),
             lambda out: _expect(out.terms, star(f, g, True), "Moyal star"), inp),
        Case(f"transition/{tag}",
             lambda: (lambda Tf: (Tf, sb.transition_T(Tf, inverse=True)))(sb.transition_T(F)),
             check_transition, inp),
        Case(f"commutator/{tag}", lambda: sb.moyal_commutator(F, G), check_commutator, inp),
        Case(f"borel-standard/{tag}", lambda: sb.borel_star(Fx, Gx, sb.STANDARD),
             check_borel(False), inp),
        Case(f"borel-moyal/{tag}", lambda: sb.borel_star(Fx, Gx, sb.MOYAL),
             check_borel(True), inp),
    ]


def _euler_case(sb, K):
    V = sb.VariableSet.phase_space(1)
    W = sb.Truncation(K, K)
    return Case(f"euler/K{K}", lambda: sb.suites.euler_product_tseries(V, W),
                lambda out: _expect(out.terms, oracle.euler_tseries(K, K), "Euler product"),
                K)


# -- locus-build --------------------------------------------------------------

XYZ = ("x", "y", "z")
CALCULUS_CASES = 8     # of each of gcd, simple, resultant
CONV_CASES = 6
ODOT_CASES = 4
# support of the degree-2 polynomial paired in (z1, z2); deg_z2 = 2
ODOT_SHAPE = ((0, 2, 0), (1, 0, 1), (1, 0, 0), (0, 1, 1), (0, 0, 1), (0, 0, 0))
# Hadamard families: Pf over (xi1, q, p) linear in p and xi1, Qg over
# (xi2, q, p) linear in xi2; "a".."f" are seeded positive integers.  The
# first four are quadratic in the clearing variable z, the last two cubic,
# like the 5-variable worked example whose z-discriminant has 2709 terms.
H5_FAMILIES = (
    ("lin", "a - xi1 - b*q - p", "c - xi2 - q - d*p"),
    ("lin", "a - xi1 - b*q - p", "c - xi2 - q - d*p"),
    ("bilin", "a - xi1 - b*q - p - e*q*p", "c - xi2 - q - d*p - f*q*p"),
    ("bilin", "a - xi1 - b*q - p - e*q*p", "c - xi2 - q - d*p - f*q*p"),
    ("cubic", "a - xi1 - b*p", "c - xi2 - d*q^2"),
    ("cubic", "a - xi1 - b*p", "c - xi2 - d*q^2"),
)


# Factor supports in (x, y, z) for the gcd, square-free and resultant cases,
# two shapes alternating; each has a lone top x-power, so its content in x
# is 1 and its square-free part has no stray factor.  Only the coefficients
# are drawn from the seed, so the cost of a case hardly depends on it.
FACTOR_SHAPES = (
    (((2, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 1), (0, 0, 0)),
     ((1, 0, 0), (0, 2, 0), (0, 0, 1), (0, 0, 0)),
     ((1, 0, 0), (0, 1, 0), (0, 0, 2), (0, 0, 0))),
    (((1, 0, 0), (0, 1, 1), (0, 1, 0), (0, 0, 0)),
     ((2, 0, 0), (1, 0, 1), (0, 2, 0), (0, 0, 0)),
     ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))),
)


def _factor(rng, shape):
    terms = {e: _coef(rng, 5) for e in shape[1:]}
    terms[shape[0]] = Fraction(rng.randint(1, 5))
    return terms


def _mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _evaluate(terms, point):
    return sum(c * math.prod(v ** k for v, k in zip(point, e)) for e, c in terms.items())


def _sympy_check(names, got, want_fn, relation):
    import sympy
    want = oracle.from_sympy(want_fn(sympy), names)
    if relation == "sign":
        ok = got == want or got == {e: -c for e, c in want.items()}
    else:
        ok = oracle.proportional(got, want)
    return None if ok else f"differs from sympy beyond {relation}"


def locus_build(sb, seed):
    rng = random.Random(seed)
    V3 = sb.VariableSet(XYZ)
    cases = []
    for i in range(CALCULUS_CASES):
        a, b, c = (_factor(rng, shape) for shape in FACTOR_SHAPES[i % 2])
        cases.extend(_calculus_cases(sb, i, V3, a, b, c))
    for i in range(CONV_CASES):
        cases.append(_conv_case(sb, rng, i))
    for i in range(ODOT_CASES):
        cases.append(_odot_case(sb, rng, i))
    for i, (name, pf, qg) in enumerate(H5_FAMILIES):
        cases.append(_h5_case(sb, rng, f"{name}/{i}", pf, qg))
    return cases


def _calculus_cases(sb, i, V3, a, b, c):
    MP, U = sb.MultiPoly, sb.UniOverPoly
    ac, bc, ccb = _mul(a, c), _mul(b, c), _mul(_mul(c, c), b)
    A, B = MP(V3, ac), MP(V3, bc)
    Pa, Pb = U.from_multipoly(A, "x"), U.from_multipoly(MP(V3, b), "x")
    Ps = U.from_multipoly(MP(V3, ccb), "x")
    ex = lambda t: oracle.to_sympy(t, XYZ)
    return [
        Case(f"gcd/{i}", lambda: sb.mp_gcd(A, B),
             lambda out: _sympy_check(XYZ, out.terms, lambda s: s.gcd(ex(ac), ex(bc)),
                                      "a constant"), (ac, bc)),
        Case(f"simple/{i}", lambda: sb.simple_decompose(Ps),
             lambda out: _sympy_check(XYZ, out.to_multipoly().terms,
                                      lambda s: s.sqf_part(ex(ccb)), "a constant"), ccb),
        Case(f"resultant/{i}", lambda: sb.sylvester_resultant(Pa, Pb),
             lambda out: _sympy_check(XYZ, out.terms,
                                      lambda s: s.resultant(ex(ac), ex(b), s.Symbol("x")),
                                      "sign"), (ac, b)),
    ]


def _members(build, points):
    """A case that builds a locus and tests membership of the points."""
    def run():
        L = build()
        return L, [L.contains_exact(p) for p in points]
    return run


def _check_locus(want):
    """All constructed points inside, and the discriminant leaf equal to
    sympy's resultant of the clearing family with its derivative, up to sign."""
    def check(out):
        L, inside = out
        if not all(inside):
            return f"constructed points outside the locus: {inside}"
        leaves = [leaf.poly for leaf in L.all_leaves() if "discriminant" in leaf.label]
        if len(leaves) != 1:
            return "no discriminant leaf"
        return _sympy_check(leaves[0].vars.names, leaves[0].terms, want, "sign")
    return check


def _conv_case(sb, rng, i):
    """P = a(z1) + z2 b(z1) with deg a = 3, deg b = 2, endpoint Pbar = c z."""
    a = [_coef(rng, 5) for _ in range(4)]
    b = [_coef(rng, 5) for _ in range(3)]
    c = _coef(rng, 5)
    P = {(k, 0): v for k, v in enumerate(a)}
    P.update({(k, 1): v for k, v in enumerate(b)})
    Vp, Vbar = sb.VariableSet(("z1", "z2")), sb.VariableSet(("z", "z2"))
    points = []
    while len(points) < 3:
        z = _rat(rng)
        bz = sum(v * (c * z) ** k for k, v in enumerate(b))
        if bz:
            az = sum(v * (c * z) ** k for k, v in enumerate(a))
            points.append({"z2": -az / bz, "z": z})
    build = lambda: sb.conv_locus(sb.UniOverPoly.from_multipoly(sb.MultiPoly(Vp, P), "z1"),
                                  sb.MultiPoly(Vbar, {(1, 0): c}))
    def want(s):
        P_, z1 = oracle.to_sympy(P, ("z1", "z2")), s.Symbol("z1")
        return s.resultant(P_, s.diff(P_, z1), z1)
    return Case(f"conv/{i}", _members(build, points), _check_locus(want),
                (P, c))


def _odot_case(sb, rng, i):
    """Degree-2 P in (z1, z2, z3) paired in z1, z2; points with xi = 0 lie on
    the constant z-coefficient leaf b_N(z1, z3) xi^N."""
    names = ("z1", "z2", "z3")
    P = {e: _coef(rng, 5) for e in ODOT_SHAPE}
    points = [{"xi": Fraction(0), "z1": _rat(rng), "z2": _rat(rng), "z3": _rat(rng)}
              for _ in range(3)]
    V = sb.VariableSet(names)
    build = lambda: sb.odot_locus(sb.MultiPoly(V, P), "z1", "z2")

    def want(s):
        z1, z2, z, xi = s.symbols("z1 z2 z xi")
        Q = s.expand(z ** 2 * oracle.to_sympy(P, names).subs({z1: z1 + z, z2: z2 + xi / z},
                                                             simultaneous=True))
        return s.resultant(Q, s.diff(Q, z), z)
    return Case(f"odot/{i}", _members(build, points),
                _check_locus(want), P)


def _h5_case(sb, rng, family, pf_text, qg_text):
    vals = {k: rng.randint(1, 5) for k in "abcdef"}
    fill = lambda text: "".join(str(vals[ch]) if ch in vals else ch for ch in text)
    pf = _parse(fill(pf_text), ("xi1", "q", "p"))
    qg = _parse(fill(qg_text), ("xi2", "q", "p"))
    Vf, Vg = sb.VariableSet(("xi1", "q", "p")), sb.VariableSet(("xi2", "q", "p"))
    build = lambda: sb.hadamard_locus_5var(
        sb.UniOverPoly.from_multipoly(sb.MultiPoly(Vf, pf), "p"),
        sb.UniOverPoly.from_multipoly(sb.MultiPoly(Vg, qg), "q"))

    def check(out):
        L, inside = out
        return None if all(inside) else f"constructed points outside the locus: {inside}"
    return Case(f"hadamard5/{family}", _members(build, _h5_points(rng, pf, qg)), check,
                (pf, qg))


def _parse(text, names):
    """Parse the package's text grammar (rational-coefficient monomials
    joined by + and -, e.g. '1/2*xi^2*p - 3*q^2') into a term dict."""
    terms = {}
    for sign, body in re.findall(r"([+-]?)([^+-]+)", re.sub(r"\s+", "", text)):
        coef, expo = Fraction(-1 if sign == "-" else 1), [0] * len(names)
        for factor in body.split("*"):
            if factor[0].isdigit():
                coef *= Fraction(factor)
            else:
                name, _, power = factor.partition("^")
                expo[names.index(name)] += int(power or 1)
        terms[tuple(expo)] = terms.get(tuple(expo), 0) + coef
    return {e: c for e, c in terms.items() if c}


def _text(terms, names):
    """Input text for the CLI, in the package's grammar."""
    return " + ".join("*".join([str(c)] + [f"{n}^{k}" for n, k in zip(names, e) if k])
                      for e, c in terms.items())


def _h5_points(rng, pf, qg):
    """Points on the leaves of hadamard_locus_5var built from the clearing
    family W(z) = Pf(xi1, q, p+z) z^N Qg(xi2, q + xi3/z, p), with Pf linear in
    p and Pf = alpha - xi1, Qg = gamma - xi2:
    xi3 = 0; Qg(xi2, q, p) = 0 (leading z-coefficient); Pf(xi1, q, p) = 0
    (constant z-coefficient); and a common root z0 of both factors, which is
    a double root of W (z-discriminant)."""
    dp = {(e[0], e[1], e[2] - 1): c * e[2] for e, c in pf.items() if e[2]}
    while True:
        xi1, xi2, xi3, q, p, r = (_rat(rng) for _ in range(6))
        slope = _evaluate(dp, (xi1, q, p))
        if slope and _evaluate(pf, (xi1, q, p)):
            break
    z0 = -_evaluate(pf, (xi1, q, p)) / slope
    alpha = _evaluate(pf, (0, q, p))
    gamma = lambda qq: _evaluate(qg, (0, qq, p))
    return [
        {"xi1": xi1, "xi2": xi2, "xi3": Fraction(0), "q": q, "p": p},
        {"xi1": xi1, "xi2": gamma(q), "xi3": xi3, "q": q, "p": p},
        {"xi1": alpha, "xi2": xi2, "xi3": xi3, "q": q, "p": p},
        {"xi1": xi1, "xi2": gamma(r), "xi3": (r - q) * z0, "q": q, "p": p},
    ]


# -- verify-suites ------------------------------------------------------------

# The README's CLI lines; the first six document their output, the other four
# are pinned to hand-checked answers: the odot series of z1*z2, the
# square-free part of (z1 - z2)^2, res_z1(z1^2 - z2, 2 z1) = -4 z2, and the
# locus {z2 (z2 z + 1) = 0} from the worked examples.
README_CLI = (
    (["star", "t*p", "t*q"], "t^2*p*q + t^3\n"),
    (["star", "--kind", "moyal", "p", "q"], "p*q + 1/2*t\n"),
    (["borel", "t^3*p"], "1/6*xi^3*p\n"),
    (["borel-star", "--kind", "moyal", "xi*p", "xi*q"], "1/2*xi^2*p*q + 1/12*xi^3\n"),
    (["transition", "t^2*p*q"], "t^2*p*q - 1/2*t^3\n"),
    (["hadamard", "xi + xi^2", "xi"], "xi\n"),
    (["odot", "--i", "z1", "--j", "z2", "--vars", "u,z1,z2", "z1*z2"], "z1*z2 + xi\n"),
    (["simple-poly", "--var", "z1", "--vars", "z1,z2", "z1^2 - 2*z1*z2 + z2^2"],
     "z1 - z2\n"),
    (["resultant", "--var", "z1", "--vars", "z1,z2", "z1^2 - z2", "2*z1"], "-4*z2\n"),
    (["locus", "conv", "--vars", "z1,z2", "--bar-vars", "z,z2", "z2*z1 + 1", "z"],
     'intersect {\n  union {\n    cond "leading coefficient": z2\n'
     '    cond "discriminant": z2\n    cond "endpoint": z2*z + 1\n  }\n}\n'),
)
QUAD_CASES = 10
CLI_VARIANTS = 1      # seeded inputs per command shape in _cli_variants
# Further seeded `star --kind moyal` calls on one larger support: a block of
# cases of nearly equal cost, a few ms each, in the middle of the case times,
# so that case_ms.p50 is the middle of that block and not a point on a steep
# slope between sub-ms calls of different shapes.
MOYAL_CLI_CASES = 12
QUAD_ORDER = 40
QUAD_NODES = 96


def _cli(sb, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sb.cli.main(list(argv))
    return code, buf.getvalue()


def _check_cli(want):
    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        return want(text)
    return check


def verify_suites(sb, seed):
    rng = random.Random(seed)
    cases = [Case("cli/" + argv[0], lambda a=argv: _cli(sb, a),
                  _check_cli(lambda text, w=want: None if text == w else f"printed {text!r}"),
                  argv) for argv, want in README_CLI]
    last_line = lambda suite: lambda text: (
        None if text.splitlines()[-1] == f"{suite}: OK" else "suite not OK")
    radius_ok = lambda text: None if json.loads(text)["ok"] else "suite not OK"
    suites = (
        (["verify", "examples"], last_line("examples")),
        (["verify", "integral-reps", "--seed", str(rng.randrange(1, 2 ** 31))],
         last_line("integral-reps")),
        (["verify", "radius", "--seed", str(rng.randrange(1, 2 ** 31)), "--json"], radius_ok),
    )
    for argv, want in suites:
        cases.append(Case("suite/" + argv[1], lambda a=argv: _cli(sb, a),
                          _check_cli(want), argv))
    for i in range(CLI_VARIANTS):
        cases.extend(_cli_variants(sb, rng, i, f"cli/{i}"))
    for i in range(MOYAL_CLI_CASES):
        cases.append(_cli_variants(sb, rng, f"moyal/{i}", "cli/moyal", 6, 5)[1])
    Vu = sb.VariableSet(("xi",))
    W = sb.Truncation(QUAD_ORDER, 0)
    for i in range(QUAD_CASES):
        a = {(k,): _coef(rng) for k in range(QUAD_ORDER + 1)}
        b = {(k,): _coef(rng) for k in range(QUAD_ORDER + 1)}
        phi, psi = sb.FormalSeries(Vu, W, a), sb.FormalSeries(Vu, W, b)
        cases.append(Case(f"quadrature/{i}",
                          lambda phi=phi, psi=psi: sb.quadrature_hadamard(phi, psi, QUAD_NODES),
                          _check_quadrature(a, b), (a, b)))
    return cases


def _cli_variants(sb, rng, tag, support, nterms=3, max_xy=3):
    """The README's series commands on seeded inputs, at the default window
    (8, 8) and one degree of freedom; outputs are parsed and compared with
    the oracle."""
    T, X, U = ("t", "q", "p"), ("xi", "q", "p"), ("xi",)
    f, g = (_star_poly(rng, f"{support}/{r}", 1, nterms, max_xy) for r in "fg")
    star = lambda a, b, moyal: oracle.star(a, b, 1, 8, 8, moyal)
    u = {(k,): _coef(rng) for k in (0, 2, 3, 5)}
    v = {(k,): _coef(rng) for k in (1, 2, 3, 4)}
    # "--" ends the options: an argument may start with a minus sign
    shapes = (
        (["star", "--", _text(f, T), _text(g, T)], T, star(f, g, False)),
        (["star", "--kind", "moyal", "--", _text(f, T), _text(g, T)], T, star(f, g, True)),
        (["borel", "--", _text(f, T)], X, oracle.borel(f)),
        (["borel-star", "--kind", "moyal", "--", _text(f, X), _text(g, X)], X,
         oracle.borel(star(oracle.inverse_borel(f), oracle.inverse_borel(g), True))),
        (["transition", "--", _text(f, T)], T, oracle.transition(f, 1, 8, 8)),
        (["hadamard", "--", _text(u, U), _text(v, U)], U,
         {e: c * v[e] for e, c in u.items() if e in v}),
    )
    return [Case(f"cli-seeded/{argv[0]}/{tag}", lambda a=argv: _cli(sb, a),
                 _check_cli(_parsed(names, want, argv[0])), argv)
            for argv, names, want in shapes]


def _parsed(names, want, what):
    return lambda text: _expect(_parse(text, names), want, what)


def _check_quadrature(a, b):
    """Coefficient n of the Hadamard product is a_n b_n; the trapezoid sum is
    exact up to rounding of sum |a_k| |b_n|."""
    scale = float(sum(abs(c) for c in a.values()))

    def check(out):
        for n, got in enumerate(out):
            want = float(a[(n,)] * b[(n,)])
            if abs(got - want) > 1e-12 * scale * abs(float(b[(n,)])) + 1e-300:
                return f"coefficient {n}: {got} vs {want}"
        return None
    return check


WORKLOADS = {
    "star-window": star_window,
    "locus-build": locus_build,
    "verify-suites": verify_suites,
}
