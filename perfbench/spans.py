"""Traced run: wrap the package's public functions from the outside, record
one span per call, and derive the per-layer metrics from the spans.

The program itself is not changed.  Each traced function is rebound in every
``starborel`` module namespace that binds it (``from .x import y`` makes a
second binding), and methods are replaced on their class, so calls made
inside the package are seen too.  Sizes are read from each call's arguments
and return value after the span has ended, so reading them is charged to the
parent span, as part of the tracing overhead.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _terms(x):
    return len(x.terms) if hasattr(x, "terms") else 0


def _io(args, out):
    return sum(_terms(a) for a in args), _terms(out), None


def _windowed(args, out):
    return sum(_terms(a) for a in args), _terms(out), (out.trunc.deg_t, out.trunc.deg_xy)


def _resultant(args, out):
    P, Q = args[0], args[1]
    tin = sum(_terms(b) for b in P.coeffs + Q.coeffs)
    coeffs = out.terms.values()
    num = max((abs(c.numerator).bit_length() for c in coeffs), default=0)
    den = max((c.denominator.bit_length() for c in coeffs), default=0)
    return tin, _terms(out), (P.degree + Q.degree, num, den)


def _locus(args, out):
    leaves = [_terms(leaf.poly) for leaf in out.all_leaves()]
    return sum(_terms(a) for a in args), max(leaves, default=0), None


# span name, module, attribute (Class.method for methods), size reader
TRACED = (
    ("series.mul", "series", "FormalSeries.__mul__", _windowed),
    ("series.diff", "series", "FormalSeries.diff", None),
    ("series.substitute", "series", "FormalSeries.substitute", None),
    ("series.parse", "series", "parse_terms", None),
    ("star.standard", "star", "standard_star", _windowed),
    ("star.moyal", "star", "moyal_star", _windowed),
    ("star.transition", "star", "transition_T", _windowed),
    ("star.commutator", "star", "moyal_commutator", _windowed),
    ("borel.conj", "borel", "borel_star", _windowed),
    ("borel.conj_T", "borel", "borel_T", None),
    ("borel.formula", "borel", "borel_star_standard_formula", None),
    ("borel.hadamard", "borel", "hadamard", None),
    ("borel.odot", "borel", "odot_ij", None),
    ("integral.eval_borel_star_rep", "integral", "eval_borel_star_rep", None),
    ("integral.eval_moyal_rep", "integral", "eval_moyal_rep", None),
    ("integral.eval_That_rep", "integral", "eval_That_rep", None),
    ("integral.eval_formulahigh", "integral", "eval_formulahigh", None),
    ("integral.hadamard_contour", "integral", "hadamard_contour", None),
    ("poly.mul", "poly", "MultiPoly.__mul__", _io),
    ("poly.divexact", "poly", "mp_divexact", _io),
    ("poly.gcd", "poly", "mp_gcd", _io),
    ("poly.simple", "poly", "simple_decompose", None),
    ("poly.resultant", "poly", "sylvester_resultant", _resultant),
    ("poly.discriminant", "poly", "discriminant_locus", None),
    ("locus.conv", "locus", "conv_locus", _locus),
    ("locus.hadamard5", "locus", "hadamard_locus_5var", _locus),
    ("locus.odot", "locus", "odot_locus", _locus),
    ("locus.contains", "locus", "Variety.contains_exact", None),
    ("verify.radius", "verify", "radius_estimate", None),
    ("verify.distance", "verify", "locus_distance_xi", None),
    ("verify.quadrature", "verify", "quadrature_hadamard", None),
    ("suites.examples", "suites", "examples_suite", None),
    ("suites.integral_reps", "suites", "integral_reps_suite", None),
    ("suites.radius", "suites", "radius_suite", None),
    ("cli.main", "cli", "main", None),
)
CASE = len(TRACED)  # name index of the benchmark's root span around each case
NAMES = [t[0] for t in TRACED] + ["case"]
EVALUATORS = {NAMES.index(n) for n in ("integral.eval_borel_star_rep", "integral.eval_moyal_rep",
                                       "integral.eval_That_rep", "integral.eval_formulahigh")}
CONJUGATIONS = {NAMES.index("borel.conj"), NAMES.index("borel.conj_T")}


def rebind(orig, new):
    """Replace ``orig`` by ``new`` in every starborel module namespace that
    binds it; returns the (namespace, name) pairs changed."""
    changed = []
    for name, mod in list(sys.modules.items()):
        if name == "starborel" or name.startswith("starborel."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    changed.append((mod, key))
    return changed


class Tracer:
    """Span recorder.  A span is [name index, start, end, parent span index
    (-1 at the root), (pass, case) id, sizes]; spans stay in memory until
    ``write``."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.case = None
        self.missing = []
        self._undo = []

    def _record(self, idx, fn, args, kwargs, sizer):
        spans, stack = self.spans, self.stack
        me = len(spans)
        span = [idx, 0.0, 0.0, stack[-1], self.case, None]
        spans.append(span)
        stack.append(me)
        span[1] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()
        if sizer is not None:
            span[5] = sizer(args, out)
        return out

    def run_case(self, case_id, fn):
        self.case = case_id
        return self._record(CASE, fn, (), {}, None)

    def install(self):
        """Wrap every traced function; names the program no longer has are
        listed in ``missing`` and report zero calls."""
        for idx, (name, modname, attr, sizer) in enumerate(TRACED):
            owner = sys.modules.get("starborel." + modname)
            *cls, fname = attr.split(".")
            if owner is not None and cls:
                owner = getattr(owner, cls[0], None)
            orig = getattr(owner, fname, None)
            if orig is None:
                self.missing.append(name)
                continue
            wrapper = self._wrapper(idx, orig, sizer)
            if cls:
                setattr(owner, fname, wrapper)
                changed = [(owner, fname)]
            else:
                changed = rebind(orig, wrapper)
            self._undo += [(target, key, orig) for target, key in changed]

    def _wrapper(self, idx, fn, sizer):
        record = self._record

        def wrapper(*args, **kwargs):
            return record(idx, fn, args, kwargs, sizer)
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def uninstall(self):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    def write(self, path):
        with open(path, "w") as out:
            out.write("span\tname\tstart\tend\tparent\tpass\tcase\tterms_in\tterms_out\textra\n")
            for i, (idx, start, end, parent, case, sizes) in enumerate(self.spans):
                tin, tout, extra = sizes or ("", "", "")
                out.write(f"{i}\t{NAMES[idx]}\t{start:.9f}\t{end:.9f}\t{parent}\t{case[0]}\t"
                          f"{case[1]}\t{tin}\t{tout}\t{extra or ''}\n")

    def layer_metrics(self, passes):
        """Per-pass per-layer metrics: {name: (value, unit)}."""
        n = len(NAMES)
        calls, self_s = [0] * n, [0.0] * n
        tin, tout = [0] * n, [0] * n
        tout_max, extra_max = [0] * n, {}
        covered = [0.0] * len(self.spans)
        res, div = NAMES.index("poly.resultant"), NAMES.index("poly.divexact")
        in_res = [False] * len(self.spans)  # has a resultant span above it
        res_total = res_div = cases = 0.0
        for i, (idx, start, end, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                covered[parent] += end - start
                in_res[i] = in_res[parent] or self.spans[parent][0] == res
            if idx == res and not in_res[i]:
                res_total += end - start
            elif idx == CASE:
                cases += end - start
        for i, (idx, start, end, parent, _, sizes) in enumerate(self.spans):
            calls[idx] += 1
            self_s[idx] += end - start - covered[i]
            if idx == div and in_res[i]:
                res_div += end - start - covered[i]
            if sizes:
                tin[idx] += sizes[0]
                tout[idx] += sizes[1]
                tout_max[idx] = max(tout_max[idx], sizes[1])
                if sizes[2]:
                    old = extra_max.get(idx, (0,) * len(sizes[2]))
                    extra_max[idx] = tuple(map(max, old, sizes[2]))
        at = NAMES.index
        m = {}

        def per_pass(name, field, values, unit):
            m[f"{name}.{field}"] = (values[at(name)] / passes, unit)

        for name in ("series.mul", "star.standard", "star.moyal", "poly.mul",
                     "poly.divexact", "poly.gcd", "poly.resultant"):
            per_pass(name, "calls", calls, "count")
        for name in NAMES[:CASE]:
            if not name.startswith(("suites.", "cli.")):
                per_pass(name, "self_s", self_s, "s")
        for name in ("series.mul", "poly.mul", "star.standard", "star.moyal"):
            per_pass(name, "terms_in", tin, "count")
            per_pass(name, "terms_out", tout, "count")
        m["suites.self_s"] = (sum(self_s[at(x)] for x in NAMES if x.startswith("suites."))
                              / passes, "s")
        m["cli.self_s"] = (self_s[at("cli.main")] / passes, "s")
        windows = [extra_max.get(at(x), (0, 0)) for x in NAMES if x.startswith("star.")]
        m["star.window_t_max"] = (max(w[0] for w in windows), "count")
        m["star.window_xy_max"] = (max(w[1] for w in windows), "count")
        size, num, den = extra_max.get(at("poly.resultant"), (0, 0, 0))
        m["poly.resultant.sylvester_max"] = (size, "count")
        m["poly.resultant.total_s"] = (res_total / passes, "s")
        m["poly.resultant.divexact_s"] = (res_div / passes, "s")
        m["poly.resultant.share"] = (res_total / cases if cases else 0.0, "ratio")
        m["poly.resultant.terms_out_max"] = (tout_max[at("poly.resultant")], "count")
        m["poly.resultant.coeff_bits_max"] = (max(num, den), "bits")
        m["poly.resultant.den_bits_max"] = (den, "bits")
        m["locus.leaf_terms_max"] = (max(tout_max[at(x)] for x in NAMES
                                         if x.startswith("locus.")), "count")
        m["integral.rep_over_conj.ratio"] = (self.rep_over_conj()[0], "ratio")
        m["trace.spans"] = (len(self.spans) / passes, "count")
        return m

    def rep_over_conj(self):
        """Inclusive evaluator time over inclusive conjugation time on the same
        inputs: each integral evaluator span called by integral_reps_suite is
        paired with the borel_star or borel_T span the suite calls right after
        it on the same arguments.  Returns (ratio, evaluator s, conj s, pairs)."""
        suite = NAMES.index("suites.integral_reps")
        parents = {i for i, s in enumerate(self.spans) if s[0] == suite}
        rep = conj = 0.0
        pairs = 0
        prev = {}
        for s in self.spans:
            if s[3] not in parents:
                continue
            before = prev.get(s[3])
            if before is not None and before[0] in EVALUATORS and s[0] in CONJUGATIONS:
                rep += before[2] - before[1]
                conj += s[2] - s[1]
                pairs += 1
            prev[s[3]] = s
        return (rep / conj if conj else 0.0), rep, conj, pairs
