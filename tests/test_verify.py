import math
import random
from fractions import Fraction

import pytest

from starborel import (
    AliasingError,
    DegenerateError,
    FormalSeries,
    Leaf,
    MultiPoly,
    OnVarietyError,
    Truncation,
    VariableMismatchError,
    VariableSet,
    Variety,
    check_radius_vs_locus,
    euler_borel_coeffs,
    hadamard,
    locus_distance_xi,
    logstar_borel_coeffs,
    quadrature_hadamard,
    radius_estimate,
)
from starborel.suites import euler_singular_locus


class TestRadiusEstimate:
    def test_geometric(self):
        coeffs = [Fraction(1, 2**k) for k in range(15)]
        assert abs(radius_estimate(coeffs) - 2.0) < 1e-12

    def test_polylog_tail_ratio(self):
        # 1/k^2 coefficients: radius 1; the ratio method converges fast
        coeffs = [0] + [Fraction(1, k * k) for k in range(1, 41)]
        assert abs(radius_estimate(coeffs, "ratio") - 1.0) < 0.06

    def test_root_method(self):
        coeffs = [Fraction(3, 5) ** k for k in range(25)]
        assert abs(radius_estimate(coeffs, "root") - Fraction(5, 3)) < 0.05

    def test_too_few_coefficients(self):
        with pytest.raises(DegenerateError):
            radius_estimate([1, 2, 3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_coefficients_that_are_not_finite(self, bad):
        with pytest.raises(DegenerateError, match="finite"):
            radius_estimate([bad] * 10)

    def test_coefficients_beyond_float_range(self):
        # 10^(40k) overflows a float from k = 8 on; the radius is 10^-40
        coeffs = [Fraction(10) ** (40 * k) for k in range(15)]
        assert radius_estimate(coeffs, "ratio") == pytest.approx(1e-40)
        assert radius_estimate(coeffs, "root") == pytest.approx(1e-40)

    def test_coefficients_below_float_range(self):
        # 10^-(400+k) underflows to 0.0 as a float, yet every one is nonzero
        coeffs = [Fraction(1, 10 ** (400 + k)) for k in range(15)]
        assert radius_estimate(coeffs, "ratio") == pytest.approx(10.0)
        assert radius_estimate(coeffs, "root") == pytest.approx(10 ** (414 / 14))

    @pytest.mark.parametrize("method", ["ratio", "root"])
    def test_radius_above_float_range(self, method):
        # coefficients 10^-(400k): the radius 10^400 has no float
        coeffs = [Fraction(1, 10 ** (400 * k)) for k in range(15)]
        with pytest.raises(DegenerateError, match="radius outside the float range"):
            radius_estimate(coeffs, method)

    @pytest.mark.parametrize("method", ["ratio", "root"])
    def test_radius_below_float_range(self, method):
        # coefficients 10^(400k): the radius 10^-400 would round to 0.0
        coeffs = [Fraction(10) ** (400 * k) for k in range(15)]
        with pytest.raises(DegenerateError, match="radius outside the float range"):
            radius_estimate(coeffs, method)


class TestLocusDistance:
    def test_euler_sheet(self):
        V = euler_singular_locus()
        d = locus_distance_xi(V, {"q": Fraction(0), "p": Fraction(0)})
        assert abs(d - 1.0) < 1e-12

    def test_origin_excluded(self):
        vars = VariableSet(("xi", "q", "p"))
        # xi(xi - 2): the root at 0 is skipped under the punctured convention
        poly = MultiPoly.from_string("xi^2 - 2*xi", vars)
        V = Variety(vars, [[Leaf("pair", poly)]])
        d = locus_distance_xi(V, {"q": Fraction(0), "p": Fraction(0)})
        assert abs(d - 2.0) < 1e-12

    def test_no_root_gives_infinity(self):
        vars = VariableSet(("xi", "q", "p"))
        V = Variety(vars, [[Leaf("empty", MultiPoly.from_string("xi", vars))]])
        assert locus_distance_xi(V, {"q": Fraction(0), "p": Fraction(0)}) \
            == math.inf

    @pytest.mark.parametrize("terms", [
        {(1, 0, 0): 1, (0, 0, 0): Fraction(-1, 10 ** 13)},   # xi - 10^-13
        {(2, 0, 0): 1, (1, 0, 0): Fraction(-1, 10 ** 13)},   # xi^2 - 10^-13 xi
    ])
    def test_tiny_nonzero_root_kept(self, terms):
        # only xi = 0 itself is excluded, however close a root comes to it
        vars = VariableSet(("xi", "q", "p"))
        V = Variety(vars, [[Leaf("tiny", MultiPoly(vars, terms))]])
        d = locus_distance_xi(V, {"q": Fraction(0), "p": Fraction(0)})
        assert abs(d - 1e-13) < 1e-25

    @pytest.mark.parametrize("scale", [Fraction(1, 10 ** 400), Fraction(10 ** 400)])
    def test_leaf_scale_outside_float_range(self, scale):
        # (xi - 1) * scale: the coefficients have no float, the root is 1
        vars = VariableSet(("xi", "q", "p"))
        poly = MultiPoly.from_string("xi - 1", vars) * scale
        V = Variety(vars, [[Leaf("scaled", poly)]])
        assert locus_distance_xi(V, {"q": Fraction(0), "p": Fraction(0)}) == 1.0

    def test_on_variety_raises(self):
        vars = VariableSet(("xi", "q", "p"))
        V = Variety(vars, [[Leaf("sheet",
                                 MultiPoly.from_string("q - 1", vars))]])
        with pytest.raises(OnVarietyError):
            locus_distance_xi(V, {"q": Fraction(1), "p": Fraction(0)})


class TestFamilies:
    def test_euler_coeffs(self):
        got = euler_borel_coeffs(Fraction(0), Fraction(0), 5)
        assert got == [Fraction(1)] * 6

    def test_logstar_coeffs(self):
        got = logstar_borel_coeffs(Fraction(0), Fraction(0), 4)
        assert got == [0, Fraction(1), Fraction(1, 4), Fraction(1, 9),
                       Fraction(1, 16)]

    def test_degenerate_point(self):
        with pytest.raises(DegenerateError):
            euler_borel_coeffs(Fraction(1), Fraction(0), 5)


class TestCheck:
    def test_euler_family_passes(self):
        V = euler_singular_locus()
        pts = [{"q": Fraction(1, 10), "p": Fraction(-1, 5)},
               {"q": Fraction(0), "p": Fraction(0)}]
        fam = lambda pt: euler_borel_coeffs(pt["q"], pt["p"], 14)
        reports = check_radius_vs_locus(fam, V, pts, 1e-6, method="ratio")
        assert all(r.verdict == "pass" for r in reports)
        assert all("estimate=" in r.line() and "verdict=" in r.line()
                   for r in reports)

    def test_shifted_locus_fails(self):
        base = euler_singular_locus()
        poly = base.groups[0][0].poly
        shifted = Variety(base.vars,
                          [[Leaf("shifted", poly + MultiPoly.one(poly.vars))]])
        pts = [{"q": Fraction(1, 10), "p": Fraction(-1, 5)}]
        fam = lambda pt: euler_borel_coeffs(pt["q"], pt["p"], 14)
        reports = check_radius_vs_locus(fam, shifted, pts, 1e-6, method="ratio")
        assert all(r.verdict == "fail" for r in reports)


class TestQuadrature:
    @staticmethod
    def series(coeffs):
        vars = VariableSet(("xi",))
        trunc = Truncation(len(coeffs) - 1, 0)
        return FormalSeries(vars, trunc,
                            {(k,): Fraction(c) for k, c in enumerate(coeffs)})

    def test_matches_exact_hadamard(self):
        a = self.series([1, -2, 3, 0, 5, 7, 2])
        b = self.series([2, 1, -1, 4, 0, 3, 6])
        got = quadrature_hadamard(a, b, 32)
        want = hadamard(a, b)
        for k, val in enumerate(got):
            assert abs(val - float(want.coeff((k,)) or 0)) < 1e-12

    def test_order_40_matches_exact_hadamard(self):
        # rounding grows with sum |a_k| |b_n|, the size of the trapezoid sum
        rng = random.Random(40)
        a, b = ([Fraction(rng.randrange(-50, 51), rng.randrange(1, 20)) for _ in range(41)]
                for _ in range(2))
        got = quadrature_hadamard(self.series(a), self.series(b), 96)
        assert len(got) == 41
        scale = float(sum(map(abs, a)))
        for n, val in enumerate(got):
            assert abs(val - float(a[n] * b[n])) <= 1e-12 * scale * abs(float(b[n]))

    def test_aliasing_detected(self):
        a = self.series([1, 1, 1, 1, 1, 1, 1])
        with pytest.raises(AliasingError):
            quadrature_hadamard(a, a, 4)

    def test_a_node_count_that_is_not_an_int(self):
        # a fractional node count aliases silently: 2.5 nodes give 1.2 for an exact 1
        a = self.series([0, 1])
        with pytest.raises(DegenerateError, match="node count"):
            quadrature_hadamard(a, a, 2.5)

    def test_coefficient_beyond_float_range(self):
        a = self.series([1, 10 ** 400])
        with pytest.raises(DegenerateError, match="outside the float range"):
            quadrature_hadamard(a, a, 8)

    def test_rejects_other_variables(self):
        vars = VariableSet(("xi", "q"))
        a = FormalSeries.from_string("xi + q", vars, Truncation(2, 1))
        with pytest.raises(VariableMismatchError):
            quadrature_hadamard(a, a, 8)
