import random
from fractions import Fraction

import pytest

from starborel import (
    DegenerateError,
    Leaf,
    MultiPoly,
    NotSimpleError,
    UniOverPoly,
    Variety,
    VariableMismatchError,
    VariableSet,
    conv_locus,
    hadamard_locus_1d,
    hadamard_locus_5var,
    odot_locus,
)

Vp = VariableSet(("z1", "z2"))
Vbar = VariableSet(("z", "z2"))


def U(text, var="z1", vars=Vp):
    return UniOverPoly.from_multipoly(MultiPoly.from_string(text, vars), var)


def rand_rat(rng, span=8, den=4):
    return Fraction(rng.randrange(-span, span + 1), rng.randrange(1, den + 1))


class TestConvLocus:
    def test_linear_family(self):
        # P = z2 z1 + 1 with endpoint branch z: locus is {z2 (z2 z + 1) = 0}
        L = conv_locus(U("z2*z1 + 1"), MultiPoly.from_string("z", Vbar))
        rng = random.Random(61)
        for _ in range(200):
            z, z2 = rand_rat(rng), rand_rat(rng)
            want = z2 * (z2 * z + 1) == 0
            assert L.contains_exact({"z": z, "z2": z2}) == want

    def test_quadratic_family(self):
        L = conv_locus(U("z1^2 + 2*z1 + z1*z2 + z2 + 1"),
                       MultiPoly.from_string("z", Vbar))
        rng = random.Random(62)
        for _ in range(200):
            z, z2 = rand_rat(rng), rand_rat(rng)
            want = z2 * (z + 1) * (z + z2 + 1) * (z2 + 1) == 0
            assert L.contains_exact({"z": z, "z2": z2}) == want

    def test_degenerate_endpoint_branch(self):
        # the branch z2 is identically a root: the endpoint leaf is dropped
        # and the locus restricts to {z2 = 0} union {z2 = 1}
        L = conv_locus(U("-z1^2 + 2*z1*z2 - z2^2 - z1 + z2"),
                       MultiPoly.from_string("z2", Vbar))
        for v in (0, 1):
            assert L.contains_exact({"z": Fraction(7), "z2": Fraction(v)})
        for v in (Fraction(2), Fraction(-1), Fraction(1, 2)):
            assert not L.contains_exact({"z": Fraction(7), "z2": v})
        assert "endpoint" not in {leaf.label for leaf in L.all_leaves()}

    def test_rejects_non_simple(self):
        with pytest.raises(NotSimpleError):
            conv_locus(U("z1^2 + 2*z1*z2 + z2^2"),
                       MultiPoly.from_string("z", Vbar))

    def test_rejects_branch_not_vanishing_at_origin(self):
        with pytest.raises(DegenerateError):
            conv_locus(U("z2*z1 + 1"), MultiPoly.from_string("z + 1", Vbar))

    def test_drop_variable(self):
        L = conv_locus(U("-z1^2 + 2*z1*z2 - z2^2 - z1 + z2"),
                       MultiPoly.from_string("z2", Vbar))
        # no leaf depends on z, so every leaf re-homes to (z2,)
        small = VariableSet(("z2",))
        V = Variety(small, [[Leaf(leaf.label, leaf.poly.rehome(small)) for leaf in group]
                            for group in L.groups])
        assert V.contains_exact({"z2": Fraction(1)})


class TestHadamard1d:
    def test_unit_sets(self):
        L = hadamard_locus_1d([Fraction(1)], [Fraction(1)])
        assert L.contains_exact({"xi": 0})
        assert L.contains_exact({"xi": 1})
        assert not L.contains_exact({"xi": 2})

    def test_products(self):
        L = hadamard_locus_1d([2, 3], [Fraction(1, 2)])
        for s in (0, 1, Fraction(3, 2)):
            assert L.contains_exact({"xi": s})
        assert not L.contains_exact({"xi": 2})

    def test_empty_sets(self):
        L = hadamard_locus_1d([], [])
        assert L.contains_exact({"xi": 0})
        assert not L.contains_exact({"xi": 1})


class _Worked5var:
    """Product of a linear germ in p with a quadratic germ in q whose
    clearing family factors as (w1 - z)(A z - xi3)(B z - 2 xi3) with
    w1 = 3 - xi1 - q - p, A = 3 - xi2 - q - p, B = 4 - xi2 - 2q - p."""

    @staticmethod
    def build():
        Vf = VariableSet(("xi1", "q", "p"))
        Vg = VariableSet(("xi2", "q", "p"))
        Pf = UniOverPoly.from_multipoly(
            MultiPoly.from_string("3 - xi1 - q - p", Vf), "p")
        Qg = UniOverPoly.from_multipoly(
            MultiPoly.from_string(
                "12 - 7*xi2 - 10*q - 7*p + xi2^2 + 3*xi2*q + 2*q^2"
                " + 2*xi2*p + 3*q*p + p^2", Vg), "q")
        return hadamard_locus_5var(Pf, Qg)


class TestHadamard5var:
    def test_worked_conditions_contained(self):
        L = _Worked5var.build()
        rng = random.Random(63)
        for _ in range(8):
            xi1 = rand_rat(rng, 4)
            q = rand_rat(rng, 4)
            p = rand_rat(rng, 4)
            xi3 = rand_rat(rng, 4)
            xi2 = rand_rat(rng, 4)
            w1 = 3 - xi1 - q - p
            A = 3 - xi2 - q - p
            B = 4 - xi2 - 2 * q - p
            conditions = [
                {"xi1": xi1, "xi2": 3 - q - p, "xi3": xi3, "q": q, "p": p},
                {"xi1": xi1, "xi2": 4 - 2 * q - p, "xi3": xi3, "q": q, "p": p},
                {"xi1": xi1, "xi2": xi2, "xi3": w1 * A, "q": q, "p": p},
                {"xi1": xi1, "xi2": xi2, "xi3": w1 * B / 2, "q": q, "p": p},
                {"xi1": xi1, "xi2": 2 - p, "xi3": xi3, "q": q, "p": p},
                {"xi1": xi1, "xi2": xi2, "xi3": Fraction(0), "q": q, "p": p},
            ]
            for point in conditions:
                assert L.contains_numeric(point, 1e-9)

    def test_generic_point_excluded(self):
        L = _Worked5var.build()
        point = {"xi1": Fraction(1, 7), "xi2": Fraction(2, 7),
                 "xi3": Fraction(3, 7), "q": Fraction(4, 7), "p": Fraction(5, 7)}
        assert not L.contains_exact(point)

    def test_rejects_wrong_slots(self):
        Vf = VariableSet(("xi1", "q", "p"))
        Pf = UniOverPoly.from_multipoly(
            MultiPoly.from_string("3 - xi1 - q - p", Vf), "q")
        with pytest.raises(VariableMismatchError):
            hadamard_locus_5var(Pf, Pf)


class TestHadamard5varFallback:
    """A germ of degree 0 in its distinguished variable gives a factor of
    z-degree 0, where the product formula does not hold: the full
    z-discriminant is computed.  Output pinned from the full computation."""

    @staticmethod
    def build(pf, qg):
        Vf = VariableSet(("xi1", "q", "p"))
        Vg = VariableSet(("xi2", "q", "p"))
        return hadamard_locus_5var(
            UniOverPoly.from_multipoly(MultiPoly.from_string(pf, Vf), "p"),
            UniOverPoly.from_multipoly(MultiPoly.from_string(qg, Vg), "q"))

    def test_pf_constant_in_p(self):
        assert self.build("3 - xi1 - q", "1 - xi2 - q").serialize() == (
            'intersect {\n  union {\n    cond "xi3 = 0": xi3\n'
            '    cond "leading z-coefficient": xi1*xi2 + xi1*q + q*xi2 + q^2'
            ' - xi1 - 3*xi2 - 4*q + 3\n'
            '    cond "constant z-coefficient": xi1*xi3 + q*xi3 - 3*xi3\n'
            '    cond "z-discriminant": xi1*xi2 + xi1*q + q*xi2 + q^2'
            ' - xi1 - 3*xi2 - 4*q + 3\n  }\n}')

    def test_qg_constant_in_q(self):
        assert self.build("3 - xi1 - p", "2 - xi2 - p").serialize() == (
            'intersect {\n  union {\n    cond "xi3 = 0": xi3\n'
            '    cond "leading z-coefficient": xi2 + p - 2\n'
            '    cond "constant z-coefficient": xi1*xi2 + xi1*p + p*xi2 + p^2'
            ' - 2*xi1 - 3*xi2 - 5*p + 6\n'
            '    cond "z-discriminant": xi2 + p - 2\n  }\n}')


class TestOdotLocus:
    def test_product_of_variables(self):
        V = VariableSet(("z1", "z2"), dof=0)
        L = odot_locus(MultiPoly.from_string("z1*z2", V), "z1", "z2")
        # the sheet {xi = z1 z2} sits inside the discriminant leaf
        rng = random.Random(64)
        for _ in range(50):
            a, b = rand_rat(rng), rand_rat(rng)
            assert L.contains_exact({"xi": a * b, "z1": a, "z2": b})
        assert not L.contains_exact(
            {"xi": Fraction(5), "z1": Fraction(1), "z2": Fraction(1)})

    def test_name_collision(self):
        V = VariableSet(("xi", "z2"), dof=0)
        with pytest.raises(VariableMismatchError):
            odot_locus(MultiPoly.from_string("xi*z2", V), "xi", "z2")


class TestContainsNumeric:
    """The tolerance is relative to the size of the leaf's terms at the
    point, so scaling a leaf changes no verdict."""

    @staticmethod
    def scaled_line(s):
        V = VariableSet(("xi",), dof=0)
        return Variety(V, [[Leaf("s*(xi - 1)", MultiPoly.from_string("xi - 1", V) * s)]])

    def test_large_scale_accepts_nearby_point(self):
        assert self.scaled_line(10 ** 6).contains_numeric({"xi": 1 + 1e-12}, 1e-9)

    def test_small_scale_rejects_far_point(self):
        assert not self.scaled_line(Fraction(1, 10 ** 12)).contains_numeric({"xi": 100.0}, 1e-9)

    def test_zero_point_on_homogeneous_leaf(self):
        V = VariableSet(("z1", "z2"), dof=0)
        L = Variety(V, [[Leaf("z1*z2 - z2^2", MultiPoly.from_string("z1*z2 - z2^2", V))]])
        assert L.contains_numeric({"z1": 0.0, "z2": 0.0})
        assert not L.contains_numeric({"z1": 1.0, "z2": 0.5})

    @pytest.mark.parametrize("coeff, x", [
        (10 ** 400, 1.0),                # the coefficient has no float
        (1, 1e200),                      # x^2 overflows
        (10 ** 300, 1e10),               # the term rounds to inf
        (1, Fraction(10 ** 400, 3)),     # the point has no float
    ], ids=["coefficient", "power", "term", "point"])
    def test_outside_float_range_raises(self, coeff, x):
        V = VariableSet(("xi",), dof=0)
        L = Variety(V, [[Leaf("c*xi^2 - 1", MultiPoly(V, {(2,): coeff, (0,): -1}))]])
        with pytest.raises(DegenerateError):
            L.contains_numeric({"xi": x})


class TestSerialize:
    def test_roundtrippable_shape(self):
        L = conv_locus(U("z2*z1 + 1"), MultiPoly.from_string("z", Vbar))
        text = L.serialize()
        assert text.startswith("intersect {")
        assert 'cond "leading coefficient"' in text
        assert text.rstrip().endswith("}")


def test_conv_locus_reports_non_simple_before_a_bad_branch():
    # not square-free in z1, and the branch z + 1 does not vanish at the origin
    with pytest.raises(NotSimpleError, match="not square-free in 'z1'"):
        conv_locus(U("z1^2 + 2*z1*z2 + z2^2"), MultiPoly.from_string("z + 1", Vbar))
