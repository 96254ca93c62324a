import json

from starborel.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProducts:
    def test_star_standard(self, capsys):
        code, out, _ = run(capsys, "star", "t*p", "t*q")
        assert code == 0
        assert out.strip() == "t^2*p*q + t^3"

    def test_star_moyal(self, capsys):
        code, out, _ = run(capsys, "star", "--kind", "moyal", "p", "q")
        assert code == 0
        assert out.strip() == "p*q + 1/2*t"

    def test_borel_roundtrip(self, capsys):
        code, out, _ = run(capsys, "borel", "t^3*p")
        assert code == 0
        assert out.strip() == "1/6*xi^3*p"
        code, out, _ = run(capsys, "unborel", "1/6*xi^3*p")
        assert code == 0
        assert out.strip() == "t^3*p"

    def test_borel_star(self, capsys):
        code, out, _ = run(capsys, "borel-star", "--kind", "moyal",
                           "xi*p", "xi*q")
        assert code == 0
        assert out.strip() == "1/2*xi^2*p*q + 1/12*xi^3"

    def test_transition(self, capsys):
        code, out, _ = run(capsys, "transition", "t^2*p*q")
        assert code == 0
        assert out.strip() == "t^2*p*q - 1/2*t^3"

    def test_hadamard(self, capsys):
        code, out, _ = run(capsys, "hadamard", "xi + xi^2", "xi")
        assert code == 0
        assert out.strip() == "xi"

    def test_odot(self, capsys):
        code, out, _ = run(capsys, "odot", "--i", "z1", "--j", "z2",
                           "--vars", "u,z1,z2", "z1*z2")
        assert code == 0
        assert out.strip() == "z1*z2 + xi"


class TestPolynomial:
    def test_simple_poly(self, capsys):
        code, out, _ = run(capsys, "simple-poly", "--var", "z1",
                           "--vars", "z1,z2",
                           "z1^2 - 2*z1*z2 + z2^2")
        assert code == 0
        assert out.strip() == "z1 - z2"

    def test_resultant(self, capsys):
        code, out, _ = run(capsys, "resultant", "--var", "z1",
                           "--vars", "z1,z2", "z1^2 - z2", "2*z1")
        assert code == 0
        assert out.strip() == "-4*z2"

    def test_locus_conv(self, capsys):
        code, out, _ = run(capsys, "locus", "conv", "--vars", "z1,z2",
                           "--bar-vars", "z,z2", "z2*z1 + 1", "z")
        assert code == 0
        assert out.startswith("intersect {")
        assert 'cond "endpoint"' in out

    def test_locus_hadamard1d(self, capsys):
        code, out, _ = run(capsys, "locus", "hadamard1d",
                           "--sf", "1", "--sg", "1")
        assert code == 0
        assert "xi^2 - xi" in out


class TestPinnedOutput:
    """Full stdout of the polynomial and locus commands."""

    def test_simple_poly(self, capsys):
        assert run(capsys, "simple-poly", "--var", "z1", "--vars", "z1,z2",
                   "z1^2 - 2*z1*z2 + z2^2") == (0, "z1 - z2\n", "")

    def test_resultant(self, capsys):
        assert run(capsys, "resultant", "--var", "z1", "--vars", "z1,z2",
                   "z1^2 - z2", "2*z1") == (0, "-4*z2\n", "")

    def test_locus_conv(self, capsys):
        assert run(capsys, "locus", "conv", "--vars", "z1,z2", "--bar-vars", "z,z2",
                   "z2*z1 + 1", "z") == (0, """\
intersect {
  union {
    cond "leading coefficient": z2
    cond "discriminant": z2
    cond "endpoint": z2*z + 1
  }
}
""", "")

    def test_locus_hadamard(self, capsys):
        assert run(capsys, "locus", "hadamard", "1 - p", "1 - q") == (0, """\
intersect {
  union {
    cond "xi3 = 0": xi3
    cond "leading z-coefficient": q - 1
    cond "constant z-coefficient": p*xi3 - xi3
    cond "z-discriminant": -p^2*q^3 + 2*p*q^2*xi3 + 2*p*q^3 + 3*p^2*q^2 \
- q*xi3^2 - 2*q^2*xi3 - 4*p*q*xi3 - q^3 - 6*p*q^2 - 3*p^2*q + xi3^2 + 4*q*xi3 \
+ 2*p*xi3 + 3*q^2 + 6*p*q + p^2 - 2*xi3 - 3*q - 2*p + 1
  }
}
""", "")

    def test_locus_odot(self, capsys):
        assert run(capsys, "locus", "odot", "--i", "z1", "--j", "z2",
                   "--vars", "z1,z2,z3", "z1*z2 + z3*z2^2 + 1") == (0, """\
intersect {
  union {
    cond "leading z-coefficient": z2
    cond "constant z-coefficient": xi^2*z3
    cond "z-discriminant": -xi^2*z1^2*z2^5*z3^2 + 2*xi^3*z1*z2^4*z3^2 \
- 2*xi^2*z1^3*z2^4*z3 + 4*xi^2*z2^5*z3^3 - xi^4*z2^3*z3^2 \
+ 8*xi^3*z1^2*z2^3*z3 - xi^2*z1^4*z2^3 + 8*xi^2*z1*z2^4*z3^2 \
- 10*xi^4*z1*z2^2*z3 + 2*xi^3*z1^3*z2^2 - 20*xi^3*z2^3*z3^2 \
+ 2*xi^2*z1^2*z2^3*z3 + 4*xi^5*z2*z3 - xi^4*z1^2*z2 - 2*xi^3*z1*z2^2*z3 \
- 2*xi^2*z1^3*z2^2 + 8*xi^2*z2^3*z3^2 + 12*xi^4*z2*z3 - 2*xi^3*z1^2*z2 \
+ 8*xi^2*z1*z2^2*z3 + 12*xi^3*z2*z3 - xi^2*z1^2*z2 + 4*xi^2*z2*z3
  }
}
""", "")

    # rational coefficients: the calculus splits their content off and puts it back

    def test_simple_poly_rational(self, capsys):
        assert run(capsys, "simple-poly", "--var", "z1", "--vars", "z1,z2",
                   "1/4*z1^2 - 1/3*z1*z2 + 1/9*z2^2") == (0, "1/12*z1 - 1/18*z2\n", "")

    def test_resultant_rational(self, capsys):
        assert run(capsys, "resultant", "--var", "z1", "--vars", "z1,z2",
                   "3/2*z1^2 - 2/3*z2", "5/4*z1 - 1/7*z2") == (0, "3/98*z2^2 - 25/24*z2\n", "")

    def test_locus_hadamard_rational(self, capsys):
        assert run(capsys, "locus", "hadamard", "3/2 - xi1 - 2/3*p - q*p", "1 - q") == (0, """\
intersect {
  union {
    cond "xi3 = 0": xi3
    cond "leading z-coefficient": q^2 - 1/3*q - 2/3
    cond "constant z-coefficient": p*q*xi3 + xi1*xi3 + 2/3*p*xi3 - 3/2*xi3
    cond "z-discriminant": -p^2*q^6 - 2*xi1*p*q^5 + 2*p*q^5*xi3 + p^2*q^5 \
- xi1^2*q^4 + 2*xi1*q^4*xi3 + 10/3*xi1*p*q^4 - q^4*xi3^2 + 3*p*q^5 \
+ 5/3*p^2*q^4 + 7/3*xi1^2*q^3 - 4/3*xi1*q^3*xi3 + 3*xi1*q^4 \
+ 10/9*xi1*p*q^3 - q^3*xi3^2 - 3*q^4*xi3 - 10/3*p*q^3*xi3 - 5*p*q^4 \
- 35/27*p^2*q^3 - xi1^2*q^2 - 22/9*xi1*q^2*xi3 - 7*xi1*q^3 - 10/3*xi1*p*q^2 \
+ 2/3*q^2*xi3^2 + 2*q^3*xi3 - 20/27*p*q^2*xi3 - 9/4*q^4 - 5/3*p*q^3 \
- 10/9*p^2*q^2 - xi1^2*q + 8/9*xi1*q*xi3 + 3*xi1*q^2 + 28/27*q*xi3^2 \
+ 11/3*q^2*xi3 + 40/27*p*q*xi3 + 21/4*q^3 + 5*p*q^2 + 4/9*p^2*q + 2/3*xi1^2 \
+ 8/9*xi1*xi3 + 3*xi1*q + 8/9*xi1*p + 8/27*xi3^2 - 4/3*q*xi3 + 16/27*p*xi3 \
- 9/4*q^2 + 8/27*p^2 - 2*xi1 - 4/3*xi3 - 9/4*q - 4/3*p + 3/2
  }
}
""", "")


class TestVerify:
    def test_examples_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "examples")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 10
        assert "examples: OK" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify", "examples", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["suite"] == "examples"


class TestErrors:
    def test_missing_argument(self, capsys):
        code, _, err = run(capsys, "star", "t*p")
        assert code == 1
        assert "error" in err.lower()

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "star", "t*(p", "q")
        assert code == 1
        assert "error" in err.lower()

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_malformed_rational(self, capsys):
        for sf in ("abc", "1/0"):
            code, _, err = run(capsys, "locus", "hadamard1d", "--sf", sf)
            assert code == 1
            assert "error" in err.lower()
