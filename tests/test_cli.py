import io
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

from cpint.cli import run


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestIntegrate:
    def test_oscillatory_ftc_window(self):
        code, out, _ = invoke("integrate", "--primitive", "x^2*cos(x^-2)",
                              "--from", "0", "--to", "1")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "a,b,value"
        value = float(row.split(",")[2])
        assert value == pytest.approx(math.cos(1.0), abs=1e-6)

    def test_hake_fresnel_total(self):
        code, out, err = invoke("integrate", "--hake", "--primitive-of",
                                "sin(x^2)", "--from", "0", "--to", "inf")
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[2])
        assert value == pytest.approx(math.sqrt(math.pi) / 2.0 ** 1.5,
                                      abs=1e-6)
        assert "lobes" in err

    def test_hake_sinc_from_zero(self):
        # sin(x)/x is 0/0 at x = 0: the evaluator's EvalError reads as NaN
        code, out, _ = invoke("integrate", "--hake", "--primitive-of",
                              "sin(x)/x", "--from", "0", "--to", "inf")
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[2])
        assert value == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_fixture_total(self):
        code, out, _ = invoke("integrate", "--fixture", "arctan",
                              "--from=-inf", "--to", "inf")
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[2]) == \
            pytest.approx(math.pi, abs=1e-12)

    def test_deterministic_output(self):
        argv = ("integrate", "--primitive", "x^2*cos(x^-2)",
                "--from", "0", "--to", "1")
        _, first, _ = invoke(*argv)
        _, second, _ = invoke(*argv)
        assert first == second


class TestOtherCommands:
    def test_norm(self):
        code, out, _ = invoke("norm", "--fixture", "arctan")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "kind,value"
        assert float(row.split(",")[1]) == pytest.approx(math.pi, abs=1e-8)

    @pytest.mark.parametrize("fixture, divergent", [("arctan", "False"),
                                                    ("si", "True")])
    def test_abs_norm(self, fixture, divergent):
        code, out, _ = invoke("norm", "--fixture", fixture, "--kind", "abs")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "kind,divergent,value,levels"
        kind, verdict, value, _ = row.split(",")
        assert (kind, verdict) == ("abs", divergent)
        if divergent == "False":
            assert float(value) == pytest.approx(math.pi, abs=1e-12)

    def test_product_indicator(self):
        code, out, _ = invoke("product", "--fixture", "arctan",
                              "--bv", "indicator:-1,1")
        assert code == 0
        value = float(out.strip().splitlines()[1].split(",")[-1])
        # integral of 1/(1+x^2) over [-1, 1]
        assert value == pytest.approx(math.pi / 2.0, abs=1e-8)

    def test_cov_smooth(self):
        code, out, _ = invoke("cov", "--fixture", "gaussian", "--g", "x^3",
                              "--from", "0", "--to", "1")
        assert code == 0
        assert "a,b,value" in out

    def test_taylor(self):
        code, out, _ = invoke("taylor", "--fn-top", "cos(x)",
                              "--coeffs", "0,1", "--a", "0", "--x", "0.5",
                              "--n", "1")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        poly, remainder = float(row[1]), float(row[2])
        assert poly + remainder == pytest.approx(math.sin(0.5), abs=1e-9)

    def test_lattice_compare(self):
        code, out, _ = invoke("lattice", "--fixture", "gaussian",
                              "--fixture2", "gaussian", "--op", "compare")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[0] == "Equal"

    def test_converge_report(self):
        code, out, _ = invoke("converge", "--fixture", "traveling_block",
                              "--modes", "weakD,integral", "--n-max", "32")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mode,label,n,value,verdict"
        assert any(",verdict,,,holds" in line for line in lines)

    def test_poisson(self):
        code, out, _ = invoke("poisson", "--fixture", "gaussian",
                              "--x", "0", "--y", "1")
        assert code == 0
        assert out.startswith("x,y,value")

    def test_laplace(self):
        code, out, _ = invoke("laplace", "--primitive",
                              "piecewise(0, 0, 1-exp(-x))", "--re", "1")
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(0.5, abs=1e-9)
        assert abs(float(row[4])) < 1e-9


class TestExitCodes:
    def test_unknown_fixture_is_domain_error(self):
        code, _, err = invoke("integrate", "--fixture", "nope",
                              "--from", "0", "--to", "1")
        assert code == 1
        assert "error:" in err

    def test_bad_expression_is_domain_error(self):
        code, _, err = invoke("integrate", "--primitive", "x +",
                              "--from", "0", "--to", "1")
        assert code == 1
        assert "error:" in err

    def test_missing_source_is_usage_error(self):
        code, _, _ = invoke("integrate", "--from", "-inf", "--to", "inf")
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self):
        code, _, _ = invoke("frobnicate")
        assert code == 2
