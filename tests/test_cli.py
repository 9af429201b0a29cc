"""CLI contract: JSON shape, exit codes, CSV row counts, determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rellich
from rellich.cli import CORPUS_MAX, COUNT_MAX, SAMPLE_Q_MAX, SWEEP_MAX, _parse_sweep, main

# children import the package from where this process found it
SRC = os.path.dirname(os.path.dirname(os.path.abspath(rellich.__file__)))
CHILD_ENV = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def last_json(out):
    lines = [ln for ln in out.strip().splitlines() if ln.startswith("{")]
    return json.loads(lines[-1])


class TestCheck:
    def test_holds_with_constant(self, capsys):
        code, out = run_cli(capsys, "check", "--N", "5", "--c", "0", "--b", "0",
                            "--p", "2", "--alpha", "0", "--domain", "ball",
                            "--J", "all")
        doc = last_json(out)
        assert code == 0
        assert doc["holds"] is True
        assert doc["best_constant"] == 1.25
        assert doc["schema_version"] == 1
        assert [0, -0.5, 2.5] == doc["critical_alphas"][0]

    # alpha = 1e300 lies far beyond the obstruction; no degree scan runs there
    @pytest.mark.parametrize("alpha", ["3", "1e300"])
    def test_boundary_failure_exit2(self, capsys, alpha):
        code, out = run_cli(capsys, "check", "--N", "5", "--alpha", alpha,
                            "--domain", "ball")
        doc = last_json(out)
        assert code == 2
        assert doc["failing_modes"] == [{"n": 0, "branch": "boundary_obstruction"}]

    @pytest.mark.parametrize("alpha,code", [("0.0976", 0), ("0.1076", 2)])
    def test_ball_threshold_of_huge_coefficients(self, capsys, alpha, code):
        # alpha_0^+ = 0.1025641...: base + sqrt(D) cancels to 0.09375 here, which
        # once failed the first argv
        got, out = run_cli(capsys, "check", "--N", "2", "--c=-2.6e14", "--b=-3.2e14",
                           "--p", "3", "--alpha", alpha, "--domain", "ball")
        assert got == code and last_json(out)["holds"] == (code == 0)

    def test_precondition_exit1(self, capsys):
        code, out = run_cli(capsys, "check", "--N", "5", "--p", "1",
                            "--alpha", "0", "--domain", "bounded")
        assert code == 1
        assert "error" in last_json(out)

    def test_p_inf_accepted(self, capsys):
        code, out = run_cli(capsys, "check", "--N", "5", "--p", "inf",
                            "--alpha", "1", "--domain", "rn")
        assert code in (0, 2)
        assert last_json(out)["schema_version"] == 1

    def test_tol_override(self, capsys):
        # a point 1e-5 from critical: flagged only under the loose tolerance
        argv = ["check", "--N", "5", "--p", "2", "--alpha", "-0.49999",
                "--domain", "rn"]
        code, _ = run_cli(capsys, *argv)
        assert code == 0
        code, _ = run_cli(capsys, *argv, "--tol", "1e-3")
        assert code == 2

    def test_json_subspace(self, capsys):
        code, out = run_cli(capsys, "check", "--N", "5", "--p", "2",
                            "--alpha", "-0.5", "--domain", "rn", "--J", "ge:1")
        assert code == 0
        assert all(row[0] >= 1 for row in last_json(out)["critical_alphas"])

    def test_alpha_sweep_csv(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out = run_cli(capsys, "check", "--N", "5", "--p", "2",
                            "--domain", "ball", "--sweep-alpha=-2:3:11",
                            "-o", str(target))
        assert code == 0
        doc = last_json(out)
        assert doc["sweep"] == {"holds": 7, "points": 11}
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "alpha,holds,best_constant"
        assert len(lines) == 12
        # alpha = 0 row carries the classical constant
        assert any(ln.startswith("0,1,1.25") for ln in lines)

    @pytest.mark.parametrize("domain", ["exterior", "exterior-ball"])
    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_exterior_takes_only_J_all(self, capsys, domain, command):
        # the failing mode n = 3 of alpha = 4.5 is outside J = {0}: no verdict
        argv = {"check": ["check"], "verify": ["verify", "rellich", "--harmonics", "0"]}
        code, out = run_cli(capsys, *argv[command], "--N", "3", "--p", "2", "--alpha", "4.5",
                            "--domain", domain, "--J", "set:0")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 1 and json.loads(lines[0]) == {
            "error": "exterior domains are only decided for J = all",
            "kind": "precondition", "schema_version": 1}

    def test_alpha_or_sweep_required(self, capsys):
        assert main(["check", "--N", "5", "--p", "2", "--domain", "ball"]) == 64


class TestSpectrum:
    def test_classification_json(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--N", "5", "--c", "0", "--p", "2",
                            "--interval", "unit", "--lambda", "-2.25")
        doc = last_json(out)
        assert code == 0
        assert doc["in_spectrum"] and doc["in_point_certified"]

    def test_complex_lambda(self, capsys):
        # the comma defeats argparse's negative-number heuristic: use '='
        code, out = run_cli(capsys, "spectrum", "--N", "5", "--p", "2",
                            "--interval", "half", "--lambda=-2.25,2")
        assert code == 0
        assert last_json(out)["lambda"] == [-2.25, 2.0]

    def test_sample_row_count(self, capsys, tmp_path):
        target = tmp_path / "region.csv"
        code, _ = run_cli(capsys, "spectrum", "--N", "5", "--p", "2",
                          "--sample", "--xi-max", "5", "-o", str(target))
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 1001
        assert lines[0] == "re,im,tag"

    def test_sample_q_cloud(self, capsys, tmp_path):
        from rellich import OperatorParams, in_region, region_section3

        target = tmp_path / "pq.csv"
        code, _ = run_cli(capsys, "spectrum", "--N", "5", "--p", "2",
                          "--sample", "--sample-q", "50", "-o", str(target))
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 1051
        region = region_section3(OperatorParams(5), 2)
        q_rows = [ln for ln in lines[1:] if ln.endswith(",Q")]
        assert len(q_rows) == 50
        for ln in q_rows:
            re, im, _ = ln.split(",")
            assert in_region(region, complex(float(re), float(im)))

    def test_huge_p_has_finite_omega(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--N", "5", "--p", "1e200", "--lambda=1")
        assert code == 0 and last_json(out)["omega"] == 1.5e-199

    def test_classify_A_domain(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--N", "5", "--p", "2",
                            "--domain", "ball", "--J", "ge:1",
                            "--lambda", "-9.25")
        assert code == 0
        assert last_json(out)["in_spectrum"] is True


class TestCounterexample:
    def test_minus_slope(self, capsys):
        code, out = run_cli(capsys, "counterexample", "--N", "5", "--c", "0",
                            "--b", "0", "--p", "2", "--n", "0", "--mode", "minus",
                            "--eps", "0.1,0.05,0.025")
        doc = last_json(out)
        assert code == 0
        assert 0.95 <= doc["slope"] <= 1.05

    def test_boundary_report(self, capsys):
        code, out = run_cli(capsys, "counterexample", "--N", "5", "--p", "2",
                            "--mode", "boundary", "--alpha", "3")
        doc = last_json(out)
        assert code == 0
        assert doc["residual_sup"] < 1e-8 and doc["active"]

    @pytest.mark.parametrize("argv, active", [
        (["--b", "1e300", "--alpha", "3"], False),
        (["--c", "1e150", "--alpha", "2e150"], True),
    ], ids=["b-1e300", "c-1e150"])
    def test_boundary_report_of_huge_coefficients(self, capsys, argv, active):
        # indicial roots near 1e150: strict JSON and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, "counterexample", "--N", "5", "--p", "2",
                                "--mode", "boundary", *argv)
        doc = _strict_json(out.strip())
        assert code == 0
        assert doc["residual_sup"] <= 1e-14 and doc["active"] is doc["norm_finite"] is active

    @pytest.mark.parametrize("alpha, past", [("4", False), ("5", True)])
    def test_boundary_report_of_degree_two(self, capsys, alpha, past):
        # --n is the witness's degree: at N = 5 degree 2 has the threshold 4.5
        code, out = run_cli(capsys, "counterexample", "--N", "5", "--p", "2",
                            "--mode", "boundary", "--alpha", alpha, "--n", "2")
        doc = _strict_json(out.strip())
        assert code == 0 and doc["active"] is doc["norm_finite"] is past

    def test_unsupported_regime_exit3(self, capsys):
        code, out = run_cli(capsys, "counterexample", "--N", "5", "--b", "-3",
                            "--p", "2", "--n", "0", "--mode", "minus")
        assert code == 3
        assert last_json(out)["kind"] == "unsupported_regime"

    def test_csv_output(self, capsys, tmp_path):
        target = tmp_path / "ce.csv"
        code, _ = run_cli(capsys, "counterexample", "--N", "5", "--p", "2",
                          "--n", "0", "--mode", "minus", "-o", str(target))
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "epsilon,ratio" and len(lines) == 5


class TestVerify:
    def test_rellich_pass(self, capsys):
        code, out = run_cli(capsys, "verify", "rellich", "--N", "5", "--c", "0",
                            "--b", "0", "--p", "2", "--alpha", "0",
                            "--domain", "rn")
        doc = last_json(out)
        assert code == 0 and doc["passed"] and doc["seed"] == 0

    @pytest.mark.parametrize("argv", [
        ["--N", "5", "--p", "2", "--alpha", "5", "--domain", "ball", "--J", "ge:2",
         "--harmonics", "2,3"],
        ["--N", "3", "--b=-2", "--p", "2", "--alpha", "1.5", "--domain", "ball"],
        ["--N", "5", "--b", "1e14", "--p", "1", "--alpha", "0"],
        ["--N", "5", "--b", "1e20", "--p", "2", "--alpha", "0"],
    ], ids=["ball-subspace-boundary", "ball-conjugate-roots", "large-b-p1", "large-b-p2"])
    def test_rellich_passes_strict(self, capsys, argv):
        # the boundary witness of degree j0 = 2 and one of conjugate roots, checked
        # by their norm_finite; large constants, checked at a slack relative to C
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(capsys, "verify", "rellich", *argv)
        doc = _strict_json(out.strip())
        assert code == 0 and doc["passed"]

    def test_remainder_reports_constant(self, capsys):
        code, out = run_cli(capsys, "verify", "remainder", "--N", "5", "--p", "2",
                            "--alpha", "0")
        doc = last_json(out)
        assert code == 0
        assert "c_rem=0.3125" in doc["claim"]

    def test_critical_pass(self, capsys):
        code, out = run_cli(capsys, "verify", "critical", "--N", "5", "--p", "2",
                            "--n", "0", "--mode", "minus")
        assert code == 0 and last_json(out)["passed"]

    def test_critical_log_eps(self, capsys):
        code, out = run_cli(capsys, "verify", "critical", "--N", "5", "--p", "1", "--n", "0",
                            "--mode", "minus", "--log-eps", "0.3")
        assert code == 0 and "kappa=1.3" in last_json(out)["claim"]

    def test_all_targets_run(self, capsys):
        for target, extra in [
            ("hardy", ["--beta", "2"]),
            ("aux", ["--beta", "-2", "--lambda", "1.25"]),
            ("oned", ["--beta", "1"]),
            ("dissipativity", ["--lambda", "1"]),
        ]:
            code, out = run_cli(capsys, "verify", target, "--N", "5", "--p", "2",
                                *extra)
            assert code == 0, (target, out)


class TestContract:
    def test_usage_exit64(self, capsys):
        assert main(["bogus"]) == 64
        assert main([]) == 64
        assert main(["check", "--N", "5"]) == 64  # missing --alpha
        for cmd in (["verify", "rellich"], ["counterexample", "--mode", "minus"]):
            assert main([*cmd, "--N", "5", "--quad-nodes", "32"]) == 64  # no quadrature option
        # the boundary witness is closed form: it has no grid
        assert main(["counterexample", "--N", "5", "--mode", "boundary", "--alpha", "3",
                     "--grid", "400"]) == 64

    def test_determinism(self, capsys):
        argv = ["verify", "rellich", "--N", "5", "--p", "2", "--alpha", "0",
                "--domain", "rn", "--seed", "0"]
        _, out1 = run_cli(capsys, *argv)
        _, out2 = run_cli(capsys, *argv)
        assert out1 == out2

    def test_console_entry_point(self):
        r = subprocess.run(
            [sys.executable, "-m", "rellich.cli", "check", "--N", "5",
             "--p", "2", "--alpha", "0", "--domain", "rn"],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert r.returncode == 0
        assert json.loads(r.stdout)["holds"] is True


def _strict_json(text):
    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("argv", [
    ["check", "--alpha", "nan"],
    ["check", "--alpha", "0", "--b", "nan"],
    ["check", "--alpha", "1e300"],
    ["spectrum", "--lambda", "nan"],
    ["check", "--alpha=-0.5", "--tol", "nan"],
    ["spectrum", "--sample", "--xi-max", "nan"],
    ["spectrum", "--sample", "--xi-max", "inf", "--sample-q", "2"],
    ["spectrum", "--sample", "--xi-max", "1e200", "--sample-q", "1"],
    ["spectrum", "--sample", "--xi-max", "1e200"],
    ["verify", "hardy", "--beta", "nan"],
    ["verify", "hardy", "--beta", "inf"],
    ["verify", "oned", "--beta", "nan"],
    ["verify", "oned", "--a", "nan"],
    ["verify", "oned", "--log-eps", "inf"],
    ["verify", "aux", "--beta=-inf"],
    ["verify", "aux", "--lambda", "inf"],
    ["verify", "dissipativity", "--lambda", "nan"],
    ["verify", "critical", "--log-eps", "nan"],
    ["counterexample", "--mode", "minus", "--tol", "nan"],
    ["verify", "hardy", "--p", "1.5", "--beta", "2", "--tol", "nan"],
    ["spectrum", "--sample", "--tol", "nan", "-o", os.devnull],
], ids=["alpha-nan", "b-nan", "alpha-1e300", "lambda-nan", "tol-nan", "xi-max-nan",
        "xi-max-inf-q", "xi-max-1e200-q", "xi-max-1e200", "hardy-beta-nan",
        "hardy-beta-inf", "oned-beta-nan", "oned-a-nan", "oned-log-eps-inf",
        "aux-beta-inf", "aux-lambda-inf", "dissipativity-lambda-nan",
        "critical-log-eps-nan", "counterexample-tol-nan", "hardy-tol-nan",
        "sample-tol-nan"])
def test_non_finite_input_exit1(argv):
    # a typed error as one JSON line, in bounded time, never a traceback
    start = time.perf_counter()
    r = subprocess.run(
        [sys.executable, "-m", "rellich.cli", argv[0], "--N", "5", "--p", "2", *argv[1:]],
        capture_output=True, text=True, env=CHILD_ENV, timeout=30,
    )
    assert time.perf_counter() - start < 5.0
    assert r.returncode == 1, (r.stdout, r.stderr)
    lines = r.stdout.splitlines()
    assert len(lines) == 1
    assert "error" in _strict_json(lines[0])
    assert "Traceback" not in r.stderr
    if argv[0] == "verify":  # named by the check, not found by the quadrature
        named = "tolerance must lie in" if "--tol" in argv else "must be finite"
        assert named in lines[0], lines[0]


@pytest.mark.parametrize("argv", [
    ["verify", "hardy", "--beta", "1e300"],
    ["counterexample", "--mode", "minus", "--eps", "0.1"],
    ["check", "--sweep-alpha=-2:3:100000000"],
    ["verify", "rellich", "--count", "0"],
    ["verify", "rellich", "--count=-2"],
    ["verify", "remainder", "--count", "0"],
    ["verify", "remainder", "--count=-2"],
    ["verify", "dissipativity", "--count", "0"],
    ["verify", "dissipativity", "--count=-2"],
    ["verify", "oned", "--count", "0"],
    ["verify", "rellich", "--count", str(COUNT_MAX + 1)],
    ["verify", "rellich", "--count", "1", "--harmonics", ",".join(["0"] * (CORPUS_MAX + 1))],
    ["spectrum", "--sample", "--sample-q=-1"],
    ["spectrum", "--sample", "--sample-q", str(SAMPLE_Q_MAX + 1)],
    ["verify", "critical", "--p", "1", "--n", "0", "--mode", "minus", "--log-eps", "1e5"],
    ["verify", "critical", "--p", "1", "--n", "0", "--mode", "minus", "--log-eps", "1e300"],
    ["verify", "oned", "--p", "1", "--beta", "1", "--log-eps", "1e5"],
    ["verify", "critical", "--p", "1", "--n", "0", "--mode", "minus", "--log-eps=-1e5"],
    ["verify", "oned", "--p", "1", "--beta", "1", "--log-eps=-1e5"],
], ids=["hardy-beta-1e300", "one-eps", "sweep-1e8", "rellich-count-0", "rellich-count-neg",
        "remainder-count-0", "remainder-count-neg", "dissipativity-count-0",
        "dissipativity-count-neg", "oned-count-0", "count-above-cap", "corpus-above-cap",
        "sample-q-neg",
        "sample-q-above-cap", "critical-log-eps-1e5",
        "critical-log-eps-1e300", "oned-log-eps-1e5", "critical-log-eps-neg-1e5",
        "oned-log-eps-neg-1e5"])
def test_out_of_range_option_exit1(capsys, argv):
    # checked before any rule, grid or fit is built, or, for a weighted norm
    # that underflows to 0 or overflows, named with its kappa: one JSON line, no warning,
    # no traceback, at once.  The argv's own options override --N 5 --p 2
    import warnings

    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([argv[0], "--N", "5", "--p", "2", *argv[1:]])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 5.0
    assert code == 1, captured
    lines = captured.out.splitlines()
    assert len(lines) == 1 and "error" in _strict_json(lines[0])
    assert captured.err == ""


@pytest.mark.parametrize("argv, named", [
    (["check", "--alpha", "1e300"], "|alpha - base| = 1e+300"),
    (["check", "--alpha=-1e300", "--domain", "ball"], "|alpha - base| = 1e+300"),
    (["check", "--alpha", "1e300", "--domain", "exterior-ball"], "|alpha - base| = 1e+300"),
    (["check", "--p", "inf", "--alpha", "1e300"], "|alpha - base| = 1e+300"),
    (["spectrum", "--lambda=1,2,3"], "--lambda"),
    (["verify", "rellich", "--seed=-1"], "--seed"),
    (["verify", "hardy", "--seed=-1"], "--seed"),
    (["verify", "rellich", "--seed=-1", "--harmonics", "1,2"], "--seed"),
    (["verify", "rellich", "--harmonics=-1"], "--harmonics"),
    (["verify", "dissipativity", "--harmonics=0,-1", "--seed", "5"], "--harmonics"),
    (["spectrum", "--sample", "--sample-q", "1", "--seed-q=-1"], "--seed-q"),
], ids=["alpha-1e300-rn", "alpha-neg-1e300-ball", "alpha-1e300-exterior-ball",
        "alpha-1e300-p-inf", "lambda-three-parts", "rellich-seed-neg", "hardy-seed-neg",
        "rellich-seed-neg-harmonics", "rellich-harmonics-neg", "dissipativity-harmonics-neg",
        "sample-seed-q-neg"])
def test_bad_value_is_named_exit1(capsys, argv, named):
    # the option or the quantity at fault is named in one JSON line, checked
    # before any corpus or sample is built; the argv's options override --N 5 --p 2
    code = main([argv[0], "--N", "5", "--p", "2", *argv[1:]])
    captured = capsys.readouterr()
    assert code == 1, captured
    lines = captured.out.splitlines()
    assert len(lines) == 1 and named in _strict_json(lines[0])["error"], lines
    assert captured.err == ""


@pytest.mark.parametrize("argv", [
    ["--p", "1.5"],
    ["--p", "3"],
], ids=["kappa-2", "kappa-2-p3"])
def test_overflow_outside_the_weight_is_not_named_by_kappa(capsys, argv):
    # b = -1e308 makes lambda_red about -1e308, so |f|^p of the numerator rows
    # of the critical stack overflows for p > 1 whatever kappa is: the
    # quadrature's own OutOfRange, not one naming kappa, and without a warning,
    # since a row whose sum overflows is not located
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "critical", "--N", "3", "--b=-1e308", "--n", "0",
                     "--mode", "minus", *argv])
    assert code == 1
    line = _strict_json(capsys.readouterr().out.strip())
    assert line["kind"] == "OutOfRange", line
    assert "beyond float range" in line["error"] and "kappa" not in line["error"]


@pytest.mark.parametrize("mode", ["minus", "plus"])
def test_a_critical_ratio_that_overflows_is_out_of_range(capsys, mode):
    # at p = inf the numerators of b = -1e308 have norms near 1e308, and the
    # weighted ratio, about 1e308 / 0.08, overflows: exit 1 with a strict JSON
    # line, not a passing report of Infinity.  At b = -1e300 the report is made
    code = main(["verify", "critical", "--N", "3", "--b=-1e308", "--p", "inf", "--n", "0",
                 "--mode", mode])
    line = _strict_json(capsys.readouterr().out.strip())
    assert code == 1 and line["kind"] == "OutOfRange", line
    assert "weighted ratio" in line["error"], line
    code = main(["verify", "critical", "--N", "3", "--b=-1e300", "--p", "inf", "--n", "0",
                 "--mode", mode])
    line = _strict_json(capsys.readouterr().out.strip())
    assert code == 0 and line["passed"] and math.isfinite(line["min_margin"]), line


@pytest.mark.parametrize("log_eps", ["-2.5", "-1e5"], ids=["kappa-neg-0.5", "kappa-neg-99999"])
def test_at_p1_a_huge_numerator_stays_in_range(capsys, log_eps):
    # at p = 1 the numerators of b = -1e308, about 1e308 phi, have norms in
    # range in the measure dx/x: the report is made, and an overflow can only
    # be the weight's, named by kappa
    code = main(["verify", "critical", "--N", "3", "--b=-1e308", "--n", "0",
                 "--mode", "minus", "--p", "1", f"--log-eps={log_eps}"])
    line = _strict_json(capsys.readouterr().out.strip().splitlines()[-1])
    if log_eps == "-2.5":
        assert code == 0 and line["passed"], line
        assert all(math.isfinite(s["lhs"]) for s in line["samples"]), line
    else:
        assert code == 1 and line["kind"] == "OutOfRange", line
        assert "kappa=-99998" in line["error"], line


# the argv fuzzer (Hypothesis; MacIver et al., JOSS 2019) draws every option's
# value from these, by the option's type, so that every argv parses
FUZZ_FLOATS = ["nan", "inf", "-inf", "0", "-1", "1e300", "1e-300", str(2**63), str(10**400)]
FUZZ_INTS = ["0", "-1", str(2**31), str(2**63), str(10**400)]
_DOMAIN_CHOICES = ["rn", "ball", "bounded", "exterior", "exterior-ball"]
_COMMON = {"--N": FUZZ_INTS, "--c": FUZZ_FLOATS, "--b": FUZZ_FLOATS, "--p": FUZZ_FLOATS,
           "--alpha": FUZZ_FLOATS, "--tol": FUZZ_FLOATS}
_J = ["all"] + [f"{kind}:{j}" for kind in ("ge", "set", "ne") for j in FUZZ_INTS]
_VERIFY = {**_COMMON, "--domain": _DOMAIN_CHOICES, "--J": _J, "--n": FUZZ_INTS,
           "--mode": ["minus", "plus"], "--beta": FUZZ_FLOATS, "--lambda": FUZZ_FLOATS,
           "--a": FUZZ_FLOATS, "--log-eps": FUZZ_FLOATS, "--count": FUZZ_INTS,
           "--harmonics": FUZZ_INTS + [f"0,{j}" for j in FUZZ_INTS], "--seed": FUZZ_INTS}
# (argv that runs as it stands, the options to vary and their values; None for a flag)
FUZZ = {
    "check": (["check", "--N", "5", "--alpha", "0"],
              {**_COMMON, "--domain": _DOMAIN_CHOICES, "--J": _J,
               "--sweep-alpha": [f"{x}:1:3" for x in FUZZ_FLOATS]
               + [f"0:1:{n}" for n in FUZZ_INTS]}),
    "spectrum": (["spectrum", "--N", "5", "--lambda", "1"],
                 {**_COMMON, "--interval": ["half", "unit"], "--domain": ["rn", "ball"],
                  "--J": _J, "--lambda": FUZZ_FLOATS + [f"0,{x}" for x in FUZZ_FLOATS],
                  "--sample": None, "--sample-q": FUZZ_INTS, "--seed-q": FUZZ_INTS,
                  "--xi-max": FUZZ_FLOATS}),
    "counterexample": (["counterexample", "--N", "5", "--mode", "minus"],
                       {**_COMMON, "--n": FUZZ_INTS,
                        "--mode": ["minus", "plus", "boundary"],
                        "--eps": [f"{x},0.1" for x in FUZZ_FLOATS]}),
    **{f"verify {target}": (["verify", target, "--N", "5"], _VERIFY)
       for target in ("rellich", "hardy", "remainder", "critical", "aux", "oned",
                      "dissipativity")},
}


@st.composite
def fuzz_argv(draw):
    base, options = FUZZ[draw(st.sampled_from(sorted(FUZZ)))]
    argv = list(base)
    for option in draw(st.lists(st.sampled_from(sorted(options)), min_size=1, max_size=3,
                                unique=True)):
        values = options[option]
        argv.append(option if values is None else f"{option}={draw(st.sampled_from(values))}")
    return argv


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=fuzz_argv())
@example(argv=["spectrum", "--N", "5", "--p", "1e200", "--lambda=1"])
@example(argv=["spectrum", "--N", "5", "--p", "1e200", "--sample"])
@example(argv=["verify", "aux", "--N", "5", "--p", "1e300", "--lambda", "2"])
@example(argv=["verify", "remainder", "--N", "5", "--b", "10", "--p", "1e300", "--alpha", "1"])
@example(argv=["verify", "dissipativity", "--N", "5", "--p", "1e300"])
def test_fuzzed_argv_ends_in_one_documented_answer(argv):
    # an exit code of the docstring, a JSON last line on stdout and no
    # exception (a RuntimeWarning is one in this suite), in bounded time
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert time.perf_counter() - start < 5.0, argv
    assert code in (0, 1, 2, 3), (argv, code)
    json.loads(out.getvalue().splitlines()[-1])


def test_sweep_cap_is_inclusive():
    assert len(_parse_sweep(f"-2:3:{SWEEP_MAX}")) == SWEEP_MAX


@settings(max_examples=60, deadline=None)
@given(lo=st.floats(allow_nan=False, allow_infinity=False),
       hi=st.floats(allow_nan=False, allow_infinity=False),
       n=st.integers(2, SWEEP_MAX))
@example(lo=1.5, hi=1.5, n=7)
@example(lo=-0.0, hi=-0.0, n=3)
@example(lo=0.0, hi=-0.0, n=4)
@example(lo=-0.0, hi=5e-324, n=3)
@example(lo=0.0, hi=1e-320, n=SWEEP_MAX)
@example(lo=-1e300, hi=1e300, n=SWEEP_MAX)
@example(lo=1e300, hi=-1e300, n=2)
@example(lo=-2.0, hi=3.0, n=101)
def test_sweep_grid_is_linspace(lo, hi, n):
    # the closed-form sweep builds its grid without numpy, to the bit
    got = np.array(_parse_sweep(f"{lo!r}:{hi!r}:{n}"), dtype=float)
    with np.errstate(all="ignore"):
        want = np.linspace(lo, hi, n)
    assert got.tobytes() == want.tobytes()


# argv, exit code and JSON line of CLI invocations: test_determinism compares
# a run only with itself, these fail on a change that moves any value
GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text())


def _same(got, want, where="$"):
    """Keys, strings, booleans and ints exactly; floats to 1e-12 relative."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12 * abs(want), \
            (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("case", GOLDEN, ids=[case["id"] for case in GOLDEN])
def test_golden_values(capsys, case):
    code, out = run_cli(capsys, *case["argv"])
    assert code == case["exit"]
    _same(last_json(out), case["json"])


def test_import_leaves_numpy_polynomial_unloaded():
    # numpy.polynomial costs about 5 ms of the numeric layer's import; the
    # library reaches for it only when it first integrates
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, rellich.cli, rellich.verify; print('numpy.polynomial' in sys.modules)"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def _child(code, *args):
    r = subprocess.run([sys.executable, "-c", code, *args],
                       capture_output=True, text=True, env=CHILD_ENV, timeout=120)
    assert r.returncode == 0, r.stderr
    return r.stdout


@pytest.mark.parametrize("module", ["rellich", "rellich.cli"])
def test_import_leaves_numpy_unloaded(module):
    # the closed-form layer loads alone; numpy and the numeric modules wait
    # for their first use
    loaded = json.loads(_child(
        f"import json, sys, {module}; "
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'numpy' or m.startswith('rellich.'))))"))
    assert "numpy" not in loaded
    assert not {"rellich.profiles", "rellich.quadrature", "rellich.radial",
                "rellich.verify"} & set(loaded)


# argv, documented exit code, whether the command needs numpy
NUMPY_BOUNDARY = [
    (["check", "--N", "5", "--p", "2", "--alpha", "0"], 0, False),
    (["check", "--N", "5", "--p", "1.5", "--sweep-alpha=-3:4:21"], 0, False),
    (["spectrum", "--N", "5", "--p", "2", "--lambda=-3,1"], 0, False),
    (["spectrum", "--N", "5", "--p", "3", "--interval", "unit", "--lambda=-1"], 0, False),
    (["check", "--N", "5", "--p", "2", "--alpha=-1e300", "--domain", "ball"], 1, False),
    (["spectrum", "--N", "5", "--p", "2", "--lambda=1,2,3"], 1, False),
    (["verify", "critical", "--N", "5", "--p", "2"], 0, True),
    (["counterexample", "--N", "5", "--p", "2", "--mode", "minus"], 0, True),
    (["spectrum", "--N", "5", "--p", "2", "--sample", "--sample-q", "3"], 0, True),
]


@pytest.mark.parametrize("argv, code, needs_numpy", NUMPY_BOUNDARY,
                         ids=["check", "check-sweep", "spectrum-A", "spectrum-gamma",
                              "check-huge-alpha", "spectrum-three-parts",
                              "verify", "counterexample", "spectrum-sample"])
def test_numpy_loaded_only_by_numeric_commands(argv, code, needs_numpy):
    out = _child("import sys\n"
                 "from rellich.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "print(code, 'numpy' in sys.modules)", *argv)
    assert out.splitlines()[-1] == f"{code} {needs_numpy}"


# the public names of the package as a parent of its lazy loading exposed them
PUBLIC_NAMES = """
ADomain BetaZero BoundaryReport Branch CorpusOutsideSubspace DEFAULT_TOL DZero
DegenerateWeight DomainKind GammaInterval GreenBoundInput HarmonicSet
NonFiniteIntegrand OperatorParams OutOfRange ParabolicRegion
PreconditionViolated Profile1D RatioReport ReducedCoefficients RellichError
SpectralClassification UnsupportedRegime Verdict VerificationReport
base_alpha best_constant boundary_counterexample bump bump_corpus check_derivatives
classify_A classify_gamma classify_halfline_ode conjugate_exponent counterexample_ratio
critical_alphas decide discriminant dist_to_parabola eigen_lambda errors fit_loglog_slope
g0 gamma_p green heat_kernel_bound in_region indicial_roots integrate
kelvin_transform lemma_parameters_flags lp_norm mu_shift ode_roots omega_p
on_parabola oned_green_reconstruct params parse_p plateau_profile profiles quadrature
radial radial_power_bump reduced_coefficients region_section3 region_section4
rellich_ratio_separable resolvent_bound spectral sqrt_nonneg_re tail_exponent_integrable
validity verify verify_aux_remainder verify_critical_log verify_dissipativity verify_hardy
verify_oned_inequality verify_rellich verify_remainder
""".split()


def test_package_exports_survive_lazy_loading():
    got = json.loads(_child(
        "import json, sys, rellich\n"
        "listed = sorted(n for n in dir(rellich) if not n.startswith('_'))\n"
        "from rellich import bump\n"
        "# one numeric name loads the whole layer: callers look it up in sys.modules\n"
        "mods = [m for m in ('profiles', 'quadrature', 'radial', 'verify')\n"
        "        if 'rellich.' + m not in sys.modules]\n"
        "star = {}\n"
        "exec('from rellich import *', star)\n"
        "star = sorted(n for n in star if n != '__builtins__')\n"
        "missing = [n for n in listed if getattr(rellich, n, None) is None]\n"
        "print(json.dumps([listed, mods, star, missing, rellich.__version__]))"))
    listed, mods, star, missing, version = got
    assert listed == sorted(PUBLIC_NAMES)
    assert mods == []
    assert star == sorted(PUBLIC_NAMES)
    assert missing == [] and version == rellich.__version__
    # the numeric exports are the very objects of their modules
    assert rellich.bump is rellich.profiles.bump
    assert rellich.verify_rellich is rellich.verify.verify_rellich
    with pytest.raises(AttributeError):
        rellich.no_such_name  # noqa: B018
