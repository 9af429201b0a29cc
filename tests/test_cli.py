"""CLI contract: JSON shape, exit codes, CSV row counts, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rellich
from rellich.cli import main

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

    def test_boundary_failure_exit2(self, capsys):
        code, out = run_cli(capsys, "check", "--N", "5", "--alpha", "3",
                            "--domain", "ball")
        doc = last_json(out)
        assert code == 2
        assert doc["failing_modes"] == [{"n": 0, "branch": "boundary_obstruction"}]

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

    def test_tol_env_override(self, capsys, monkeypatch):
        # a point 1e-5 from critical: flagged only under the loose tolerance
        argv = ["check", "--N", "5", "--p", "2", "--alpha", "-0.49999",
                "--domain", "rn"]
        code, _ = run_cli(capsys, *argv)
        assert code == 0
        monkeypatch.setenv("RELLICH_TOL", "1e-3")
        code, _ = run_cli(capsys, *argv)
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

    def test_quadrature_override(self, capsys):
        code, out = run_cli(capsys, "verify", "rellich", "--N", "5", "--p", "2",
                            "--alpha", "0", "--domain", "rn",
                            "--quad-nodes", "32", "--quad-rel-tol", "1e-8")
        assert code == 0 and last_json(out)["passed"]


class TestContract:
    def test_usage_exit64(self, capsys):
        assert main(["bogus"]) == 64
        assert main([]) == 64
        assert main(["check", "--N", "5"]) == 64  # missing --alpha

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


@pytest.mark.parametrize("argv, env", [
    (["check", "--alpha", "nan"], {}),
    (["check", "--alpha", "0", "--b", "nan"], {}),
    (["check", "--alpha", "1e300"], {}),
    (["spectrum", "--lambda", "nan"], {}),
    (["check", "--alpha=-0.5"], {"RELLICH_TOL": "nan"}),
    (["spectrum", "--sample", "--xi-max", "nan"], {}),
    (["spectrum", "--sample", "--xi-max", "inf", "--sample-q", "2"], {}),
    (["spectrum", "--sample", "--xi-max", "1e200", "--sample-q", "1"], {}),
    (["spectrum", "--sample", "--xi-max", "1e200"], {}),
], ids=["alpha-nan", "b-nan", "alpha-1e300", "lambda-nan", "tol-nan", "xi-max-nan",
        "xi-max-inf-q", "xi-max-1e200-q", "xi-max-1e200"])
def test_non_finite_input_exit1(argv, env):
    # a typed error as one JSON line, in bounded time, never a traceback
    start = time.perf_counter()
    r = subprocess.run(
        [sys.executable, "-m", "rellich.cli", argv[0], "--N", "5", "--p", "2", *argv[1:]],
        capture_output=True, text=True, env={**CHILD_ENV, **env}, timeout=30,
    )
    assert time.perf_counter() - start < 5.0
    assert r.returncode == 1, (r.stdout, r.stderr)
    lines = r.stdout.splitlines()
    assert len(lines) == 1
    assert "error" in _strict_json(lines[0])
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv", [
    ["verify", "critical", "--quad-nodes", "0"],
    ["verify", "critical", "--quad-nodes", "100000"],
    ["verify", "critical", "--quad-rel-tol", "nan"],
    ["verify", "critical", "--quad-rel-tol=-1"],
    ["verify", "hardy", "--beta", "1e300"],
    ["counterexample", "--mode", "minus", "--eps", "0.1"],
    ["check", "--sweep-alpha=-2:3:100000000"],
], ids=["quad-nodes-0", "quad-nodes-1e5", "quad-rel-tol-nan", "quad-rel-tol-neg",
        "hardy-beta-1e300", "one-eps", "sweep-1e8"])
def test_out_of_range_option_exit1(capsys, argv):
    # checked before any rule, grid or fit is built: one JSON line, no
    # warning, no traceback, at once
    import warnings

    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--N", "5", "--p", "2"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 5.0
    assert code == 1, captured
    lines = captured.out.splitlines()
    assert len(lines) == 1 and "error" in _strict_json(lines[0])
    assert captured.err == ""


def test_sweep_cap_is_inclusive():
    from rellich.cli import SWEEP_MAX, _parse_sweep

    assert len(_parse_sweep(f"-2:3:{SWEEP_MAX}")) == SWEEP_MAX


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
def test_golden_values(capsys, monkeypatch, case):
    monkeypatch.delenv("RELLICH_TOL", raising=False)
    code, out = run_cli(capsys, *case["argv"])
    assert code == case["exit"]
    _same(last_json(out), case["json"])


def test_import_leaves_numpy_polynomial_unloaded():
    # numpy.polynomial costs about 5 ms of the CLI's import; the library
    # reaches for it only when it first integrates
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys, rellich.cli; print('numpy.polynomial' in sys.modules)"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"
