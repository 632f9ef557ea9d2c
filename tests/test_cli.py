import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from multistable import cli
from multistable.cli import (
    SpecFormatError,
    emit_spec,
    parse_spec,
    parse_spec_dict,
    run_command,
)
from multistable.function_space import quasinorm

CAUCHY_DOC = {
    "breakpoints": [0.0, 1.0],
    "coefficients": [1.0],
    "alpha_breakpoints": [],
    "alpha_values": [1.0],
}


@pytest.fixture
def cauchy_file(tmp_path):
    p = tmp_path / "cauchy.json"
    p.write_text(json.dumps(CAUCHY_DOC))
    return p


class TestParseSpec:
    def test_minimal_cauchy(self, cauchy_file):
        spec = parse_spec(cauchy_file)
        assert len(spec.cells) == 1
        assert quasinorm(spec) == 1.0

    def test_alpha_two_rejected(self, tmp_path):
        doc = dict(CAUCHY_DOC, alpha_values=[2.0])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SpecFormatError, match="Gaussian boundary"):
            parse_spec(p)

    def test_unsorted_breakpoints(self, tmp_path):
        doc = dict(CAUCHY_DOC, breakpoints=[1.0, 0.0])
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SpecFormatError, match="strictly increasing"):
            parse_spec(p)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "garbage.json"
        p.write_text("{not json")
        with pytest.raises(SpecFormatError, match="not valid JSON"):
            parse_spec(p)

    def test_missing_field(self, tmp_path):
        doc = {k: v for k, v in CAUCHY_DOC.items() if k != "alpha_values"}
        p = tmp_path / "missing.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(SpecFormatError, match="missing"):
            parse_spec(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecFormatError, match="cannot read"):
            parse_spec(tmp_path / "nope.json")

    def test_round_trip(self, cauchy_file):
        spec = parse_spec(cauchy_file)
        again = parse_spec_dict(emit_spec(spec))
        assert again.f == spec.f and again.alpha == spec.alpha


class TestRunCommand:
    def test_quasinorm_fixture(self, capsys):
        assert run_command(["quasinorm", "--fixture", "two_exp"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(1.0, abs=1e-11)

    def test_quasinorm_mixed_oracle(self, tmp_path, capsys):
        doc = {
            "breakpoints": [0.0, 1.0, 2.0],
            "coefficients": [1.0, 1.0],
            "alpha_breakpoints": [1.0],
            "alpha_values": [0.5, 1.5],
        }
        p = tmp_path / "mixed.json"
        p.write_text(json.dumps(doc))
        assert run_command(["quasinorm", "--spec", str(p)]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.148, abs=5e-4)

    def test_unknown_command(self):
        assert run_command(["frobnicate"]) != 0

    def test_bad_spec_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(dict(CAUCHY_DOC, alpha_values=[2.0])))
        assert run_command(["quasinorm", "--spec", str(p)]) == 2
        assert "Gaussian boundary" in capsys.readouterr().err

    def test_ratio_scan_approaches_one(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        rc = run_command(["ratio-scan", "--fixture", "cauchy",
                          "--lambdas", "100", "1000", "10000",
                          "--abs-tol", "1e-12", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,T,P,ratio,abs_err_bound"
        ratios = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(abs(r - 1.0) < 0.05 for r in ratios)
        devs = [abs(r - 1.0) for r in ratios]
        assert devs[0] > devs[1] > devs[2]

    def test_density_csv_and_17_digits(self, tmp_path):
        out = tmp_path / "d.csv"
        rc = run_command(["density", "--fixture", "cauchy", "--x", "0", "1",
                          "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x_or_lambda,value,est_error"
        val = lines[1].split(",")[1]
        assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 16
        assert float(val) == pytest.approx(1.0 / math.pi, abs=1e-9)

    def test_tail_accuracy_error_exit(self, tmp_path, capsys):
        rc = run_command(["tail", "--fixture", "cauchy", "--lambdas", "10000",
                          "--abs-tol", "1e-25", "--out", str(tmp_path / "t.csv")])
        assert rc == 3
        assert "accuracy error" in capsys.readouterr().err

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            rc = run_command(["sample", "--fixture", "two_exp", "--n", "500",
                              "--seed", "42", "--out", str(out)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        rc = run_command(["sample", "--fixture", "two_exp", "--n", "500",
                          "--seed", "43", "--out", str(tmp_path / "c.csv")])
        assert (tmp_path / "c.csv").read_bytes() != a.read_bytes()

    def test_verify_lemma3_json_report(self, tmp_path):
        out = tmp_path / "rep.json"
        rc = run_command(["verify", "lemma3", "--q", "1.5", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["lemma"] == "lemma3" and report["passed"] is True
        assert (tmp_path / "rep.csv").exists()

    def test_verify_lemma1_at_q_where_the_bump_cancelled(self, tmp_path):
        # at q = 1.3 the transition's top end rounds to t = 1 - 8e-16, where
        # 1 - S5(t) used to come out at -1e-13 and fail the build check
        out = tmp_path / "l1.json"
        rc = run_command(["verify", "lemma1", "--fixture", "cauchy", "--q", "1.3",
                          "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_verify_lemma5_fixture(self, tmp_path):
        out = tmp_path / "l5.json"
        rc = run_command(["verify", "lemma5", "--fixture", "two_exp",
                          "--q", "1.5", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_verify_remarks_random_sweep(self, tmp_path):
        out = tmp_path / "rem.json"
        rc = run_command(["verify", "remarks", "--samples", "100",
                          "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MULTISTABLE_OUTDIR", str(tmp_path / "outputs"))
        rc = run_command(["cf", "--fixture", "cauchy", "--theta", "1.0"])
        assert rc == 0
        assert (tmp_path / "outputs" / "cf.csv").exists()

    def test_density_clamp_budget(self, tmp_path, monkeypatch, capsys):
        # more than 1% of grid values needing the negative-clamp fails the run
        import multistable.cli as cli

        monkeypatch.setattr(cli, "density_with_error",
                            lambda spec, x, cfg: (-0.5 * cfg.abs_tol, 1e-15))
        rc = run_command(["density", "--fixture", "cauchy", "--x", "1", "2", "3",
                          "--out", str(tmp_path / "d.csv")])
        assert rc == 4
        assert "clamping" in capsys.readouterr().err

    def test_sample_npy_and_summary(self, tmp_path):
        out = tmp_path / "s.npy"
        rc = run_command(["sample", "--fixture", "cauchy", "--n", "1000",
                          "--seed", "1", "--format", "npy", "--summary",
                          "--tail-at", "1.0", "--out", str(out)])
        assert rc == 0
        draws = np.load(out)
        assert draws.shape == (1000,)
        assert Path(str(out) + ".summary.csv").exists()


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sample_csv_blocks_match_per_row_format(tmp_path, monkeypatch):
    # the block writer against the per-row _fmt path, across several blocks
    # and a partial last one, on negatives, subnormals, huge values and -0
    monkeypatch.setattr(cli, "_CSV_BLOCK", 7)
    rng = np.random.default_rng(5)
    edge = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
            -1.7976931348623157e308, 1.7976931348623157e308, 1e300, -1e-300,
            0.1, 1.0 / 3.0, -2.5, 123456789.0]
    values = np.concatenate([edge, rng.standard_cauchy(50) * 10.0 ** rng.integers(-300, 300, 50)])
    cli._write_column(tmp_path / "block.csv", "draw", values)
    cli._write_csv(tmp_path / "rows.csv", ["draw"], [[float(v)] for v in values])
    assert _sha256(tmp_path / "block.csv") == _sha256(tmp_path / "rows.csv")
    # end to end: the CSV of `sample` is the per-row format of its npy draws
    for fmt in ("csv", "npy"):
        assert run_command(["sample", "--fixture", "three_cell", "--n", "3001", "--seed", "9",
                            "--format", fmt, "--out", str(tmp_path / f"s.{fmt}")]) == 0
    draws = np.load(tmp_path / "s.npy")
    cli._write_csv(tmp_path / "ref.csv", ["draw"], [[float(d)] for d in draws])
    assert _sha256(tmp_path / "s.csv") == _sha256(tmp_path / "ref.csv")


@pytest.mark.parametrize("flag", [["--policy", "adaptive_panels"], ["--truncation", "50"],
                                  ["--max-panels", "40"]])
@pytest.mark.parametrize("cmd,grid", [("density", "--x"), ("tail", "--lambdas"),
                                      ("ratio-scan", "--lambdas")])
def test_real_axis_knobs_rejected(cmd, grid, flag, tmp_path):
    # the rotated-contour rule is the only inversion route, so nothing selects
    # or tunes another
    rc = run_command([cmd, "--fixture", "cauchy", grid, "10", *flag,
                      "--out", str(tmp_path / "o.csv")])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["tail", "--fixture", "two_exp", "--lambdas", "10", "10000"],
    ["verify", "lemma1", "--fixture", "cauchy", "--q", "1.25"],
    ["verify", "parseval", "--fixture", "two_exp"],
])
def test_cli_runs_with_scipy_blocked(argv, tmp_path):
    # scipy is a test oracle only: the library and the CLI must not import it
    src = str(Path(cli.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run_without_scipy.py")), *argv,
         "--out", str(tmp_path / ("out.json" if argv[0] == "verify" else "out.csv"))],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
