import json
import math
from pathlib import Path

import numpy as np
import pytest

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
