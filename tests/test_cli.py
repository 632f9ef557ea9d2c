import csv
import hashlib
import json
import math
import os
import re
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
from multistable.asymptote import _ratio_parts
from multistable.fixtures import fixture, fixture_names
from multistable.function_space import normalize_to_sphere, quasinorm
from multistable.sampler import mc_tail

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

    def test_ratio_scan_writes_the_certified_tail(self, tmp_path):
        # the P column is the tail itself, not (P/T) T, which was 1 ulp off on
        # some rows
        lams = np.geomspace(10.0, 1e6, 41).tolist()
        for name in fixture_names():
            out = tmp_path / f"{name}.csv"
            assert run_command(["ratio-scan", "--fixture", name, "--normalize", "--lambdas",
                                *map(repr, lams), "--out", str(out)]) == 0
            with open(out) as fh:
                got = [float(row["P"]) for row in csv.DictReader(fh)]
            parts = _ratio_parts(normalize_to_sphere(fixture(name)), lams)
            assert got == [p for _, p, _ in parts], name

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

    @pytest.mark.parametrize("q,code", [("nan", 2), ("inf", 2), ("1e7", 2), ("1.01", 0),
                                        ("50", 0)])
    def test_verify_lemma3_every_q_builds_or_exits_2(self, q, code, tmp_path, capsys):
        # every q either builds or is refused with a message: nan, inf and
        # 1e7 lie outside (1, 1e6]; q = 1.01 builds no table, as h_q is a
        # band integral of the bump
        out = tmp_path / "l3.json"
        assert run_command(["verify", "lemma3", "--q", q, "--out", str(out)]) == code
        if code:
            assert capsys.readouterr().err.startswith("error: ")
        else:
            assert json.loads(out.read_text())["passed"] is True

    def test_verify_lemma5_fixture(self, tmp_path):
        out = tmp_path / "l5.json"
        rc = run_command(["verify", "lemma5", "--fixture", "two_exp",
                          "--q", "1.5", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["passed"] is True

    def test_verify_lemma2(self, tmp_path):
        out = tmp_path / "l2.json"
        rc = run_command(["verify", "lemma2", "--samples", "1e4", "--seed", "3",
                          "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["passed"] is True
        rows = list(csv.DictReader(open(tmp_path / "l2.csv")))
        assert len(rows) == 1 and rows[0]["passed"] == "1"

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

        # each value half the default abs_tol (1e-10) below 0: clamped, not refused
        monkeypatch.setattr(cli, "_densities_with_error",
                            lambda spec, xs: [(-0.5e-10, 1e-15) for _ in xs])
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

    def test_sample_summary_matches_single_quantiles(self, tmp_path):
        # the summary takes every quantile in one np.quantile pass; each value
        # must equal its own single-quantile call exactly
        out = tmp_path / "s.npy"
        rc = run_command(["sample", "--fixture", "two_exp", "--n", "10001", "--seed", "5",
                          "--format", "npy", "--summary", "--tail-at", "2.0",
                          "--out", str(out)])
        assert rc == 0
        draws = np.load(out)
        with open(str(out) + ".summary.csv", newline="") as fh:
            rows = [(float(r["quantile_or_lambda"]), float(r["value"]))
                    for r in csv.DictReader(fh)]
        quantiles = [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99]
        assert [q for q, _ in rows[:-1]] == quantiles
        for q, value in rows[:-1]:
            assert value == float(np.quantile(draws, q)), q
        assert rows[-1] == (2.0, mc_tail(draws, 2.0)[0])

    def test_sample_summary_refuses_nan_lambda(self, tmp_path, capsys):
        # NaN fails every comparison, so it must not pass as a lambda >= 0
        out = tmp_path / "s.npy"
        rc = run_command(["sample", "--fixture", "cauchy", "--n", "1000", "--format", "npy",
                          "--summary", "--tail-at", "nan", "--out", str(out)])
        assert rc == 2
        assert "lambda must be nonnegative" in capsys.readouterr().err
        assert not Path(str(out) + ".summary.csv").exists()


@pytest.mark.parametrize("lam", ["-1", "-0.5", "nan"])
def test_sample_refuses_a_bad_tail_at_before_drawing(lam, tmp_path, monkeypatch, capsys):
    # the check used to run in mc_tail, after every draw: 1.7 s at --n 1e7
    def refuse(*args, **kwargs):
        raise AssertionError("sample called")

    monkeypatch.setattr(cli, "sample", refuse)
    out = tmp_path / "s.npy"
    rc = run_command(["sample", "--fixture", "cauchy", "--n", "1e7", "--format", "npy",
                      "--summary", "--tail-at", "1.0", lam, "--out", str(out)])
    assert rc == 2
    assert "lambda must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text,n", [("1e7", 10 ** 7), ("1000000", 10 ** 6), ("2.5e3", 2500)])
def test_sample_count_accepts_whole_numbers(text, n):
    args = cli.build_parser().parse_args(["sample", "--fixture", "cauchy", "--n", text])
    assert args.n == n and type(args.n) is int


@pytest.mark.parametrize("text", ["1.5", "0", "-3", "nan", "inf", "ten"])
def test_sample_count_refuses_others(text, tmp_path, capsys):
    out = tmp_path / "s.npy"
    rc = run_command(["sample", "--fixture", "cauchy", "--n", text, "--format", "npy",
                      "--out", str(out)])
    assert rc == 2
    assert "argument --n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["verify", "remarks", "--samples", "0"],
                                  ["verify", "remarks", "--samples", "-3"],
                                  ["verify", "lemma2", "--samples", "0"]])
def test_verify_samples_refuses_counts_below_one(argv, tmp_path, capsys):
    # remarks over no samples used to pass, having checked nothing, and lemma2
    # to fail inside numpy on a zero-size array
    out = tmp_path / "v.json"
    assert run_command(argv + ["--out", str(out)]) == 2
    assert "argument --samples" in capsys.readouterr().err
    assert not out.exists()


def test_verify_parseval_refuses_an_empty_delta_grid(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run_command(["verify", "parseval", "--fixture", "two_exp", "--deltas",
                        "--out", str(out)]) == 2
    assert "at least one delta" in capsys.readouterr().err
    assert not out.exists()


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("seed, csv_sha256", [
    ("0", "b7caabf6f39bd8053ca393476dee9f7833535a1274b177b82daa663adaee885b"),
    ("7", "11ec3757da15b32a9bbf158ef4ebf3f41db52d84a0330a0ce993137a388e5457")])
def test_verify_remarks_output_pinned(seed, csv_sha256, tmp_path):
    # each CSV row holds a draw's (xi, delta), which come from the stream after
    # that draw's spec, and its three verdicts: the digest pins random_spec's
    # Generator calls and every scaling check
    out = tmp_path / "rem.json"
    assert run_command(["verify", "remarks", "--samples", "1000", "--seed", seed,
                        "--out", str(out)]) == 0
    assert _sha256(out.with_suffix(".csv")) == csv_sha256
    assert _sha256(out) == "3ea2035605345e8900a161a6c2908eddb84581bbed902ca3521a1865a17ff059"


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
    ["ratio-scan", "--fixture", "two_exp", "--lambdas", "inf"],
    ["verify", "lemma1", "--fixture", "two_exp", "--lambdas", "inf"],
    ["verify", "lemma6", "--fixture", "two_exp", "--lambdas", "10", "inf"],
    ["verify", "lemma5", "--fixture", "two_exp", "--lambdas", "nan"],
    ["verify", "parseval", "--fixture", "two_exp", "--deltas", "1", "inf"],
    ["asymptote", "--fixture", "two_exp", "--lambdas", "nan"],
    ["density", "--fixture", "two_exp", "--x", "1", "nan"],
    ["cf", "--fixture", "two_exp", "--theta", "1", "nan"],
    ["quasinorm", "--fixture", "three_cell", "--rel-tol", "nan"],
])
def test_non_finite_grid_points_exit_2(argv, tmp_path, capsys):
    # refused with a message, not a ZeroDivisionError or OverflowError (exit 1);
    # quasinorm only prints its value, so it takes no --out
    out = [] if argv[0] == "quasinorm" else ["--out", str(tmp_path / "o.json")]
    assert run_command(argv + out) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_a_refused_lambda_wins_over_an_earlier_certificate(tmp_path, capsys):
    # the ratio grid is checked before any tail is planned, so lambda = inf is
    # refused (exit 2) though the tail at 10 would miss abs-tol 1e-25 (exit 3)
    out = tmp_path / "o.csv"
    rc = run_command(["ratio-scan", "--fixture", "two_exp", "--lambdas", "10", "inf",
                      "--abs-tol", "1e-25", "--out", str(out)])
    assert rc == 2
    assert "lambda" in capsys.readouterr().err and not out.exists()


def test_verify_takes_no_abs_tol(tmp_path):
    # every verify target carries its own error bounds; no tolerance is read
    rc = run_command(["verify", "lemma1", "--fixture", "cauchy", "--abs-tol", "1e-10",
                      "--out", str(tmp_path / "l1.json")])
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


def test_cached_parser_keeps_its_list_defaults(tmp_path):
    # the parser is built once per process, so its list defaults are shared
    # between runs; runs on the default --lambdas and --deltas must leave them
    ap = cli.build_parser()
    assert cli.build_parser() is ap
    for argv in (["verify", "lemma1", "--fixture", "two_exp"],
                 ["verify", "parseval", "--fixture", "two_exp"],
                 ["ratio-scan", "--fixture", "two_exp"]):
        assert cli.run_command(argv + ["--out", str(tmp_path / "out.json")]) == 0
    assert ap.parse_args(["verify", "parseval"]).deltas == [0.1, 1.0]
    assert ap.parse_args(["verify", "lemma1"]).lambdas is None
    assert ap.parse_args(["ratio-scan"]).lambdas == [100.0, 1000.0, 10000.0]
    assert ap.parse_args(["sample", "--n", "1"]).tail_at == []
    assert cli._LEMMA_DEFAULT_LAMBDAS == [10.0, 50.0, 100.0, 1000.0]


def test_density_takes_a_negative_x_in_exponent_form(tmp_path):
    out = tmp_path / "d.csv"
    assert run_command(["density", "--fixture", "cauchy", "--x", "-1e-6", "1",
                        "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [float(r["x_or_lambda"]) for r in rows] == [-1e-6, 1.0]


def test_sample_tail_at_in_exponent_form_is_refused_as_a_lambda(tmp_path, capsys):
    # -1e-3 reaches the lambda check, not argparse's usage error
    rc = run_command(["sample", "--fixture", "cauchy", "--n", "10", "--summary",
                      "--tail-at", "-1e-3", "--out", str(tmp_path / "s.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "lambda must be nonnegative" in err and "usage" not in err


@pytest.mark.parametrize("argv, dest", [
    (["cf", "--theta"], "theta"), (["density", "--x"], "x"), (["tail", "--lambdas"], "lambdas"),
    (["asymptote", "--lambdas"], "lambdas"), (["ratio-scan", "--lambdas"], "lambdas"),
    (["sample", "--n", "1", "--tail-at"], "tail_at"),
    (["verify", "lemma1", "--lambdas"], "lambdas"), (["verify", "parseval", "--deltas"], "deltas")])
def test_number_lists_take_negatives_in_every_float_form(argv, dest, capsys):
    # argparse alone reads only -1 and -.5 forms as negative numbers; the
    # flag after the list must still parse as a flag, and -h as help
    ap = cli.build_parser()
    args = ap.parse_args(argv + ["-1e-6", "-1.5E+3", "-inf", "--fixture", "cauchy"])
    assert getattr(args, dest) == [-1e-6, -1.5e3, -math.inf] and args.fixture == "cauchy"
    with pytest.raises(SystemExit) as exc:
        ap.parse_args(argv + ["-1e-6", "-h"])
    assert exc.value.code == 0 and "usage:" in capsys.readouterr().out


def test_sample_tail_at_needs_summary(tmp_path, monkeypatch, capsys):
    # the tails are written only to the summary, so without it they used to be
    # dropped with exit 0; refused before any draw
    def refuse(*args, **kwargs):
        raise AssertionError("sample called")

    monkeypatch.setattr(cli, "sample", refuse)
    out = tmp_path / "s.csv"
    rc = run_command(["sample", "--fixture", "cauchy", "--n", "100", "--tail-at", "10",
                      "--out", str(out)])
    assert rc == 2
    assert "--summary" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, csv_sha256", [
    (["cf", "--fixture", "two_exp", "--theta", "2", "-0.5", "1e-3", "10"],
     "f323819e2a2aa2ac9a27979a8e05832b8c0e0ea8e41f1c25f0043d5528c182b9"),
    (["density", "--fixture", "cauchy", "--x", "-1e-6", "1", "1e6"],
     "b46d7a0c7db8beece54cdd9514155ae8036249b731eada5ceea10c563fdaca29"),
    (["tail", "--fixture", "two_exp", "--lambdas", "1000", "1", "10", "--abs-tol", "1e-13"],
     "94529bd83ad5af38f1da9d2fbc4a3ab8d0d4d92c88375fb8639e7ecd6a6296ed"),
    (["asymptote", "--fixture", "two_exp", "--lambdas", "1000", "10", "100"],
     "c031a59ee65ec574fd9b5dbe52d5f47e0aeb6bf93c9b74b8114fde670c763a7b"),
    (["ratio-scan", "--fixture", "two_exp", "--lambdas", "10", "1000"],
     "07a272bbdf02cd7ae467b094e054fd050ecee002b166e1d50857c901524ad7a8"),
    (["ratio-scan", "--fixture", "two_exp", "--normalize", "--lambdas", "10", "1000"],
     "5d45e5ffb0bbbe5142414ef361a88b9ddedf8162b5df05c104484a7562d50092"),
    (["verify", "lemma1", "--fixture", "two_exp"],
     "d44e3f8117451c720a93eea92fb362b1e7035fd051fb0f1bdf0f9a209d51fb15"),
    (["verify", "lemma5", "--fixture", "two_exp"],
     "e42ca801858d8758561f9e3412bb801af06dc32fa3a5fe646fa699b0d66a5f0e"),
    (["verify", "lemma6", "--fixture", "two_exp"],
     "c0dbc9fd6a9399414ab1ae27c1fcf730a25ff91f707bb087e244d45fe6ea14c2"),
    (["verify", "parseval", "--fixture", "two_exp"],
     "487bcd6e2435f126ebdd3a2aaa86800706cdbab3dc7f223b3047b1fc8d7de0ac"),
    (["verify", "lemma3"],
     "56a295d2f69e967f807d87d395d4cf876c19587fd8de4da8f95c493cfadf0a7e"),
])
def test_grid_and_verify_csvs_pinned(argv, csv_sha256, tmp_path):
    # every grid command and the verify sweeps on one fixture: rows sorted,
    # columns in header order, 17 significant digits, sorted grid points
    out = tmp_path / ("o.json" if argv[0] == "verify" else "o.csv")
    assert run_command(argv + ["--out", str(out)]) == 0
    assert _sha256(out.with_suffix(".csv")) == csv_sha256


def test_lemma3_json_rows_write_ok_as_a_boolean(tmp_path):
    # the default gammas are numpy floats; a numpy.bool_ ok would be written
    # by json.dump(..., default=float) as 1.0
    out = tmp_path / "l3.json"
    assert run_command(["verify", "lemma3", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["grid"]
    assert len(rows) == 17 and all(r["ok"] is True for r in rows)


def test_tail_refuses_a_nan_abs_tol(tmp_path, capsys):
    # a nan tolerance used to switch certification off: every "err > nan" is false
    out = tmp_path / "t.csv"
    assert run_command(["tail", "--fixture", "cauchy", "--lambdas", "10", "--abs-tol", "nan",
                        "--out", str(out)]) == 2
    assert "abs_tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lemma", ["lemma1", "lemma5", "lemma6"])
def test_verify_refuses_an_empty_lambda_grid(lemma, tmp_path, capsys):
    # an empty --lambdas used to fall back to the default grid
    out = tmp_path / "v.json"
    assert run_command(["verify", lemma, "--fixture", "cauchy", "--lambdas",
                        "--out", str(out)]) == 2
    assert "argument --lambdas" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "lemma1", "--fixture", "cauchy", "--q", "1e6", "--lambdas", "1e308"],
    ["verify", "lemma6", "--fixture", "cauchy", "--q", "2", "--lambdas", "1.7e308"],
])
def test_lemma_sweeps_refuse_an_eta_past_the_float_range(argv, tmp_path, capsys):
    # q^(j0+1) passes the float range: refused with exit 2 (an OverflowError
    # used to escape run_command)
    out = tmp_path / "v.json"
    assert run_command(argv + ["--out", str(out)]) == 2
    assert "passes the largest float" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lam", ["1e172", "1e180", "1e250"])
def test_lemma6_refuses_a_lambda_whose_asymptote_underflows(lam, tmp_path, capsys):
    # alpha18's T(lambda) is subnormal at 1e172 and 0 from about 1e180 on; the
    # ratios eta/T used to raise ZeroDivisionError (exit 1, with a traceback)
    out = tmp_path / "v.json"
    assert run_command(["verify", "lemma6", "--fixture", "alpha18", "--q", "2",
                        "--lambdas", "10", lam, "--out", str(out)]) == 2
    assert "underflows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("delta", ["1e250", "1e300"])
def test_parseval_at_a_tiny_xi_ends_in_an_accuracy_error(delta, tmp_path, capsys):
    # eta at xi = 1/delta: the truncation bound's k^-alpha passes the float
    # range (an OverflowError used to escape), then so would the cf's exponent
    out = tmp_path / "p.json"
    assert run_command(["verify", "parseval", "--fixture", "two_exp", "--deltas", delta,
                        "--out", str(out)]) == 3
    assert "floating-point range" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    dict(CAUCHY_DOC, breakpoints=[0.0, 1e6], alpha_values=[0.2]),
    dict(CAUCHY_DOC, breakpoints=[0.0, 1e12], alpha_values=[0.05])])
def test_parseval_at_a_huge_delta_on_a_tiny_t_cf_exits_3(doc, tmp_path):
    # the panel table's e^(s - s0) would pass the float range: an OverflowError
    # (or ZeroDivisionError) used to escape run_command with a traceback
    spec = tmp_path / "wide.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "p.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
        if p))
    proc = subprocess.run([sys.executable, "-m", "multistable.cli", "verify", "parseval",
                           "--spec", str(spec), "--q", "2.5", "--deltas", "1e290",
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert "floating-point range" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_tail_at_a_subnormal_lambda(tmp_path):
    # lambda sin(phi) underflows to 0 at 5e-324 on two_exp's ray, where the
    # tail-cf switch took its log: the command exited 2 with a math domain error
    out = tmp_path / "t.csv"
    assert run_command(["tail", "--fixture", "two_exp", "--lambdas", "5e-324", "1",
                        "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [float(r["x_or_lambda"]) for r in rows] == [5e-324, 1.0]
    assert float(rows[0]["value"]) == 1.0 and 0.0 < float(rows[1]["value"]) < 1.0


# what each verify target reads, besides --out, and a value for every verify flag:
# (argv tokens, the parsed value, the default)
_VERIFY_READS = {
    "lemma1": ("--spec", "--fixture", "--q", "--lambdas"),
    "lemma2": ("--samples", "--seed"),
    "lemma3": ("--q",),
    "lemma5": ("--spec", "--fixture", "--q", "--lambdas"),
    "lemma6": ("--spec", "--fixture", "--q", "--lambdas"),
    "parseval": ("--spec", "--fixture", "--q", "--deltas"),
    "remarks": ("--samples", "--seed"),
}
_FLAG_VALUES = {
    "--spec": (["s.json"], "s.json", None),
    "--fixture": (["two_exp"], "two_exp", None),
    "--q": (["2"], 2.0, 1.5),
    "--lambdas": (["10", "1e3"], [10.0, 1000.0], None),
    "--deltas": (["0.5"], [0.5], [0.1, 1.0]),
    "--samples": (["1e4"], 10000, 1000),
    "--seed": (["7"], 7, 0),
}
_UNREAD = [(target, flag) for target, reads in _VERIFY_READS.items()
           for flag in _FLAG_VALUES if flag not in reads]


def test_the_verify_targets_and_their_unread_flags():
    assert list(cli._TARGETS) == list(_VERIFY_READS)
    assert len(_UNREAD) == 28


@pytest.mark.parametrize("target, flag", _UNREAD)
def test_verify_refuses_a_flag_its_target_does_not_read(target, flag, tmp_path, capsys):
    # the flag was accepted and ignored: `verify lemma2 --spec missing.json
    # --q 7` reported "lemma2: pass"
    spec = ["--fixture", "two_exp"] if "--fixture" in _VERIFY_READS[target] else []
    rc = run_command(["verify", target, *spec, flag, *_FLAG_VALUES[flag][0],
                      "--out", str(tmp_path / "v.json")])
    assert rc == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", _VERIFY_READS)
def test_verify_target_help_lists_only_its_flags(target, capsys):
    assert run_command(["verify", target, "-h"]) == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert listed == {*_VERIFY_READS[target], "--out", "--help"}


@pytest.mark.parametrize("target", _VERIFY_READS)
def test_verify_flags_a_target_reads_parse_as_before(target):
    ap = cli.build_parser()
    bare = ap.parse_args(["verify", target])
    assert bare.lemma == target and bare.out is None
    for flag in _FLAG_VALUES:
        assert hasattr(bare, flag[2:]) is (flag in _VERIFY_READS[target])
    for flag in _VERIFY_READS[target]:
        tokens, value, default = _FLAG_VALUES[flag]
        assert getattr(bare, flag[2:]) == default
        assert getattr(ap.parse_args(["verify", target, flag, *tokens]), flag[2:]) == value


@pytest.mark.parametrize("argv", [
    ["quasinorm"], ["cf", "--theta", "1"], ["density", "--x", "1"], ["tail", "--lambdas", "10"],
    ["asymptote", "--lambdas", "10"], ["ratio-scan"], ["sample", "--n", "10"],
    ["verify", "lemma1"], ["verify", "lemma5"], ["verify", "lemma6"], ["verify", "parseval"]])
def test_spec_and_fixture_together_exit_2(argv, cauchy_file, tmp_path, capsys):
    # the fixture used to win and the file was never read
    out = tmp_path / "o.json"
    rc = run_command(argv + ["--fixture", "two_exp", "--spec", str(cauchy_file)]
                     + ([] if argv[0] == "quasinorm" else ["--out", str(out)]))
    assert rc == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".csv").exists()


def test_quasinorm_takes_no_out(tmp_path, capsys):
    # quasinorm only prints its value; --out used to be accepted and unwritten
    out = tmp_path / "q.txt"
    assert run_command(["quasinorm", "--fixture", "two_exp", "--out", str(out)]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_sample_refuses_a_scale_past_the_float_range(tmp_path, capsys):
    # W = 1e18 at alpha 0.05: W^(1/alpha) raised a raw OverflowError (exit 1)
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps(dict(CAUCHY_DOC, breakpoints=[0.0, 1e18], alpha_values=[0.05])))
    out = tmp_path / "s.csv"
    assert run_command(["sample", "--spec", str(spec), "--n", "10", "--out", str(out)]) == 2
    assert "W^(1/alpha)" in capsys.readouterr().err
    assert not out.exists()
