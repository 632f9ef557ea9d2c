"""The bulk remarks sweep and the one-T grids against the scalar paths they
replace.

``verify remarks`` draws each sample's spec through ``fixtures._spec_draws``,
takes its groups from ``function_space._cells_and_groups`` and checks blocks of
samples with ``asymptote._scaling_bounds``.  Each piece is held here to the
object-by-object path: ``random_spec``, ``MultistableSpec.groups``,
``TailAsymptote`` and a per-row CSV.  The ratio grid builds one T and checks
the unit sphere once, at its first lambda, refusing what a loop of
``ratio_with_error`` calls would refuse, in the same order.
"""

import json

import numpy as np
import pytest

from multistable import asymptote, cli
from multistable.asymptote import (
    TailAsymptote,
    _ratio_parts,
    _scaling_bounds,
    ratio_with_error,
    scaling_bounds_check,
    tail_asymptote,
)
from multistable.fixtures import _spec_draws, fixture, fixture_names, random_spec
from multistable.function_space import (
    ExponentFunction,
    StepFunction,
    _cells_and_groups,
    refine,
)
from multistable.quadrature import AccuracyError


def _philox(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def _four_points(xi, delta):
    d_lo, d_hi = min(delta, 1.0 / delta), max(delta, 1.0 / delta)
    return [1.0, xi, d_lo * xi, d_hi * xi], d_lo, d_hi


def _scalar_check(spec, xi, delta):
    # the one-spec check on Python floats: T from TailAsymptote at four points
    (one, *pts), d_lo, d_hi = _four_points(xi, delta)
    t1, txi, t_lo, t_hi = TailAsymptote(spec)([one, *pts]).tolist()
    a, b, slack = spec.a, spec.b, 1.0 + 1e-12

    def within(lo, v, hi):
        return lo <= v * slack and v <= hi * slack
    return (within(xi ** -b * t1, txi, xi ** -a * t1),
            within(d_lo ** -a * txi, t_lo, d_lo ** -b * txi),
            within(d_hi ** -b * txi, t_hi, d_hi ** -a * txi))


def _scalar_rows(seed, samples):
    rng = _philox(seed)
    rows = []
    for i in range(samples):
        spec = random_spec(rng)
        xi, delta = float(rng.uniform(1.0, 50.0)), float(rng.uniform(0.05, 20.0))
        assert scaling_bounds_check(spec, xi, delta) == _scalar_check(spec, xi, delta)
        rows.append([i, xi, delta, *map(int, scaling_bounds_check(spec, xi, delta))])
    return rows, rng


@pytest.mark.parametrize("seed", range(31))
def test_sweep_rows_match_scalar_checks(seed, monkeypatch):
    # 40 samples in blocks of 16: two full blocks and a partial one
    monkeypatch.setattr(cli, "_REMARKS_BLOCK", 16)
    blocks = []

    def recorded(groups, a, b, xi, delta):
        blocks.append((groups, a, b))
        return _scaling_bounds(groups, a, b, xi, delta)
    monkeypatch.setattr(cli, "_scaling_bounds", recorded)
    rng = _philox(seed)
    xi, delta, ok = cli._remarks(rng, 40)
    rows, ref_rng = _scalar_rows(seed, 40)
    assert [[i, x, d, *map(int, o)] for i, (x, d, o) in
            enumerate(zip(xi.tolist(), delta.tolist(), ok.tolist()))] == rows
    # both left the stream at the same place
    assert rng.uniform() == ref_rng.uniform()
    # each block got its specs' groups and exponent ranges over all of alpha
    assert [len(g) for g, _, _ in blocks] == [16, 16, 8]
    twin = _philox(seed)
    specs = []
    for _ in range(40):
        specs.append(random_spec(twin))
        twin.uniform(size=2)
    assert [x for blk in blocks for x in zip(*blk)] == [(s.groups, s.a, s.b) for s in specs]


@pytest.mark.parametrize("samples", [31, 32, 33])
def test_verify_remarks_csv_around_the_block_size(samples, tmp_path, monkeypatch):
    # B - 1, B and B + 1 samples, with the CSV formatted in blocks of 10 rows:
    # the file is _write_csv's per-row format of the scalar loop's rows
    monkeypatch.setattr(cli, "_REMARKS_BLOCK", 32)
    monkeypatch.setattr(cli, "_CSV_BLOCK", 10)
    out = tmp_path / "rem.json"
    assert cli.run_command(["verify", "remarks", "--samples", str(samples), "--seed", "11",
                            "--out", str(out)]) == 0
    cli._write_csv(tmp_path / "ref.csv", cli._REMARKS_HEADER.split(","),
                   _scalar_rows(11, samples)[0])
    assert out.with_suffix(".csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_bulk_asymptote_within_two_ulps_of_tail_asymptote(rng):
    specs = [random_spec(rng) for _ in range(400)] + [fixture(n) for n in fixture_names()]
    xi = rng.uniform(1.0, 1e3, len(specs)).tolist()
    delta = np.exp(rng.uniform(-8.0, 8.0, len(specs))).tolist()
    t, _ = _scaling_bounds([s.groups for s in specs], [s.a for s in specs],
                           [s.b for s in specs], xi, delta)
    assert t.shape == (len(specs), 4)
    for k, spec in enumerate(specs):
        ref = TailAsymptote(spec)(_four_points(xi[k], delta[k])[0])
        assert np.all(np.abs(t[k] - ref) <= 2.0 * np.spacing(ref))


def test_padding_is_exact_where_the_points_reach_the_float_range():
    # delta = 5e-324 puts d_lo xi at the smallest subnormal and d_hi xi at inf;
    # the one-group sample is padded next to a two-group one, and its padded
    # term must stay an exact 0 there
    specs = [fixture("two_exp"),
             refine(StepFunction((0.0, 1.0), (1.0,)), ExponentFunction.constant(0.3))]
    xi, delta = [1.0, 1.0], [1.0, 5e-324]
    t, ok = _scaling_bounds([s.groups for s in specs], [s.a for s in specs],
                            [s.b for s in specs], xi, delta)
    for k, spec in enumerate(specs):
        ref = TailAsymptote(spec)(_four_points(xi[k], delta[k])[0])
        assert np.all(np.abs(t[k] - ref) <= 2.0 * np.spacing(ref))
        assert tuple(ok[k].tolist()) == _scalar_check(spec, xi[k], delta[k])
    assert t[1, 3] == 0.0 and np.isfinite(t[1, 2])


def test_exponent_range_spans_all_of_alpha():
    # alpha's 1.9 lies outside f's support, so no group has it; b is still 1.9,
    # which the first sandwich's lower edge xi^-b T(1) reads
    spec = refine(StepFunction((0.0, 1.0), (1.0,)), ExponentFunction((2.0,), (0.5, 1.9)))
    assert [a for a, _ in spec.groups] == [0.5] and spec.b == 1.9
    draws = ([0.0, 1.0], [1.0], [2.0], [0.5, 1.9])
    assert _cells_and_groups(*draws)[1] == spec.groups
    assert scaling_bounds_check(spec, 7.0, 3.0) == _scalar_check(spec, 7.0, 3.0)


def test_bulk_refuses_the_first_bad_sample_as_a_scalar_loop_would():
    g = fixture("two_exp").groups
    ok = ([g, g], [0.8, 0.8], [1.5, 1.5])
    with pytest.raises(ValueError, match="xi must be"):
        _scaling_bounds(*ok, [2.0, float("nan")], [1.0, 1.0])
    # sample 0's delta comes before sample 1's xi
    with pytest.raises(ValueError, match="delta must be"):
        _scaling_bounds(*ok, [2.0, 0.5], [0.0, 1.0])
    # xi before delta before the groups within a sample
    with pytest.raises(ValueError, match="xi must be"):
        _scaling_bounds([(), g], [0.8, 0.8], [1.5, 1.5], [0.5, 2.0], [0.0, 1.0])
    with pytest.raises(ValueError, match="undefined for f == 0"):
        _scaling_bounds([g, ()], [0.8, 0.8], [1.5, 1.5], [2.0, 2.0], [1.0, 1.0])
    zero = refine(StepFunction((0.0, 1.0), (0.0,)), ExponentFunction.constant(1.0))
    with pytest.raises(ValueError, match="undefined for f == 0"):
        scaling_bounds_check(zero, 2.0, 1.0)
    # d_lo^-a past the float range raises, as Python's float power does, and
    # gives no verdict
    with pytest.raises(ArithmeticError):
        scaling_bounds_check(fixture("alpha18"), 1e300, 1e-300)


def test_spec_draws_and_groups_are_random_specs(rng):
    # the sweep's draws and groups against random_spec on a twin stream
    twin = _philox(20260811)
    for _ in range(500):
        draws = _spec_draws(rng)
        spec = random_spec(twin)
        assert draws == (list(spec.f.breakpoints), list(spec.f.coefficients),
                         list(spec.alpha.breakpoints), list(spec.alpha.values))
        assert _cells_and_groups(*draws) == (spec.cells, spec.groups)


def test_column_writer_several_columns_match_per_row_format(tmp_path, monkeypatch):
    # ints, floats and bools, across several blocks and a partial last one, on
    # negatives, -0, subnormals and huge values
    monkeypatch.setattr(cli, "_CSV_BLOCK", 7)
    rng = np.random.default_rng(6)
    edge = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
            -1.7976931348623157e308, 1.7976931348623157e308, 1e300, -1e-300,
            0.1, 1.0 / 3.0, -2.5, 123456789.0]
    n = 60
    x = np.concatenate([edge, rng.standard_cauchy(n - len(edge))
                        * 10.0 ** rng.integers(-300, 300, n - len(edge))])
    y = x[::-1].copy()
    ints = np.concatenate([[0, -1, 2 ** 62, -(2 ** 62)], rng.integers(-10 ** 9, 10 ** 9, n - 4)])
    flags = rng.random(n) < 0.5
    cli._write_column(tmp_path / "block.csv", "i,x,y,ok", ints, x, y, flags,
                      fmt="%d,%.17g,%.17g,%d")
    cli._write_csv(tmp_path / "rows.csv", ["i", "x", "y", "ok"],
                   [[int(i), float(u), float(v), int(f)] for i, u, v, f in zip(ints, x, y, flags)])
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def _off_sphere():
    return refine(StepFunction((0.0, 2.0), (1.0,)), ExponentFunction.constant(0.5))


@pytest.mark.parametrize("lams, message", [
    ([10.0], "unit sphere"),
    ([10.0, 0.5], "unit sphere"),
    ([0.5, 10.0], "lambda >= 1"),
])
def test_ratio_grid_refuses_in_scalar_order(lams, message):
    # each lambda's range check, then the sphere check at the first one only
    with pytest.raises(ValueError, match=message):
        ratio_with_error(_off_sphere(), lams[0])
    with pytest.raises(ValueError, match=message):
        list(_ratio_parts(_off_sphere(), lams))


def test_ratio_grid_t_is_tail_asymptote():
    spec = fixture("three_cell")
    lams = [1.0, 10.0, 1e3, 1e6]
    parts = list(_ratio_parts(spec, lams))
    assert [t for t, _, _ in parts] == [tail_asymptote(spec, lam) for lam in lams]
    assert [(p / t, e / t) for t, p, e in parts] == [ratio_with_error(spec, lam) for lam in lams]


def test_ratio_grid_leaves_its_bound_uncertified(monkeypatch):
    # the grid hands back P's bound as it is; ratio_with_error certifies it
    monkeypatch.setattr(asymptote, "_tails_with_error",
                        lambda spec, lams: [(0.5, 1e-9)] * len(lams))
    spec = fixture("two_exp")
    assert [(p, e) for _, p, e in _ratio_parts(spec, [10.0, 100.0])] == [(0.5, 1e-9)] * 2
    with pytest.raises(AccuracyError, match="tail probability inside ratio"):
        ratio_with_error(spec, 10.0)


def test_ratio_scan_refuses_a_spec_off_the_unit_sphere(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(cli.emit_spec(_off_sphere())))
    out = tmp_path / "rs.csv"
    assert cli.run_command(["ratio-scan", "--spec", str(spec), "--lambdas", "10",
                            "--out", str(out)]) == 2
    assert "unit sphere" in capsys.readouterr().err
    assert not out.exists()
