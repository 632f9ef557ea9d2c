"""The one certification check shared by the library and the CLI."""

import pytest

import multistable.cli as cli
import multistable.inversion as inversion
from multistable.cli import run_command
from multistable.fixtures import fixture
from multistable.inversion import _certified_density
from multistable.quadrature import AccuracyError, QuadratureConfig, _certify

TOL = 1e-10
CFG = QuadratureConfig(abs_tol=TOL)
ABOVE = TOL * (1.0 + 1e-12)


# (value, err, expected density or None when it must raise, achieved bound)
CASES = [
    pytest.param(0.25, TOL, 0.25, None, id="err-at-tol-passes"),
    pytest.param(0.25, ABOVE, None, ABOVE, id="err-just-above-tol-raises"),
    pytest.param(-0.5 * TOL, 1e-15, 0.0, None, id="small-negative-clamps"),
    pytest.param(-TOL, 1e-15, 0.0, None, id="minus-tol-clamps"),
    pytest.param(-2.0 * TOL, 1e-15, None, 2.0 * TOL, id="below-minus-tol-raises"),
]


@pytest.mark.parametrize("value,err,expected,achieved", CASES)
def test_certification(value, err, expected, achieved, tmp_path, monkeypatch, capsys):
    if expected is None:
        with pytest.raises(AccuracyError) as exc:
            _certified_density("density", value, err, CFG)
        assert exc.value.achieved == achieved
    else:
        assert _certified_density("density", value, err, CFG) == expected
    # the bare bound check only looks at err
    if err > TOL:
        with pytest.raises(AccuracyError) as exc:
            _certify("tail probability", err, CFG)
        assert exc.value.achieved == err
    else:
        _certify("tail probability", err, CFG)
    _certify("eta error bound", err, None)  # no cfg, no certificate

    # the library density and the CLI density agree on the same (value, err)
    monkeypatch.setattr(inversion, "density_with_error", lambda spec, x, cfg: (value, err))
    monkeypatch.setattr(cli, "_densities_with_error", lambda spec, xs: [(value, err) for _ in xs])
    spec = fixture("cauchy")
    if expected is None:
        with pytest.raises(AccuracyError):
            inversion.density(spec, 1.0, CFG)
    else:
        assert inversion.density(spec, 1.0, CFG) == expected
    rc = run_command(["density", "--fixture", "cauchy", "--x", "1", "--abs-tol", str(TOL),
                      "--out", str(tmp_path / "d.csv")])
    stderr = capsys.readouterr().err
    if expected is None:
        assert rc == 3 and "accuracy error" in stderr
    else:
        # one clamped value out of one is over the CLI's 1% clamp budget
        assert rc == (4 if value < 0.0 else 0)
