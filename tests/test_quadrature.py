import math

import numpy as np
import pytest

from multistable import quadrature
from multistable.quadrature import (
    AccuracyError,
    QuadratureConfig,
    adaptive_gk,
    fourier_integral,
    oscillatory_integral,
)


class TestConfig:
    def test_defaults_valid(self):
        QuadratureConfig()

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(TypeError):
            QuadratureConfig(max_panels=48)


def test_adaptive_gk_smooth():
    val, err = adaptive_gk(np.exp, 0.0, 1.0, 1e-13)
    assert val == pytest.approx(math.e - 1.0, abs=1e-13)


def test_adaptive_gk_endpoint_kink():
    # integrand with an x^0.3 endpoint singularity in the derivative
    val, err = adaptive_gk(lambda x: x ** 0.3, 0.0, 1.0, 1e-12)
    assert val == pytest.approx(1.0 / 1.3, abs=1e-10)


def test_zero_frequency_integrates_the_whole_half_line():
    # the omega = 0 route has no cut-off: its bound covers the mass beyond the
    # last panel, so e^-t integrates to 1 and not to 1 - 1/e on [0, 1]
    cfg = QuadratureConfig()
    assert oscillatory_integral(lambda t: np.exp(-t), 0.0, cfg) == pytest.approx(
        1.0, abs=cfg.abs_tol)
    with pytest.raises(TypeError):
        QuadratureConfig(truncation_theta=1.0)


class TestClosedForms:
    # int_0^inf cos(w t) e^-t dt = 1/(1+w^2); sin -> w/(1+w^2)
    def test_no_oscillation(self):
        cfg = QuadratureConfig(abs_tol=1e-12)
        assert oscillatory_integral(lambda t: np.exp(-t), 0.0, cfg) == pytest.approx(
            1.0, abs=1e-12)

    def test_cos_unit_frequency(self):
        cfg = QuadratureConfig(abs_tol=1e-12)
        assert oscillatory_integral(lambda t: np.exp(-t), 1.0, cfg) == pytest.approx(
            0.5, abs=1e-12)

    def test_sine_over_t(self):
        cfg = QuadratureConfig(abs_tol=1e-12)
        got = oscillatory_integral(lambda t: np.exp(-t) / t, 1.0, cfg, kernel="sin")
        assert got == pytest.approx(math.atan(1.0), abs=1e-12)

    def test_sin_zero_frequency_vanishes(self):
        cfg = QuadratureConfig(abs_tol=1e-12)
        assert oscillatory_integral(lambda t: np.exp(-t), 0.0, cfg, kernel="sin") == 0.0

    @pytest.mark.parametrize("omega", [0.3, 2.0, 17.0, 300.0, 1e4])
    def test_cos_frequency_sweep(self, omega):
        cfg = QuadratureConfig(abs_tol=1e-12)
        val, err = fourier_integral(lambda t: np.exp(-t), omega, "cos", cfg)
        true = 1.0 / (1.0 + omega * omega)
        assert abs(val - true) < 1e-12
        assert abs(val - true) <= max(err, 5e-15)

    @pytest.mark.parametrize("omega", [0.5, 5.0, 123.0, 1e4])
    def test_arctan_sweep(self, omega):
        # error estimate must cover the true error across four decades
        cfg = QuadratureConfig(abs_tol=1e-13)
        val, err = fourier_integral(lambda t: np.exp(-t) / t, omega, "sin", cfg)
        true = math.atan(omega)
        assert abs(val - true) < 1e-13
        assert abs(val - true) <= max(err, 1e-14)


def test_unknown_kernel():
    with pytest.raises(ValueError):
        fourier_integral(lambda t: np.exp(-t), 1.0, "tan", QuadratureConfig())


def test_negative_frequency():
    with pytest.raises(ValueError):
        fourier_integral(lambda t: np.exp(-t), -1.0, "cos", QuadratureConfig())


def test_accuracy_error_carries_achieved_bound(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 48)
    cfg = QuadratureConfig(abs_tol=1e-16)
    with pytest.raises(AccuracyError) as exc:
        oscillatory_integral(lambda t: np.exp(-t) / t, 5000.0, cfg, kernel="sin")
    assert exc.value.achieved > 0.0


def test_adaptive_panels_matches_default_policy():
    # QUADPACK's weighted cosine rule on [0, 2000] is an independent reference;
    # the envelope beyond 2000 is below e^-200
    from scipy.integrate import quad

    env = lambda t: np.exp(-(np.abs(t) ** 0.7))
    a = QuadratureConfig(abs_tol=1e-10)
    va, _ = fourier_integral(env, 3.0, "cos", a)
    vb, _ = quad(env, 0.0, 2000.0, weight="cos", wvar=3.0, epsabs=1e-12, limit=5000)
    assert va == pytest.approx(vb, abs=2e-10)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_config_refuses_a_tolerance_that_is_not_finite(tol):
    # abs_tol = nan would pass "abs_tol <= 0" and make every "err > abs_tol" false
    with pytest.raises(ValueError):
        QuadratureConfig(tol)


# the closed-form sweep: every call returns within its own bound or raises
# AccuracyError with a bound that is finite or inf, never nan
_SWEEP_TOLS = (1e-10, 1e-11, 1e-12, 1e-13, 1e-14, 1e-15)


def _within_bound_or_raises(env, omega, true, tols):
    for tol in tols:
        try:
            val, err = fourier_integral(env, omega, "cos", QuadratureConfig(tol))
        except AccuracyError as exc:
            assert not math.isnan(exc.achieved), tol
        else:
            assert abs(val - true) <= err, (tol, val - true, err)


@pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 2.0, 3.0])
def test_zero_frequency_power_tails_within_bound_or_raise(p):
    _within_bound_or_raises(lambda t: (1.0 + t) ** -p, 0.0, 1.0 / (p - 1.0), _SWEEP_TOLS)


@pytest.mark.parametrize("beta", [0.2, 0.3, 0.5, 0.7, 1.0])
def test_zero_frequency_stretched_exponentials_within_bound_or_raise(beta):
    _within_bound_or_raises(lambda t: np.exp(-t ** beta), 0.0, math.gamma(1.0 + 1.0 / beta),
                            _SWEEP_TOLS)


@pytest.mark.parametrize("omega", [0.1, 1.0, 5.0, 30.0])
def test_oscillatory_closed_forms_within_bound_or_raise(omega):
    # 1/(1+t^2) at 1e-15, like 1/(1+t), runs to the panel cap (seconds a call)
    _within_bound_or_raises(lambda t: np.exp(-t), omega, 1.0 / (1.0 + omega * omega),
                            _SWEEP_TOLS)
    _within_bound_or_raises(lambda t: np.exp(-t * t), omega,
                            0.5 * math.sqrt(math.pi) * math.exp(-0.25 * omega * omega),
                            _SWEEP_TOLS)
    _within_bound_or_raises(lambda t: 1.0 / (1.0 + t * t), omega,
                            0.5 * math.pi * math.exp(-omega), _SWEEP_TOLS[:-1])


@pytest.mark.parametrize("p", [1.001, 1.01, 1.02])
def test_slowly_decaying_power_tails_raise_with_a_bound(p):
    # the decay ratio of (1+t)^-p tends to 2^(1-p), so no panel ratio below 0.9
    # bounds the rest before the doublings leave the float range
    with pytest.raises(AccuracyError) as exc:
        fourier_integral(lambda t: (1.0 + t) ** -p, 0.0, "cos", QuadratureConfig(1e-10))
    assert not math.isnan(exc.value.achieved)
