import math

import mpmath as mp
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
    # omega > 0: a 1e-16 target is beyond the 48 half periods' bound, which the
    # error carries
    cfg = QuadratureConfig(abs_tol=1e-16)
    env = lambda t: np.exp(-t) / t
    with pytest.raises(AccuracyError) as exc:
        oscillatory_integral(env, 5000.0, cfg, kernel="sin")
    assert exc.value.achieved == fourier_integral(env, 5000.0, "sin", cfg)[1] > cfg.abs_tol
    # omega = 0: the doublings stop within _MAX_PANELS; 1/(1 + t)^2 needs about 38
    # of them at 1e-10, so under a budget of 8 no stop is reached and the bound is inf
    env = lambda t: 1.0 / (1.0 + t) ** 2
    cfg = QuadratureConfig(abs_tol=1e-10)
    assert oscillatory_integral(env, 0.0, cfg) == pytest.approx(1.0, abs=1e-10)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 8)
    with pytest.raises(AccuracyError, match="within 8 panels") as exc:
        oscillatory_integral(env, 0.0, cfg)
    assert exc.value.achieved == math.inf


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
    # 1/(1+t^2) stops at 1e-14: its 1e-15 call is in
    # test_formerly_capped_calls_end_within_48_half_periods
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


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf, 1e-310])
def test_frequency_outside_the_float_range_refused_before_any_call(omega):
    # refused before any envelope call; at 1e-310 the half period pi/omega overflows
    def env(t):
        raise AssertionError("envelope called")

    with pytest.raises(ValueError):
        fourier_integral(env, omega, "cos", QuadratureConfig())


def test_crvz_weights():
    # Algorithm 1 of Cohen, Rodriguez Villegas and Zagier with n = 40: weights in
    # (0, 1] summing to n / sqrt 2, and sum (-1)^k / (k + 1) = ln 2 within the
    # proven |u_0| / d_n plus the rounding of the weights and the sum
    w = quadrature._WEIGHTS[quadrature._N_HEAD:]
    n = w.size
    assert n == quadrature._N_TAIL == 40
    assert np.all(w > 0.0) and np.all(w <= 1.0)
    assert math.fsum(w) == pytest.approx(n / math.sqrt(2.0), abs=n * quadrature._EPS)
    assert quadrature._REMAINDER < 5e-31
    u = (-1.0) ** np.arange(n) / (1.0 + np.arange(n))
    got = math.fsum(w * u)
    assert abs(got - math.log(2.0)) <= quadrature._REMAINDER + 2 * quadrature._EPS


def test_one_adaptive_call_at_a_positive_frequency(monkeypatch):
    # 48 half periods in one call, even where no bound meets abs_tol
    calls = []

    def spy(*args):
        calls.append(args[1].size)
        return adaptive(*args)

    adaptive = quadrature._adaptive
    monkeypatch.setattr(quadrature, "_adaptive", spy)
    fourier_integral(lambda t: np.exp(-t) / t, 30.0, "sin", QuadratureConfig(1e-14))
    assert calls == [48]


def _recip_cos(omega):
    # int_0^inf cos(omega t) / (1 + t) dt = -ci(omega) cos(omega) - (si(omega) - pi/2) sin(omega)
    with mp.workdps(30):
        w = mp.mpf(omega)
        return float(-mp.ci(w) * mp.cos(w) - (mp.si(w) - mp.pi / 2) * mp.sin(w))


@pytest.mark.parametrize("omega", [0.3, 2.0, 30.0, 1e4])
def test_completely_monotone_closed_form_within_its_bound(omega):
    # 1/(1+t) = int_0^inf e^-st e^-s ds, the hypothesis of the CRVZ remainder
    true = _recip_cos(omega)
    for tol in (1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13):
        val, err = fourier_integral(lambda t: 1.0 / (1.0 + t), omega, "cos", QuadratureConfig(tol))
        assert err <= tol and abs(val - true) <= err, (tol, val - true, err)


@pytest.mark.parametrize("env, omega, kernel, tol, true", [
    (lambda t: 1.0 / (1.0 + t * t), 1.0, "cos", 1e-15, 0.5 * math.pi * math.exp(-1.0)),
    (lambda t: 1.0 / (1.0 + t), 1.0, "cos", 1e-15, _recip_cos(1.0)),
    (lambda t: np.exp(-t) / t, 1e4, "sin", 1e-14, math.atan(1e4)),
], ids=["lorentz", "recip", "exp_over_t"])
def test_formerly_capped_calls_end_within_48_half_periods(env, omega, kernel, tol, true):
    # calls whose late half periods stall on the kernel argument's rounding end
    # after 48 half periods of at most _MAX_INTERVALS pieces (they used to run
    # to the 8192-panel cap: 20M-110M evaluations, 5-10 s)
    count = [0]

    def counted(t):
        count[0] += t.size
        return env(t)

    try:
        val, err = fourier_integral(counted, omega, kernel, QuadratureConfig(tol))
    except AccuracyError as exc:
        assert not math.isnan(exc.achieved)
    else:
        assert abs(val - true) <= err
    assert count[0] <= 48 * 400 * 21
