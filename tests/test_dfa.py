import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groovekit import (
    FitError,
    FluctuationResult,
    ParameterError,
    default_scales,
    dfa_analyze,
    dfa_fluctuation,
    fit_alpha,
    fit_loglog,
    gen_crossover_series,
    gen_powerlaw_noise,
    local_alpha,
)


def dfa_brute_force(series, scales, order=1):
    """Independent per-window reference: naive loops and polyfit.

    Same definition as the library (zero-started integrated profile, windows
    tiled from both ends, order-n detrend, rms of window variances) but a
    separate code path.
    """
    x = np.asarray(series, dtype=float)
    profile = np.concatenate([[0.0], np.cumsum(x - np.mean(x))])
    out = []
    for s in scales:
        variances = []
        for prof in (profile, profile[::-1]):
            n_win = len(prof) // s
            for k in range(n_win):
                seg = prof[k * s : (k + 1) * s]
                t = np.arange(s, dtype=float)
                coef = np.polyfit(t, seg, order)
                resid = seg - np.polyval(coef, t)
                variances.append(np.mean(resid**2))
        out.append(np.sqrt(np.mean(variances)))
    return np.array(out)


class TestDfaFluctuation:
    def test_constant_series_degenerate(self):
        result = dfa_fluctuation(np.full(256, 3.7), scales=[4, 8, 16])
        assert result.degenerate
        np.testing.assert_array_equal(result.F, 0.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=512)
        scales = [4, 8, 16, 32]
        f1 = dfa_fluctuation(x, scales=scales).F
        f2 = dfa_fluctuation(2.5 * x, scales=scales).F
        np.testing.assert_allclose(f2, 2.5 * f1, rtol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        scales = [4, 5, 7, 9, 12, 16, 22, 32]
        for _ in range(5):
            n = rng.integers(150, 512)
            x = rng.normal(size=n)
            fast = dfa_fluctuation(x, scales=scales).F
            slow = dfa_brute_force(x, scales)
            np.testing.assert_allclose(fast, slow, rtol=1e-10)

    def test_reversal_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=1000).cumsum()
        scales = default_scales(len(x))
        f_fwd = dfa_fluctuation(x, scales=scales).F
        f_rev = dfa_fluctuation(x[::-1], scales=scales).F
        np.testing.assert_allclose(f_rev, f_fwd, rtol=1e-9)

    def test_deterministic_repeat(self):
        x = np.random.default_rng(8).normal(size=2048)
        a = dfa_fluctuation(x)
        b = dfa_fluctuation(x)
        np.testing.assert_array_equal(a.F, b.F)
        np.testing.assert_array_equal(a.scales, b.scales)

    def test_length_validation(self):
        with pytest.raises(ParameterError):
            dfa_fluctuation(np.random.default_rng(0).normal(size=100), scales=[4, 40])

    def test_scale_vs_order_validation(self):
        with pytest.raises(ParameterError):
            dfa_fluctuation(np.random.default_rng(0).normal(size=100), scales=[3], detrend_order=2)

    @settings(max_examples=20, deadline=None)
    @given(
        a=st.floats(min_value=-100, max_value=100),
        b=st.floats(min_value=0.1, max_value=50).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
    )
    def test_affine_invariance(self, a, b):
        rng = np.random.default_rng(5)
        x = rng.normal(size=300)
        scales = [4, 8, 16, 32, 64]
        base = dfa_fluctuation(x, scales=scales)
        moved = dfa_fluctuation(a + b * x, scales=scales)
        np.testing.assert_allclose(moved.F, abs(b) * base.F, rtol=1e-9)
        assert fit_alpha(moved, 4, 64) == pytest.approx(fit_alpha(base, 4, 64), abs=1e-9)


class TestFitAlpha:
    def test_exact_power_law_slope_one(self):
        scales = np.array([4, 8, 16, 32, 64])
        result = FluctuationResult(scales=scales, F=3.0 * scales.astype(float), detrend_order=1)
        assert fit_alpha(result, 4, 64) == pytest.approx(1.0, abs=1e-12)

    def test_r_squared_of_exact_fit(self):
        scales = np.array([4, 8, 16, 32])
        result = FluctuationResult(scales=scales, F=scales.astype(float) ** 0.7, detrend_order=1)
        slope, _, r2 = fit_loglog(result, 4, 32)
        assert slope == pytest.approx(0.7, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_white_noise_global_alpha_near_half(self):
        x = np.random.default_rng(7).normal(size=10_000)
        result = dfa_fluctuation(x)
        alpha = fit_alpha(result, 4, len(x) // 4)
        assert 0.45 <= alpha <= 0.55

    def test_integrated_white_noise_alpha_near_three_halves(self):
        alphas = []
        for seed in range(5):
            x = np.cumsum(np.random.default_rng(seed).normal(size=8192))
            result = dfa_fluctuation(x)
            alphas.append(fit_alpha(result, 4, len(x) // 4))
        assert 1.4 <= np.mean(alphas) <= 1.6

    def test_too_few_scales_errors(self):
        scales = np.array([4, 8, 16, 32])
        result = FluctuationResult(scales=scales, F=scales.astype(float), detrend_order=1)
        with pytest.raises(FitError):
            fit_alpha(result, 4, 9)

    def test_degenerate_f_errors(self):
        scales = np.array([4, 8, 16])
        result = FluctuationResult(scales=scales, F=np.zeros(3), detrend_order=1)
        with pytest.raises(FitError):
            fit_alpha(result, 4, 16)


class TestLocalAlpha:
    def test_exact_power_law_flat(self):
        scales = default_scales(4096)
        result = FluctuationResult(
            scales=scales, F=scales.astype(float) ** 0.8, detrend_order=1
        )
        for s, a in local_alpha(result):
            assert a == pytest.approx(0.8, abs=1e-10)

    def test_white_noise_local_alpha_banded(self):
        # aggregate contract: the band holds for the seed-averaged alpha(s);
        # linear detrending biases the very smallest scales (s < 7) high, so
        # those get a slightly wider allowance
        acc = {}
        for seed in range(20):
            x = np.random.default_rng(seed).normal(size=10_000)
            result = dfa_fluctuation(x)
            for s, a in local_alpha(result):
                acc.setdefault(s, []).append(a)
        for s, vals in acc.items():
            mean = np.mean(vals)
            hi = 0.70 if s < 7 else 0.65
            assert 0.4 <= mean <= hi, f"mean alpha({s}) = {mean}"

    def test_crossover_transition_between_regimes(self):
        x = gen_crossover_series(4096, [1.0, -1.0] * 12, lrc_beta=1.4, mix=0.5, seed=1)
        result = dfa_fluctuation(x, scales=default_scales(len(x), s_max=200))
        local = dict(local_alpha(result))
        low = np.mean([a for s, a in local.items() if s <= 10])
        high = np.mean([a for s, a in local.items() if s >= 60])
        assert low < 0.7
        assert high > 0.9

    def test_too_few_scales(self):
        result = FluctuationResult(
            scales=np.array([4, 8, 16]), F=np.array([1.0, 2.0, 3.0]), detrend_order=1
        )
        with pytest.raises(FitError):
            local_alpha(result, half_window=2)


class TestPowerLawRecovery:
    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_spectral_noise_exponent(self, beta):
        alphas = []
        for seed in range(5):
            x = gen_powerlaw_noise(beta, 8192, seed=seed)
            result = dfa_fluctuation(x)
            alphas.append(fit_alpha(result, 4, len(x) // 4))
        assert np.mean(alphas) == pytest.approx((beta + 1) / 2, abs=0.1)


class TestDfaAnalyze:
    def test_fills_exponents_and_local(self):
        x = gen_powerlaw_noise(1.0, 4096, seed=2)
        result = dfa_analyze(x)
        assert result.alpha1 is not None
        assert result.alpha2 is not None
        assert result.alpha1_range == (4, 16)
        assert result.alpha2_range == (16, 100)
        assert len(result.alpha_local) > 0

    def test_degenerate_input_skips_fits(self):
        result = dfa_analyze(np.zeros(256))
        assert result.degenerate
        assert result.alpha1 is None

    def test_r_squared_kept_from_the_fit_of_each_exponent(self):
        result = dfa_analyze(gen_powerlaw_noise(1.0, 4096, seed=2))
        for alpha, r2, rng in ((result.alpha1, result.alpha1_r2, result.alpha1_range),
                               (result.alpha2, result.alpha2_r2, result.alpha2_range)):
            slope, _, expected = fit_loglog(result, *rng)
            assert (alpha, r2) == (slope, expected)

    @pytest.mark.parametrize("series", [np.zeros(256), np.full(300, -2.5)])
    def test_r_squared_none_when_degenerate(self, series):
        result = dfa_analyze(series)
        assert result.degenerate
        assert (result.alpha1_r2, result.alpha2_r2) == (None, None)

    def test_r_squared_none_with_its_exponent(self):
        # 64 points: the largest scale is 16, so the long range keeps one scale
        result = dfa_analyze(gen_powerlaw_noise(1.0, 64, seed=2))
        assert result.alpha1 is not None and result.alpha1_r2 is not None
        assert result.alpha2 is None and result.alpha2_r2 is None

    def test_default_scale_grid(self):
        scales = default_scales(10_000)
        assert scales[0] == 4
        assert scales[-1] == 2500
        assert np.all(np.diff(scales) > 0)
        # roughly 16 per decade over ~2.8 decades
        assert 35 <= len(scales) <= 55
