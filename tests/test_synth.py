import numpy as np
import pytest
from scipy.integrate import quad

from groovekit import (
    GrooveSpec,
    ParameterError,
    bar_time_s,
    default_scales,
    detect_onsets,
    dfa_fluctuation,
    envelope,
    fit_alpha,
    gen_crossover_series,
    gen_powerlaw_noise,
    gen_shuffle_onsets,
    highpass,
    local_alpha,
    merge_close_onsets,
    render_clicks,
    unit_duration_s,
)

from conftest import series_from_times


class TestGrooveSpecValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            GrooveSpec(bpm=0.0)
        with pytest.raises(ParameterError):
            GrooveSpec(swing_ratio=-1.0)
        with pytest.raises(ParameterError):
            GrooveSpec(bars=0)
        with pytest.raises(ParameterError):
            GrooveSpec(drift_profile=((10.0, 84.0), (5.0, 86.0)))


class TestGenShuffleOnsets:
    def test_one_bar_exact_two_to_one(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=1)
        onsets, truth = gen_shuffle_onsets(spec, seed=0)
        assert len(onsets) == 8
        taus = np.diff(onsets.times())
        unit = unit_duration_s(84.0)
        # 7 intervals alternating y (2 units) and x (1 unit)
        np.testing.assert_allclose(taus[0::2], 2 * unit, rtol=1e-12)
        np.testing.assert_allclose(taus[1::2], unit, rtol=1e-12)
        np.testing.assert_allclose(taus[0:6:2] / taus[1::2], 2.0, rtol=1e-12)

    def test_programmed_swing_exact_on_grid(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=1.79, bars=2)
        onsets, _ = gen_shuffle_onsets(spec, seed=0)
        taus = np.diff(onsets.times())
        assert taus[0] / taus[1] == pytest.approx(1.79, rel=1e-12)

    def test_determinism(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=1.79, bars=10, jitter_sigma_ms=4.0,
                          lrc_beta=1.0, lrc_sigma_ms=2.0, amplitude_jitter=0.1,
                          ghost_probability=0.3)
        a, ta = gen_shuffle_onsets(spec, seed=123)
        b, tb = gen_shuffle_onsets(spec, seed=123)
        assert a == b
        np.testing.assert_array_equal(ta.nominal_times_s, tb.nominal_times_s)
        c, _ = gen_shuffle_onsets(spec, seed=124)
        assert c != a

    def test_ground_truth_matches_noise_free_times(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=3)
        onsets, truth = gen_shuffle_onsets(spec, seed=0)
        np.testing.assert_allclose(onsets.times(), truth.nominal_times_s, atol=1e-12)
        assert truth.labels == ("hihat",) * 24

    def test_ghosts_emitted_with_labels(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=4, ghost_probability=1.0)
        onsets, truth = gen_shuffle_onsets(spec, seed=0)
        assert len(onsets) == 4 * 12  # 8 hi-hats + 4 ghosts per bar
        labels = onsets.labels()
        assert labels.count("ghost") == 16
        # ghost lands midway through each long interval
        times = onsets.times()
        assert times[1] - times[0] == pytest.approx(times[2] - times[1], rel=1e-9)

    def test_amplitude_pattern_cycles(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=2, amplitude_pattern=(0.9, 0.2))
        onsets, _ = gen_shuffle_onsets(spec, seed=0)
        amps = onsets.amplitudes()
        np.testing.assert_allclose(amps[0::2], 0.9)
        np.testing.assert_allclose(amps[1::2], 0.2)

    def test_correlated_noise_reaches_intervals(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=120,
                          lrc_beta=1.0, lrc_sigma_ms=3.0)
        onsets, truth = gen_shuffle_onsets(spec, seed=5)
        # interval deviations inherit the per-step noise spectrum
        dev = np.diff(onsets.times() - truth.nominal_times_s)
        assert np.std(dev) == pytest.approx(3e-3, rel=0.2)


class TestBarTime:
    def test_constant_tempo_linear(self):
        spec = GrooveSpec(bpm=84.0, bars=10)
        assert bar_time_s(spec, 0.0) == 0.0
        assert bar_time_s(spec, 1.0) == pytest.approx(120.0 / 84.0)
        assert bar_time_s(spec, 5.5) == pytest.approx(5.5 * 120.0 / 84.0)

    def test_ramp_matches_quadrature(self):
        spec = GrooveSpec(bpm=84.0, bars=60, drift_profile=((0.0, 84.0), (60.0, 86.0)))

        def bpm_at(b):
            return 84.0 + 2.0 * b / 60.0

        for bar in (0.5, 7.25, 30.0, 59.9):
            expected, _ = quad(lambda b: 120.0 / bpm_at(b), 0.0, bar)
            assert bar_time_s(spec, bar) == pytest.approx(expected, abs=1e-9)

    def test_piecewise_profile_with_plateau(self):
        spec = GrooveSpec(
            bpm=84.0, bars=30,
            drift_profile=((0.0, 84.0), (10.0, 90.0), (20.0, 90.0), (30.0, 80.0)),
        )

        def bpm_at(b):
            return float(np.interp(b, [0, 10, 20, 30], [84, 90, 90, 80]))

        for bar in (5.0, 10.0, 15.0, 25.0, 30.0):
            expected, _ = quad(lambda b: 120.0 / bpm_at(b), 0.0, bar, limit=200)
            assert bar_time_s(spec, bar) == pytest.approx(expected, abs=1e-7)


class TestPowerLawNoise:
    def test_unit_variance_zero_mean(self):
        x = gen_powerlaw_noise(1.0, 4096, seed=0)
        assert np.mean(x) == pytest.approx(0.0, abs=1e-12)
        assert np.std(x) == pytest.approx(1.0, abs=1e-12)

    def test_determinism(self):
        a = gen_powerlaw_noise(1.3, 1024, seed=9)
        b = gen_powerlaw_noise(1.3, 1024, seed=9)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("beta,target", [(0.0, 0.5), (1.0, 1.0), (2.0, 1.5)])
    def test_dfa_exponent_recovery(self, beta, target):
        alphas = []
        for seed in range(5):
            x = gen_powerlaw_noise(beta, 8192, seed=seed)
            result = dfa_fluctuation(x)
            alphas.append(fit_alpha(result, 4, 2048))
        assert np.mean(alphas) == pytest.approx(target, abs=0.1)

    def test_spectrum_slope(self):
        # periodogram slope of the synthesized signal matches -beta
        beta = 1.5
        x = gen_powerlaw_noise(beta, 8192, seed=3, oversample=1)
        psd = np.abs(np.fft.rfft(x)) ** 2
        freqs = np.fft.rfftfreq(len(x))
        keep = freqs > 0
        slope = np.polyfit(np.log(freqs[keep]), np.log(psd[keep]), 1)[0]
        assert slope == pytest.approx(-beta, abs=0.1)


class TestCrossoverSeries:
    def test_pure_pattern_alpha_near_zero(self):
        x = gen_crossover_series(2048, [1.0, -1.0] * 12, mix=0.0, seed=0)
        result = dfa_fluctuation(x, scales=default_scales(2048, s_max=64))
        alpha1 = fit_alpha(result, 4, 16)
        assert alpha1 == pytest.approx(0.0, abs=0.15)

    def test_pure_noise_no_crossover(self):
        # aggregate contract: the seed-averaged alpha(s) curve stays flat
        acc = {}
        for seed in range(10):
            x = gen_crossover_series(4096, [1.0, -1.0] * 12, lrc_beta=1.4, mix=1.0, seed=seed)
            result = dfa_fluctuation(x, scales=default_scales(4096, s_max=200))
            for s, a in local_alpha(result):
                acc.setdefault(s, []).append(a)
        means = np.array([np.mean(v) for v in acc.values()])
        assert np.ptp(means) / 2 <= 0.15
        assert np.all(np.abs(means - means.mean()) <= 0.15)

    def test_mix_crossover_inside_band(self):
        hits = 0
        for seed in range(5):
            x = gen_crossover_series(4096, [1.0, -1.0] * 12, lrc_beta=1.4, mix=0.5, seed=seed)
            result = dfa_fluctuation(x, scales=default_scales(4096, s_max=200))
            local = local_alpha(result)
            lo = np.mean([a for s, a in local if s <= 10])
            hi = np.mean([a for s, a in local if s >= 60])
            mid = (lo + hi) / 2
            s_cross = next(s for s, a in local if a >= mid)
            hits += 16 <= s_cross <= 40
        assert hits >= 4

    def test_validation(self):
        with pytest.raises(ParameterError):
            gen_crossover_series(100, [1.0], mix=0.5)
        with pytest.raises(ParameterError):
            gen_crossover_series(10, [1.0, -1.0] * 12, mix=0.5)


class TestRenderClicks:
    def test_empty_onsets_silent_clip(self):
        from groovekit import OnsetSeries

        clip = render_clicks(OnsetSeries((), (), (), ()))
        assert np.all(clip.samples == 0.0)

    def test_single_onset_recovered_through_pipeline(self):
        series = series_from_times([0.5], amplitudes=[0.9])
        clip = render_clicks(series, sample_rate=44100.0)
        env = envelope(highpass(clip, 1000.0), smoothing_ms=2.0)
        detected = merge_close_onsets(detect_onsets(env))
        assert len(detected) == 1
        assert abs(detected[0].time_s - 0.5) <= 2e-3

    def test_clicks_survive_highpass(self):
        series = series_from_times([0.2, 0.6], amplitudes=[0.8, 0.8])
        clip = render_clicks(series, sample_rate=44100.0)
        filtered = highpass(clip, 1000.0)
        assert np.max(np.abs(filtered.samples)) > 0.3

    def test_noise_floor_level(self):
        from groovekit import OnsetSeries

        series = OnsetSeries.from_columns([1.0], [1.0])
        clip = render_clicks(series, sample_rate=44100.0, noise_db=-30.0, seed=1)
        # far from the click the signal is pure noise at ~0.0316 rms
        tail = clip.samples[: int(0.5 * 44100)]
        assert np.std(tail) == pytest.approx(10 ** (-30 / 20), rel=0.05)

    def test_overlapping_clicks_sum(self):
        series = series_from_times([0.5, 0.5005], amplitudes=[0.4, 0.4])
        clip = render_clicks(series, sample_rate=44100.0, click_ms=3.0)
        assert np.max(np.abs(clip.samples)) > 0.4
