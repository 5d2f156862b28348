import numpy as np
import pytest

from groovekit import (
    AudioClip,
    OnsetSeries,
    ParameterError,
    TempogramParams,
    argmax_track,
    fourier_tempogram,
    novelty_curve,
    render_clicks,
)
from groovekit.tempogram import NoveltyCurve


def click_series(bpm, t0, t1):
    period = 60.0 / bpm
    out, t = [], t0
    while t < t1:
        out.append(t)
        t += period
    return out, t


def click_clip(bpm, duration_s, sr=44100.0):
    times, _ = click_series(bpm, 0.5, duration_s)
    onsets = OnsetSeries.from_columns(times, np.full(len(times), 0.9))
    return render_clicks(onsets, sample_rate=sr)


class TestNoveltyCurve:
    def test_silence_all_zero(self):
        clip = AudioClip(samples=np.zeros(44100), sample_rate=44100.0)
        nov = novelty_curve(clip)
        assert len(nov) > 0
        assert np.all(nov.values == 0.0)

    def test_isolated_click_single_peak_within_one_hop(self):
        onsets = OnsetSeries.from_columns([0.5], [0.9])
        clip = render_clicks(onsets, sample_rate=44100.0)
        nov = novelty_curve(clip, hop=512)
        peak_time = nov.times_s()[np.argmax(nov.values)]
        assert abs(peak_time - 0.5) <= 512 / 44100.0
        # dominant: no comparable secondary peak elsewhere
        others = np.delete(nov.values, np.argmax(nov.values))
        assert np.max(others) < 0.8 * np.max(nov.values)

    def test_periodic_clicks_autocorrelation_peaks_at_beat_period(self):
        clip = click_clip(84.0, 30.0)
        nov = novelty_curve(clip)
        v = nov.values - np.mean(nov.values)
        ac = np.correlate(v, v, mode="full")[len(v) - 1 :]
        period_frames = 60.0 / 84.0 * nov.sample_rate
        for k in (1, 2, 3):
            lag = int(round(k * period_frames))
            off = int(round((k + 0.5) * period_frames))
            assert ac[lag - 2 : lag + 3].max() > 5 * abs(ac[off - 2 : off + 3]).max()

    def test_short_input_empty(self):
        clip = AudioClip(samples=np.zeros(100), sample_rate=44100.0)
        assert len(novelty_curve(clip)) == 0


class TestFourierTempogram:
    def test_steady_84_bpm_argmax_within_one_bin(self):
        clip = click_clip(84.0, 45.0)
        nov = novelty_curve(clip)
        tg = fourier_tempogram(nov)
        bin_width = tg.tempi_bpm[1] - tg.tempi_bpm[0]
        track = argmax_track(tg)
        assert len(track) > 10
        assert np.all(np.abs(track - 84.0) <= bin_width + 1e-9)

    def test_octave_peaks_with_84_dominant_after_weighting(self):
        clip = click_clip(84.0, 45.0)
        tg = fourier_tempogram(novelty_curve(clip))
        mean_mag = tg.magnitude.mean(axis=0)

        def near(bpm, width=3.0):
            return mean_mag[np.abs(tg.tempi_bpm - bpm) < width].max()

        floor = np.median(mean_mag)
        assert near(84.0) > 10 * floor
        assert near(168.0) > 10 * floor
        track = argmax_track(tg, ref_bpm=84.0)
        assert np.all(np.abs(track - 84.0) < 2.0)

    def test_two_section_switch_within_two_frames(self):
        t1, t_end = click_series(82.0, 0.5, 40.0)
        t2, _ = click_series(87.0, t_end, 80.0)
        onsets = OnsetSeries.from_columns(t1 + t2, np.full(len(t1 + t2), 0.9))
        clip = render_clicks(onsets, sample_rate=44100.0)
        tg = fourier_tempogram(novelty_curve(clip))
        track = argmax_track(tg)
        mid = (82.0 + 87.0) / 2.0
        assert track[0] < mid < track[-1]
        switch = next(i for i, b in enumerate(track) if b >= mid)
        boundary_frame = int(np.argmin(np.abs(tg.times_s - t_end)))
        assert abs(switch - boundary_frame) <= 2

    def test_silence_zero_magnitude(self):
        clip = AudioClip(samples=np.zeros(44100 * 30), sample_rate=44100.0)
        tg = fourier_tempogram(novelty_curve(clip))
        assert np.all(tg.magnitude == 0.0)
        assert np.all(argmax_track(tg) == 0.0)

    def test_window_longer_than_novelty_errors(self):
        nov = NoveltyCurve(values=np.ones(100), sample_rate=86.0)
        with pytest.raises(ParameterError):
            fourier_tempogram(nov)

    def test_time_shift_covariance(self):
        clip = click_clip(84.0, 40.0)
        params = TempogramParams()
        hop_samples = 512  # novelty hop in audio samples
        shift_frames = params.hop  # one tempogram column worth of novelty frames
        shifted = AudioClip(
            samples=np.concatenate(
                [np.zeros(shift_frames * hop_samples), clip.samples]
            ),
            sample_rate=clip.sample_rate,
        )
        tg = fourier_tempogram(novelty_curve(clip), params)
        tg_shifted = fourier_tempogram(novelty_curve(shifted), params)
        # columns at and after the spliced frame match the originals exactly
        n = len(tg.times_s)
        np.testing.assert_allclose(
            tg_shifted.magnitude[2 : n + 1], tg.magnitude[1:n], rtol=1e-12
        )

    def test_tempo_axis_respects_bounds(self):
        clip = click_clip(84.0, 40.0)
        params = TempogramParams(min_bpm=60.0, max_bpm=120.0)
        tg = fourier_tempogram(novelty_curve(clip), params)
        assert tg.tempi_bpm[0] >= 60.0
        assert tg.tempi_bpm[-1] <= 120.0
