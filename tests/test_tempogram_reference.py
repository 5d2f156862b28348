"""Block-streamed novelty, strided tempogram framing and the batched CSV
writer against the whole-clip versions they replaced.

The reference functions below frame every window at once with fancy
indexing and write the CSV through ``csv.writer``. The library must match
them bit for bit (novelty, tempogram) and byte for byte (CSV).
"""

import csv
import tracemalloc

import numpy as np
import pytest

from groovekit import AudioClip, TempogramParams, fourier_tempogram, novelty_curve, write_tempogram_csv
from groovekit.tempogram import _BLOCK_FRAMES, NoveltyCurve, Tempogram

SR = 44100.0


def reference_novelty(clip, window=1024, hop=512, compression=1000.0, min_db=-74.0):
    x = clip.samples
    frame_rate = clip.sample_rate / hop
    start_s = window / 2.0 / clip.sample_rate
    if len(x) < window:
        return NoveltyCurve(values=np.zeros(0), sample_rate=frame_rate, start_s=start_s)
    n_frames = 1 + (len(x) - window) // hop
    win = np.hanning(window)
    idx = np.arange(window)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = x[idx] * win
    mags = np.abs(np.fft.rfft(frames, axis=1))
    floor = 10.0 ** (min_db / 20.0)
    compressed = np.log1p(compression * np.maximum(mags, floor))
    flux = np.diff(compressed, axis=0)
    novelty = np.sum(np.maximum(flux, 0.0), axis=1)
    novelty = np.concatenate(([0.0], novelty))
    return NoveltyCurve(values=novelty, sample_rate=frame_rate, start_s=start_s)


def reference_tempogram_frames(novelty, params):
    values = novelty.values
    n_frames = 1 + (len(values) - params.window_length) // params.hop
    idx = (
        np.arange(params.window_length)[None, :]
        + params.hop * np.arange(n_frames)[:, None]
    )
    frames = values[idx] * np.hanning(params.window_length)
    return np.abs(np.fft.rfft(frames, n=params.fft_length, axis=1))


def reference_write_csv(path, tg):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "bpm", "magnitude"])
        for fi, t in enumerate(tg.times_s):
            for bi, bpm in enumerate(tg.tempi_bpm):
                writer.writerow([f"{t:.6f}", f"{bpm:.4f}", f"{tg.magnitude[fi, bi]:.9g}"])


def noisy_clicks(n_samples, seed=0):
    """Noise at -30 dB with full-scale clicks and a stretch of digital silence."""
    rng = np.random.default_rng(seed)
    x = 0.03 * rng.standard_normal(n_samples)
    x[::7919] = 0.9
    x[n_samples // 3: n_samples // 2] = 0.0
    return AudioClip(samples=x, sample_rate=SR)


def samples_for_frames(n_frames, window, hop):
    return window + (n_frames - 1) * hop


def assert_novelty_matches(clip, **kwargs):
    got = novelty_curve(clip, **kwargs)
    want = reference_novelty(clip, **kwargs)
    assert got.values.dtype == want.values.dtype
    assert got.values.tobytes() == want.values.tobytes()
    assert (got.sample_rate, got.start_s) == (want.sample_rate, want.start_s)
    return got


class TestNoveltyMatchesReference:
    @pytest.mark.parametrize("n_samples", [0, 1, 1023, 1024, 1024 + 511])
    def test_at_most_one_frame(self, n_samples):
        got = assert_novelty_matches(noisy_clicks(n_samples))
        assert len(got) == (0 if n_samples < 1024 else 1)

    @pytest.mark.parametrize(
        "n_frames",
        [_BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 2 * _BLOCK_FRAMES + 1],
    )
    def test_frame_counts_around_block_edges(self, n_frames):
        clip = noisy_clicks(samples_for_frames(n_frames, 1024, 512) + 100)
        assert len(assert_novelty_matches(clip)) == n_frames

    def test_hop_not_dividing_window(self):
        n_frames = 2 * _BLOCK_FRAMES + 1
        clip = noisy_clicks(samples_for_frames(n_frames, 1000, 384), seed=3)
        got = assert_novelty_matches(clip, window=1000, hop=384, compression=10.0, min_db=-60.0)
        assert len(got) == n_frames

    def test_silence(self):
        clip = AudioClip(samples=np.zeros(samples_for_frames(_BLOCK_FRAMES + 1, 1024, 512)),
                         sample_rate=SR)
        assert not np.any(assert_novelty_matches(clip).values)


class TestTempogramMatchesReference:
    @pytest.mark.parametrize("hop", [64, 100])
    def test_strided_framing(self, hop):
        novelty = novelty_curve(noisy_clicks(samples_for_frames(3000, 1024, 512), seed=5))
        params = TempogramParams(hop=hop)
        tg = fourier_tempogram(novelty, params)
        spectra = reference_tempogram_frames(novelty, params)
        freqs = np.fft.rfftfreq(params.fft_length, d=1.0 / novelty.sample_rate) * 60.0
        keep = (freqs >= params.min_bpm) & (freqs <= params.max_bpm)
        assert tg.magnitude.tobytes() == spectra[:, keep].tobytes()
        assert len(tg.times_s) == 1 + (len(novelty) - params.window_length) // hop

    @pytest.mark.parametrize(
        "n_frames",
        [1, _BLOCK_FRAMES - 1, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 2 * _BLOCK_FRAMES + 1],
    )
    def test_blocks_match_one_transform(self, n_frames):
        """Tempogram frames transformed a block at a time, only the kept bins
        written, give the bytes of one transform of every frame."""
        params = TempogramParams()
        values = np.random.default_rng(n_frames).exponential(size=params.window_length + params.hop * (n_frames - 1))
        novelty = NoveltyCurve(values=values, sample_rate=SR / 512)
        tg = fourier_tempogram(novelty, params)
        frames = np.lib.stride_tricks.sliding_window_view(values, params.window_length)[:: params.hop]
        bpm = np.fft.rfftfreq(params.fft_length, d=1.0 / novelty.sample_rate) * 60.0
        keep = (bpm >= params.min_bpm) & (bpm <= params.max_bpm)
        want = np.abs(np.fft.rfft(frames * np.hanning(params.window_length), params.fft_length))[:, keep]
        assert tg.magnitude.shape == (n_frames, np.count_nonzero(keep))
        assert tg.magnitude.tobytes() == want.tobytes()
        assert tg.tempi_bpm.tobytes() == bpm[keep].tobytes()


class TestCsvMatchesReference:
    def _assert_same_bytes(self, tmp_path, tg):
        write_tempogram_csv(tmp_path / "got.csv", tg)
        reference_write_csv(tmp_path / "want.csv", tg)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_exponent_forms_and_zeros(self, tmp_path):
        magnitude = np.array([
            [0.0, 1e-12, 123456789012.0, 5e-5],
            [-0.0, 3.0, 0.1 + 0.2, 1.0e9],
            [2.5e-300, 1e300, 1234567.891, 0.0],
        ])
        tg = Tempogram(
            times_s=np.array([0.0, 1e-7, 12345.6789]),
            tempi_bpm=np.array([30.0, 60.12345, 119.99999, 359.0]),
            magnitude=magnitude,
            params=TempogramParams(),
        )
        self._assert_same_bytes(tmp_path, tg)

    def test_real_tempogram(self, tmp_path):
        novelty = novelty_curve(noisy_clicks(samples_for_frames(1400, 1024, 512), seed=9))
        self._assert_same_bytes(tmp_path, fourier_tempogram(novelty))

    def test_single_frame_single_tempo(self, tmp_path):
        tg = Tempogram(times_s=np.array([1.5]), tempi_bpm=np.array([84.0]),
                       magnitude=np.array([[0.0]]), params=TempogramParams())
        self._assert_same_bytes(tmp_path, tg)


def test_novelty_memory_does_not_grow_with_clip_length():
    """Peak traced allocation for a 4x longer clip grows by the output array
    only (plus 10% of the shorter clip's peak), not by the frames."""

    def traced_peak(seconds):
        clip = AudioClip(samples=np.random.default_rng(1).standard_normal(int(seconds * SR)),
                         sample_rate=SR)
        tracemalloc.start()
        try:
            out = novelty_curve(clip)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    short_peak, short = traced_peak(60.0)
    long_peak, long = traced_peak(240.0)
    assert len(short) >= 3 * _BLOCK_FRAMES
    assert long_peak - short_peak <= long.values.nbytes + 0.1 * short_peak
