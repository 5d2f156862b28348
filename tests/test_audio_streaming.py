"""The block-streamed audio front end against the scipy calls it replaced.

``highpass`` must equal ``scipy.signal.sosfiltfilt`` (odd padding, default
pad length) and ``envelope`` the whole-clip ``lfilter`` of the rectified clip,
byte for byte: at the shortest clip the filter accepts, on both sides of a
block boundary, for every order and for awkward signals. Each must also
allocate no more than one clip-sized buffer plus a few blocks.

The CLI's fused path (``cli._detect_from_audio`` on a ``WavReader``) must give
the bytes of the public composition on a loaded clip, for every sample
encoding, and hold one clip-sized buffer with the tempogram thread running.
The tempogram branch itself must hold its outputs and one small block.
"""

import argparse
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import signal
from scipy.io import wavfile

from groovekit import cli
from groovekit.audio import _BLOCK, AudioClip, WavReader, envelope, highpass, load_audio
from groovekit.onsets import detect_onsets, merge_close_onsets
from groovekit.tempogram import novelty_curve

B = _BLOCK


def _sos(order, cutoff_hz, sample_rate):
    return signal.butter(order, cutoff_hz, btype="highpass", fs=sample_rate, output="sos")


def _edge(sos):
    """sosfiltfilt's default pad length."""
    return 3 * (2 * len(sos) + 1 - min(np.sum(sos[:, 2] == 0), np.sum(sos[:, 5] == 0)))


def _assert_highpass_matches(samples, sample_rate=44100.0, cutoff_hz=1000.0, order=4):
    got = highpass(AudioClip(samples, sample_rate), cutoff_hz=cutoff_hz, order=order)
    want = signal.sosfiltfilt(_sos(order, cutoff_hz, sample_rate), samples)
    assert got.samples.shape == want.shape
    assert got.samples.tobytes() == want.tobytes()


def _assert_envelope_matches(samples, sample_rate=44100.0, smoothing_ms=2.0):
    got = envelope(AudioClip(samples, sample_rate), smoothing_ms=smoothing_ms)
    a = np.exp(-1.0 / (smoothing_ms * 1e-3 * sample_rate))
    smoothed = signal.lfilter([1.0 - a], [1.0, -a], np.abs(samples))
    peak = float(np.max(smoothed)) if len(smoothed) else 0.0
    assert got.source_max == (peak if peak > 0 else 0.0)
    assert got.silent == (peak <= 0)
    want = smoothed / peak if peak > 0 else np.zeros_like(smoothed)
    assert got.values.tobytes() == want.tobytes()


def _noise(n, seed=0, scale=1.0):
    return scale * np.random.default_rng(seed).uniform(-1.0, 1.0, n)


@pytest.mark.parametrize("order", range(1, 9))
@pytest.mark.parametrize("length", ["min", "B-1", "B", "B+1", "3B+edge"])
def test_highpass_block_boundaries(order, length):
    edge = _edge(_sos(order, 1000.0, 44100.0))
    n = {"min": edge + 1, "B-1": B - 1, "B": B, "B+1": B + 1, "3B+edge": 3 * B + edge}[length]
    _assert_highpass_matches(_noise(n, seed=order), order=order)


@pytest.mark.parametrize("sample_rate, cutoff_hz", [
    (8000.0, 3999.0), (22050.0, 20.0), (44100.0, 1000.0), (48000.0, 7000.5), (96000.0, 150.0),
])
@pytest.mark.parametrize("order", [1, 3, 8])
def test_highpass_rates_and_cutoffs(sample_rate, cutoff_hz, order):
    _assert_highpass_matches(_noise(B + 977, seed=order), sample_rate, cutoff_hz, order)


def _special(kind, n):
    x = np.zeros(n)
    if kind == "impulse-first":
        x[0] = 1.0
    elif kind == "impulse-last":
        x[-1] = 1.0
    elif kind == "tiny":
        x = _noise(n, scale=1e-300)
    elif kind == "full-scale":
        x = np.sign(_noise(n))
    return x


SPECIAL = ["silent", "impulse-first", "impulse-last", "tiny", "full-scale"]


@pytest.mark.parametrize("kind", SPECIAL)
@pytest.mark.parametrize("n", [25, 2 * B + 1])
def test_highpass_special_signals(kind, n):
    _assert_highpass_matches(_special(kind, n))


@pytest.mark.parametrize("kind", SPECIAL)
@pytest.mark.parametrize("n", [1, 25, 2 * B + 1])
def test_envelope_special_signals(kind, n):
    _assert_envelope_matches(_special(kind, n))


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 27])
@pytest.mark.parametrize("smoothing_ms", [0.01, 2.0, 500.0])
def test_envelope_block_boundaries(n, smoothing_ms):
    _assert_envelope_matches(_noise(n, seed=n), smoothing_ms=smoothing_ms)


def test_strided_view():
    base = _noise(3 * (2 * B + 5), seed=7)
    view = base[::3]
    assert not view.flags.c_contiguous
    _assert_highpass_matches(view)
    _assert_envelope_matches(view)


def test_highpass_leaves_input_untouched():
    x = _noise(B + 3)
    before = x.copy()
    highpass(AudioClip(x, 44100.0))
    envelope(AudioClip(x, 44100.0))
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("stage", [highpass, envelope], ids=["highpass", "envelope"])
def test_traced_peak_is_one_clip_plus_blocks(stage):
    clip = AudioClip(_noise(16 * B + 123), 44100.0)
    stage(AudioClip(_noise(B + 1), 44100.0))  # first-call imports and caches
    tracemalloc.start()
    try:
        out = stage(clip)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del out
    clip_bytes = clip.samples.nbytes
    # whole-clip scipy calls peak at 2-3 clips here
    assert peak < clip_bytes + 4 * 8 * B, peak / clip_bytes


ARGS = argparse.Namespace(cutoff_hz=1000.0, smoothing_ms=2.0, threshold=0.1,
                          refractory_ms=50.0, merge_ms=3.0)


def _clicks(n, channels, seed):
    """Clicks every 0.1 s at 44.1 kHz over quiet noise, in [-0.9, 0.9]."""
    rng = np.random.default_rng(seed)
    x = 0.01 * rng.uniform(-1.0, 1.0, (n, channels))
    for at in range(1000, n, 4410):
        x[at:at + 40] += rng.uniform(0.3, 0.85) * np.exp(-np.arange(40) / 8.0)[:, None]
    return x[:, 0] if channels == 1 else x


def _write_wav(path, encoding, x):
    if encoding == "int24":  # scipy writes no 24-bit PCM; build it, low 3 bytes of each int32
        values = np.round(x * (1 << 23)).astype("<i4")
        data = values.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
        channels = 1 if x.ndim == 1 else x.shape[1]
        fmt = (b"\x01\x00" + channels.to_bytes(2, "little") + (44100).to_bytes(4, "little")
               + (44100 * 3 * channels).to_bytes(4, "little") + (3 * channels).to_bytes(2, "little")
               + (24).to_bytes(2, "little"))
        body = b"WAVE" + b"fmt " + (16).to_bytes(4, "little") + fmt + b"data" + len(data).to_bytes(4, "little") + data
        path.write_bytes(b"RIFF" + len(body).to_bytes(4, "little") + body + (b"\0" if len(data) % 2 else b""))
        return
    if np.dtype(encoding).kind == "i":
        x = np.round(x * np.iinfo(encoding).max).astype(encoding)
    wavfile.write(path, 44100, x.astype(encoding))


@pytest.mark.parametrize("encoding", ["int16", "int24", "int32", "float32", "float64"])
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("n", [B, 3 * B, 3 * B + 1])
def test_fused_path_matches_public_composition(tmp_path, encoding, channels, n):
    wav = tmp_path / "clip.wav"
    _write_wav(wav, encoding, _clicks(n, channels, seed=n + channels))
    with WavReader(str(wav)) as reader:
        series, env = cli._detect_from_audio(reader, ARGS)
    want_env = envelope(highpass(load_audio(wav), cutoff_hz=ARGS.cutoff_hz), smoothing_ms=ARGS.smoothing_ms)
    want = merge_close_onsets(
        detect_onsets(want_env, threshold=ARGS.threshold, refractory_ms=ARGS.refractory_ms),
        window_ms=ARGS.merge_ms,
    )
    assert env.values.tobytes() == want_env.values.tobytes()
    assert (env.sample_rate, env.source_max, env.silent) == (
        want_env.sample_rate, want_env.source_max, want_env.silent)
    assert len(series) > 10
    for got_col, want_col in zip(series._cols, want._cols):
        assert got_col.tobytes() == want_col.tobytes()


def test_fused_path_and_tempogram_thread_hold_one_clip(tmp_path):
    """About 8M samples (64 MB as float64). A front end that keeps the clip,
    its high-passed copy and the envelope as separate arrays holds three."""
    n = 8 * 1024 * 1024
    wav = tmp_path / "long.wav"
    _write_wav(wav, "float32", _clicks(n, 1, seed=1))
    short = tmp_path / "short.wav"
    _write_wav(short, "float32", _clicks(B, 1, seed=2))

    def detect_beside_tempogram(path):
        with WavReader(str(path)) as reader, ThreadPoolExecutor(max_workers=1) as pool:
            tempogram = pool.submit(cli._tempogram, reader)
            series, _ = cli._detect_from_audio(reader, ARGS)
            tempogram.result()
        return series

    detect_beside_tempogram(short)  # first-call imports and caches
    tracemalloc.start()
    try:
        series = detect_beside_tempogram(wav)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(series) > 1000
    clip_bytes = 8 * n
    assert peak < clip_bytes + 40e6, (peak - clip_bytes) / 1e6


def test_tempogram_branch_holds_its_outputs_and_one_small_block(tmp_path):
    """The tempogram thread's work (novelty curve, then Fourier tempogram,
    read from the file a block at a time) holds its output arrays and a
    fixed working set under 2 MB (about 1.4 MB), the same at 45 s and at
    90 s (45 and 106 tempogram frames, both more than one block)."""

    def beyond_outputs(seconds):
        wav = tmp_path / f"{seconds}.wav"
        _write_wav(wav, "float32", _clicks(int(seconds * 44100), 1, seed=seconds))
        with WavReader(str(wav)) as reader:
            frames = len(novelty_curve(reader))  # also the first-call imports and caches
            tracemalloc.start()
            try:
                tg = cli._tempogram(reader)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        outputs = 8 * frames + tg.magnitude.nbytes + tg.times_s.nbytes + tg.tempi_bpm.nbytes
        return peak - outputs

    short, long = beyond_outputs(45), beyond_outputs(90)
    assert max(short, long) < 2e6, (short / 1e6, long / 1e6)
    assert abs(long - short) < 0.1e6, (short / 1e6, long / 1e6)
