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

Given a helper thread, the envelope's smoother hands it the second half of
the clip once the thread is idle, and the result must still be the bytes of
the sequential loop: for any signal, split point and smoothing, when the
helper's warm-up does not coalesce, when the exact state is already NaN at
the split, when the helper is busy, and when the helper raises. The commands
that lend the envelope a thread must leave none behind.
"""

import argparse
import itertools
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal
from scipy.io import wavfile

from groovekit import _signal, audio, cli
from groovekit.audio import _BLOCK, AudioClip, WavReader, envelope, highpass, load_audio
from groovekit.errors import ParameterError
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
    # the fused path's envelope is held by nobody else, so it keeps its
    # known maximum; envelope() hands its values out and keeps none
    assert (env._max, want_env._max) == (1.0, None)
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


@pytest.mark.parametrize("when", ["beside", "after"])
def test_fused_path_with_envelope_helper_holds_one_clip(tmp_path, monkeypatch, when):
    """As above, with the tempogram's thread lent to the envelope: once the
    tempogram is done (``beside``, as ``analyze`` does), or from the start,
    the tempogram having finished first (``after``, where the split is sure
    to be taken). The helper smooths its half in place and reads its warm-up
    through two small scratch blocks, so the bound is unchanged."""
    monkeypatch.setattr(audio, "_cpu_count", lambda: 2)
    n = 8 * 1024 * 1024
    wav = tmp_path / "long.wav"
    _write_wav(wav, "float32", _clicks(n, 1, seed=1))
    short = tmp_path / "short.wav"
    _write_wav(short, "float32", _clicks(B, 1, seed=2))
    tails = _spy_tails(monkeypatch)

    def detect_with_helper(path):
        with WavReader(str(path)) as reader, ThreadPoolExecutor(max_workers=1) as pool:
            tempogram = pool.submit(cli._tempogram, reader)
            if when == "after":
                tempogram.result()
            series, _ = cli._detect_from_audio(reader, ARGS, helper=(pool, tempogram.done))
            tempogram.result()
        return series

    detect_with_helper(short)  # first-call imports and caches
    tracemalloc.start()
    try:
        series = detect_with_helper(wav)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    with WavReader(str(wav)) as reader:
        want, _ = cli._detect_from_audio(reader, ARGS)
    assert series == want
    if when == "after":
        assert len(tails) == 1 and tails[0] is not None
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


# ---------------------------------------------------------------------------
# the envelope's smoother split with a helper thread

RATE = 1000.0  # one sample per ms, so the warm-up is about 1100 * smoothing_ms samples
SMALL_BLOCK = 1024


def _spy_tails(monkeypatch):
    """What each call of the helper's part returns, in order."""
    tails, original = [], audio._smooth_tail

    def spy(*args):
        tails.append(original(*args))
        return tails[-1]

    monkeypatch.setattr(audio, "_smooth_tail", spy)
    return tails


def _small_blocks(monkeypatch):
    monkeypatch.setattr(audio, "_BLOCK", SMALL_BLOCK)
    monkeypatch.setattr(audio, "_WARM_BLOCK", 300)
    monkeypatch.setattr(audio, "_cpu_count", lambda: 2)


def _with_helper(x, smoothing_ms, idle=None, in_place=True, sample_rate=RATE):
    """``_envelope_into`` with a one-thread helper, on a copy of ``x``
    (``AudioClip._checked``, so that non-finite samples get through), in
    place or into a separate array. ``idle`` defaults to always idle."""
    x = np.array(x, dtype=np.float64)
    clip = AudioClip._checked(x, sample_rate, 1)
    out = x if in_place else np.empty(len(x))
    with ThreadPoolExecutor(max_workers=1) as pool:
        return audio._envelope_into(clip, smoothing_ms, out, helper=(pool, idle or (lambda: True)))


def _sequential(x, smoothing_ms, sample_rate=RATE):
    """The helper-less loop, into a new array."""
    return audio._envelope_into(AudioClip._checked(np.asarray(x, dtype=np.float64), sample_rate, 1),
                                smoothing_ms, out=np.empty(len(x)))


def _assert_same_envelope(got, want):
    assert got.values.tobytes() == want.values.tobytes()
    # bitwise, so that a NaN peak equals a NaN peak
    assert np.float64(got.source_max).tobytes() == np.float64(want.source_max).tobytes()
    assert (got.sample_rate, got.silent, got._max) == (want.sample_rate, want.silent, want._max)


def _warmup_at(smoothing_ms, sample_rate=RATE):
    a = np.exp(-1.0 / (smoothing_ms * 1e-3 * sample_rate))
    return audio._warmup(a, 1 << 40)


def _signal_of(kind, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    if kind == "clicks":
        x *= 1e-3
        x[rng.integers(0, n, max(1, n // 500))] = rng.uniform(0.2, 1.0)
    elif kind == "silence-then-noise":
        x[:rng.integers(0, n)] = 0.0
    elif kind == "tiny":
        x *= 1e-300
    elif kind == "near-max":
        x *= np.finfo(np.float64).max
    return x


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["noise", "clicks", "silence-then-noise", "tiny", "near-max"]),
    smoothing_ms=st.floats(0.2, 6.0),
    idle_from=st.integers(0, 5),
    blocks=st.integers(0, 8),
    extra=st.integers(0, SMALL_BLOCK - 1),
    in_place=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_matches_the_sequential_loop(kind, smoothing_ms, idle_from, blocks, extra, in_place, seed):
    """Signals, split points (the helper idle from a drawn eligible block
    boundary on) and smoothing values; the clip is just long enough for an
    offer at up to a few boundaries, so the split lands anywhere in a block
    and sometimes on a block end."""
    with pytest.MonkeyPatch.context() as mp:
        _small_blocks(mp)
        w = _warmup_at(smoothing_ms)
        n = 2 * w + 4 * SMALL_BLOCK + blocks * SMALL_BLOCK + extra
        x = _signal_of(kind, n, seed)
        boundaries = itertools.count()
        got = _with_helper(x, smoothing_ms, idle=lambda: next(boundaries) >= idle_from, in_place=in_place)
        _assert_same_envelope(got, _sequential(x, smoothing_ms))


@pytest.mark.parametrize("extra", [0, 1, SMALL_BLOCK // 2], ids=["split-on-a-block-end", "one-past", "mid-block"])
@pytest.mark.parametrize("in_place", [True, False], ids=["in-place", "separate-out"])
def test_split_is_taken_on_clicks(monkeypatch, extra, in_place):
    _small_blocks(monkeypatch)
    tails = _spy_tails(monkeypatch)
    n = 2 * (2 * _warmup_at(2.0) + 4 * SMALL_BLOCK) + 2 * extra  # S = n // 2
    x = _signal_of("clicks", n, seed=extra)
    got = _with_helper(x, 2.0, in_place=in_place)
    assert len(tails) == 1 and tails[0] is not None
    _assert_same_envelope(got, _sequential(x, 2.0))
    assert got._max == 1.0 and np.max(got.values) == 1.0


def test_warmup_too_short_to_coalesce_is_refused(monkeypatch):
    """Four samples of warm-up leave the two bounds far apart: the helper
    writes nothing and the main thread smooths past the split itself."""
    _small_blocks(monkeypatch)
    monkeypatch.setattr(audio, "_warmup", lambda a, n: 4)
    tails = _spy_tails(monkeypatch)
    x = _signal_of("noise", 20 * SMALL_BLOCK + 77, seed=3)
    got = _with_helper(x, 2.0)
    assert tails == [None]
    _assert_same_envelope(got, _sequential(x, 2.0))


def test_near_max_samples_make_the_upper_bound_overflow(monkeypatch):
    """Samples near DBL_MAX stay finite in the exact envelope (a convex
    combination of them never rounds past DBL_MAX), but the warm-up from
    DBL_MAX overflows to NaN, so the tail is refused."""
    _small_blocks(monkeypatch)
    tails = _spy_tails(monkeypatch)
    x = _signal_of("near-max", 2 * _warmup_at(2.0) + 8 * SMALL_BLOCK + 5, seed=4)
    got = _with_helper(x, 2.0)
    assert tails == [None]
    assert np.isfinite(got.values).all()
    _assert_same_envelope(got, _sequential(x, 2.0))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("in_place", [True, False], ids=["in-place", "separate-out"])
def test_state_already_nan_at_the_split_reruns_the_tail(monkeypatch, bad, in_place):
    """An infinite or NaN sample early on (in a clip built without the finite
    check) makes the exact state NaN long before the split. The helper's
    warm-up, over finite samples, still coalesces, so it smooths the tail
    from a finite state; the join sees the mismatch and reruns the tail from
    the NaN state, whose outputs are that NaN whatever the input was."""
    _small_blocks(monkeypatch)
    tails = _spy_tails(monkeypatch)
    x = _signal_of("clicks", 2 * _warmup_at(2.0) + 8 * SMALL_BLOCK + 333, seed=5)
    x[100] = bad
    got = _with_helper(x, 2.0, in_place=in_place)
    assert len(tails) == 1 and tails[0] is not None and np.isfinite(tails[0][0]).all()
    want = _sequential(x, 2.0)
    assert np.isnan(want.values[-1])
    _assert_same_envelope(got, want)
    assert got._max is None


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("helper", [False, True], ids=["sequential", "helper"])
def test_non_finite_sample_in_the_first_block_is_rejected(monkeypatch, bad, helper):
    """An infinite or NaN sample in the first block (of a clip built without
    the finite check) makes that block's maximum and every later one NaN.
    The peak is then NaN, not 0: the envelope is not flagged silent, its
    maximum is unknown, and detection scans it and raises."""
    _small_blocks(monkeypatch)
    x = _signal_of("clicks", 2 * _warmup_at(2.0) + 8 * SMALL_BLOCK + 333, seed=14)
    x[10] = bad
    env = _with_helper(x, 2.0) if helper else _sequential(x, 2.0)
    assert not env.silent and np.isnan(env.source_max) and env._max is None
    with pytest.raises(ParameterError, match="must be finite"):
        detect_onsets(env)


@pytest.mark.parametrize("where", ["after-the-split", "before-and-after"])
@pytest.mark.parametrize("extra", [0, SMALL_BLOCK // 2], ids=["split-on-a-block-end", "mid-block"])
def test_nan_just_after_the_split(monkeypatch, where, extra):
    """The clip's largest value just before ``S`` and an infinite sample just
    after it, with the split mid-block or on a block end: the peak is NaN, as
    the sequential loop's is, however the block maxima fall on either side.
    With a bad sample before ``S - W`` as well, the tail is rerun from a NaN
    state over values the helper wrote, some of them NaN themselves."""
    _small_blocks(monkeypatch)
    tails = _spy_tails(monkeypatch)
    n = 2 * (2 * _warmup_at(2.0) + 4 * SMALL_BLOCK + extra)
    split = n // 2
    assert (split % SMALL_BLOCK == 0) == (extra == 0)
    x = _signal_of("clicks", n, seed=12)
    x[split - 10] = 5.0
    x[split + 10] = np.inf
    if where == "before-and-after":
        x[100] = np.inf
    got = _with_helper(x, 2.0)
    assert len(tails) == 1 and tails[0] is not None
    want = _sequential(x, 2.0)
    assert np.isnan(want.source_max) and want._max is None
    _assert_same_envelope(got, want)


def test_main_thread_waits_for_the_warmup_read(monkeypatch):
    """A helper slow to read its warm-up: the main thread must not overwrite
    the input before ``S`` until it has been read."""
    _small_blocks(monkeypatch)
    tails = _spy_tails(monkeypatch)
    original, caller = _signal.sosfilt, threading.get_ident()

    def slow_off_caller(*args, **kwargs):
        if threading.get_ident() != caller:
            time.sleep(0.01)
        return original(*args, **kwargs)

    monkeypatch.setattr(_signal, "sosfilt", slow_off_caller)
    x = _signal_of("clicks", 2 * _warmup_at(2.0) + 4 * SMALL_BLOCK + 999, seed=13)
    got = _with_helper(x, 2.0)
    assert len(tails) == 1 and tails[0] is not None
    _assert_same_envelope(got, _sequential(x, 2.0))


def test_a_finite_mismatch_at_the_join_is_an_error(monkeypatch):
    """A tail that does not continue a finite exact state would break the
    monotonicity argument; it is refused loudly, not written."""
    _small_blocks(monkeypatch)
    original = audio._smooth_tail

    def off_by_one_ulp(*args):
        state, maxima = original(*args)
        return np.nextafter(state, np.inf), maxima

    monkeypatch.setattr(audio, "_smooth_tail", off_by_one_ulp)
    with pytest.raises(RuntimeError, match="does not continue its exact state"):
        _with_helper(_signal_of("noise", 20 * SMALL_BLOCK, seed=6), 2.0)


def test_busy_helper_is_offered_nothing(monkeypatch):
    _small_blocks(monkeypatch)
    tails = _spy_tails(monkeypatch)
    x = _signal_of("clicks", 20 * SMALL_BLOCK + 9, seed=7)
    release = threading.Event()
    with ThreadPoolExecutor(max_workers=1) as pool:
        busy = pool.submit(release.wait)
        clip = AudioClip._checked(x.copy(), RATE, 1)
        got = audio._envelope_into(clip, 2.0, clip.samples, helper=(pool, busy.done))
        release.set()
    assert tails == []
    _assert_same_envelope(got, _sequential(x, 2.0))


def test_one_cpu_offers_nothing(monkeypatch):
    _small_blocks(monkeypatch)
    monkeypatch.setattr(audio, "_cpu_count", lambda: 1)
    tails = _spy_tails(monkeypatch)
    x = _signal_of("noise", 20 * SMALL_BLOCK, seed=8)
    _assert_same_envelope(_with_helper(x, 2.0), _sequential(x, 2.0))
    assert tails == []


def test_long_warmup_offers_nothing(monkeypatch):
    """At 500 ms and 44.1 kHz the warm-up is 2^25 samples, longer than the
    clip, so nothing is offered."""
    _small_blocks(monkeypatch)
    tails = _spy_tails(monkeypatch)
    x = _signal_of("noise", 40 * SMALL_BLOCK, seed=9)
    got = _with_helper(x, 500.0, sample_rate=44100.0)
    assert _warmup_at(500.0, 44100.0) == 1 << 25
    assert tails == []
    _assert_same_envelope(got, _sequential(x, 500.0, sample_rate=44100.0))


class HelperFailure(Exception):
    pass


@pytest.mark.parametrize("stage", ["warm-up", "tail"])
def test_helper_exception_surfaces_on_the_main_thread(monkeypatch, stage):
    """An error in the helper's warm-up (before it has read its input) or in
    its tail is raised by ``_envelope_into`` in its caller's thread, which
    does not wait for a warm-up that never ends."""
    _small_blocks(monkeypatch)
    if stage == "warm-up":
        patched, name = _signal, "sosfilt"
    else:
        patched, name = audio, "_smooth"
    original = getattr(patched, name)
    raised = []

    def call():
        caller = threading.get_ident()

        def fail_off_caller(*args, **kwargs):
            if threading.get_ident() != caller:
                raise HelperFailure(stage)
            return original(*args, **kwargs)

        monkeypatch.setattr(patched, name, fail_off_caller)
        try:
            _with_helper(_signal_of("noise", 20 * SMALL_BLOCK, seed=10), 2.0)
        except HelperFailure as exc:
            raised.append(exc)

    # on a thread of its own, so that a wait that never ends fails the test
    caller = threading.Thread(target=call)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert [str(exc) for exc in raised] == [stage]


@pytest.mark.parametrize("command", ["onsets", "analyze"])
def test_commands_leave_no_thread_behind(tmp_path, monkeypatch, command):
    """A clip long enough (32 s at 44.1 kHz) for the split to be offered;
    ``onsets`` lends the envelope no helper, so it offers nothing."""
    monkeypatch.setattr(audio, "_cpu_count", lambda: 2)
    tails = _spy_tails(monkeypatch)
    wav = tmp_path / "clip.wav"
    _write_wav(wav, "float32", _clicks(32 * 44100, 1, seed=11))
    before = set(threading.enumerate())
    out = ["-o", str(tmp_path / "o.csv")] if command == "onsets" else ["--out-dir", str(tmp_path / "out")]
    assert cli.main([command, str(wav), *out]) == 0
    assert set(threading.enumerate()) == before
    if command == "onsets":
        assert tails == []
