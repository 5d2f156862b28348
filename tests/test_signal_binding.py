"""``groovekit._signal`` against public ``scipy.signal``, byte for byte.

The audio path designs its high-pass in numpy and calls scipy's compiled
kernels without importing ``scipy.signal``. The design must give scipy's
coefficients and initial states exactly, over every order the filter is
used at and a grid of rates and cutoffs; the bound kernels must give the
outputs and final states of the public functions on the installed scipy; and
when the kernels cannot be bound, the fallback to the public functions must
give the same audio results as the binding.
"""

import threading
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from groovekit import _cpu, _signal
from groovekit.audio import AudioClip, WavReader, envelope, highpass, save_audio
from groovekit.onsets import detect_onsets

RATES = (8000.0, 11025.0, 16000.0, 22050.0, 44099.7, 44100.0, 48000.0, 88200.0, 96000.0, 192000.0)


def _cutoffs(fs):
    return (0.5, 1.0, 20.0, 100.0, 440.0, 1000.0, 0.1 * fs, 0.25 * fs, 0.4 * fs, 0.49 * fs)


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("fs", RATES)
def test_design_matches_scipy(fs):
    for cutoff in _cutoffs(fs):
        for order in range(1, 9):
            want = signal.butter(order, cutoff, btype="highpass", fs=fs, output="sos")
            got = _signal.butter_highpass_sos(order, cutoff, fs)
            assert _same(got, want), (order, cutoff)
            assert _same(_signal.sosfilt_zi(got), signal.sosfilt_zi(want)), (order, cutoff)


def _noise(n, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n)


@pytest.mark.parametrize("order", [1, 4, 7])
def test_sosfilt_matches_scipy_across_blocks(order):
    sos = signal.butter(order, 1000.0, btype="highpass", fs=44100.0, output="sos")
    x = _noise(5000, seed=order)
    zi_got = zi_want = signal.sosfilt_zi(sos) * x[0]
    for lo, hi in ((0, 1), (1, 1000), (1000, 5000)):
        y_got, zi_got = _signal.sosfilt(sos, x[lo:hi], zi_got)
        y_want, zi_want = signal.sosfilt(sos, x[lo:hi], zi=zi_want)
        assert _same(y_got, y_want) and _same(zi_got, zi_want)
    # a reversed view, as the backward pass hands it over; the input is not written
    back = x[::-1]
    y_got, zi_got = _signal.sosfilt(sos, back, zi_got)
    y_want, zi_want = signal.sosfilt(sos, back, zi=zi_want)
    assert _same(y_got, y_want) and _same(zi_got, zi_want)
    assert _same(x, _noise(5000, seed=order))


@pytest.mark.parametrize("order", [1, 4, 7])
def test_sosfilt_into_out_matches_scipy(order):
    """In place, as the high-pass's forward pass filters its buffer, and
    from a reversed view into a scratch block, as its backward pass does."""
    sos = signal.butter(order, 1000.0, btype="highpass", fs=44100.0, output="sos")
    x = _noise(5000, seed=order)
    zi = signal.sosfilt_zi(sos) * x[0]
    y_want, zf_want = signal.sosfilt(sos, x, zi=zi)
    y = x.copy()
    got, zf = _signal.sosfilt(sos, y, zi, out=y)
    assert got is y and _same(y, y_want) and _same(zf, zf_want)
    scratch = np.full(5000, np.nan)
    got, zf = _signal.sosfilt(sos, x[::-1], zi, out=scratch)
    y_want, zf_want = signal.sosfilt(sos, x[::-1], zi=zi)
    assert got is scratch and _same(scratch, y_want) and _same(zf, zf_want)
    assert _same(x, _noise(5000, seed=order))
    with pytest.raises(ValueError, match="C-contiguous"):
        _signal.sosfilt(sos, x[::2], zi, out=np.empty(10000)[::4])


def _rectified_cases():
    """Inputs the envelope smoother sees: rectified, so never negative."""
    x = np.abs(_noise(5000, seed=3))
    x[2000:2500] = 0.0
    impulse = np.zeros(5000)
    impulse[7] = 1.0
    return {
        "noise with a silent stretch": x,
        "tiny noise": 1e-300 * x,
        "subnormals": 5e-324 * np.arange(5000.0),
        "zeros": np.zeros(5000),
        "impulse": impulse,
        "huge": 1e308 * x,
        "largest float": np.full(5000, np.finfo(np.float64).max),
    }


@pytest.mark.parametrize("case", list(_rectified_cases()))
@pytest.mark.parametrize("smoothing_ms", [0.01, 2.0, 50.0, 500.0])
def test_one_pole_sosfilt_matches_lfilter_across_blocks(case, smoothing_ms):
    """The envelope's smoother, one section filtered in place block by
    block, gives ``lfilter([1 - a], [1, -a])``'s outputs and state."""
    a = np.exp(-1.0 / (smoothing_ms * 1e-3 * 44100.0))
    sos = np.array([[1.0 - a, 0.0, 0.0, 1.0, -a, 0.0]])
    x = _rectified_cases()[case]
    z_got, z_want = np.zeros((1, 2)), np.zeros(1)
    for lo, hi in ((0, 1), (1, 2100), (2100, 5000)):
        y_got = x[lo:hi].copy()
        _, z_got = _signal.sosfilt(sos, y_got, z_got, out=y_got)
        y_want, z_want = signal.lfilter([1.0 - a], [1.0, -a], x[lo:hi], zi=z_want)
        assert _same(y_got, y_want) and _same(z_got[0, :1], z_want) and z_got[0, 1] == 0.0
    whole = signal.lfilter([1.0 - a], [1.0, -a], x, zi=np.zeros(1))[0]
    assert _same(_signal.sosfilt(sos, x, np.zeros((1, 2)))[0], whole)


def _peak_cases():
    rng = np.random.default_rng(7)
    smooth = signal.lfilter([0.1], [1.0, -0.9], np.abs(rng.normal(size=4000)))
    plateaus = np.array([0.0, 0.5, 0.5, 0.2, 0.7, 0.7, 0.7, 0.0, 0.3, 0.3, 0.3, 0.3, 0.9, 0.9])
    return {
        "noise": rng.uniform(0.0, 1.0, 3000),
        "smoothed": smooth / smooth.max(),
        "plateaus": plateaus,
        "plateau at the end": np.array([0.0, 0.4, 0.8, 0.8]),
        "ties": np.round(rng.uniform(0.0, 1.0, 3000), 1),
        "flat": np.full(50, 0.25),
        "short": np.array([0.3, 0.6]),
        "empty": np.zeros(0),
        # exact zeros, with negative neighbours at times, are peaks at height 0
        "signed": np.round(rng.uniform(-1.0, 1.0, 3000), 1),
    }


@pytest.mark.parametrize("case", list(_peak_cases()))
@pytest.mark.parametrize("height", [0.0, 0.25, 0.5, 0.8])
def test_find_peaks_matches_scipy(unbind, case, height):
    """With the kernels bound, and with them unloadable."""
    x = _peak_cases()[case]
    want = {distance: signal.find_peaks(x, height=height, distance=distance)[0] for distance in (1, 3, 50)}
    for binding in ("bound", "unbound"):
        if binding == "unbound":
            unbind()
        for distance, peaks in want.items():
            assert _same(_signal.find_peaks(x, height, distance), peaks), (binding, distance)


# _PEAK_BLOCK and _CUT_SEARCH in the split-scan test: 32 values or more may be
# split, at a cut among the 8 values before the middle
SPLIT_BLOCK, SPLIT_SEARCH = 16, 8


def _split_case(kind, n, height, seed):
    """Non-negative values around a middle the split scan searches."""
    rng = np.random.default_rng(seed)
    mid = n // 2
    if kind == "plateaus":  # runs of equal values, some above the height
        return np.repeat(np.round(rng.uniform(0.0, 1.0, n), 1), rng.integers(1, 5, n))[:n]
    x = rng.uniform(0.0, 1.0, n)
    if kind == "run across the middle":  # non-decreasing above the height, from inside the search
        lo, hi = mid - int(rng.integers(1, SPLIT_SEARCH)), mid + int(rng.integers(1, 10))
    elif kind == "no cut near the middle":  # the run covers the whole search
        lo, hi = mid - SPLIT_SEARCH - int(rng.integers(0, 10)), mid + int(rng.integers(1, 10))
    else:
        return x
    x[lo:hi] = height + np.sort(np.round(rng.uniform(0.0, 1.0, hi - lo), 1))  # with plateaus
    return x


def _cut_near_middle(x, height):
    """Whether a value among the SPLIT_SEARCH before the middle is below
    the height or lower than the one before it."""
    mid = len(x) // 2
    return any(x[i] < height or x[i] < x[i - 1] for i in range(max(mid - SPLIT_SEARCH, 0) + 1, mid + 1))


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["noise", "plateaus", "run across the middle", "no cut near the middle"]),
    n=st.integers(2 * SPLIT_BLOCK, 400),
    height=st.sampled_from([0.0, 0.25, 0.5, 0.8]),
    distance=st.sampled_from([1, 3, 50]),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_scan_matches_scipy(kind, n, height, distance, seed):
    """The scan split with an idle or busy helper, on one CPU or two: the
    peaks are scipy's, the helper gets the tail exactly when it is idle,
    there are two CPUs and a cut lies near the middle, and its task is done
    when ``find_peaks`` returns."""
    x = _split_case(kind, n, height, seed)
    want = signal.find_peaks(x, height=height, distance=distance)[0]
    threads = threading.active_count()
    with pytest.MonkeyPatch.context() as mp, ThreadPoolExecutor(max_workers=1) as pool:
        mp.setattr(_signal, "_PEAK_BLOCK", SPLIT_BLOCK)
        mp.setattr(_signal, "_CUT_SEARCH", SPLIT_SEARCH)
        tasks = []

        def submit(*args):
            tasks.append(ThreadPoolExecutor.submit(pool, *args))
            return tasks[-1]

        mp.setattr(pool, "submit", submit)
        for cpus in (1, 2):
            mp.setattr(_cpu, "cpu_count", lambda: cpus)
            for idle in (True, False):
                del tasks[:]
                assert _same(_signal.find_peaks(x, height, distance, (pool, lambda: idle)), want)
                assert len(tasks) == (idle and cpus == 2 and _cut_near_middle(x, height))
                assert all(task.done() for task in tasks)
    if kind == "no cut near the middle":
        assert not _cut_near_middle(x, height)
    assert threading.active_count() == threads


def _audio_results(clip):
    filtered = highpass(clip, cutoff_hz=1000.0)
    env = envelope(filtered, smoothing_ms=2.0)
    series = detect_onsets(env, threshold=0.1, refractory_ms=50.0)
    return (filtered.samples, env.values, *series._cols)


def _missing_module(name):
    raise ImportError(f"no scipy.signal.{name} (made unloadable by the test)")


def _missing_function(name):
    return types.ModuleType(name)  # loads, but lacks the kernel


@pytest.mark.parametrize("unloadable", [_missing_module, _missing_function])
def test_fallback_gives_the_bound_results(monkeypatch, tmp_path, unloadable):
    """On a clip, and on a WAV whose blocks the high-pass decodes straight
    into its buffer and filters in place."""
    rng = np.random.default_rng(11)
    samples = 0.001 * rng.normal(size=3 * 44100)
    samples[::11025] += 0.9  # clicks the detector finds
    clip = AudioClip(samples, 44100.0)
    wav = tmp_path / "clip.wav"
    save_audio(wav, clip)

    def results():
        with WavReader(wav) as reader:
            return _audio_results(clip) + _audio_results(reader)

    assert _signal.bound()
    bound = results()
    monkeypatch.setattr(_signal, "_load", unloadable)
    _signal._kernels.cache_clear()
    try:
        assert not _signal.bound()
        fell_back = results()
    finally:
        _signal._kernels.cache_clear()
    assert len(bound[2]) == 12 and len(bound[len(bound) // 2 + 2]) == 12
    for got, want in zip(fell_back, bound, strict=True):
        assert _same(got, want)
