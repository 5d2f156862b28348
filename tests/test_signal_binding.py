"""``groovekit._signal`` against public ``scipy.signal``, byte for byte.

The audio path designs its high-pass in numpy and calls scipy's compiled
kernels without importing ``scipy.signal``. The design must give scipy's
coefficients and initial states exactly, over every order the filter is
used at and a grid of rates and cutoffs; the bound kernels must give the
outputs and final states of the public functions on the installed scipy; and
when the kernels cannot be bound, the fallback to the public functions must
give the same audio results as the binding.
"""

import types

import numpy as np
import pytest
from scipy import signal

from groovekit import _signal
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


@pytest.mark.parametrize("smoothing_ms", [0.01, 2.0, 50.0])
def test_lfilter_matches_scipy_across_blocks(smoothing_ms):
    a = np.exp(-1.0 / (smoothing_ms * 1e-3 * 44100.0))
    x = np.abs(_noise(5000, seed=3))
    x[2000:2500] = 0.0
    z_got = z_want = np.zeros(1)
    for lo, hi in ((0, 1), (1, 2100), (2100, 5000)):
        y_got, z_got = _signal.lfilter([1.0 - a], [1.0, -a], x[lo:hi], z_got)
        y_want, z_want = signal.lfilter([1.0 - a], [1.0, -a], x[lo:hi], zi=z_want)
        assert _same(y_got, y_want) and _same(z_got, z_want)
    whole = signal.lfilter([1.0 - a], [1.0, -a], x, zi=np.zeros(1))
    assert _same(_signal.lfilter([1.0 - a], [1.0, -a], x, np.zeros(1))[0], whole[0])


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
    }


@pytest.mark.parametrize("case", list(_peak_cases()))
@pytest.mark.parametrize("height", [0.0, 0.25, 0.5, 0.8])
def test_find_peaks_matches_scipy(case, height):
    x = _peak_cases()[case]
    assert _same(_signal.find_peaks(x, height), signal.find_peaks(x, height=height)[0])
    # the envelope as detection hands it over: values below the height zeroed
    masked = np.where(x >= height, x, 0.0)
    assert _same(_signal.find_peaks(masked, height), signal.find_peaks(masked, height=height)[0])


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
