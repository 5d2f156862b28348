import numpy as np
import pytest

from groovekit import AudioClip, EnvelopeSignal, OnsetSeries


@pytest.fixture
def sine_clip():
    def make(freq_hz, duration_s=2.0, sample_rate=44100.0, amplitude=0.8):
        t = np.arange(int(duration_s * sample_rate)) / sample_rate
        return AudioClip(
            samples=amplitude * np.sin(2 * np.pi * freq_hz * t),
            sample_rate=sample_rate,
        )

    return make


@pytest.fixture
def unbind(monkeypatch):
    """A call that makes scipy's compiled kernels unloadable for the rest of
    the test, so that ``groovekit._signal`` goes to public ``scipy.signal``."""
    from groovekit import _signal

    def unbind():
        def unloadable(name):
            raise ImportError(f"no scipy.signal.{name} (made unloadable by the test)")

        monkeypatch.setattr(_signal, "_load", unloadable)
        _signal._kernels.cache_clear()
        assert not _signal.bound()

    yield unbind
    _signal._kernels.cache_clear()  # so that the next test binds the kernels again


def make_envelope(values, sample_rate=1000.0):
    return EnvelopeSignal(
        values=np.asarray(values, dtype=float),
        sample_rate=sample_rate,
        source_max=1.0,
        silent=bool(np.max(values) <= 0),
    )


def series_from_times(times, amplitudes=None, labels=None):
    n = len(times)
    return OnsetSeries.from_columns(
        times, [0.5] * n if amplitudes is None else amplitudes, labels=labels
    )


def select_onsets(series, keep):
    """The onsets of ``series`` where the boolean mask ``keep`` is true."""
    return OnsetSeries(*(c[keep] for c in series._cols))


def with_triples(series):
    """``series``, a shuffle from ``gen_shuffle_onsets``, less the second
    onset of every fourth triplet group: that group's double and the single
    after it join into one triple."""
    keep = np.ones(len(series), dtype=bool)
    keep[1::8] = False
    return select_onsets(series, keep)
