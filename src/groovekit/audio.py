"""Audio loading, pre-filtering, and amplitude-envelope extraction.

The front end of the pipeline: read a PCM file, high-pass it so low drums
and rumble do not smear hi-hat attacks, then rectify and smooth into the
envelope that peak picking consumes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError

__all__ = ["AudioClip", "EnvelopeSignal", "load_audio", "save_audio", "highpass", "envelope"]


@dataclass(frozen=True)
class AudioClip:
    """Mono audio at full scale 1.0.

    Multi-channel inputs are downmixed at load time; ``channel_count_original``
    records what the file held.
    """

    samples: np.ndarray
    sample_rate: float
    channel_count_original: int = 1

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ParameterError("sample_rate must be positive")
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ParameterError("AudioClip holds mono data; downmix before constructing")
        if not np.all(np.isfinite(samples)):
            raise ParameterError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class EnvelopeSignal:
    """Non-negative envelope normalized to peak 1.0 (unless silent).

    ``source_max`` keeps the pre-normalization peak so absolute units can be
    recovered; ``silent`` marks an all-zero input that was left unnormalized.
    """

    values: np.ndarray
    sample_rate: float
    source_max: float
    silent: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if np.any(values < 0):
            raise ParameterError("envelope values must be non-negative")
        object.__setattr__(self, "values", values)

    @property
    def times_s(self) -> np.ndarray:
        return np.arange(len(self.values)) / self.sample_rate


# scipy.io.wavfile dtypes and their full-scale divisors
_PCM_SCALES = {
    np.dtype(np.int16): 32768.0,
    np.dtype(np.int32): 2147483648.0,  # 24-bit PCM arrives left-justified in int32
    np.dtype(np.float32): 1.0,
    np.dtype(np.float64): 1.0,
}


def load_audio(path) -> AudioClip:
    """Load a PCM WAV file as a mono, [-1, 1]-scaled clip.

    Supports 16/24-bit integer and 32-bit float samples, 1-2 channels.
    Multi-channel content is downmixed by per-sample arithmetic mean.

    Raises
    ------
    OSError
        If the file does not exist or cannot be read.
    FormatError
        If the container or sample encoding is unsupported.
    """
    from scipy.io import wavfile  # local import; CSV analysis never loads scipy

    try:
        rate, data = wavfile.read(path)
    except OSError:
        raise
    except Exception as exc:  # a truncated or garbled header fails in many ways
        raise FormatError(f"unsupported or malformed audio file {path!r}: {exc}") from exc
    # wavfile only warns when the data stops short of the RIFF size, so compare
    # them here; RF64 keeps its size elsewhere and sets 0xFFFFFFFF in its place
    with open(path, "rb") as fh:
        head, actual = fh.read(8), os.fstat(fh.fileno()).st_size
    declared = int.from_bytes(head[4:8], "big" if head[:4] == b"RIFX" else "little")
    if declared != 0xFFFFFFFF and declared + 8 > actual:
        raise FormatError(
            f"unsupported or malformed audio file {path!r}: file is truncated "
            f"({actual} bytes; {declared + 8} expected from header)"
        )

    if data.dtype not in _PCM_SCALES:
        raise FormatError(f"unsupported sample encoding {data.dtype.name!r} in {path!r}")

    samples = data.astype(np.float64)
    samples /= _PCM_SCALES[data.dtype]  # in place: one clip-sized buffer fewer
    if samples.ndim == 1:
        channels = 1
    else:
        channels = samples.shape[1]
        samples = samples.mean(axis=1)
    return AudioClip(samples=samples, sample_rate=float(rate), channel_count_original=channels)


def save_audio(path, clip: AudioClip) -> None:
    """Write a clip as 32-bit float PCM WAV."""
    from scipy.io import wavfile  # local import; CSV analysis never loads scipy

    wavfile.write(path, int(round(clip.sample_rate)), clip.samples.astype(np.float32))


def highpass(clip: AudioClip, cutoff_hz: float = 1000.0, order: int = 4) -> AudioClip:
    """Zero-phase Butterworth high-pass.

    The filter runs forward and backward (``sosfiltfilt``) so onset timings
    are not skewed by phase delay; effective magnitude response is the square
    of a single pass. Output length equals input length.
    """
    from scipy import signal  # local import; CSV analysis never loads scipy

    nyquist = clip.sample_rate / 2.0
    if not 0 < cutoff_hz < nyquist:
        raise ParameterError(
            f"cutoff_hz must be in (0, {nyquist:g}) for sample rate {clip.sample_rate:g}"
        )
    sos = signal.butter(order, cutoff_hz, btype="highpass", fs=clip.sample_rate, output="sos")
    # sosfiltfilt pads each end by 3 * taps samples and needs more samples than that
    taps = 2 * len(sos) + 1 - min(np.sum(sos[:, 2] == 0), np.sum(sos[:, 5] == 0))
    min_samples = 3 * taps + 1
    if len(clip.samples) < min_samples:
        raise ParameterError(
            f"clip of {len(clip.samples)} samples is too short for the high-pass "
            f"filter, which needs at least {min_samples}"
        )
    filtered = signal.sosfiltfilt(sos, clip.samples)
    return AudioClip(
        samples=filtered,
        sample_rate=clip.sample_rate,
        channel_count_original=clip.channel_count_original,
    )


def envelope(clip: AudioClip, smoothing_ms: float = 2.0) -> EnvelopeSignal:
    """Full-wave rectified, first-order low-pass smoothed amplitude envelope.

    ``smoothing_ms`` is the time constant of the one-pole smoother. The result
    is normalized to peak 1.0; an all-zero input yields an all-zero envelope
    flagged ``silent`` instead.
    """
    from scipy import signal  # local import; CSV analysis never loads scipy

    if not 0 < smoothing_ms < np.inf:
        raise ParameterError("smoothing_ms must be positive and finite")
    # one-pole low-pass of the rectified signal: y[n] = a*y[n-1] + (1-a)*x[n]
    a = np.exp(-1.0 / (smoothing_ms * 1e-3 * clip.sample_rate))
    smoothed = signal.lfilter([1.0 - a], [1.0, -a], np.abs(clip.samples))
    peak = float(np.max(smoothed)) if len(smoothed) else 0.0
    if peak <= 0.0:
        return EnvelopeSignal(
            values=np.zeros_like(smoothed),
            sample_rate=clip.sample_rate,
            source_max=0.0,
            silent=True,
        )
    return EnvelopeSignal(
        values=np.divide(smoothed, peak, out=smoothed),
        sample_rate=clip.sample_rate,
        source_max=peak,
        silent=False,
    )
