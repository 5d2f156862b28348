"""Novelty curve and Fourier tempogram.

The novelty curve is log-compressed spectral flux: short-time spectra,
logarithmic compression, half-wave-rectified frame differences summed over
frequency. The tempogram evaluates windowed Fourier magnitudes of the novelty
at tempo-rate frequencies, yielding a time-by-tempo map whose per-frame
argmax (with a soft preference for tempi near a reference) tracks the tempo.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ._csvio import write_rows
from .audio import AudioClip, _of
from .errors import ParameterError, _check_count, _check_finite, _check_positive, _first_nonfinite

__all__ = [
    "NoveltyCurve",
    "TempogramParams",
    "Tempogram",
    "novelty_curve",
    "fourier_tempogram",
    "argmax_track",
    "tempogram_summary",
    "write_tempogram_csv",
]

# Frames transformed per block, in the novelty curve and in the tempogram: bounds
# each stage's working memory to about 1 MB. Smaller blocks cost more time per
# frame (16 frames took 20% more CPU than 32 on a 5-minute clip).
_BLOCK_FRAMES = 32
# Width, in octaves, of argmax_track's preference for tempi near the reference.
OCTAVE_SIGMA = 1.0


@dataclass(frozen=True)
class NoveltyCurve:
    values: np.ndarray
    sample_rate: float  # frames per second
    start_s: float = 0.0  # time of the first frame (window center)

    def __len__(self) -> int:
        return len(self.values)

    def times_s(self) -> np.ndarray:
        return self.start_s + np.arange(len(self.values)) / self.sample_rate


@dataclass(frozen=True)
class TempogramParams:
    window_length: int = 1024   # novelty frames per tempogram window
    hop: int = 64               # novelty frames between tempogram frames
    fft_length: int = 4096
    min_bpm: float = 30.0
    max_bpm: float = 360.0
    ref_bpm: float = 84.0

    def __post_init__(self):
        # stored as Python ints and floats, which json.dumps takes and numpy
        # integers and floats are not
        object.__setattr__(self, "window_length", _check_count("window_length", self.window_length, 2))
        object.__setattr__(self, "hop", _check_count("hop", self.hop, 1))
        fft_length = _check_count("fft_length", self.fft_length, self.window_length)
        object.__setattr__(self, "fft_length", fft_length)
        # finite, so tempogram.json holds no Infinity
        object.__setattr__(self, "max_bpm", _check_finite("max_bpm", self.max_bpm))
        object.__setattr__(self, "min_bpm", _check_positive("min_bpm", self.min_bpm))
        if not self.min_bpm < self.max_bpm:
            raise ParameterError("need 0 < min_bpm < max_bpm")
        object.__setattr__(self, "ref_bpm", _check_finite("ref_bpm", self.ref_bpm))


@dataclass(frozen=True)
class Tempogram:
    times_s: np.ndarray
    tempi_bpm: np.ndarray
    magnitude: np.ndarray  # [time, tempo], non-negative
    params: TempogramParams

    def __post_init__(self):
        if self.magnitude.shape != (len(self.times_s), len(self.tempi_bpm)):
            raise ParameterError("magnitude shape must match the time and tempo axes")


def novelty_curve(
    clip: AudioClip,
    window: int = 1024,
    hop: int = 512,
    compression: float = 1000.0,
    min_db: float = -74.0,
) -> NoveltyCurve:
    """Log-compressed spectral flux of the clip.

    Frame magnitudes are floored at ``min_db`` (relative to full scale),
    compressed as log(1 + compression * |X|), differenced along time,
    half-wave rectified, and summed over bins. The first frame's novelty
    is zero by definition.

    Frames are strided views of the samples, not copies. They are read and
    transformed in blocks of ``_BLOCK_FRAMES`` frames, every block in the
    same few arrays, and each block's last compressed spectrum is carried
    into the next block's difference, so the result is the same as
    transforming every frame at once. Working memory is bounded by the block
    size (about 1 MB at the default ``window``) plus the output array; it
    does not grow with clip length. ``clip`` may also be a
    :class:`~groovekit.audio.WavReader`, which then supplies each block's
    samples from the file.

    Raises
    ------
    ParameterError
        If samples near the float64 limit overflow a frame's spectrum or its
        compression, which would make the curve NaN.
    """
    _check_count("window", window, 2)
    _check_count("hop", hop, 1)
    _check_positive("compression", compression)
    _check_finite("min_db", min_db)
    n = len(clip)
    frame_rate = clip.sample_rate / hop
    start_s = window / 2.0 / clip.sample_rate
    if n < window:
        return NoveltyCurve(values=np.zeros(0), sample_rate=frame_rate, start_s=start_s)
    n_frames = 1 + (n - window) // hop
    win = np.hanning(window)
    floor = 10.0 ** (min_db / 20.0)
    novelty = np.empty(n_frames)
    # one block's samples, windowed frames, compressed spectra (after the one
    # carried from the block before) and flux, reused by every block
    samples = np.empty((min(_BLOCK_FRAMES, n_frames) - 1) * hop + window)
    frames = np.lib.stride_tricks.sliding_window_view(samples, window)[::hop]
    windowed = np.empty(frames.shape)
    spectra = np.empty((len(frames) + 1, window // 2 + 1))
    flux = np.empty((len(frames), window // 2 + 1))
    # samples near the float64 limit overflow a spectrum or its compression;
    # the flux then holds NaN or +inf, and the check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_frames, _BLOCK_FRAMES):
            k = min(_BLOCK_FRAMES, n_frames - start)
            width = (k - 1) * hop + window
            clip.read(start * hop, start * hop + width, out=samples[:width])
            compressed = spectra[1:k + 1]
            np.abs(np.fft.rfft(np.multiply(frames[:k], win, out=windowed[:k]), axis=1), out=compressed)
            np.maximum(compressed, floor, out=compressed)
            compressed *= compression
            np.log1p(compressed, out=compressed)
            if start == 0:
                spectra[0] = compressed[0]  # so the first frame's flux, and novelty, is zero
            np.subtract(compressed, spectra[:k], out=flux[:k])
            np.maximum(flux[:k], 0.0, out=flux[:k])
            np.sum(flux[:k], axis=1, out=novelty[start:start + k])
            spectra[0] = compressed[-1]
    at = _first_nonfinite(novelty)
    if at is not None:
        raise ParameterError(
            f"the samples{_of(clip)} overflow the novelty curve's spectrum "
            f"at {start_s + at / frame_rate:.3f} s"
        )
    return NoveltyCurve(values=novelty, sample_rate=frame_rate, start_s=start_s)


def fourier_tempogram(novelty: NoveltyCurve, params: TempogramParams | None = None) -> Tempogram:
    """Windowed Fourier magnitude of the novelty at tempo frequencies.

    Tempo bins are the FFT bins whose frequency, expressed in BPM, falls
    inside [min_bpm, max_bpm]. Frames are complete windows only. They are
    transformed ``_BLOCK_FRAMES`` at a time, and only the tempo bins are kept,
    so the working memory is one block's frames and spectra (about 1.4 MB at
    the default ``fft_length``) beside the output.
    """
    params = params or TempogramParams()
    values = novelty.values
    if len(values) < params.window_length:
        raise ParameterError(
            f"novelty of {len(values)} frames is shorter than the "
            f"{params.window_length}-frame tempogram window"
        )
    frames = np.lib.stride_tricks.sliding_window_view(values, params.window_length)[:: params.hop]
    win = np.hanning(params.window_length)
    n_frames = len(frames)
    freqs = np.fft.rfftfreq(params.fft_length, d=1.0 / novelty.sample_rate)
    bpm = freqs * 60.0
    # the kept bins are one run, as bpm increases with the bin
    lo, hi = np.searchsorted(bpm, params.min_bpm), np.searchsorted(bpm, params.max_bpm, "right")
    magnitude = np.empty((n_frames, hi - lo))
    for start in range(0, n_frames, _BLOCK_FRAMES):  # one statement: no block outlives it
        block = slice(start, start + _BLOCK_FRAMES)
        np.abs(np.fft.rfft(frames[block] * win, params.fft_length)[:, lo:hi], out=magnitude[block])
    times = (
        novelty.start_s
        + (params.hop * np.arange(n_frames) + params.window_length / 2.0) / novelty.sample_rate
    )
    return Tempogram(
        times_s=times,
        tempi_bpm=bpm[lo:hi],
        magnitude=magnitude,
        params=params,
    )


def argmax_track(tg: Tempogram, ref_bpm: float | None = None) -> np.ndarray:
    """Per-frame tempo of maximal magnitude, in BPM.

    With a reference tempo, magnitudes are weighted by a log-normal bell
    centered there (width ``OCTAVE_SIGMA`` octaves) so the metrical level
    nearest the reference wins over its octave partners. Frames with no
    energy report 0.
    """
    ref = ref_bpm if ref_bpm is not None else tg.params.ref_bpm
    _check_finite("ref_bpm", ref)
    mag = tg.magnitude
    if ref > 0:
        with np.errstate(divide="ignore"):
            logs = np.log2(np.maximum(tg.tempi_bpm, 1e-12) / ref)
        mag = mag * np.exp(-0.5 * (logs / OCTAVE_SIGMA) ** 2)[None, :]
    track = tg.tempi_bpm[np.argmax(mag, axis=1)]
    track[np.max(tg.magnitude, axis=1) <= 0.0] = 0.0  # silent frames
    return track


def write_tempogram_csv(path, tg: Tempogram) -> None:
    """Long-form CSV: time_s,bpm,magnitude, one row per (frame, tempo) cell,
    written a block of rows at a time to ``path``, a path or an open binary
    stream (see :func:`~groovekit._csvio.write_rows`)."""
    times, tempi = tg.times_s, tg.tempi_bpm
    write_rows(path, ["time_s", "bpm", "magnitude"], "%.6f,%.4f,%.9g\r\n", [
        np.repeat(times, len(tempi)),
        np.tile(tempi, len(times)),
        tg.magnitude.reshape(-1),
    ])


def tempogram_summary(tg: Tempogram) -> dict:
    """JSON-ready summary: parameters plus the per-frame argmax tempo track."""
    track = argmax_track(tg)
    return {
        "params": asdict(tg.params),
        "track": [
            {"time_s": float(t), "bpm": float(b)} for t, b in zip(tg.times_s, track)
        ],
    }
