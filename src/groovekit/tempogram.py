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
from .audio import AudioClip
from .errors import ParameterError

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

# Novelty frames transformed per block: bounds the novelty stage's working memory.
_BLOCK_FRAMES = 512
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
        if self.window_length < 2 or self.hop < 1:
            raise ParameterError("window_length must be >= 2 and hop >= 1")
        if self.fft_length < self.window_length:
            raise ParameterError("fft_length must cover the window")
        if not 0 < self.min_bpm < self.max_bpm:
            raise ParameterError("need 0 < min_bpm < max_bpm")


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
    transformed in blocks of ``_BLOCK_FRAMES`` frames, and each block's last
    compressed spectrum is carried into the next block's difference, so the
    result is the same as transforming every frame at once. Working memory is
    bounded by the block size (about 15 MB at the default ``window``) plus the
    output array; it does not grow with clip length. ``clip`` may also be a
    :class:`~groovekit.audio.WavReader`, which then supplies each block's
    samples from the file.
    """
    if window < 2 or hop < 1:
        raise ParameterError("window must be >= 2 and hop >= 1")
    n = len(clip)
    frame_rate = clip.sample_rate / hop
    start_s = window / 2.0 / clip.sample_rate
    if n < window:
        return NoveltyCurve(values=np.zeros(0), sample_rate=frame_rate, start_s=start_s)
    n_frames = 1 + (n - window) // hop
    win = np.hanning(window)
    floor = 10.0 ** (min_db / 20.0)
    novelty = np.zeros(n_frames)
    carry = np.empty((0, window // 2 + 1))  # no spectrum precedes the first block
    for start in range(0, n_frames, _BLOCK_FRAMES):
        stop = min(start + _BLOCK_FRAMES, n_frames)
        samples = clip.read(start * hop, (stop - 1) * hop + window)
        frames = np.lib.stride_tricks.sliding_window_view(samples, window)[::hop]
        mags = np.abs(np.fft.rfft(frames * win, axis=1))
        compressed = np.log1p(compression * np.maximum(mags, floor))
        flux = np.diff(np.concatenate((carry, compressed)), axis=0)
        novelty[stop - len(flux):stop] = np.sum(np.maximum(flux, 0.0), axis=1)
        carry = compressed[-1:]
    return NoveltyCurve(values=novelty, sample_rate=frame_rate, start_s=start_s)


def fourier_tempogram(novelty: NoveltyCurve, params: TempogramParams | None = None) -> Tempogram:
    """Windowed Fourier magnitude of the novelty at tempo frequencies.

    Tempo bins are the FFT bins whose frequency, expressed in BPM, falls
    inside [min_bpm, max_bpm]. Frames are complete windows only.
    """
    params = params or TempogramParams()
    values = novelty.values
    if len(values) < params.window_length:
        raise ParameterError(
            f"novelty of {len(values)} frames is shorter than the "
            f"{params.window_length}-frame tempogram window"
        )
    frames = np.lib.stride_tricks.sliding_window_view(values, params.window_length)[:: params.hop]
    frames = frames * np.hanning(params.window_length)
    n_frames = len(frames)
    spectra = np.abs(np.fft.rfft(frames, n=params.fft_length, axis=1))
    freqs = np.fft.rfftfreq(params.fft_length, d=1.0 / novelty.sample_rate)
    bpm = freqs * 60.0
    keep = (bpm >= params.min_bpm) & (bpm <= params.max_bpm)
    times = (
        novelty.start_s
        + (params.hop * np.arange(n_frames) + params.window_length / 2.0) / novelty.sample_rate
    )
    return Tempogram(
        times_s=times,
        tempi_bpm=bpm[keep],
        magnitude=spectra[:, keep],
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
    mag = tg.magnitude
    if ref and ref > 0:
        with np.errstate(divide="ignore"):
            logs = np.log2(np.maximum(tg.tempi_bpm, 1e-12) / ref)
        mag = mag * np.exp(-0.5 * (logs / OCTAVE_SIGMA) ** 2)[None, :]
    track = tg.tempi_bpm[np.argmax(mag, axis=1)]
    track[np.max(tg.magnitude, axis=1) <= 0.0] = 0.0  # silent frames
    return track


def write_tempogram_csv(path, tg: Tempogram) -> None:
    """Long-form CSV: time_s,bpm,magnitude, one row per (frame, tempo) cell.

    Each time and tempo is formatted once; the cells' rows reference those
    strings and are written in blocks.
    """
    times = np.array([f"{t:.6f}" for t in tg.times_s.tolist()], dtype=object)
    tempi = np.array([f"{bpm:.4f}" for bpm in tg.tempi_bpm.tolist()], dtype=object)
    write_rows(path, ["time_s", "bpm", "magnitude"], "%s,%s,%.9g\r\n", [
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
