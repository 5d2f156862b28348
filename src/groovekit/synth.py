"""Synthetic grooves, correlated noise, and click renders for ground truth.

Everything here exists so the analysis side can be tested against inputs with
exactly known answers: shuffle onset grids with programmable swing, tempo
ramps and timing noise; power-law series with a chosen spectral exponent; a
two-regime series with a programmed scaling crossover; and audio renders that
turn an onset list into a click track the detection pipeline can chew on.

All generators are pure functions of (parameters, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio import AudioClip
from .errors import ParameterError
from .onsets import OnsetSeries

__all__ = [
    "GrooveSpec",
    "ShuffleGroundTruth",
    "UNITS_PER_BAR",
    "unit_duration_s",
    "bar_time_s",
    "gen_shuffle_onsets",
    "gen_powerlaw_noise",
    "gen_crossover_series",
    "render_clicks",
]

# a half-time shuffle bar: 4 groups of 3 eighth-note-triplet units
UNITS_PER_BAR = 12
GROUPS_PER_BAR = 4

GHOST_AMPLITUDE = 0.15

# Render limits, checked before anything is allocated: the highest sample
# rate audio hardware offers, and the most samples a 32-bit float WAV's data
# chunk (at most 2**32 - 1 bytes) can hold.
MAX_SAMPLE_RATE = 768000.0
MAX_RENDER_SAMPLES = (2**32 - 1) // 4
# carrier of a rendered click, high enough to pass a 1 kHz high-pass intact
CLICK_HZ = 6000.0


def unit_duration_s(bpm: float) -> float:
    """Duration of one eighth-note-triplet unit at the given tempo."""
    return 60.0 / (bpm * 6.0)


@dataclass(frozen=True)
class GrooveSpec:
    """Parameters of a synthetic shuffle groove.

    ``bpm`` sets the triplet unit via 60/(bpm*6). ``swing_ratio`` is the
    long/short (y/x) duration ratio of each hi-hat pair. Timing noise has a
    white component (``jitter_sigma_ms``, applied to onset times) and an
    optional long-range-correlated component: per-interval deviations with
    spectral exponent ``lrc_beta`` and scale ``lrc_sigma_ms``, accumulated
    into the onset times so the intervals inherit the programmed spectrum.
    ``drift_profile`` is a piecewise-linear tempo curve as (bar, bpm) pairs.
    The groove starts at ``start_s`` so timing noise cannot push the first
    onset before time zero.
    """

    bpm: float = 84.0
    swing_ratio: float = 2.0
    bars: int = 4
    start_s: float = 0.5
    jitter_sigma_ms: float = 0.0
    lrc_beta: float = 0.0
    lrc_sigma_ms: float = 0.0
    amplitude_pattern: tuple[float, ...] = (0.6, 0.3)
    amplitude_jitter: float = 0.0
    ghost_probability: float = 0.0
    drift_profile: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not 0 < self.bpm < math.inf:
            raise ParameterError("bpm must be positive and finite")
        if not 0 < self.swing_ratio < math.inf:
            raise ParameterError("swing_ratio must be positive and finite")
        if self.bars < 1:
            raise ParameterError("bars must be at least 1")
        for name in ("jitter_sigma_ms", "lrc_sigma_ms", "amplitude_jitter"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be non-negative and finite")
        if not 0.0 <= self.ghost_probability <= 1.0:
            raise ParameterError("ghost_probability must lie in [0, 1]")
        if not self.amplitude_pattern or any(
            not 0 < a <= 1 for a in self.amplitude_pattern
        ):
            raise ParameterError("amplitude_pattern values must lie in (0, 1]")
        if self.drift_profile is not None:
            bars = [b for b, _ in self.drift_profile]
            if len(bars) < 2 or any(not b1 < b2 < math.inf for b1, b2 in zip(bars, bars[1:])):
                raise ParameterError("drift_profile needs strictly increasing bar positions")
            if any(not 0 < bpm < math.inf for _, bpm in self.drift_profile):
                raise ParameterError("drift_profile tempi must be positive and finite")


@dataclass(frozen=True)
class ShuffleGroundTruth:
    """Exact nominal grid behind a generated groove."""

    nominal_times_s: np.ndarray
    unit_positions: np.ndarray
    labels: tuple[str, ...]
    spec: GrooveSpec
    seed: int


def bar_time_s(spec: GrooveSpec, bar: float) -> float:
    """Time of a (possibly fractional) bar position on the nominal grid.

    Integrates the instantaneous bar duration 120/bpm over the piecewise
    linear tempo curve in closed form, so fractional positions are exact.
    """
    if bar < 0:
        raise ParameterError("bar positions start at 0")
    profile = spec.drift_profile or ((0.0, spec.bpm),)
    points = list(profile)
    if points[0][0] > 0.0:
        points.insert(0, (0.0, points[0][1]))
    t = 0.0
    pos = 0.0
    for (b0, tempo0), (b1, tempo1) in zip(points, points[1:]):
        if pos >= bar:
            break
        seg_end = min(b1, bar)
        if seg_end <= b0:
            continue
        span = b1 - b0
        k = (tempo1 - tempo0) / span
        d = seg_end - max(b0, pos)
        start_tempo = tempo0 + k * (max(b0, pos) - b0)
        if abs(k) < 1e-12:
            t += 120.0 * d / start_tempo
        else:
            t += (120.0 / k) * math.log((start_tempo + k * d) / start_tempo)
        pos = seg_end
    if pos < bar:
        tempo_end = points[-1][1]
        t += 120.0 * (bar - pos) / tempo_end
    return t


def gen_shuffle_onsets(spec: GrooveSpec, seed: int = 0) -> tuple[OnsetSeries, ShuffleGroundTruth]:
    """Generate a shuffle hi-hat groove plus its exact nominal grid.

    Each bar holds four groups of three triplet units with hi-hats on the
    group start and ``3*R/(1+R)`` units later (R the swing ratio), so one bar
    yields 8 onsets. Optional ghost notes land midway through the long
    interval. Returns the (possibly noisy) onsets and the noise-free truth.
    """
    rng = np.random.default_rng(seed)
    r = spec.swing_ratio
    note3_offset = 3.0 * r / (1.0 + r)

    unit_positions: list[float] = []
    labels: list[str] = []
    amplitudes: list[float] = []
    pat = spec.amplitude_pattern
    ghost_draws = rng.uniform(size=spec.bars * GROUPS_PER_BAR)
    g_idx = 0
    for bar in range(spec.bars):
        for group in range(GROUPS_PER_BAR):
            u0 = UNITS_PER_BAR * bar + 3 * group
            slot0 = 2 * group
            unit_positions.append(u0)
            labels.append("hihat")
            amplitudes.append(pat[slot0 % len(pat)])
            if ghost_draws[g_idx] < spec.ghost_probability:
                unit_positions.append(u0 + note3_offset / 2.0)
                labels.append("ghost")
                amplitudes.append(GHOST_AMPLITUDE)
            unit_positions.append(u0 + note3_offset)
            labels.append("hihat")
            amplitudes.append(pat[(slot0 + 1) % len(pat)])
            g_idx += 1

    units = np.array(unit_positions, dtype=np.float64)
    nominal = spec.start_s + np.array(
        [bar_time_s(spec, u / UNITS_PER_BAR) for u in units], dtype=np.float64
    )
    n = len(nominal)

    times = nominal.copy()
    if spec.lrc_sigma_ms > 0:
        step_noise = gen_powerlaw_noise(spec.lrc_beta, n, seed=_derive_seed(seed, 1))
        times = times + np.cumsum(step_noise) * spec.lrc_sigma_ms * 1e-3
    if spec.jitter_sigma_ms > 0:
        times = times + rng.normal(0.0, spec.jitter_sigma_ms * 1e-3, size=n)

    if spec.amplitude_jitter > 0:
        amps = np.array(amplitudes) * (1.0 + rng.normal(0.0, spec.amplitude_jitter, size=n))
        amps = np.clip(amps, 1e-3, 1.0)
    else:
        amps = np.array(amplitudes)

    onsets = OnsetSeries.from_columns(times, amps, labels=labels)
    truth = ShuffleGroundTruth(
        nominal_times_s=nominal,
        unit_positions=units,
        labels=tuple(labels),
        spec=spec,
        seed=seed,
    )
    return onsets, truth


def _derive_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def gen_powerlaw_noise(
    beta: float,
    n: int,
    seed: int = 0,
    oversample: int = 2,
) -> np.ndarray:
    """Unit-variance noise whose power spectrum falls as 1/f**beta.

    Spectral synthesis: fixed magnitudes shaped by the target spectrum with
    uniformly random phases, inverse-transformed and standardized. Generated
    at ``oversample`` times the requested length and cropped, which breaks the
    circular wrap-around correlation of the synthesis. Expected DFA exponent
    is (beta + 1) / 2.
    """
    if n < 2:
        raise ParameterError("n must be at least 2")
    if oversample < 1:
        raise ParameterError("oversample must be at least 1")
    rng = np.random.default_rng(seed)
    m = int(oversample) * n
    freqs = np.fft.rfftfreq(m)
    amps = np.zeros_like(freqs)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(freqs))
    # a steep exponent overflows the spectrum, its inverse or their spread, checked below
    with np.errstate(over="ignore", invalid="ignore"):
        amps[1:] = freqs[1:] ** (-beta / 2.0)
        spectrum = amps * np.exp(1j * phases)
        spectrum[0] = 0.0
        if m % 2 == 0:
            spectrum[-1] = amps[-1] * np.cos(phases[-1])
        x = np.fft.irfft(spectrum, n=m)[:n]
        x = x - np.mean(x)
        sd = np.std(x)
    if not sd < np.inf:  # NaN too
        raise ParameterError(
            f"power-law exponent {beta:g} is too steep for a series of length {n}: "
            "the synthesized values overflow"
        )
    if sd > 0:
        x = x / sd
    return x


def gen_crossover_series(
    n: int,
    phrase_pattern,
    lrc_beta: float = 1.4,
    mix: float = 0.5,
    seed: int = 0,
) -> np.ndarray:
    """Repeating anticorrelated pattern plus power-law noise.

    The pattern is tiled and standardized; its gain is calibrated so that at
    the pattern period its fluctuation matches the noise's, placing the
    scaling crossover at the period: below it the bounded pattern suppresses
    the exponent, above it the noise's (beta+1)/2 scaling takes over.
    ``mix`` = 1 yields pure noise (no crossover), ``mix`` = 0 pure pattern.
    """
    pattern = np.asarray(phrase_pattern, dtype=np.float64)
    if pattern.ndim != 1 or len(pattern) < 2:
        raise ParameterError("phrase_pattern must be one-dimensional with length >= 2")
    if not 0.0 <= mix <= 1.0:
        raise ParameterError("mix must lie in [0, 1]")
    period = len(pattern)
    if n < 4 * period:
        raise ParameterError("n must be at least 4x the pattern period")
    reps = int(np.ceil(n / period))
    tiled = np.tile(pattern, reps)[:n]
    tiled = tiled - np.mean(tiled)
    sd = np.std(tiled)
    if sd > 0:
        tiled = tiled / sd

    if mix == 0.0:
        return tiled
    noise = gen_powerlaw_noise(lrc_beta, n, seed=seed)
    if mix == 1.0:
        return noise

    from .dfa import dfa_fluctuation  # local import; dfa does not import synth

    f_pattern = dfa_fluctuation(tiled, scales=[period]).F[0]
    f_noise = dfa_fluctuation(noise, scales=[period]).F[0]
    gain = f_noise / f_pattern if f_pattern > 0 else 1.0
    x = (1.0 - mix) * gain * tiled + mix * noise
    x = x - np.mean(x)
    sd = np.std(x)
    return x / sd if sd > 0 else x


def render_clicks(
    onsets: OnsetSeries,
    sample_rate: float = 44100.0,
    click_ms: float = 3.0,
    noise_db: float | None = None,
    seed: int = 0,
) -> AudioClip:
    """Render onsets as short high-frequency bursts, optionally over noise.

    Each onset becomes a decaying ``CLICK_HZ`` tone burst starting at the
    onset time with peak amplitude equal to the onset amplitude; the high
    carrier keeps clicks intact through a 1 kHz high-pass. Overlapping bursts
    sum. ``noise_db`` adds broadband Gaussian noise with RMS that many dB
    relative to the loudest click peak (negative is quieter). A sample rate
    above ``MAX_SAMPLE_RATE``, a render longer than ``MAX_RENDER_SAMPLES`` or
    a noise level that overflows raises :class:`ParameterError` before
    anything is allocated.
    """
    if not 8000 <= sample_rate <= MAX_SAMPLE_RATE:
        raise ParameterError(
            f"sample_rate must lie in [8000, {MAX_SAMPLE_RATE:.0f}] Hz, got {sample_rate}"
        )
    if not 0 < click_ms < math.inf:
        raise ParameterError("click_ms must be positive and finite")
    if noise_db is not None:
        try:
            noise_gain = 10.0 ** (noise_db / 20.0)
        except OverflowError:
            noise_gain = math.inf
        if not noise_gain < math.inf:
            raise ParameterError(f"noise_db must give a finite noise level, got {noise_db}")
    times, amps = onsets.times(), onsets.amplitudes()
    if len(times) and times[0] < 0:
        raise ParameterError("cannot render onsets before time zero")
    tail_s = 0.25
    if len(times) == 0:
        return AudioClip(
            samples=np.zeros(int(round(tail_s * sample_rate))),
            sample_rate=sample_rate,
        )
    click_len = max(2, int(round(click_ms * 1e-3 * sample_rate)))
    total = int(round((float(times.max()) + tail_s) * sample_rate)) + click_len
    if total > MAX_RENDER_SAMPLES:
        raise ParameterError(
            f"render of {total} samples exceeds the {MAX_RENDER_SAMPLES} a float WAV holds"
        )
    t = np.arange(click_len) / sample_rate
    decay = click_ms * 1e-3 / 3.0
    burst = np.cos(2.0 * np.pi * CLICK_HZ * t) * np.exp(-t / decay)

    samples = np.zeros(total)
    for time_s, amplitude in zip(times.tolist(), amps.tolist()):
        start = int(round(time_s * sample_rate))
        samples[start : start + click_len] += amplitude * burst

    if noise_db is not None:
        rng = np.random.default_rng(seed)
        peak = float(amps.max())
        sigma = peak * noise_gain
        samples = samples + rng.normal(0.0, sigma, size=total)
    return AudioClip(samples=samples, sample_rate=sample_rate)
