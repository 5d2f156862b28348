"""Detrended fluctuation analysis.

The series is mean-centered and integrated into a profile that starts at an
explicit zero, so it is antisymmetric under time reversal. For each scale the
profile is cut into non-overlapping windows tiled from both ends, so no tail
samples are dropped and reversing the input leaves F(s) unchanged. Both tilings
are written, each window less its first sample, as the rows of one buffer
allocated per call, and detrended by projection with no solver: the Gram
polynomials on the window positions give an orthonormal basis of the order-n
trends, built once per (scale, order) and kept read-only in a process-wide
cache. Subtracting the first sample makes rounding follow the variation inside
a window, not its level. F(s) is the root mean residual variance. Scaling
exponents are least-squares slopes of log F against log s: global, over
short/long ranges, or in a sliding window for a scale-resolved alpha(s).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FitError, ParameterError

__all__ = [
    "FluctuationResult",
    "default_scales",
    "dfa_fluctuation",
    "fit_alpha",
    "fit_loglog",
    "local_alpha",
    "dfa_analyze",
    "SHORT_RANGE",
    "LONG_RANGE",
]

# conventional short/long fit ranges for the scaling exponent
SHORT_RANGE = (4, 16)
LONG_RANGE = (16, 100)
# default scale grid: smallest window, and windows per decade of scale
MIN_SCALE = 4
SCALES_PER_DECADE = 16


@dataclass(frozen=True)
class FluctuationResult:
    scales: np.ndarray
    F: np.ndarray
    detrend_order: int
    degenerate: bool = False
    alpha1: float | None = None
    alpha2: float | None = None
    alpha1_r2: float | None = None
    alpha2_r2: float | None = None
    alpha1_range: tuple[int, int] = SHORT_RANGE
    alpha2_range: tuple[int, int] = LONG_RANGE
    alpha_local: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "scales", np.asarray(self.scales, dtype=np.int64))
        object.__setattr__(self, "F", np.asarray(self.F, dtype=np.float64))


def default_scales(n: int, s_max: int | None = None) -> np.ndarray:
    """Geometrically spaced integer scales, about ``SCALES_PER_DECADE`` per
    decade, spanning [MIN_SCALE, n/4] by default."""
    if s_max is None:
        s_max = n // 4
    if s_max < MIN_SCALE:
        raise ParameterError(f"series too short for scales >= {MIN_SCALE} (max is {s_max})")
    count = max(2, int(np.ceil(SCALES_PER_DECADE * np.log10(s_max / MIN_SCALE))) + 1)
    grid = np.geomspace(MIN_SCALE, s_max, num=count)
    return np.unique(np.round(grid).astype(np.int64))


@lru_cache(maxsize=256)
def _gram_basis(s: int, order: int) -> np.ndarray:
    """(s, order + 1) orthonormal Gram polynomials from their three-term
    recurrence; read-only, because every caller shares the cached array."""
    t = np.arange(s, dtype=np.float64) - (s - 1) / 2.0
    cols = [np.ones(s), t]
    for k in range(1, order):
        cols.append(t * cols[k] - k * k * (s * s - k * k) / (4.0 * (4 * k * k - 1)) * cols[k - 1])
    basis = np.column_stack(cols[: order + 1])
    basis /= np.linalg.norm(basis, axis=0)
    basis.flags.writeable = False
    return basis


def dfa_fluctuation(
    series,
    scales=None,
    detrend_order: int = 1,
) -> FluctuationResult:
    """Fluctuation function F(s) over the given scales (exponents unset).

    A constant input has zero fluctuation everywhere and is flagged
    degenerate. The series must be finite and at least four times the largest
    scale, and every scale must exceed ``detrend_order + 1`` so windows keep
    residual degrees of freedom.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1:
        raise ParameterError("series must be one-dimensional")
    if not np.all(np.isfinite(x)):
        raise ParameterError("series contains non-finite values")
    n = len(x)
    if scales is None:
        scales = default_scales(n)
    scales = np.unique(np.asarray(scales, dtype=np.int64))
    if len(scales) == 0:
        raise ParameterError("no scales given")
    if detrend_order < 0 or int(scales[0]) < detrend_order + 2:
        raise ParameterError(f"need detrend_order >= 0 and scales >= {detrend_order + 2}")
    if n < 4 * int(scales[-1]):
        raise ParameterError(
            f"series of length {n} is too short for scale {int(scales[-1])} (need 4x)"
        )
    if np.all(x == x[0]):
        # exactly constant input: zero fluctuation at every scale
        return FluctuationResult(
            scales=scales,
            F=np.zeros(len(scales)),
            detrend_order=detrend_order,
            degenerate=True,
        )

    profile = np.concatenate(([0.0], np.cumsum(x - np.mean(x))))
    # rows of the forward tiling, then of the reversed one, each less its first sample
    buf = np.empty(2 * len(profile), dtype=np.float64)
    F = np.empty(len(scales), dtype=np.float64)
    for i, s in enumerate(scales.tolist()):
        m = len(profile) // s
        resid = buf[: 2 * m * s].reshape(2 * m, s)
        forward = profile[: m * s].reshape(m, s)
        backward = profile[::-1][: m * s].reshape(m, s)
        np.subtract(forward, forward[:, :1], out=resid[:m])
        np.subtract(backward, backward[:, :1], out=resid[m:])
        basis = _gram_basis(s, detrend_order)
        resid -= (resid @ basis) @ basis.T
        F[i] = np.sqrt(np.vdot(resid, resid) / resid.size)
    degenerate = bool(np.all(F == 0.0))
    return FluctuationResult(
        scales=scales, F=F, detrend_order=detrend_order, degenerate=degenerate
    )


def fit_loglog(
    result: FluctuationResult,
    s_min: int,
    s_max: int,
) -> tuple[float, float, float]:
    """Least-squares line through (log s, log F) inside [s_min, s_max].

    Returns (slope, intercept, r_squared).
    """
    mask = (result.scales >= s_min) & (result.scales <= s_max)
    if int(mask.sum()) < 3:
        raise FitError(f"need at least 3 scales inside [{s_min}, {s_max}]")
    F = result.F[mask]
    if np.any(F <= 0.0):
        raise FitError("degenerate fluctuation values (F <= 0) in the fit range")
    log_s = np.log(result.scales[mask].astype(np.float64))
    log_f = np.log(F)
    slope, intercept = np.polyfit(log_s, log_f, 1)
    fitted = slope * log_s + intercept
    ss_res = float(np.sum((log_f - fitted) ** 2))
    ss_tot = float(np.sum((log_f - np.mean(log_f)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


def fit_alpha(result: FluctuationResult, s_min: int, s_max: int) -> float:
    """Scaling exponent: slope of log F vs log s over [s_min, s_max]."""
    return fit_loglog(result, s_min, s_max)[0]


def local_alpha(
    result: FluctuationResult,
    half_window: int = 2,
) -> tuple[tuple[int, float], ...]:
    """Sliding log-log slope centered on each interior scale."""
    n = len(result.scales)
    width = 2 * half_window + 1
    if n < width:
        raise FitError(f"need at least {width} scales for half_window={half_window}")
    if np.any(result.F <= 0.0):
        raise FitError("degenerate fluctuation values (F <= 0)")
    log_s = sliding_window_view(np.log(result.scales.astype(np.float64)), width)
    log_f = sliding_window_view(np.log(result.F), width)
    ds = log_s - log_s.mean(axis=1, keepdims=True)
    df = log_f - log_f.mean(axis=1, keepdims=True)
    slopes = np.sum(ds * df, axis=1) / np.sum(ds * ds, axis=1)
    return tuple(zip(result.scales[half_window : n - half_window].tolist(), slopes.tolist()))


def dfa_analyze(
    series,
    scales=None,
    detrend_order: int = 1,
    short_range: tuple[int, int] = SHORT_RANGE,
    long_range: tuple[int, int] = LONG_RANGE,
    half_window: int = 2,
) -> FluctuationResult:
    """Full analysis: F(s), short/long exponents with the r² of each fit, and alpha(s).

    Fit ranges are clipped to the available scales; a range left with fewer
    than three scales yields a None exponent and r² rather than an error.
    """
    result = dfa_fluctuation(series, scales=scales, detrend_order=detrend_order)
    s_max = int(result.scales[-1])
    ranges = [(lo, min(hi, s_max)) for lo, hi in (short_range, long_range)]
    if result.degenerate:
        return FluctuationResult(result.scales, result.F, detrend_order, degenerate=True,
                                 alpha1_range=ranges[0], alpha2_range=ranges[1])
    fits = []
    for rng in ranges:
        try:
            fits.append(fit_loglog(result, *rng))
        except FitError:
            fits.append((None, None, None))
    try:
        alocal = local_alpha(result, half_window=half_window)
    except FitError:
        alocal = ()
    (a1, _, r1), (a2, _, r2) = fits
    return FluctuationResult(
        result.scales, result.F, detrend_order, alpha1=a1, alpha2=a2, alpha1_r2=r1,
        alpha2_r2=r2, alpha1_range=ranges[0], alpha2_range=ranges[1], alpha_local=alocal,
    )
