"""Inter-onset intervals and their shuffle-grid classification.

Consecutive onsets define intervals; against an estimated base unit (the
duration of one eighth-note triplet), each interval is a single, double, or
triple in nominal 1:2:3 ratio, or discarded when it exceeds a cutoff multiple
(missing onsets). The base unit itself is defined circularly, so a fixed-point
iteration recovers it from the data.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._csvio import read_rows, write_rows
from .errors import EstimationError, ParameterError
from .onsets import ColumnSeries, OnsetSeries

__all__ = [
    "BeatClass",
    "IntervalSeries",
    "Section",
    "SectionMap",
    "intervals",
    "estimate_base_unit",
    "classify_intervals",
    "interval_stats",
    "read_sections_csv",
    "write_sections_csv",
]

DEFAULT_MAX_MULTIPLE = 3.5
# the base-unit fixed point stops once an update is below BASE_UNIT_TOL_S
BASE_UNIT_TOL_S = 1e-4
BASE_UNIT_MAX_ITER = 50
# histogram bin width for the base unit's starting guess (the singles' mode)
SEED_BIN_S = 4e-3


class BeatClass(enum.Enum):
    SINGLE = "single"
    DOUBLE = "double"
    TRIPLE = "triple"
    DISCARDED = "discarded"

    @property
    def multiple(self) -> int | None:
        return _MULTIPLE.get(self)


CLASSES = (BeatClass.SINGLE, BeatClass.DOUBLE, BeatClass.TRIPLE)
_MULTIPLE = {klass: m for m, klass in enumerate(CLASSES, start=1)}


class IntervalSeries(ColumnSeries):
    """Inter-onset intervals as columns, ``IntervalSeries(taus, multiples)``.

    Interval i runs from onset i to onset i + 1 of the onsets it was taken
    from. The class multiple is 1/2/3 for single/double/triple, 0 discarded,
    -1 unclassified. Validity and normalized durations derive from it.
    """

    __slots__ = ()
    _DTYPES = (np.float64, np.int8)

    @staticmethod
    def _check(taus, multiples) -> None:
        if not np.all((taus > 0.0) & (taus < np.inf)):
            raise ParameterError("interval durations must be positive and finite")
        if not np.all((multiples >= -1) & (multiples <= 3)):
            raise ParameterError("class multiples must lie in -1..3")

    def taus(self) -> np.ndarray:
        return self._cols[0]

    def multiples(self) -> np.ndarray:
        return self._cols[1]

    def normalized_taus(self) -> np.ndarray:
        """Durations over class multiples of the classified, valid intervals."""
        valid = self.multiples() > 0
        return self.taus()[valid] / self.multiples()[valid]

    @property
    def classified(self) -> bool:
        return bool(np.all(self.multiples() >= 0))


@dataclass(frozen=True)
class Section:
    start_time_s: float
    end_time_s: float
    tag: str = "other"

    def __post_init__(self):
        if not (math.isfinite(self.start_time_s) and math.isfinite(self.end_time_s)):
            raise ParameterError("section start and end must be finite")
        if self.end_time_s <= self.start_time_s:
            raise ParameterError("section end must exceed start")
        if self.tag not in ("A1-verse", "A2-prechorus", "B-chorus", "other"):
            raise ParameterError(f"unknown section tag {self.tag!r}")


@dataclass(frozen=True)
class SectionMap:
    """Ordered, non-overlapping song sections (user-supplied)."""

    sections: tuple[Section, ...]

    def __post_init__(self):
        secs = tuple(self.sections)
        for a, b in zip(secs, secs[1:]):
            if b.start_time_s < a.end_time_s:
                raise ParameterError("sections must be non-overlapping and increasing")
        object.__setattr__(self, "sections", secs)

    def __iter__(self):
        return iter(self.sections)

    def __len__(self) -> int:
        return len(self.sections)


def intervals(onsets: OnsetSeries) -> IntervalSeries:
    """Differences of consecutive onset times, unclassified."""
    if len(onsets) < 2:
        raise ParameterError("need at least 2 onsets to form intervals")
    return IntervalSeries(np.diff(onsets.times()), np.full(len(onsets) - 1, -1))


def _first_edge(taus: np.ndarray, width_s: float) -> float:
    """The multiple of ``width_s`` at or below the shortest interval, once
    every interval is known to be a finite number of bins long."""
    if not taus.max() < np.finfo(np.float64).max * width_s:
        raise EstimationError(
            f"intervals up to {taus.max():g} s are too long to count in {width_s * 1e3:g} ms bins"
        )
    return np.floor(taus.min() / width_s) * width_s


def _histogram(taus: np.ndarray, width_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Counts and edges of bins ``width_s`` wide, the first edge at
    :func:`_first_edge`."""
    lo = _first_edge(taus, width_s)
    span = np.ceil((taus.max() - lo) / width_s)
    if not span < np.iinfo(np.intp).max // 8:  # more float64 edges than one array holds
        raise EstimationError(
            f"intervals spread over {taus.max() - taus.min():g} s need more "
            f"{width_s * 1e3:g} ms histogram bins than an array can hold"
        )
    n_bins = max(1, int(span) + 1)
    edges = lo + width_s * np.arange(n_bins + 1)
    counts, _ = np.histogram(taus, bins=edges)
    return counts, edges


def _seed_from_minimum_mode(taus: np.ndarray) -> float:
    """Center of the lowest well-populated histogram bin.

    Picks the shortest interval cluster (the singles) while ignoring stray
    short outliers that fill no bin. Only occupied bins are counted, each
    value placed against the edges ``lo + w*k`` as :func:`_histogram` would
    place it, so a long gap costs no memory.
    """
    w = SEED_BIN_S
    lo = _first_edge(taus, w)
    k = np.floor((taus - lo) / w)
    # the quotient can round one bin off either way; the edges decide
    k -= lo + w * k > taus
    k += lo + w * (k + 1) <= taus
    bins, counts = np.unique(k[k >= 0], return_counts=True)
    if len(counts):
        first = np.argmax(counts >= max(1.0, 0.5 * counts.max()))
        return float(lo + w * bins[first] + 0.5 * w)
    return float(np.median(taus))


def estimate_base_unit(
    series: IntervalSeries,
    hint_bpm: float | None = None,
    max_multiple: float = DEFAULT_MAX_MULTIPLE,
) -> float:
    """Fixed-point estimate of the eighth-note-triplet duration.

    Starting from ``60/(hint_bpm*6)`` (12 triplet units per half-time shuffle
    bar) or from the minimum-mode of the interval histogram, each interval's
    ratio to the current estimate is rounded to the nearest of {1, 2, 3}
    (ratios beyond ``max_multiple`` are ignored) and the estimate becomes the
    mean normalized duration. Stops when the update falls below 0.1 ms.
    """
    if len(series) == 0:
        raise ParameterError("cannot estimate a base unit from an empty series")
    taus = series.taus()
    if hint_bpm is not None:
        if hint_bpm <= 0:
            raise ParameterError("hint_bpm must be positive")
        base = 60.0 / (float(hint_bpm) * 6.0)
        if not 0.0 < base < math.inf:
            raise ParameterError(
                f"hint_bpm={float(hint_bpm)!r} gives a starting base unit of {base:g} s, "
                "not a positive finite duration"
            )
    else:
        base = _seed_from_minimum_mode(taus)
    for step in range(BASE_UNIT_MAX_ITER):
        ratios = taus / base
        rounded = np.clip(np.round(ratios), 1, 3)
        keep = ratios <= max_multiple
        if not np.any(keep):
            if step == 0 and hint_bpm is not None:
                raise EstimationError(
                    f"hint_bpm={float(hint_bpm)!r} gives a starting base unit of {base:g} s, "
                    "against which no interval is within the class cutoff"
                )
            raise EstimationError("no intervals within the class cutoff; base unit undefined")
        new_base = float(np.mean(taus[keep] / rounded[keep]))
        if abs(new_base - base) < BASE_UNIT_TOL_S:
            return new_base
        base = new_base
    raise EstimationError(
        f"base-unit estimate did not converge in {BASE_UNIT_MAX_ITER} iterations"
    )


def _check_base(base: float) -> None:
    if not 0.0 < base < math.inf:
        raise ParameterError(f"base unit must be positive and finite, got {base}")


def classify_intervals(
    series: IntervalSeries,
    base: float,
    max_multiple: float = DEFAULT_MAX_MULTIPLE,
) -> IntervalSeries:
    """Assign single/double/triple classes by nearest multiple of ``base``.

    Ratio bands: under 1.5 is a single, [1.5, 2.5) a double, [2.5,
    ``max_multiple``] a triple; anything beyond comes from missing onsets and
    is discarded (``valid=False``).
    """
    _check_base(base)
    taus = series.taus()
    multiples = np.digitize(taus / base, (1.5, 2.5)) + 1
    multiples[taus / base > max_multiple] = 0
    return IntervalSeries(taus, multiples)


def interval_stats(series: IntervalSeries, bin_width_ms: float = 2.0) -> dict:
    """Per-class counts, means, standard deviations, and histograms.

    Returns a JSON-ready dict keyed by class name plus the overall
    ``detection_rate`` (valid / raw intervals). Empty classes report only
    their zero count.
    """
    if not series.classified:
        raise ParameterError("classify the series before computing stats")
    out: dict = {}
    for klass in CLASSES:
        taus = series.taus()[series.multiples() == klass.multiple]
        if len(taus) == 0:
            out[klass.value] = {"count": 0}
            continue
        counts, edges = _histogram(taus, bin_width_ms * 1e-3)
        out[klass.value] = {
            "count": int(len(taus)),
            "mean_s": float(np.mean(taus)),
            "std_s": float(np.std(taus, ddof=1)) if len(taus) > 1 else 0.0,
            "histogram": {
                "bin_edges_s": [float(e) for e in edges],
                "counts": [int(c) for c in counts],
            },
        }
    n_raw = len(series)
    n_valid = int(np.count_nonzero(series.multiples()))
    out["discarded"] = {"count": n_raw - n_valid}
    out["detection_rate"] = n_valid / n_raw if n_raw else 0.0
    return out


# ---------------------------------------------------------------------------
# Section CSV (schema: start_s,end_s,tag)

_SECTION_HEADER = ["start_s", "end_s", "tag"]


def write_sections_csv(path, sections: SectionMap) -> None:
    write_rows(path, _SECTION_HEADER, "%.6f,%.6f,%s\r\n", [
        [s.start_time_s for s in sections],
        [s.end_time_s for s in sections],
        [s.tag for s in sections],
    ])


def _parse_section_row(fields) -> Section:
    start, end, tag = fields
    return Section(float(start), float(end), tag)


def read_sections_csv(path) -> SectionMap:
    rows = read_rows(path, _SECTION_HEADER, "section", _parse_section_row)
    return SectionMap(sections=tuple(section for _, section in rows))
