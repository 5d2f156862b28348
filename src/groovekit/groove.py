"""Groove metrics: tempo drift, swing ratio, and two-bar phrase profiles.

Drift compares performed time against an imaginary metronome whose tick is
the base unit. Swing is the mean double over the mean inter-triplet single.
Phrase profiles aggregate timing and dynamics per position of a repeating
two-bar template, aligned by walking the classified interval sequence in
musical units.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._csvio import write_rows
from .errors import EstimationError, ParameterError, _check_count, _check_positive
from .intervals import IntervalSeries, SectionMap
from .onsets import LABELS, OnsetSeries

__all__ = [
    "SwingReport",
    "PhraseTemplate",
    "PhraseProfile",
    "compute_drift",
    "swing_ratio",
    "phrase_interval_profile",
    "phrase_amplitude_profile",
    "write_drift_csv",
    "write_profile_csv",
]


@dataclass(frozen=True)
class SwingReport:
    swing_ratio: float
    mean_inter_triplet_single_s: float
    mean_double_s: float
    ratio_triad: tuple[float, float, float | None]
    n_singles_used: int
    n_doubles_used: int


@dataclass(frozen=True)
class PhraseTemplate:
    """Hi-hat slot layout of one phrase, in integer metric units.

    The default is the two-bar shuffle: 8 groups of 3 units with hits on the
    first and third note of each group, so 16 slots over 24 units. The
    expected class multiple at each slot is the unit gap to the next slot.
    """

    slot_units: tuple[int, ...] = tuple(
        u for k in range(8) for u in (3 * k, 3 * k + 2)
    )
    units_per_phrase: int = 24

    def __post_init__(self):
        slots = tuple(_check_count("slot_units", u, 0) for u in self.slot_units)
        units = _check_count("units_per_phrase", self.units_per_phrase, 2)
        if len(slots) < 2 or any(b <= a for a, b in zip(slots, slots[1:])):
            raise ParameterError("slot_units must be strictly increasing, length >= 2")
        if slots[-1] >= units:
            raise ParameterError("slots must fit inside the phrase")
        object.__setattr__(self, "slot_units", slots)
        object.__setattr__(self, "units_per_phrase", units)

    def __len__(self) -> int:
        return len(self.slot_units)

    def slot_multiple(self, slot: int) -> int:
        """Unit span from this slot to the next (wrapping into the next phrase)."""
        if slot + 1 < len(self.slot_units):
            return self.slot_units[slot + 1] - self.slot_units[slot]
        return self.units_per_phrase + self.slot_units[0] - self.slot_units[-1]

    @classmethod
    def shuffle(cls, positions: int = 16) -> "PhraseTemplate":
        """Shuffle template with ``positions`` hi-hat slots (two per group of 3 units)."""
        if _check_count("positions", positions, 2) % 2:
            raise ParameterError(f"positions must be even, got {positions}")
        groups = positions // 2
        return cls(
            slot_units=tuple(u for k in range(groups) for u in (3 * k, 3 * k + 2)),
            units_per_phrase=3 * groups,
        )


@dataclass(frozen=True)
class PhraseProfile:
    """Per-slot statistics over phrases: mean, std, count, and (for interval
    profiles) percent deviation of the normalized interval from the
    phrase-local base unit."""

    kind: str  # "interval" or "amplitude"
    template: PhraseTemplate
    mean: tuple[float | None, ...]
    std: tuple[float | None, ...]
    n: tuple[int, ...]
    deviation_pct: tuple[float | None, ...] = field(default=())
    n_phrases: int = 0

    @property
    def template_length(self) -> int:
        return len(self.template)


def compute_drift(series: IntervalSeries, base: float) -> np.ndarray:
    """Cumulative deviation of normalized intervals from the metronome tick,
    one value per interval.

    Each valid interval advances the drift by ``tau/multiple - base``;
    a discarded interval is a gap, where the drift resets to zero.
    Each gap-delimited run is summed left to right on its own.
    """
    _check_positive("base unit", base)
    gap = series.multiples() == 0
    drift = np.zeros(len(series))
    drift[~gap] = series.normalized_taus() - base
    bounds = np.concatenate(([-1], np.flatnonzero(gap), [len(series)]))
    for lo, hi in zip(bounds[:-1] + 1, bounds[1:]):
        np.add.accumulate(drift[lo:hi], out=drift[lo:hi])
    return drift


def _check_pairs(series: IntervalSeries, onsets: OnsetSeries) -> None:
    """``series`` must hold one interval per consecutive pair of ``onsets``."""
    if len(series) != len(onsets) - 1:
        raise ParameterError(
            f"interval series does not match the onsets: {len(series)} intervals "
            f"for {len(onsets)} onsets"
        )


def swing_ratio(series: IntervalSeries, onsets: OnsetSeries) -> SwingReport:
    """Mean double over mean inter-triplet single, plus the 1 : d/s : t/s triad.

    Singles adjacent to a ghost-labeled onset are intra-triplet halves of a
    double and are excluded.
    """
    _check_pairs(series, onsets)
    taus, multiples = series.taus(), series.multiples()
    ghost = onsets.label_codes() == LABELS.index("ghost")
    singles = taus[(multiples == 1) & ~(ghost[:-1] | ghost[1:])]
    doubles = taus[multiples == 2]
    if not len(singles):
        raise EstimationError("swing ratio undefined: no inter-triplet singles")
    if not len(doubles):
        raise EstimationError("swing ratio undefined: no doubles")
    triples = taus[multiples == 3]
    mean_single = float(np.mean(singles))
    mean_double = float(np.mean(doubles))
    triple_term = float(np.mean(triples)) / mean_single if len(triples) else None
    return SwingReport(
        swing_ratio=mean_double / mean_single,
        mean_inter_triplet_single_s=mean_single,
        mean_double_s=mean_double,
        ratio_triad=(1.0, mean_double / mean_single, triple_term),
        n_singles_used=len(singles),
        n_doubles_used=len(doubles),
    )


def _anchor_indices(onsets: OnsetSeries, sections: SectionMap | None) -> list[int]:
    """First onset at or after each section start; the first onset otherwise."""
    if sections is None or len(sections) == 0:
        return [0] if len(onsets) else []
    times = onsets.times()
    anchors = []
    for sec in sections:
        idx = int(np.searchsorted(times, sec.start_time_s, side="left"))
        if idx < len(times) and times[idx] < sec.end_time_s:
            anchors.append(idx)
    return sorted(set(anchors))


def _phrase_grid(
    series: IntervalSeries,
    onsets: OnsetSeries,
    template: PhraseTemplate,
    sections: SectionMap | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Onset index per (phrase, slot), -1 where no onset lands, and each
    phrase's closer (slot 0 of the same anchor's next phrase) or -1.

    ``series`` holds the intervals of ``onsets``. Each anchor
    restarts a unit walk at zero; a discarded interval loses the grid until
    the next anchor. Rows are the phrases the walk reaches, in order.
    """
    _check_pairs(series, onsets)
    n = len(onsets)
    # unit span of the interval leaving each onset; 0 where none or discarded
    step = np.zeros(n, dtype=np.int64)
    step[:-1] = series.multiples()
    units = np.cumsum(step) - step
    breaks = np.cumsum(step == 0) - (step == 0)
    is_anchor = np.zeros(n, dtype=bool)
    is_anchor[_anchor_indices(onsets, sections)] = True
    anchor = np.maximum.accumulate(np.where(is_anchor, np.arange(n), -1))
    walked = (anchor >= 0) & (breaks == breaks[anchor])
    phrase_no, unit_in_phrase = np.divmod(units - units[anchor], template.units_per_phrase)
    slot_at = np.full(template.units_per_phrase, -1)
    slot_at[list(template.slot_units)] = np.arange(len(template))
    slot = slot_at[unit_in_phrase]
    hit = np.flatnonzero(walked & (slot >= 0))
    anchor, phrase_no, slot = anchor[hit], phrase_no[hit], slot[hit]
    # hits come in (anchor, phrase) order, so each change of key opens a row
    opens = (np.diff(anchor, prepend=-1) != 0) | (np.diff(phrase_no, prepend=-1) != 0)
    grid = np.full((int(np.count_nonzero(opens)), len(template)), -1, dtype=np.int64)
    grid[np.cumsum(opens) - 1, slot] = hit
    anchor, phrase_no = anchor[opens], phrase_no[opens]
    closer = np.full(len(grid), -1, dtype=np.int64)
    succ = np.flatnonzero((anchor[1:] == anchor[:-1]) & (phrase_no[1:] == phrase_no[:-1] + 1))
    closer[succ] = grid[succ + 1, 0]
    return grid, closer


def _row_stats(rows: np.ndarray) -> tuple[tuple, tuple, tuple]:
    """Mean, std (ddof 1; 0.0 for one value) and count of each row of a
    C-contiguous 2-D array, one row per slot in phrase order, in one
    reduction per statistic; None for the mean and std of an empty row.

    numpy sums each contiguous row pairwise just as it sums that row alone,
    so every value equals the one ``np.mean`` and ``np.std`` give the row
    reduced on its own, bit for bit.
    """
    slots, count = rows.shape
    if count == 0:
        return (None,) * slots, (None,) * slots, (0,) * slots
    mean = tuple(np.mean(rows, axis=1).tolist())
    std = tuple(np.std(rows, axis=1, ddof=1).tolist()) if count > 1 else (0.0,) * slots
    return mean, std, (count,) * slots


def phrase_interval_profile(
    series: IntervalSeries,
    onsets: OnsetSeries,
    template: PhraseTemplate | None = None,
    sections: SectionMap | None = None,
) -> PhraseProfile:
    """Per-slot interval statistics over complete phrases.

    A phrase is complete when every slot has an onset and the next phrase's
    opening onset exists (it closes the final interval). Slot intervals run
    slot-to-slot, so detected ghost notes in between do not fragment them.
    Deviations compare each slot's normalized interval to the phrase-local
    base unit (phrase duration over units per phrase), in percent.
    """
    template = template or PhraseTemplate()
    grid, closer = _phrase_grid(series, onsets, template, sections)
    complete = np.all(grid >= 0, axis=1) & (closer >= 0)
    slot_times = onsets.times()[np.column_stack((grid[complete], closer[complete]))]
    taus = np.diff(slot_times, axis=1)
    phrase_base = ((slot_times[:, -1] - slot_times[:, 0]) / template.units_per_phrase)[:, None]
    slot_multiples = np.array([template.slot_multiple(s) for s in range(len(template))])
    deviation = 100.0 * (taus / slot_multiples - phrase_base) / phrase_base
    mean, std, n = _row_stats(np.ascontiguousarray(taus.T))
    dev, _, _ = _row_stats(np.ascontiguousarray(deviation.T))
    return PhraseProfile(
        kind="interval",
        template=template,
        mean=mean,
        std=std,
        n=n,
        deviation_pct=dev,
        n_phrases=int(np.count_nonzero(complete)),
    )


def phrase_amplitude_profile(
    series: IntervalSeries,
    onsets: OnsetSeries,
    template: PhraseTemplate | None = None,
    sections: SectionMap | None = None,
) -> PhraseProfile:
    """Per-slot amplitude statistics over all phrases, complete or not.

    Slots holding the same number of onsets are reduced together, so a full
    grid takes one reduction per statistic.
    """
    template = template or PhraseTemplate()
    grid, _ = _phrase_grid(series, onsets, template, sections)
    amps = onsets.amplitudes()
    cols = grid.T
    hit = cols >= 0
    counts = np.count_nonzero(hit, axis=1)
    mean, std = [None] * len(template), [None] * len(template)
    for count in set(counts.tolist()):
        slots = np.flatnonzero(counts == count)
        # a boolean index takes each row's onsets in phrase order
        rows = amps[cols[slots][hit[slots]]].reshape(len(slots), count)
        for slot, m, sd in zip(slots.tolist(), *_row_stats(rows)[:2]):
            mean[slot], std[slot] = m, sd
    return PhraseProfile(
        kind="amplitude",
        template=template,
        mean=tuple(mean),
        std=tuple(std),
        n=tuple(counts.tolist()),
        deviation_pct=(None,) * len(template),
        n_phrases=len(grid),
    )


# ---------------------------------------------------------------------------
# CSV sidecars

def write_drift_csv(path, times, drift, gaps) -> None:
    """One row per interval: its 1-based index, the time of the onset that
    closes it, its drift, and whether it is a gap."""
    write_rows(path, ["index", "time_s", "drift_s", "gap"], "%d,%.6f,%.9f,%d\r\n",
               [np.arange(1, len(drift) + 1), times, drift, gaps])


def _fixed(value: float | None, digits: int) -> str:
    return "" if value is None else f"{value:.{digits}f}"


def write_profile_csv(path, profile: PhraseProfile) -> None:
    dev = profile.deviation_pct or (None,) * len(profile.template)
    write_rows(path, ["position", "mean", "std", "n", "deviation_pct"], "%d,%s,%s,%d,%s\r\n", [
        range(len(profile.template)),
        [_fixed(v, 9) for v in profile.mean],
        [_fixed(v, 9) for v in profile.std],
        profile.n,
        [_fixed(v, 6) for v in dev],
    ])
