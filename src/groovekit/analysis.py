"""Full-pipeline analysis and report assembly.

Runs classification, statistics, swing, drift, phrase profiles, and DFA over
an onset list, and writes a JSON report plus CSV sidecars from which every
reported number can be recomputed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import dfa as dfa_mod
from ._csvio import write_rows
from ._version import __version__
from .errors import EstimationError, GrooveKitError, ParameterError
from .groove import (
    PhraseProfile,
    PhraseTemplate,
    SwingReport,
    compute_drift,
    phrase_amplitude_profile,
    phrase_interval_profile,
    swing_ratio,
    write_drift_csv,
    write_profile_csv,
)
from .intervals import (
    CLASSES,
    DEFAULT_MAX_MULTIPLE,
    IntervalSeries,
    SectionMap,
    classify_intervals,
    estimate_base_unit,
    interval_stats,
    intervals,
)
from .onsets import OnsetSeries

__all__ = ["AnalysisParams", "AnalysisResult", "DegenerateInputError", "run_analysis", "write_analysis_outputs"]

MIN_ONSETS = 8
# DFA needs at least four windows of the smallest scale
MIN_DFA_LENGTH = 16
# the series DFA runs on (see _dfa_series), in report order
DFA_SERIES = ("intervals_all", *(f"intervals_{klass.value}s" for klass in CLASSES), "amplitudes")
# every name analyze can write; a run removes those of them it did not write
_OUTPUT_NAMES = frozenset({
    "report.json", "drift.csv", "phrase_interval.csv", "phrase_amplitude.csv", "tempogram.csv",
    "tempogram.json", *(f"dfa_{name}.csv" for name in DFA_SERIES),
    *(f"histogram_{klass.value}s.csv" for klass in CLASSES)})


class DegenerateInputError(GrooveKitError):
    """Input too sparse to analyze (maps to CLI exit code 1)."""


@dataclass(frozen=True)
class AnalysisParams:
    bpm_hint: float | None = None
    max_multiple: float = DEFAULT_MAX_MULTIPLE
    phrase_positions: int = 16
    dfa_short: tuple[int, int] = dfa_mod.SHORT_RANGE
    dfa_long: tuple[int, int] = dfa_mod.LONG_RANGE
    raw_intervals: bool = False
    histogram_bin_ms: float = 2.0

    def __post_init__(self):
        checked = {"max_multiple": self.max_multiple, "histogram_bin_ms": self.histogram_bin_ms}
        if self.bpm_hint is not None:
            checked["bpm_hint"] = self.bpm_hint
        for name, value in checked.items():
            if not 0 < value < math.inf:
                raise ParameterError(f"{name} must be positive and finite, got {value}")


@dataclass
class AnalysisResult:
    """Report values plus the intermediates the sidecar files are written from."""

    input_descriptor: str
    params: AnalysisParams
    onsets: OnsetSeries
    series: IntervalSeries
    base_unit_s: float
    stats: dict
    swing: SwingReport | None
    swing_note: str | None
    drift: np.ndarray  # one value per interval of ``series``
    phrase_interval: PhraseProfile
    phrase_amplitude: PhraseProfile
    dfa_results: dict[str, dfa_mod.FluctuationResult]
    dfa_notes: dict[str, str]

    def report_dict(self) -> dict:
        drift = self.drift
        counts = {
            klass.value: self.stats[klass.value]["count"] for klass in CLASSES
        }
        counts["discarded"] = self.stats["discarded"]["count"]
        report = {
            "input": self.input_descriptor,
            "tool_version": __version__,
            "parameters": asdict(self.params),
            "onset_count": len(self.onsets),
            "interval_counts": counts,
            "detection_rate": self.stats["detection_rate"],
            "base_unit_ms": self.base_unit_s * 1e3,
            "swing": None if self.swing is None else asdict(self.swing),
            "drift": {
                "max_abs_s": float(np.max(np.abs(drift))) if len(drift) else 0.0,
                "final_s": float(drift[-1]) if len(drift) else 0.0,
                "gap_count": counts["discarded"],
            },
            "dfa": {},
            "phrase": {
                "interval": _profile_dict(self.phrase_interval),
                "amplitude": _profile_dict(self.phrase_amplitude),
            },
        }
        if self.swing is None and self.swing_note:
            report["swing_note"] = self.swing_note
        for name, result in self.dfa_results.items():
            report["dfa"][name] = {
                "alpha1": result.alpha1,
                "alpha2": result.alpha2,
                "s_ranges": {
                    "alpha1": list(result.alpha1_range),
                    "alpha2": list(result.alpha2_range),
                },
                "r_squared": {"alpha1": result.alpha1_r2, "alpha2": result.alpha2_r2},
                "n_scales": int(len(result.scales)),
            }
        for name, note in self.dfa_notes.items():
            report["dfa"][name] = {"skipped": note}
        return report


def _profile_dict(profile: PhraseProfile) -> dict:
    return {
        "template_length": profile.template_length,
        "n_phrases": profile.n_phrases,
        "mean": list(profile.mean),
        "std": list(profile.std),
        "n": list(profile.n),
        "deviation_pct": list(profile.deviation_pct),
    }


def _dfa_series(
    series: IntervalSeries, onsets: OnsetSeries, params: AnalysisParams
) -> dict[str, np.ndarray]:
    """Interval and amplitude sequences for DFA.

    The all-intervals series takes each interval's deviation from its own
    class mean (normalized by the class multiple unless ``raw_intervals``),
    so the deterministic single/double alternation of a swung groove does not
    masquerade as anticorrelated noise. Per-class series are the raw
    durations; DFA's own mean subtraction centers them.
    """
    valid = series.multiples() != 0
    taus, multiples = series.taus()[valid], series.multiples()[valid]
    values = taus if params.raw_intervals else series.normalized_taus()
    class_mean = np.zeros(len(CLASSES) + 1)
    for klass in CLASSES:
        members = values[multiples == klass.multiple]
        if len(members):
            class_mean[klass.multiple] = float(np.mean(members))
    per_class = [taus[multiples == klass.multiple] for klass in CLASSES]
    return dict(zip(DFA_SERIES, [values - class_mean[multiples], *per_class, onsets.amplitudes()]))


def run_analysis(
    onsets: OnsetSeries,
    params: AnalysisParams | None = None,
    sections: SectionMap | None = None,
    input_descriptor: str = "<onsets>",
) -> AnalysisResult:
    """Run the full metric pipeline over an onset list.

    Raises :class:`DegenerateInputError` when fewer than 8 onsets are given.
    """
    params = params or AnalysisParams()
    if len(onsets) < MIN_ONSETS:
        raise DegenerateInputError(
            f"need at least {MIN_ONSETS} onsets to analyze, got {len(onsets)}"
        )
    series = intervals(onsets)
    base = estimate_base_unit(series, hint_bpm=params.bpm_hint, max_multiple=params.max_multiple)
    series = classify_intervals(series, base, max_multiple=params.max_multiple)
    stats = interval_stats(series, bin_width_ms=params.histogram_bin_ms)

    swing: SwingReport | None
    swing_note = None
    try:
        swing = swing_ratio(series, onsets)
    except EstimationError as exc:
        swing = None
        swing_note = str(exc)

    drift = compute_drift(series, base)
    template = PhraseTemplate.shuffle(params.phrase_positions)
    phrase_iv = phrase_interval_profile(series, onsets, template=template, sections=sections)
    phrase_amp = phrase_amplitude_profile(series, onsets, template=template, sections=sections)

    dfa_results, dfa_notes = {}, {}
    for name, values in _dfa_series(series, onsets, params).items():
        if len(values) < MIN_DFA_LENGTH:
            dfa_notes[name] = f"series too short for DFA ({len(values)} points)"
        else:
            dfa_results[name] = dfa_mod.dfa_analyze(
                values, short_range=params.dfa_short, long_range=params.dfa_long
            )
    return AnalysisResult(
        input_descriptor=input_descriptor,
        params=params,
        onsets=onsets,
        series=series,
        base_unit_s=base,
        stats=stats,
        swing=swing,
        swing_note=swing_note,
        drift=drift,
        phrase_interval=phrase_iv,
        phrase_amplitude=phrase_amp,
        dfa_results=dfa_results,
        dfa_notes=dfa_notes,
    )


# ---------------------------------------------------------------------------
# Output files (every file of a run staged under a .tmp name, then renamed)


def _write_dfa_csv(path, result: dfa_mod.FluctuationResult) -> None:
    local = dict(result.alpha_local)
    scales = result.scales.tolist()
    alpha = ["" if local.get(s) is None else f"{local[s]:.6f}" for s in scales]
    write_rows(path, ["s", "F", "alpha_local"], "%d,%.9g,%s\r\n", [scales, result.F, alpha])


def _write_histogram_csv(path, hist: dict) -> None:
    edges_ms = np.array(hist["bin_edges_s"]) * 1e3
    write_rows(path, ["bin_start_ms", "bin_end_ms", "count"], "%.3f,%.3f,%d\r\n",
               [edges_ms[:-1], edges_ms[1:], hist["counts"]])


def write_analysis_outputs(out_dir, result: AnalysisResult, sidecars=()) -> Path:
    """Write report.json, the CSV sidecars and ``sidecars``, more ``(name,
    write)`` pairs, into ``out_dir``; returns the report path.

    Every file is first written as ``<name>.tmp``, by ``write(path)``; a
    write that raises unlinks the run's ``.tmp`` files, leaving ``out_dir`` as
    it was. Then they are renamed into place, report.json last, and before it
    the files of ``_OUTPUT_NAMES`` this run did not write are unlinked. A
    rename or unlink that fails is not rolled back.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stats = [(klass.value, result.stats[klass.value]) for klass in CLASSES]
    files = [
        ("drift.csv", lambda p: write_drift_csv(
            p, result.onsets.times()[1:], result.drift, result.series.multiples() == 0)),
        ("phrase_interval.csv", lambda p: write_profile_csv(p, result.phrase_interval)),
        ("phrase_amplitude.csv", lambda p: write_profile_csv(p, result.phrase_amplitude)),
        *((f"dfa_{name}.csv", lambda p, r=res: _write_dfa_csv(p, r)) for name, res in result.dfa_results.items()),
        *((f"histogram_{name}s.csv", lambda p, h=entry["histogram"]: _write_histogram_csv(p, h))
          for name, entry in stats if entry["count"] > 0),
        *sidecars,
        ("report.json", lambda p: p.write_text(
            json.dumps(result.report_dict(), indent=2) + "\n", encoding="utf-8")),
    ]
    staged = []
    try:
        for name, write in files:
            staged.append(out / f"{name}.tmp")
            write(staged[-1])
    except BaseException:
        for tmp in staged:
            tmp.unlink(missing_ok=True)
        raise
    for name, _ in files[:-1]:
        os.replace(out / f"{name}.tmp", out / name)
    for stale in _OUTPUT_NAMES.difference(name for name, _ in files):
        (out / stale).unlink(missing_ok=True)
    os.replace(staged[-1], out / "report.json")
    return out / "report.json"
