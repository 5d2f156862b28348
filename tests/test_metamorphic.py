"""Metamorphic relations of the analysis pipeline.

Scaling every onset time by a power of two is exact in binary floating
point, so it must scale the base unit and the drift by exactly that factor
and leave the interval classes, class counts and swing ratio untouched.
Appending one more copy of a phrase to a groove made of copies of it must
leave the per-slot phrase means where they were.
"""

import numpy as np
import pytest

from groovekit.analysis import run_analysis
from groovekit.onsets import OnsetSeries
from groovekit.synth import GrooveSpec, gen_shuffle_onsets


def _groove(bars=24, seed=3):
    spec = GrooveSpec(
        bpm=84.0, swing_ratio=1.79, bars=bars, jitter_sigma_ms=4.0,
        amplitude_jitter=0.1, ghost_probability=0.2,
    )
    return gen_shuffle_onsets(spec, seed=seed)[0]


def _with_times(series, times):
    return OnsetSeries.from_columns(times, series.amplitudes(), series.labels(), series.sources())


@pytest.mark.parametrize("k", [2.0, 0.5])
def test_scaling_times_scales_base_unit_and_drift(k):
    onsets = _groove()
    a = run_analysis(onsets)
    b = run_analysis(_with_times(onsets, onsets.times() * k))

    assert b.report_dict()["base_unit_ms"] == k * a.report_dict()["base_unit_ms"]
    assert np.array_equal(b.drift.time_s, k * a.drift.time_s)
    assert np.array_equal(b.drift.d_s, k * a.drift.d_s)
    assert np.array_equal(b.drift.index, a.drift.index)
    assert np.array_equal(b.drift.gap, a.drift.gap)

    assert np.array_equal(b.series.multiples(), a.series.multiples())
    assert b.report_dict()["interval_counts"] == a.report_dict()["interval_counts"]
    assert a.swing is not None
    assert b.swing.swing_ratio == a.swing.swing_ratio


def _phrases(phrase, copies):
    """``copies`` back-to-back copies of one two-bar phrase, plus the opening
    onset of one more so the last phrase is complete."""
    times, amps = phrase.times(), phrase.amplitudes()
    period = 2 * (times[8] - times[0])  # two bars: 16 hi-hats, 8 per bar, nominal spacing
    start = np.arange(copies + 1)[:, None] * period
    all_times = (times[None, :] + start).reshape(-1)[: 16 * copies + 1]
    all_amps = np.tile(amps, copies + 1)[: 16 * copies + 1]
    return OnsetSeries.from_columns(all_times, all_amps, ["hihat"] * len(all_times))


def test_appending_a_phrase_copy_keeps_slot_means():
    # one jittered phrase: its 16 slot intervals all differ from the grid
    spec = GrooveSpec(bpm=84.0, swing_ratio=1.79, bars=2, jitter_sigma_ms=4.0,
                      amplitude_jitter=0.1)
    phrase = gen_shuffle_onsets(spec, seed=5)[0]
    a = run_analysis(_phrases(phrase, 6))
    b = run_analysis(_phrases(phrase, 7))

    assert b.phrase_interval.n_phrases == a.phrase_interval.n_phrases + 1
    for kind in ("phrase_interval", "phrase_amplitude"):
        pa, pb = getattr(a, kind), getattr(b, kind)
        assert len(pa.mean) == 16 and None not in pa.mean
        assert pb.mean == pytest.approx(pa.mean, rel=1e-12, abs=1e-15)
