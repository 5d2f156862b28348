"""The columnar metrics against per-object loop references, compared exactly.

The references below are the loop implementations the columnar code
replaced: one row record per step (``IntervalRow``/``DriftRow``; interval i
runs from onset i to onset i + 1) and dict-based phrase bookkeeping. Results must match with
``==``, not within a tolerance, because ``report.json`` and the sidecars are
compared byte for byte.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from groovekit import (
    BeatClass,
    GrooveSpec,
    OnsetSeries,
    PhraseProfile,
    PhraseTemplate,
    Section,
    SectionMap,
    classify_intervals,
    compute_drift,
    estimate_base_unit,
    gen_shuffle_onsets,
    intervals,
    phrase_amplitude_profile,
    phrase_interval_profile,
    swing_ratio,
)

from conftest import select_onsets, series_from_times


# ---------------------------------------------------------------------------
# row records the loop references walk


@dataclass(frozen=True)
class IntervalRow:
    tau_s: float
    start_index: int
    start_time_s: float
    klass: BeatClass | None = None
    normalized_tau_s: float | None = None
    valid: bool = True


@dataclass(frozen=True)
class DriftRow:
    index: int
    time_s: float
    d_s: float
    gap: bool = False


# class of each multiple code: -1 unclassified, 0 discarded, 1-3 single to triple
_CLASS_OF_MULTIPLE = {
    -1: None, 0: BeatClass.DISCARDED,
    1: BeatClass.SINGLE, 2: BeatClass.DOUBLE, 3: BeatClass.TRIPLE,
}


def interval_rows(series, onsets):
    times = onsets.times().tolist()
    return [
        IntervalRow(tau, i, times[i], klass=_CLASS_OF_MULTIPLE[m],
                    normalized_tau_s=tau / m if m > 0 else None, valid=m != 0)
        for i, (tau, m) in enumerate(zip(series.taus().tolist(), series.multiples().tolist()))
    ]


def drift_rows(series, onsets, drift):
    times = onsets.times().tolist()
    return [
        DriftRow(i + 1, times[i + 1], d, m == 0)
        for i, (d, m) in enumerate(zip(drift.tolist(), series.multiples().tolist()))
    ]


# ---------------------------------------------------------------------------
# loop references (``series`` is a list of IntervalRow)


def ref_classify(series, base, max_multiple=3.5):
    out = []
    for iv in series:
        r = iv.tau_s / base
        if r > max_multiple:
            out.append(replace(iv, klass=BeatClass.DISCARDED, normalized_tau_s=None, valid=False))
            continue
        if r < 1.5:
            klass = BeatClass.SINGLE
        elif r < 2.5:
            klass = BeatClass.DOUBLE
        else:
            klass = BeatClass.TRIPLE
        out.append(replace(iv, klass=klass, normalized_tau_s=iv.tau_s / klass.multiple, valid=True))
    return out


def ref_drift(series, base):
    points = []
    d = 0.0
    for i, iv in enumerate(series):
        end_time = iv.start_time_s + iv.tau_s
        if not iv.valid:
            d = 0.0
            points.append(DriftRow(index=i + 1, time_s=end_time, d_s=0.0, gap=True))
            continue
        d += iv.normalized_tau_s - base
        points.append(DriftRow(index=i + 1, time_s=end_time, d_s=d, gap=False))
    return points


def ref_swing_inputs(series, onsets):
    singles = [
        iv.tau_s
        for iv in series
        if iv.klass is BeatClass.SINGLE
        and onsets[iv.start_index].label != "ghost" and onsets[iv.start_index + 1].label != "ghost"
    ]
    doubles = [iv.tau_s for iv in series if iv.klass is BeatClass.DOUBLE]
    return singles, doubles


def ref_anchor_indices(onsets, sections):
    if sections is None or len(sections) == 0:
        return [0] if len(onsets) else []
    times = onsets.times()
    anchors = []
    for sec in sections:
        idx = int(np.searchsorted(times, sec.start_time_s, side="left"))
        if idx < len(times) and times[idx] < sec.end_time_s:
            anchors.append(idx)
    return sorted(set(anchors))


def ref_walk_units(series, onsets, sections):
    anchors = ref_anchor_indices(onsets, sections)
    next_of = {iv.start_index: i for i, iv in enumerate(series)}
    units = {}
    for k, anchor in enumerate(anchors):
        stop = anchors[k + 1] if k + 1 < len(anchors) else len(onsets)
        u = 0
        units[anchor] = (k, 0)
        i = anchor
        while i + 1 < stop:
            iv_idx = next_of.get(i)
            if iv_idx is None:
                break
            iv = series[iv_idx]
            if not iv.valid:
                break
            u += iv.klass.multiple
            units[i + 1] = (k, u)
            i += 1
    return units


def ref_phrase_rows(series, onsets, template, sections):
    units = ref_walk_units(series, onsets, sections)
    phrases = {}
    closers = {}
    for onset_idx, (anchor, u) in units.items():
        phrase_no, unit_in_phrase = divmod(u, template.units_per_phrase)
        if unit_in_phrase not in template.slot_units:
            continue
        slot = template.slot_units.index(unit_in_phrase)
        key = (anchor, phrase_no)
        phrases.setdefault(key, {})[slot] = onset_idx
        if slot == 0 and phrase_no > 0:
            closers[(anchor, phrase_no - 1)] = onset_idx
    for key in sorted(phrases):
        yield key, phrases[key], closers.get(key)


def _ref_stats(per_slot):
    mean, std, n = [], [], []
    for vals in per_slot:
        n.append(len(vals))
        if vals:
            mean.append(float(np.mean(vals)))
            std.append(float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0)
        else:
            mean.append(None)
            std.append(None)
    return tuple(mean), tuple(std), tuple(n)


def ref_interval_profile(series, onsets, template, sections):
    n_slots = len(template)
    per_slot = [[] for _ in range(n_slots)]
    per_slot_dev = [[] for _ in range(n_slots)]
    times = onsets.times()
    n_phrases = 0
    for _, slots, closer in ref_phrase_rows(series, onsets, template, sections):
        if closer is None or len(slots) != n_slots:
            continue
        n_phrases += 1
        slot_times = [times[slots[s]] for s in range(n_slots)]
        slot_times.append(times[closer])
        phrase_base = (slot_times[-1] - slot_times[0]) / template.units_per_phrase
        for s in range(n_slots):
            tau = slot_times[s + 1] - slot_times[s]
            normalized = tau / template.slot_multiple(s)
            per_slot[s].append(tau)
            per_slot_dev[s].append(100.0 * (normalized - phrase_base) / phrase_base)
    mean, std, n = _ref_stats(per_slot)
    dev = tuple(float(np.mean(v)) if v else None for v in per_slot_dev)
    return PhraseProfile(kind="interval", template=template, mean=mean, std=std, n=n,
                         deviation_pct=dev, n_phrases=n_phrases)


def ref_amplitude_profile(series, onsets, template, sections):
    n_slots = len(template)
    per_slot = [[] for _ in range(n_slots)]
    amps = onsets.amplitudes()
    n_phrases = 0
    for _, slots, _ in ref_phrase_rows(series, onsets, template, sections):
        n_phrases += 1
        for slot, onset_idx in slots.items():
            per_slot[slot].append(float(amps[onset_idx]))
    mean, std, n = _ref_stats(per_slot)
    return PhraseProfile(kind="amplitude", template=template, mean=mean, std=std, n=n,
                         deviation_pct=(None,) * n_slots, n_phrases=n_phrases)


# ---------------------------------------------------------------------------
# cases: (onsets, base or None for the estimate, max_multiple, template, sections)


def _groove(bars, seed, ghost_probability=0.3):
    spec = GrooveSpec(
        bpm=84.0, swing_ratio=1.79, bars=bars, jitter_sigma_ms=5.0,
        lrc_beta=1.0, lrc_sigma_ms=2.0, ghost_probability=ghost_probability,
        amplitude_jitter=0.1, drift_profile=((0.0, 84.0), (float(bars), 90.0)),
    )
    return gen_shuffle_onsets(spec, seed=seed)[0]


def _with_gaps(onsets, seed, n_cuts=12):
    """Drop runs of 1-3 onsets so some merged intervals exceed the cutoff."""
    rng = np.random.default_rng(seed)
    keep = np.ones(len(onsets), dtype=bool)
    for start in rng.choice(np.arange(1, len(onsets) - 4), size=n_cuts, replace=False):
        keep[start:start + rng.integers(1, 4)] = False
    return select_onsets(onsets, keep)


def _three_sections(onsets):
    t = onsets.times()
    mid = t[len(t) // 3] + 0.01  # starts between onsets, mid-phrase
    late = t[2 * len(t) // 3]
    return SectionMap(sections=(
        Section(t[0] - 1.0, mid - 0.5, "A1-verse"),
        Section(mid, late, "B-chorus"),
        Section(late, t[-1] + 1.0, "other"),
    ))


CASES = {
    "ghosts_seed0_long": lambda: (_groove(400, 0), None, 3.5, None, None),
    "ghosts_seed1": lambda: (_groove(40, 1, ghost_probability=1.0), None, 3.5, None, None),
    "gaps": lambda: (_with_gaps(_groove(40, 2), 2), None, 3.5, None, None),
    "gaps_tight_cutoff": lambda: (_with_gaps(_groove(40, 3), 3), None, 2.2, None, None),
    "sections_with_gaps": lambda: (
        (g := _with_gaps(_groove(40, 4), 4)), None, 3.5, None, _three_sections(g)
    ),
    "phrase_len_12": lambda: (
        _with_gaps(_groove(40, 5), 5), None, 3.5, PhraseTemplate.shuffle(12), None
    ),
    "phrase_len_12_sections": lambda: (
        (g := _groove(40, 6)), None, 3.5, PhraseTemplate.shuffle(12), _three_sections(g)
    ),
    "two_onsets": lambda: (series_from_times([0.5, 0.62]), 0.12, 3.5, None, None),
    "all_discarded": lambda: (series_from_times(np.arange(10) * 1.0), 0.1, 3.5, None, None),
    "no_complete_phrase": lambda: (_groove(1, 7), None, 3.5, None, None),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    onsets, base, max_multiple, template, sections = CASES[request.param]()
    raw = intervals(onsets)
    if base is None:
        base = estimate_base_unit(raw, max_multiple=max_multiple)
    return {
        "onsets": onsets,
        "raw": raw,
        "base": base,
        "max_multiple": max_multiple,
        "template": template or PhraseTemplate(),
        "sections": sections,
    }


def test_classify_matches_loop(case):
    got = classify_intervals(case["raw"], case["base"], max_multiple=case["max_multiple"])
    assert interval_rows(got, case["onsets"]) == ref_classify(
        interval_rows(case["raw"], case["onsets"]), case["base"], case["max_multiple"]
    )


def test_drift_matches_loop(case):
    series = classify_intervals(case["raw"], case["base"], max_multiple=case["max_multiple"])
    drift = compute_drift(series, case["base"])
    assert isinstance(drift, np.ndarray) and len(drift) == len(series)
    rows = interval_rows(series, case["onsets"])
    assert drift_rows(series, case["onsets"], drift) == ref_drift(rows, case["base"])


def test_swing_inputs_match_loop(case):
    series = classify_intervals(case["raw"], case["base"], max_multiple=case["max_multiple"])
    singles, doubles = ref_swing_inputs(interval_rows(series, case["onsets"]), case["onsets"])
    if not singles or not doubles:
        return
    report = swing_ratio(series, case["onsets"])
    assert report.mean_inter_triplet_single_s == float(np.mean(singles))
    assert report.mean_double_s == float(np.mean(doubles))
    assert (report.n_singles_used, report.n_doubles_used) == (len(singles), len(doubles))


def test_phrase_profiles_match_loop(case):
    series = classify_intervals(case["raw"], case["base"], max_multiple=case["max_multiple"])
    args = (interval_rows(series, case["onsets"]), case["onsets"], case["template"], case["sections"])
    kwargs = {"template": case["template"], "sections": case["sections"]}
    onsets = case["onsets"]
    assert phrase_interval_profile(series, onsets, **kwargs) == ref_interval_profile(*args)
    assert phrase_amplitude_profile(series, onsets, **kwargs) == ref_amplitude_profile(*args)


def test_cases_cover_gaps_sections_and_empty_profiles():
    gappy = CASES["gaps"]()[0]
    series = classify_intervals(intervals(gappy), estimate_base_unit(intervals(gappy)))
    assert np.any(series.multiples() == 0)
    sectioned = CASES["sections_with_gaps"]()
    assert len(ref_anchor_indices(sectioned[0], sectioned[4])) == 3
    for name in ("all_discarded", "no_complete_phrase", "two_onsets"):
        onsets, base, _, _, _ = CASES[name]()
        raw = intervals(onsets)
        series = classify_intervals(raw, base or estimate_base_unit(raw))
        assert phrase_interval_profile(series, onsets).n_phrases == 0


class TestRowViews:
    def test_onset_fields_match_their_columns(self):
        groove = _groove(4, 0, ghost_probability=1.0)
        n = len(groove)
        unc = np.linspace(0.0, 4.0, n)
        sources = [("auto", "manual-add", "manual-move")[i % 3] for i in range(n)]
        s = OnsetSeries.from_columns(
            groove.times(), groove.amplitudes(), groove.labels(), sources, unc
        )
        assert len(set(s.labels())) > 1
        for i in range(n):
            o = s[i]
            assert (o.time_s, o.amplitude, o.label, o.source, o.uncertainty_ms) == (
                s.times()[i], s.amplitudes()[i], s.labels()[i], sources[i], unc[i]
            )
            assert type(o.time_s) is float and type(o.label) is str

    def test_last_onset_by_index(self):
        onsets = _groove(4, 0)
        assert onsets[len(onsets) - 1].time_s == onsets[-1].time_s == onsets.times()[-1]
        assert onsets[-len(onsets)] == onsets[0]
        with pytest.raises(IndexError):
            onsets[len(onsets)]
        with pytest.raises(IndexError):
            onsets[-len(onsets) - 1]

    def test_columns_are_read_only(self):
        onsets = _groove(2, 0)
        with pytest.raises(ValueError):
            onsets.times()[0] = 1.0
