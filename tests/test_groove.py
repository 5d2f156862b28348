import numpy as np
import pytest
from scipy.integrate import quad

from groovekit import (
    BeatClass,
    EstimationError,
    GrooveSpec,
    IntervalSeries,
    ParameterError,
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


def _classified(times, base=None):
    series = intervals(series_from_times(times))
    base = base if base is not None else estimate_base_unit(series)
    return classify_intervals(series, base), base


class TestComputeDrift:
    def test_metronomic_grid_zero_drift(self):
        taus = np.array([1, 2, 3, 1, 2, 3, 1, 1, 2] * 10) * 0.120
        series, base = _classified(np.concatenate(([0.0], np.cumsum(taus))), base=0.120)
        drift = compute_drift(series, base)
        assert np.max(np.abs(drift)) < 1e-12

    def test_constant_singles_ramp(self):
        taus = np.full(40, 0.121)
        series, _ = _classified(np.concatenate(([0.0], np.cumsum(taus))), base=0.120)
        drift = compute_drift(series, 0.120)
        expected = 0.001 * np.arange(1, 41)
        np.testing.assert_allclose(drift, expected, atol=1e-12)

    def test_gap_resets_to_zero(self):
        multiples = [1, 1, 2, 5, 1, 1]
        taus = np.array(multiples) * 0.124
        series, _ = _classified(np.concatenate(([0.0], np.cumsum(taus))), base=0.120)
        drift = compute_drift(series, 0.120)
        gap_points = np.flatnonzero(series.multiples() == 0)
        assert gap_points.tolist() == [3]  # the fourth interval
        assert drift[3] == 0.0
        # accumulation restarts after the gap
        assert drift[4] == pytest.approx(0.124 - 0.120)

    def test_per_step_increment_matches_normalized_deviation(self):
        rng = np.random.default_rng(4)
        multiples = rng.choice([1, 2, 3], size=80)
        taus = multiples * 0.119 + rng.normal(0, 0.004, 80)
        series, base = _classified(np.concatenate(([0.3], 0.3 + np.cumsum(taus))))
        drift = compute_drift(series, base)
        prev = 0.0
        for d, tau, m in zip(drift, series.taus(), series.multiples()):
            assert m > 0
            assert d - prev == pytest.approx(tau / m - base, abs=1e-9)
            prev = d

    def test_telescoping_per_span(self):
        multiples = [1, 2, 1, 5, 2, 2, 1]
        taus = np.array(multiples) * 0.122
        series, _ = _classified(np.concatenate(([0.0], np.cumsum(taus))), base=0.120)
        drift = compute_drift(series, 0.120)
        # final point of the second span
        taus, m = series.taus()[4:], series.multiples()[4:]
        span = (taus[m > 0] / m[m > 0]).tolist()
        expected = sum(span) - len(span) * 0.120
        assert drift[-1] == pytest.approx(expected, abs=1e-9)

    def test_time_offset_invariance(self):
        taus = np.array([1, 2, 1, 2] * 10) * 0.125
        t0 = np.concatenate(([0.0], np.cumsum(taus)))
        s1, base = _classified(t0, base=0.120)
        s2, _ = _classified(t0 + 17.3, base=0.120)
        d1 = compute_drift(s1, 0.120)
        d2 = compute_drift(s2, 0.120)
        np.testing.assert_allclose(d1, d2, atol=1e-12)

    def test_tempo_ramp_matches_quadrature_oracle(self):
        # linear ramp 84 -> 86 BPM over 60 bars; closed-form generator grid
        # checked against independent numerical quadrature of the bar period
        spec = GrooveSpec(
            bpm=84.0, swing_ratio=2.0, bars=60,
            drift_profile=((0.0, 84.0), (60.0, 86.0)),
        )
        onsets, truth = gen_shuffle_onsets(spec, seed=0)
        series = intervals(onsets)
        base = estimate_base_unit(series, hint_bpm=85.0)
        classified = classify_intervals(series, base)
        drift = compute_drift(classified, base)

        def bpm_at(bar):
            return 84.0 + (86.0 - 84.0) * bar / 60.0

        def oracle_time(unit):
            val, _ = quad(lambda b: 120.0 / bpm_at(b), 0.0, unit / 12.0)
            return spec.start_s + val

        oracle_times = np.array([oracle_time(u) for u in truth.unit_positions])
        taus = np.diff(oracle_times)
        mult = np.diff(truth.unit_positions)  # 1 or 2 units between hits
        d_oracle = np.cumsum(taus / mult) - base * np.arange(1, len(taus) + 1)
        got = drift
        assert len(got) == len(d_oracle)
        assert np.max(np.abs(got - d_oracle)) < 1e-3


class TestSwingRatio:
    def test_exact_two_to_one(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=4)
        onsets, _ = gen_shuffle_onsets(spec, seed=0)
        series, base = _classified(onsets.times())
        report = swing_ratio(series, onsets)
        assert report.swing_ratio == pytest.approx(2.0, abs=1e-9)
        assert report.ratio_triad[0] == 1.0
        assert report.ratio_triad[1] == pytest.approx(2.0, abs=1e-9)
        assert report.ratio_triad[2] is None  # no triples in a pure shuffle

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_programmed_ratio_recovered_under_jitter(self, seed):
        spec = GrooveSpec(bpm=84.0, swing_ratio=1.79, bars=60, jitter_sigma_ms=5.0)
        onsets, _ = gen_shuffle_onsets(spec, seed=seed)
        series, _ = _classified(onsets.times())
        report = swing_ratio(series, onsets)
        assert report.swing_ratio == pytest.approx(1.79, abs=0.03)

    def test_ghost_labeled_singles_excluded(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=1.79, bars=30, ghost_probability=0.4)
        onsets, _ = gen_shuffle_onsets(spec, seed=7)
        series, _ = _classified(onsets.times())
        report = swing_ratio(series, onsets)
        # with intra-triplet halves excluded the programmed ratio is exact
        assert report.swing_ratio == pytest.approx(1.79, abs=1e-9)
        # sanity: including them would have biased the mean single short
        all_singles = series.taus()[series.multiples() == BeatClass.SINGLE.multiple]
        assert np.mean(all_singles) < report.mean_inter_triplet_single_s

    def test_triad_includes_triples_when_present(self):
        taus = np.array([1, 2, 1, 2, 3, 3, 1, 2] * 8) * 0.122
        series, base = _classified(np.concatenate(([0.0], np.cumsum(taus))), base=0.122)
        onsets = series_from_times(np.concatenate(([0.0], np.cumsum(taus))))
        report = swing_ratio(series, onsets)
        assert report.ratio_triad[2] == pytest.approx(3.0, abs=1e-9)

    def test_missing_class_errors(self):
        series, _ = _classified(np.arange(10) * 0.120, base=0.120)
        onsets = series_from_times(np.arange(10) * 0.120)
        with pytest.raises(EstimationError):
            swing_ratio(series, onsets)  # no doubles

    def test_scale_invariance(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=1.79, bars=20, jitter_sigma_ms=3.0)
        onsets, _ = gen_shuffle_onsets(spec, seed=4)
        series, _ = _classified(onsets.times())
        base_report = swing_ratio(series, onsets)
        for c in (0.25, 3.0):
            scaled_times = onsets.times() * c
            scaled_onsets = series_from_times(scaled_times)
            scaled_series, _ = _classified(scaled_times)
            scaled = swing_ratio(scaled_series, scaled_onsets)
            assert scaled.swing_ratio == pytest.approx(
                base_report.swing_ratio, rel=1e-9
            )


class TestPhraseTemplate:
    def test_default_shuffle_layout(self):
        tpl = PhraseTemplate()
        assert len(tpl) == 16
        assert tpl.units_per_phrase == 24
        assert tpl.slot_units[:4] == (0, 2, 3, 5)
        assert tpl.slot_multiple(0) == 2   # note1 -> note3
        assert tpl.slot_multiple(1) == 1   # note3 -> next note1
        assert tpl.slot_multiple(15) == 1  # wraps into the next phrase

    def test_configurable_positions(self):
        tpl = PhraseTemplate.shuffle(positions=8)
        assert len(tpl) == 8
        assert tpl.units_per_phrase == 12


class TestPhraseIntervalProfile:
    def test_metronomic_shuffle_zero_deviation(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=8)
        onsets, _ = gen_shuffle_onsets(spec, seed=0)
        series, base = _classified(onsets.times())
        profile = phrase_interval_profile(series, onsets)
        assert profile.n_phrases == 3  # 4 two-bar phrases, last lacks its closer
        assert all(n == 3 for n in profile.n)
        for dev in profile.deviation_pct:
            assert dev == pytest.approx(0.0, abs=1e-9)

    def test_shortened_doubles_redistribute_into_singles(self):
        # doubles at 1.9 units and singles at 1.1 keep the bar length, so
        # against the phrase-local unit the doubles read -5% and singles +10%
        spec = GrooveSpec(bpm=84.0, swing_ratio=1.9 / 1.1, bars=12)
        onsets, _ = gen_shuffle_onsets(spec, seed=0)
        series, base = _classified(onsets.times())
        profile = phrase_interval_profile(series, onsets)
        for slot in range(16):
            expected = -5.0 if slot % 2 == 0 else 10.0
            assert profile.deviation_pct[slot] == pytest.approx(expected, abs=1e-6)

    def test_position_counts_sum_rule(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=10, jitter_sigma_ms=3.0)
        onsets, _ = gen_shuffle_onsets(spec, seed=5)
        series, base = _classified(onsets.times())
        profile = phrase_interval_profile(series, onsets)
        assert sum(profile.n) == profile.n_phrases * len(profile.template)

    def test_ghosts_do_not_fragment_slot_intervals(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=8, ghost_probability=1.0)
        onsets, _ = gen_shuffle_onsets(spec, seed=2)
        series, base = _classified(onsets.times())
        profile = phrase_interval_profile(series, onsets)
        assert profile.n_phrases == 3
        for dev in profile.deviation_pct:
            assert dev == pytest.approx(0.0, abs=1e-9)

    def test_missing_onset_invalidates_only_its_phrases(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=12)
        onsets, _ = gen_shuffle_onsets(spec, seed=0)
        # drop one note3 onset in the third phrase (bar 5): the two intervals
        # around it merge into a triple and the walk stays aligned
        pruned = select_onsets(onsets, np.arange(len(onsets)) != 4 * 8 + 3)
        series, base = _classified(pruned.times())
        assert np.count_nonzero(series.multiples() == BeatClass.TRIPLE.multiple) == 1
        profile = phrase_interval_profile(series, pruned)
        assert profile.n_phrases == 4  # 5 complete were possible, 1 lost

    def test_zero_complete_phrases(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=1)
        onsets, _ = gen_shuffle_onsets(spec, seed=0)
        series, base = _classified(onsets.times())
        profile = phrase_interval_profile(series, onsets)
        assert profile.n_phrases == 0
        assert all(n == 0 for n in profile.n)


class TestPhraseAmplitudeProfile:
    def test_constant_amplitudes_flat(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=8, amplitude_pattern=(0.5,))
        onsets, _ = gen_shuffle_onsets(spec, seed=0)
        series, base = _classified(onsets.times())
        profile = phrase_amplitude_profile(series, onsets)
        for mean, std in zip(profile.mean, profile.std):
            assert mean == pytest.approx(0.5)
            assert std == pytest.approx(0.0, abs=1e-12)

    def test_low_high_alternation(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=8, amplitude_pattern=(0.6, 0.3))
        onsets, _ = gen_shuffle_onsets(spec, seed=0)
        series, base = _classified(onsets.times())
        profile = phrase_amplitude_profile(series, onsets)
        for slot in range(16):
            expected = 0.6 if slot % 2 == 0 else 0.3
            assert profile.mean[slot] == pytest.approx(expected)

    def test_incomplete_phrases_still_counted(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=8)
        onsets, _ = gen_shuffle_onsets(spec, seed=0)
        pruned = select_onsets(onsets, np.arange(len(onsets)) != 10)
        series, base = _classified(pruned.times())
        profile = phrase_amplitude_profile(series, pruned)
        assert min(profile.n) < max(profile.n)
        assert max(profile.n) > 0

    def test_ghost_onsets_excluded_from_slots(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=8, ghost_probability=1.0)
        onsets, _ = gen_shuffle_onsets(spec, seed=1)
        series, base = _classified(onsets.times())
        profile = phrase_amplitude_profile(series, onsets)
        # ghost amplitude (0.15) must not contaminate any slot mean
        for mean in profile.mean:
            assert mean in (pytest.approx(0.6), pytest.approx(0.3))


class TestSectionAnchoring:
    def test_walk_restarts_at_section_anchor_after_gap(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=4, start_s=0.5)
        first, truth = gen_shuffle_onsets(spec, seed=0)
        gap_s = 2.0
        offset = first[-1].time_s + gap_s
        second_times = first.times() + offset
        all_times = np.concatenate([first.times(), second_times])
        amps = np.concatenate([first.amplitudes(), first.amplitudes()])
        onsets = series_from_times(all_times, amplitudes=amps)
        series, base = _classified(all_times)
        sections = SectionMap(
            sections=(
                Section(0.0, offset - 0.5, "A1-verse"),
                Section(offset - 0.5, all_times[-1] + 1.0, "other"),
            )
        )
        profile = phrase_interval_profile(series, onsets, sections=sections)
        # each 4-bar block contributes one complete phrase (second lacks closer)
        assert profile.n_phrases == 2


class TestIntervalsMustMatchOnsets:
    """An interval series built for other onsets is an input error, not an IndexError."""

    ONSETS = series_from_times([0.0, 0.1, 0.2], amplitudes=[0.5, 0.5, 0.5])

    @pytest.mark.parametrize("func", [swing_ratio, phrase_interval_profile, phrase_amplitude_profile])
    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_count_mismatch(self, func, count):
        series = IntervalSeries([0.1] * count, [1] * count)
        with pytest.raises(ParameterError, match="does not match the onsets"):
            func(series, self.ONSETS)

    def test_last_interval_inside_onsets(self):
        series = IntervalSeries([0.1, 0.1], [1, 1])
        assert phrase_interval_profile(series, self.ONSETS).n_phrases == 0
        assert phrase_amplitude_profile(series, self.ONSETS).n == (1, 1) + (0,) * 14
