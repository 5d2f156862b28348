import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from groovekit import (
    BeatClass,
    EstimationError,
    ParameterError,
    Section,
    SectionMap,
    classify_intervals,
    estimate_base_unit,
    interval_stats,
    intervals,
)
from groovekit.intervals import (
    SEED_BIN_S,
    _histogram,
    _seed_from_minimum_mode,
    read_sections_csv,
    write_sections_csv,
)

from conftest import series_from_times


def _grid_series(multiples, base_s=0.120, jitter_s=0.0, seed=0):
    """Onsets whose consecutive gaps are multiples of base_s (+ onset jitter)."""
    rng = np.random.default_rng(seed)
    taus = np.asarray(multiples, dtype=float) * base_s
    times = np.concatenate(([0.5], 0.5 + np.cumsum(taus)))
    if jitter_s > 0:
        times = times + rng.normal(0.0, jitter_s, size=len(times))
    return series_from_times(times)


class TestIntervals:
    def test_differences(self):
        taus = intervals(series_from_times([0.0, 0.128, 0.356]))
        assert isinstance(taus, np.ndarray) and taus.dtype == np.float64
        assert taus == pytest.approx([0.128, 0.228])

    def test_count_is_n_minus_one(self):
        onsets = series_from_times(np.linspace(0.0, 200.0, 1239))
        assert len(intervals(onsets)) == 1238

    def test_single_onset_errors(self):
        with pytest.raises(ParameterError):
            intervals(series_from_times([1.0]))


class TestEstimateBaseUnit:
    def test_exact_grid(self):
        series = intervals(_grid_series([1, 2, 3] * 40))
        base = estimate_base_unit(series)
        assert base == pytest.approx(0.120, abs=1e-9)

    def test_hint_seeding(self):
        series = intervals(_grid_series([1, 2, 3] * 40))
        base = estimate_base_unit(series, hint_bpm=84.0)
        assert base == pytest.approx(0.120, abs=1e-9)

    def test_measured_regime_stable(self):
        # reference-track regime: singles/doubles/triples clustered around
        # 127.6 / 228.7 / 364.0 ms with ~8 ms spread
        rng = np.random.default_rng(5)
        taus = np.concatenate(
            [
                rng.normal(0.1276, 0.0084, 454),
                rng.normal(0.2287, 0.0084, 421),
                rng.normal(0.3640, 0.0078, 279),
            ]
        )
        rng.shuffle(taus)
        times = np.concatenate(([0.0], np.cumsum(taus)))
        series = intervals(series_from_times(times))
        base = estimate_base_unit(series)
        assert 0.114 <= base <= 0.128
        # stable under one more round of classification + re-estimate
        classified = classify_intervals(series, base)
        normalized = classified.normalized_taus()
        assert np.mean(normalized) == pytest.approx(base, abs=1e-4)

    def test_jittered_grid_recovers_within_2ms(self):
        rng = np.random.default_rng(9)
        multiples = rng.choice([1, 2, 3], size=400, p=[0.4, 0.4, 0.2])
        series = intervals(_grid_series(multiples, base_s=0.119, jitter_s=8e-3, seed=9))
        base = estimate_base_unit(series)
        assert abs(base - 0.119) <= 2e-3

    def test_empty_series_errors(self):
        with pytest.raises(ParameterError):
            estimate_base_unit(np.array([]))

    def test_fixed_point_classes_as_classify_does_at_two_and_a_half(self):
        # against the hint's base of exactly 0.1 s, 0.25 s is 2.5 units: a triple
        taus = np.array([0.1] * 20 + [0.25])
        hint_base = 60.0 / (100.0 * 6.0)
        assert classify_intervals(taus, hint_base).multiples()[-1] == BeatClass.TRIPLE.multiple
        base = estimate_base_unit(taus, hint_bpm=100.0)
        for at in (hint_base, base):
            multiples = classify_intervals(taus, at).multiples()
            assert base == np.mean(taus / multiples)
        assert base == pytest.approx((20 * 0.1 + 0.25 / 3) / 21, abs=1e-12)


def _dense_seed(taus):
    """The base-unit seed read off the full 4 ms histogram, every bin from
    the shortest interval to the longest allocated."""
    counts, edges = _histogram(taus, SEED_BIN_S)
    floor = max(1.0, 0.5 * counts.max())
    for i, c in enumerate(counts):
        if c >= floor:
            return float(edges[i] + 0.5 * SEED_BIN_S)
    return float(np.median(taus))


@st.composite
def _seed_taus(draw):
    """Intervals on, just beside and between the seed histogram's edges,
    plus arbitrary ones among them."""
    lo = np.floor(draw(st.floats(SEED_BIN_S, 1e4)) / SEED_BIN_S) * SEED_BIN_S
    values = []
    for k in draw(st.lists(st.integers(0, 3000), min_size=1, max_size=40)):
        edge = lo + SEED_BIN_S * k
        values.append(draw(st.sampled_from([
            edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), edge + 0.5 * SEED_BIN_S,
        ])))
    values += draw(st.lists(st.floats(0.0, 3000 * SEED_BIN_S).map(lambda x: lo + x), max_size=10))
    return np.array(values)


@st.composite
def _histogram_taus(draw):
    """Whole multiples of a 2 ms bin, the floats beside them, and values
    between them, from 2 ms to 20 s."""
    values = []
    for k in draw(st.lists(st.integers(1, 10_000), min_size=1, max_size=30)):
        edge = k * 2e-3
        values.append(draw(st.sampled_from([
            edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), edge + 1e-3,
        ])))
    return np.array(values)


class TestBaseUnitSeed:
    @given(_seed_taus())
    # (6.332 - 3.008) / 0.004 rounds up to 831, but edge 831 is above 6.332
    @example(np.array([3.008] + [6.332] * 4))
    @settings(max_examples=200, deadline=None)
    def test_occupied_bins_give_the_dense_seed(self, taus):
        assert _seed_from_minimum_mode(taus) == _dense_seed(taus)

    def test_one_long_gap_costs_no_memory(self):
        # 400 onsets 0.125 s apart with one 20,000 s gap: the dense seed
        # histogram allocated about 120 MB for it
        times = 0.125 * np.arange(400.0)
        times[200:] += 20_000.0
        series = intervals(series_from_times(times))
        estimate_base_unit(series)  # first-call caches
        tracemalloc.start()
        try:
            base = estimate_base_unit(series)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert base * 1e3 == pytest.approx(125.0)


class TestClassifyIntervals:
    def test_band_assignments(self):
        series = intervals(series_from_times([0.0, 0.128, 0.368, 0.728, 1.178]))
        # taus: 0.128 (r=1.05), 0.240 (r=1.97), 0.360 (r=2.95), 0.450 (r=3.69)
        out = classify_intervals(series, base=0.122)
        # single, double, triple, discarded
        assert out.multiples().tolist() == [1, 2, 3, 0]
        # the discarded interval has no normalized duration
        assert len(out.normalized_taus()) == 3
        assert out.normalized_taus()[1] == pytest.approx(0.120)
        assert out.normalized_taus()[2] == pytest.approx(0.120)

    def test_bands_partition_with_no_overlap(self):
        base = 0.1
        # multiple 1 single, 2 double, 3 triple, 0 discarded
        for r, expected in [
            (0.4, 1),
            (1.49, 1),
            (1.5, 2),
            (2.49, 2),
            (2.5, 3),
            (3.5, 3),
            (3.51, 0),
        ]:
            series = intervals(series_from_times([0.0, r * base, 10.0]))
            out = classify_intervals(series, base=base)
            assert out.multiples()[0] == expected, f"r={r}"

    def test_custom_cutoff_multiple(self):
        series = intervals(series_from_times([0.0, 0.36, 1.0]))
        strict = classify_intervals(series, base=0.1, max_multiple=3.5)
        assert strict.multiples()[0] == 0  # discarded
        loose = classify_intervals(series, base=0.1, max_multiple=4.0)
        assert loose.multiples()[0] == BeatClass.TRIPLE.multiple

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    def test_scale_equivariance(self, scale):
        rng = np.random.default_rng(3)
        multiples = rng.choice([1, 2, 3], size=60)
        taus = multiples * 0.12 + rng.normal(0, 0.004, size=60)
        times = np.concatenate(([0.0], np.cumsum(taus)))
        base_series = intervals(series_from_times(times))
        scaled_series = intervals(series_from_times(times * scale))
        base = estimate_base_unit(base_series)
        scaled_base = estimate_base_unit(scaled_series)
        assert scaled_base == pytest.approx(scale * base, rel=1e-6)
        k1 = classify_intervals(base_series, base).multiples()
        k2 = classify_intervals(scaled_series, scaled_base).multiples()
        np.testing.assert_array_equal(k1, k2)


class TestIntervalStats:
    def test_constant_singles(self):
        series = classify_intervals(intervals(_grid_series([1] * 50)), base=0.120)
        stats = interval_stats(series)
        assert stats["single"]["count"] == 50
        assert stats["single"]["mean_s"] == pytest.approx(0.120)
        assert stats["single"]["std_s"] == pytest.approx(0.0, abs=1e-12)
        assert stats["double"] == {"count": 0}
        assert stats["detection_rate"] == 1.0

    def test_gaussian_sample_moments(self):
        rng = np.random.default_rng(12)
        taus = rng.normal(0.128, 0.008, 450)
        times = np.concatenate(([0.0], np.cumsum(taus)))
        series = classify_intervals(intervals(series_from_times(times)), base=0.128)
        stats = interval_stats(series)
        assert abs(stats["single"]["mean_s"] - 0.128) <= 1e-3
        assert abs(stats["single"]["std_s"] - 0.008) <= 1.5e-3

    @given(_histogram_taus())
    @example(np.array([0.208, 0.21, 0.212]))  # 0.208 / 0.002 rounds up to 104
    @settings(max_examples=300, deadline=None)
    def test_histogram_counts_every_interval(self, taus):
        counts, edges = _histogram(taus, 2e-3)
        assert counts.sum() == len(taus)
        assert edges[0] <= taus.min()
        np.testing.assert_array_equal(counts, np.histogram(taus, bins=edges)[0])

    def test_histogram_past_2_53_bins_is_too_long_to_count(self):
        # 1.4485449323423048e18 / 0.002 rounds up, and one bin less rounds to the same edge
        with pytest.raises(EstimationError, match="too long to count in 2 ms bins"):
            _histogram(np.array([1.4485449323423048e18]), 2e-3)

    def test_histogram_covers_all_values(self):
        series = classify_intervals(intervals(_grid_series([1, 2] * 30)), base=0.120)
        stats = interval_stats(series, bin_width_ms=2.0)
        hist = stats["single"]["histogram"]
        assert sum(hist["counts"]) == stats["single"]["count"]
        edges = hist["bin_edges_s"]
        assert edges[1] - edges[0] == pytest.approx(2e-3)

    def test_detection_rate_with_gaps(self):
        multiples = [1, 2, 1, 2, 5, 1, 2, 1, 5, 1]  # two gaps beyond 3.5x
        series = classify_intervals(intervals(_grid_series(multiples)), base=0.120)
        stats = interval_stats(series)
        assert stats["discarded"]["count"] == 2
        assert stats["detection_rate"] == pytest.approx(8 / 10)

    def test_long_run_histograms_pass_normality_sanity(self):
        rng = np.random.default_rng(21)
        taus = rng.normal(0.128, 0.008, 800)
        series = classify_intervals(intervals(series_from_times(
            np.concatenate(([0.0], np.cumsum(taus))))), base=0.128)
        singles = series.taus()[series.multiples() == BeatClass.SINGLE.multiple]
        assert len(singles) >= 400
        assert abs(sps.skew(singles)) < 0.3


class TestSections:
    def test_roundtrip(self, tmp_path):
        sections = SectionMap(
            sections=(
                Section(0.0, 30.0, "A1-verse"),
                Section(30.0, 45.0, "A2-prechorus"),
                Section(45.0, 80.0, "B-chorus"),
            )
        )
        path = tmp_path / "sections.csv"
        write_sections_csv(path, sections)
        again = read_sections_csv(path)
        assert again == sections

    def test_overlap_rejected(self):
        with pytest.raises(ParameterError):
            SectionMap(sections=(Section(0.0, 10.0), Section(5.0, 15.0)))
