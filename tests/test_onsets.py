import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groovekit import (
    AnnotationEdit,
    EditError,
    FormatError,
    ParameterError,
    apply_edits,
    detect_onsets,
    envelope,
    gen_shuffle_onsets,
    GrooveSpec,
    highpass,
    merge_close_onsets,
    OnsetSeries,
    read_edits_csv,
    read_onsets_csv,
    render_clicks,
    write_edits_csv,
    write_onsets_csv,
)

from conftest import make_envelope, series_from_times


def _bump(center, width, height, n, sr=1000.0):
    """Triangular bump peaking at `center` seconds."""
    t = np.arange(n) / sr
    return height * np.maximum(0.0, 1.0 - np.abs(t - center) / width)


class TestDetectOnsets:
    def test_single_peak(self):
        values = _bump(1.0, 0.01, 0.8, 2000)
        series = detect_onsets(make_envelope(values), threshold=0.1)
        assert len(series) == 1
        assert series[0].time_s == pytest.approx(1.0, abs=1e-3)
        assert series[0].amplitude == pytest.approx(0.8)
        assert series[0].source == "auto"
        assert series[0].label == "unknown"

    def test_subthreshold_peak_skipped(self):
        values = _bump(0.5, 0.01, 0.9, 2000) + _bump(1.5, 0.01, 0.05, 2000)
        series = detect_onsets(make_envelope(values), threshold=0.1)
        assert len(series) == 1
        assert series[0].amplitude == pytest.approx(0.9)

    def test_silent_envelope_empty(self):
        series = detect_onsets(make_envelope(np.zeros(100)))
        assert len(series) == 0

    def test_threshold_validation(self):
        env = make_envelope(_bump(0.5, 0.01, 0.9, 1000))
        with pytest.raises(ParameterError):
            detect_onsets(env, threshold=0.0)
        with pytest.raises(ParameterError):
            detect_onsets(env, threshold=1.5)

    def test_wide_peak_discarded_by_uncertainty(self):
        # a plateau-like bump wider than 10 ms above 90% height
        values = _bump(1.0, 0.5, 0.9, 2000)
        series = detect_onsets(make_envelope(values), threshold=0.1)
        assert len(series) == 0

    def test_refractory_suppresses_weaker_neighbor(self):
        values = _bump(1.0, 0.005, 0.9, 2000) + _bump(1.02, 0.005, 0.5, 2000)
        series = detect_onsets(make_envelope(values), threshold=0.1, refractory_ms=50.0)
        assert len(series) == 1
        assert series[0].time_s == pytest.approx(1.0, abs=1e-3)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_refractory_guarantee_and_determinism(self, seed):
        rng = np.random.default_rng(seed)
        values = np.abs(rng.normal(size=3000))
        values = np.convolve(values, np.ones(5) / 5, mode="same")
        values /= values.max()
        env = make_envelope(values)
        a = detect_onsets(env, threshold=0.2, refractory_ms=20.0)
        b = detect_onsets(env, threshold=0.2, refractory_ms=20.0)
        assert a == b
        times = a.times()
        if len(times) > 1:
            assert np.min(np.diff(times)) >= 20e-3 - 1e-12


class TestMergeCloseOnsets:
    def test_pair_2ms_apart_keeps_first(self):
        series = series_from_times([1.000, 1.002])
        merged = merge_close_onsets(series, window_ms=3.0)
        assert len(merged) == 1
        assert merged[0].time_s == pytest.approx(1.000)

    def test_pair_10ms_apart_retained(self):
        series = series_from_times([1.000, 1.010])
        merged = merge_close_onsets(series, window_ms=3.0)
        assert len(merged) == 2

    def test_run_collapses_to_first_with_max_amplitude(self):
        series = series_from_times([1.000, 1.002, 1.004], amplitudes=[0.3, 0.5, 0.2])
        merged = merge_close_onsets(series, window_ms=3.0)
        assert len(merged) == 1
        assert merged[0].time_s == pytest.approx(1.000)
        assert merged[0].amplitude == pytest.approx(0.5)

    def test_merge_acts_after_detection_at_equal_windows(self):
        # the refractory distance rounds to 132 samples (2.993 ms) at 44.1 kHz,
        # so detection keeps peaks a 3.001 ms merge window then collapses
        values = np.zeros(1000)
        values[100:600:132] = 1.0
        series = detect_onsets(make_envelope(values, sample_rate=44100.0), refractory_ms=3.001)
        assert len(series) == 4
        merged = merge_close_onsets(series, window_ms=3.001)
        assert len(merged) == 1
        assert merged[0].time_s == series[0].time_s

    @settings(max_examples=50, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=40,
            unique=True,
        ),
        window_ms=st.floats(min_value=0.5, max_value=20.0),
    )
    def test_idempotent(self, times, window_ms):
        series = series_from_times(sorted(times))
        once = merge_close_onsets(series, window_ms=window_ms)
        twice = merge_close_onsets(once, window_ms=window_ms)
        assert once == twice


class TestApplyEdits:
    def test_remove_resolves_within_5ms(self):
        series = series_from_times([1.0, 2.001, 3.0])
        out = apply_edits(series, [AnnotationEdit(kind="remove", target_time_s=2.000)])
        assert list(out.times()) == pytest.approx([1.0, 3.0])

    def test_add_into_empty(self):
        empty = OnsetSeries((), (), (), ())
        out = apply_edits(empty, [AnnotationEdit(kind="add", target_time_s=3.5)])
        assert len(out) == 1
        assert out[0].source == "manual-add"
        assert out[0].amplitude == 0.0
        assert out[0].label == "unknown"

    def test_add_reads_amplitude_from_envelope(self):
        values = _bump(0.5, 0.01, 0.8, 1000)
        env = make_envelope(values)
        out = apply_edits(
            OnsetSeries((), (), (), ()),
            [AnnotationEdit(kind="add", target_time_s=0.5, label="snare")],
            env=env,
        )
        assert out[0].amplitude == pytest.approx(0.8)
        assert out[0].label == "snare"

    def test_move_semantics(self):
        series = series_from_times([1.0, 2.0])
        out = apply_edits(
            series, [AnnotationEdit(kind="move", target_time_s=2.0, new_time_s=2.004)]
        )
        times = list(out.times())
        assert 2.004 in times and 2.0 not in times
        assert out[1].source == "manual-move"

    def test_relabel(self):
        series = series_from_times([1.0])
        out = apply_edits(
            series, [AnnotationEdit(kind="relabel", target_time_s=1.0, label="ghost")]
        )
        assert out[0].label == "ghost"

    def test_unresolvable_target_names_index(self):
        series = series_from_times([1.0])
        with pytest.raises(EditError, match="edit 1"):
            apply_edits(
                series,
                [
                    AnnotationEdit(kind="relabel", target_time_s=1.0, label="hihat"),
                    AnnotationEdit(kind="remove", target_time_s=5.0),
                ],
            )

    def test_edits_applied_in_order(self):
        series = series_from_times([1.0])
        out = apply_edits(
            series,
            [
                AnnotationEdit(kind="move", target_time_s=1.0, new_time_s=1.004),
                AnnotationEdit(kind="remove", target_time_s=1.004),
            ],
        )
        assert len(out) == 0


class TestCsvRoundTrip:
    def test_onsets_roundtrip_lossless(self, tmp_path):
        series = series_from_times(
            [0.123456, 1.5, 2.25],
            amplitudes=[0.1, 0.9, 0.5],
            labels=["hihat", "snare", "ghost"],
        )
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_onsets_csv(p1, series)
        again = read_onsets_csv(p1)
        write_onsets_csv(p2, again)
        assert p1.read_bytes() == p2.read_bytes()
        assert [o.label for o in again] == ["hihat", "snare", "ghost"]

    def test_detected_onsets_roundtrip(self, tmp_path):
        # a render with noise: every detected peak has a nonzero width, and
        # what detection keeps of it is what the annotation file holds
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=16, jitter_sigma_ms=2.0)
        clip = render_clicks(gen_shuffle_onsets(spec, seed=7)[0], noise_db=-40.0, seed=3)
        detected = detect_onsets(envelope(highpass(clip, 1000.0)))
        assert len(detected) > 100
        path = tmp_path / "detected.csv"
        write_onsets_csv(path, detected)
        times, amplitudes = (
            np.array([float(f"{x:.6f}") for x in c.tolist()]) for c in detected._cols[:2]
        )
        rounded = OnsetSeries(times, amplitudes, *detected._cols[2:])
        assert read_onsets_csv(path) == rounded

    def test_edits_roundtrip(self, tmp_path):
        edits = [
            AnnotationEdit(kind="add", target_time_s=1.0, label="snare"),
            AnnotationEdit(kind="move", target_time_s=2.0, new_time_s=2.004),
            AnnotationEdit(kind="remove", target_time_s=3.0),
        ]
        path = tmp_path / "edits.csv"
        write_edits_csv(path, edits)
        assert read_edits_csv(path) == edits

    @pytest.mark.parametrize("body, where", [
        ("kind,target,new_time_s,label\r\nadd,1.0,,\r\n", "bad edit header in"),
        ("kind,target_time_s,new_time_s,label\r\nadd,1.0,," + "x" * 200_000 + "\r\n",
         "edits.csv:2: bad edit row: field larger"),  # csv.Error from the reader
        ("kind,target_time_s,new_time_s,label\r\nadd,1.0,,\r\nadd,soon,,\r\n",
         "edits.csv:3: bad edit row: could not convert"),
    ], ids=["header", "csv-error", "value"])
    def test_edits_errors_name_one_kind(self, tmp_path, body, where):
        path = tmp_path / "edits.csv"
        path.write_text(body, newline="")
        with pytest.raises(FormatError, match=where) as exc:
            read_edits_csv(path)
        assert "bad edits" not in str(exc.value)


class TestSyntheticPipeline:
    @pytest.mark.parametrize("jitter_ms", [0.0, 2.0, 5.0])
    def test_shuffle_render_recall_and_timing(self, jitter_ms):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=8, jitter_sigma_ms=jitter_ms)
        series, _ = gen_shuffle_onsets(spec, seed=11)
        clip = render_clicks(series, sample_rate=44100.0, noise_db=-40.0, seed=3)
        env = envelope(highpass(clip, 1000.0), smoothing_ms=2.0)
        detected = detect_onsets(env, threshold=0.1, refractory_ms=50.0)
        detected = merge_close_onsets(detected)
        true_times = series.times()
        got = detected.times()
        matched = 0
        errors = []
        for t in true_times:
            dist = np.min(np.abs(got - t))
            if dist <= 2e-3:
                matched += 1
                errors.append(dist)
        recall = matched / len(true_times)
        assert recall >= 0.99
        assert np.max(errors) <= 2e-3
