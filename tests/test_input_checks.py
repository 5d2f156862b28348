"""Input checks at the edges: non-finite values, DFA scale ranges, float flags
and short audio."""

import json
import math
import re

import numpy as np
import pytest
from scipy.io import wavfile

from groovekit import (
    AnalysisParams,
    AnnotationEdit,
    AudioClip,
    EnvelopeSignal,
    FormatError,
    GrooveSpec,
    IntervalSeries,
    OnsetSeries,
    ParameterError,
    PhraseTemplate,
    Section,
    Tempogram,
    TempogramParams,
    argmax_track,
    bar_time_s,
    classify_intervals,
    compute_drift,
    detect_onsets,
    dfa_analyze,
    dfa_fluctuation,
    envelope,
    estimate_base_unit,
    gen_crossover_series,
    gen_powerlaw_noise,
    gen_shuffle_onsets,
    highpass,
    interval_stats,
    intervals,
    local_alpha,
    merge_close_onsets,
    novelty_curve,
    read_edits_csv,
    read_onsets_csv,
    render_clicks,
    run_analysis,
    tempogram_summary,
)
from groovekit import onsets as onsets_mod
from groovekit.cli import main
from groovekit.intervals import read_sections_csv

from conftest import make_envelope, series_from_times

HEADER = "index,time_s,amplitude,label,source\n"


def _annotation(tmp_path, bad_row_at, time_s="nan", amplitude="0.5"):
    """Twelve valid rows, with row ``bad_row_at`` (0-based) replaced."""
    rows = []
    for i in range(12):
        t, a = (time_s, amplitude) if i == bad_row_at else (f"{0.12 * i:.6f}", "0.5")
        rows.append(f"{i},{t},{a},hihat,auto\n")
    path = tmp_path / "onsets.csv"
    path.write_text(HEADER + "".join(rows))
    return path


class TestNonFiniteRejected:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_analyze_exit_2_names_line(self, tmp_path, capsys, value):
        path = _annotation(tmp_path, bad_row_at=5, time_s=value)
        code = main(["analyze", str(path), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert f"{path}:7: bad annotation row" in err  # header is line 1
        assert "finite" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_amplitude(self, tmp_path, value):
        path = _annotation(tmp_path, bad_row_at=2, time_s="0.240000", amplitude=value)
        with pytest.raises(FormatError, match=":4: bad annotation row: onset amplitude"):
            read_onsets_csv(path)

    def test_out_of_order_row_named(self, tmp_path):
        path = _annotation(tmp_path, bad_row_at=3, time_s="0.100000")
        with pytest.raises(FormatError, match=":5: bad annotation row: .*strictly increasing"):
            read_onsets_csv(path)

    def test_unknown_label_named(self, tmp_path):
        path = tmp_path / "onsets.csv"
        path.write_text(HEADER + "0,0.100000,0.5,hihat,auto\n1,0.200000,0.5,cowbell,auto\n")
        with pytest.raises(FormatError, match=":3: bad annotation row: unknown onset label 'cow"):
            read_onsets_csv(path)

    def test_line_named_after_multiline_quoted_field(self, tmp_path):
        # the quoted index spans lines 2 and 3, so the bad label is on line 4
        path = tmp_path / "ml.csv"
        path.write_text(HEADER + '"0\n",0.100000,0.5,hihat,auto\n1,0.200000,0.5,cowbell,auto\n')
        with pytest.raises(FormatError, match=r"ml\.csv:4: bad annotation row: unknown onset"):
            read_onsets_csv(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_interval_columns_reject_non_finite_tau(self, value):
        with pytest.raises(ParameterError, match="interval durations must be positive and finite"):
            IntervalSeries([0.1, value], [1, 1])

    @pytest.mark.parametrize("tau", [0.0, -0.0, -0.1])
    def test_interval_columns_reject_non_positive_tau(self, tau):
        with pytest.raises(ParameterError, match="interval durations must be positive and finite"):
            IntervalSeries([tau, 0.1], [1, 1])

    @pytest.mark.parametrize("multiple", [-1, 4])
    def test_interval_columns_reject_multiples_outside_0_to_3(self, multiple):
        with pytest.raises(ParameterError, match=r"class multiples must lie in 0\.\.3"):
            IntervalSeries([0.1, 0.2], [1, multiple])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_columns_reject_non_finite(self, value):
        times = np.array([0.1, 0.2, value, 0.4])
        with pytest.raises(ParameterError, match="onset 2: onset time must be finite"):
            OnsetSeries.from_columns(times, np.full(4, 0.5))
        with pytest.raises(ParameterError, match="onset 1: onset amplitude"):
            OnsetSeries.from_columns([0.1, 0.2], [0.5, value])

    def test_columns_reject_bad_names_and_lengths(self):
        with pytest.raises(ParameterError, match="unknown onset label"):
            OnsetSeries.from_columns([0.1, 0.2], [0.5, 0.5], labels=["hihat", "cowbell"])
        with pytest.raises(ParameterError, match="equal length"):
            OnsetSeries.from_columns([0.1, 0.2], [0.5])

    @pytest.mark.parametrize(
        "labels, sources", [([0, 4], [0, 0]), ([0, -1], [0, 0]), ([0, 0], [3, 0])]
    )
    def test_column_constructor_rejects_codes_out_of_range(self, labels, sources):
        with pytest.raises(ParameterError, match="codes must index LABELS and SOURCES"):
            OnsetSeries([0.1, 0.2], [0.5, 0.5], labels, sources)

    def test_column_constructor_takes_one_array_per_column(self):
        with pytest.raises(ValueError):
            OnsetSeries([0.1, 0.2], [0.5, 0.5], [0, 0])
        with pytest.raises(ValueError):
            OnsetSeries([0.1, 0.2], [0.5, 0.5], [0, 0], [0, 0], [0.0, 0.0])
        with pytest.raises(ValueError):
            IntervalSeries([0.1], [1], [0])


class TestDfaRangeFlags:
    @pytest.mark.parametrize("flag", ["--dfa-short", "--dfa-long"])
    @pytest.mark.parametrize("value", ["16:4", "8:8", "0:16", "4", "a:b"])
    def test_reversed_or_empty_range_is_usage_error(self, tmp_path, capsys, flag, value):
        path = _annotation(tmp_path, bad_row_at=-1)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(path), "--out-dir", str(tmp_path / "out"), flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "LO" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, short, long", [
        ([], (4, 16), (16, 100)),
        (["--dfa-short", "5:20", "--dfa-long", "10:20"], (5, 20), (10, 20)),
    ])
    def test_constant_series_reports_clipped_ranges(self, tmp_path, flags, short, long):
        # 100 isochronous onsets at one amplitude: every DFA series is constant
        path = tmp_path / "constant.csv"
        rows = "".join(f"{i},{0.125 * i:.6f},0.5,hihat,auto\n" for i in range(100))
        path.write_text(HEADER + rows)
        out = tmp_path / "out"
        assert main(["analyze", str(path), "--out-dir", str(out), *flags]) == 0
        report = json.loads((out / "report.json").read_text())
        for name in ("intervals_all", "intervals_singles", "amplitudes"):
            scales = np.loadtxt(out / f"dfa_{name}.csv", delimiter=",", skiprows=1, usecols=0)
            s_max = int(scales[-1])
            assert s_max < 30
            assert report["dfa"][name]["s_ranges"] == {
                "alpha1": [short[0], min(short[1], s_max)],
                "alpha2": [long[0], min(long[1], s_max)],
            }
            assert report["dfa"][name]["alpha1"] is None and report["dfa"][name]["alpha2"] is None


class TestNonFiniteSectionAndEditTimes:
    @pytest.mark.parametrize("row", ["nan,1.0,other", "0.0,inf,other", "-inf,1.0,B-chorus"])
    def test_analyze_sections_exit_2_names_line(self, tmp_path, capsys, row):
        sections = tmp_path / "sections.csv"
        sections.write_text("start_s,end_s,tag\n" + row + "\n")
        path = _annotation(tmp_path, bad_row_at=-1)
        code = main(["analyze", str(path), "--out-dir", str(tmp_path / "out"),
                     "--sections", str(sections)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert f"{sections}:2: bad section row" in err and "finite" in err

    @pytest.mark.parametrize("row", ["add,nan,,hihat", "move,0.5,inf,", "remove,-inf,,"])
    def test_onsets_edits_exit_2_names_line(self, tmp_path, capsys, row):
        edits = tmp_path / "edits.csv"
        edits.write_text("kind,target_time_s,new_time_s,label\nadd,0.25,,hihat\n" + row + "\n")
        wav = tmp_path / "clip.wav"
        wavfile.write(wav, 44100, np.zeros(4410, dtype=np.float32))
        code = main(["onsets", str(wav), "-o", str(tmp_path / "o.csv"), "--edits", str(edits)])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert f"{edits}:3: bad edit row" in err and "finite" in err

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rows_reject_non_finite(self, value):
        with pytest.raises(ParameterError, match="finite"):
            Section(value, 1.0, "other")
        with pytest.raises(ParameterError, match="finite"):
            Section(0.0, value, "other")
        with pytest.raises(ParameterError, match="finite"):
            AnnotationEdit("add", value)
        with pytest.raises(ParameterError, match="finite"):
            AnnotationEdit("move", 0.5, new_time_s=value)


class TestCsvHeaders:
    @pytest.mark.parametrize("body", [
        "0,0.100000,0.500000,hihat,auto\n1,0.250000,0.750000,ghost,manual-add\n",
        '"0",0.100000,0.500000,hihat,auto\n1,0.250000,0.750000,"ghost",manual-add\n',
    ], ids=["plain", "quoted"])
    def test_annotation_with_bom(self, tmp_path, monkeypatch, body):
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(HEADER + body, encoding="utf-8")
        bom.write_text(HEADER + body, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        want = read_onsets_csv(plain)
        if body[0] != '"':  # a plain file keeps numpy's reader
            monkeypatch.setattr(onsets_mod, "_read_onsets_rows", lambda p: pytest.fail("row reader"))
        assert read_onsets_csv(bom) == want
        assert want.labels() == ["hihat", "ghost"]

    def test_sections_with_bom(self, tmp_path):
        path = tmp_path / "sections.csv"
        path.write_text("start_s,end_s,tag\n0.0,1.5,B-chorus\n", encoding="utf-8-sig")
        assert read_sections_csv(path).sections == (Section(0.0, 1.5, "B-chorus"),)

    def test_edits_with_bom(self, tmp_path):
        path = tmp_path / "edits.csv"
        path.write_text("kind,target_time_s,new_time_s,label\nadd,0.25,,hihat\n",
                        encoding="utf-8-sig")
        assert read_edits_csv(path) == [AnnotationEdit("add", 0.25, None, "hihat")]

    def test_bad_header_names_the_file_as_text(self, tmp_path, capsys):
        path = tmp_path / "h.csv"
        path.write_text("idx,time_s,amplitude,label,source\n0,0.1,0.5,hihat,auto\n")
        assert main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"groovekit: bad annotation header in {path}: "
            "['idx', 'time_s', 'amplitude', 'label', 'source']\n"
        )

    @pytest.mark.parametrize("which, text", [
        ("annotation", ""), ("annotation", "\ufeff"), ("section", ""),
    ], ids=["annotation", "annotation-bom-only", "section"])
    def test_empty_file_is_named_as_empty(self, tmp_path, capsys, which, text):
        """Not as a bad header ``None``; a byte order mark alone is empty too."""
        path = tmp_path / "h.csv"
        path.write_text(text, encoding="utf-8")
        out = ["--out-dir", str(tmp_path / "out")]
        if which == "annotation":
            argv = ["analyze", str(path), *out]
        else:
            groove = tmp_path / "groove.csv"
            assert main(["synth", "-o", str(groove), "--bars", "4"]) == 0
            argv = ["analyze", str(groove), "--sections", str(path), *out]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"groovekit: {path}: empty {which} file\n"
        assert not (tmp_path / "out").exists()

    def test_empty_edits_file_is_named_as_empty(self, tmp_path):
        path = tmp_path / "edits.csv"
        path.write_bytes(b"")
        with pytest.raises(FormatError) as exc:
            read_edits_csv(path)
        assert str(exc.value) == f"{path}: empty edit file"

    @pytest.mark.parametrize("blank", ["\n", "\r\n\n", "\ufeff\n\n"], ids=["lf", "crlf-lf", "bom"])
    def test_annotation_after_blank_lines(self, tmp_path, blank):
        groove, padded = tmp_path / "groove.csv", tmp_path / "padded.csv"
        assert main(["synth", "-o", str(groove), "--bars", "4"]) == 0
        padded.write_text(blank + groove.read_text(), encoding="utf-8")
        reports = []
        for path in (groove, padded):
            out = tmp_path / f"out_{path.stem}"
            assert main(["analyze", str(path), "--out-dir", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            assert report.pop("input") == str(path)
            reports.append(report)
        assert reports[0] == reports[1]

    def test_sections_after_blank_lines(self, tmp_path):
        path = tmp_path / "sections.csv"
        path.write_text("\n\r\nstart_s,end_s,tag\n0.0,1.5,B-chorus\n")
        assert read_sections_csv(path).sections == (Section(0.0, 1.5, "B-chorus"),)

    def test_edits_after_blank_lines(self, tmp_path):
        path = tmp_path / "edits.csv"
        path.write_text("\n\nkind,target_time_s,new_time_s,label\nadd,0.25,,hihat\n")
        assert read_edits_csv(path) == [AnnotationEdit("add", 0.25, None, "hihat")]

    def test_blank_lines_only_are_named_as_empty(self, tmp_path, capsys):
        path = tmp_path / "blank.csv"
        path.write_text("\n\n")
        assert main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"groovekit: {path}: empty annotation file\n"
        assert not (tmp_path / "out").exists()


class TestShortAudio:
    @pytest.mark.parametrize("n_samples", [0, 10, 15])
    @pytest.mark.parametrize("command", ["analyze", "onsets"])
    def test_too_short_for_highpass_exit_2(self, tmp_path, capsys, command, n_samples):
        wav = tmp_path / "short.wav"
        wavfile.write(wav, 44100, np.zeros(n_samples, dtype=np.float32))
        out = ["--out-dir", str(tmp_path / "out")] if command == "analyze" else ["-o", str(tmp_path / "o.csv")]
        code = main([command, str(wav), *out])
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert f"clip of {n_samples} samples" in err and "at least 16" in err

    # 6.3e-5 Hz and below at 44.1 kHz used to exit 1 with a LinAlgError
    # traceback from the filter's initial state (4e-5 after a RuntimeWarning)
    @pytest.mark.parametrize("cutoff", ["6.3e-5", "4e-5", "1e-300"])
    @pytest.mark.parametrize("command", ["analyze", "onsets"])
    def test_cutoff_too_low_exit_2(self, tmp_path, capsys, command, cutoff):
        wav = tmp_path / "clip.wav"
        wavfile.write(wav, 44100, np.zeros(4410, dtype=np.float32))
        written = tmp_path / ("out" if command == "analyze" else "o.csv")
        out = ["--out-dir" if command == "analyze" else "-o", str(written)]
        code = main([command, str(wav), *out, "--cutoff-hz", cutoff])
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == [
            f"groovekit: cutoff_hz {float(cutoff):g} is too low for sample rate 44100: "
            "the high-pass filter's initial state is singular"
        ]
        assert not written.exists()

    def test_lowest_working_cutoffs_still_run(self):
        clip = AudioClip(samples=np.zeros(4410), sample_rate=44100.0)
        for cutoff in (8e-5, 1e-4):
            assert len(highpass(clip, cutoff_hz=cutoff).samples) == 4410

    def test_shortest_accepted_clip(self):
        clip = AudioClip(samples=np.zeros(16), sample_rate=44100.0)
        assert len(highpass(clip).samples) == 16
        with pytest.raises(ParameterError, match="clip of 15 samples"):
            highpass(AudioClip(samples=np.zeros(15), sample_rate=44100.0))


DETECTION_FLAGS = ["--cutoff-hz", "--threshold", "--refractory-ms", "--merge-ms", "--smoothing-ms"]
ANALYSIS_FLAGS = ["--bpm-hint", "--max-multiple"]
# --click-ms nan used to raise a ValueError traceback, --jitter-ms nan gave an
# unjittered groove and --beta nan a series of NaN samples
SYNTH_FLAGS = ["--bpm", "--swing", "--jitter-ms", "--lrc-beta", "--lrc-sigma-ms", "--ghost-prob",
               "--amplitude-jitter", "--ramp-bpm", "--sample-rate", "--click-ms", "--noise-db",
               "--beta"]
NON_FINITE = ["nan", "inf", "-inf"]


class TestNonFiniteFlags:
    """Non-finite float flags are usage errors (exit 2) naming the flag."""

    def _assert_usage_error(self, capsys, argv, flag, written):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a finite number" in err
        assert "Traceback" not in err
        assert not written.exists()

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("flag", DETECTION_FLAGS + ANALYSIS_FLAGS)
    @pytest.mark.parametrize("suffix", [".csv", ".wav"])
    def test_analyze(self, tmp_path, capsys, suffix, flag, value):
        if suffix == ".csv":
            path = _annotation(tmp_path, bad_row_at=-1)
        else:
            path = tmp_path / "clip.wav"
            wavfile.write(path, 44100, np.zeros(4410, dtype=np.float32))
        out = tmp_path / "out"
        argv = ["analyze", str(path), "--out-dir", str(out), f"{flag}={value}"]
        self._assert_usage_error(capsys, argv, flag, out)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("flag", DETECTION_FLAGS)
    def test_onsets(self, tmp_path, capsys, flag, value):
        wav = tmp_path / "clip.wav"
        wavfile.write(wav, 44100, np.zeros(4410, dtype=np.float32))
        out = tmp_path / "o.csv"
        argv = ["onsets", str(wav), "-o", str(out), f"{flag}={value}"]
        self._assert_usage_error(capsys, argv, flag, out)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("flag", SYNTH_FLAGS)
    def test_synth(self, tmp_path, capsys, flag, value):
        out = tmp_path / "g.csv"
        argv = ["synth", "-o", str(out), "--render", str(tmp_path / "g.wav"), f"{flag}={value}"]
        self._assert_usage_error(capsys, argv, flag, out)

    def test_non_number_keeps_argparse_wording(self, tmp_path, capsys):
        path = _annotation(tmp_path, bad_row_at=-1)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(path), "--bpm-hint", "fast"])
        assert exc.value.code == 2
        assert "argument --bpm-hint: invalid float value: 'fast'" in capsys.readouterr().err


class TestNonFiniteDetectionParameters:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_detect_onsets_refractory(self, value):
        env = make_envelope([0.0, 1.0, 0.0, 0.5, 0.0])
        with pytest.raises(ParameterError, match="refractory_ms"):
            detect_onsets(env, refractory_ms=value)

    def test_refractory_overflowing_in_samples(self, unbind):
        # 1e307 ms at 44.1 kHz is more samples than a float holds; it used to
        # raise an OverflowError traceback from int()
        env = make_envelope([0.0, 1.0, 0.0, 0.5, 0.0], sample_rate=44100.0)
        with pytest.raises(ParameterError, match="refractory_ms 1e\\+307 overflows at sample rate 44100"):
            detect_onsets(env, refractory_ms=1e307)
        # 1e300 ms fits a float but not the C integer scipy rounds it to, bound
        # and through public find_peaks alike
        assert len(detect_onsets(env, refractory_ms=1e300)) == 1
        unbind()
        assert len(detect_onsets(env, refractory_ms=1e300)) == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_merge_close_onsets_window(self, value):
        with pytest.raises(ParameterError, match="window_ms"):
            merge_close_onsets(series_from_times([0.1, 0.2, 0.3]), window_ms=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_envelope_smoothing(self, value):
        clip = AudioClip(samples=np.ones(64), sample_rate=44100.0)
        with pytest.raises(ParameterError, match="smoothing_ms"):
            envelope(clip, smoothing_ms=value)


class TestNonFiniteLibraryInputs:
    """Library entry points name the bad value instead of failing deep inside
    (or, for DFA, returning an all-NaN F)."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_dfa_rejects_non_finite_series(self, value):
        x = np.random.default_rng(0).normal(size=256)
        x[100] = value
        with pytest.raises(ParameterError, match="non-finite"):
            dfa_fluctuation(x)
        with pytest.raises(ParameterError, match="non-finite"):
            dfa_analyze(x)

    @pytest.mark.parametrize("half_window", [0, -1])
    def test_dfa_half_window_at_least_one(self, half_window):
        # 0 gave NaN slopes after a RuntimeWarning, -1 numpy's window_shape error
        noise = np.random.default_rng(0).normal(size=256)
        with pytest.raises(ParameterError, match="half_window must be at least 1"):
            local_alpha(dfa_fluctuation(noise), half_window=half_window)
        for x in (noise, np.ones(256)):
            with pytest.raises(ParameterError, match="half_window must be at least 1"):
                dfa_analyze(x, half_window=half_window)

    @pytest.mark.parametrize("width", [math.nan, math.inf, 0.0, -2.0])
    def test_histogram_bin_width_must_be_positive_and_finite(self, width):
        # 0, -2 and nan used to raise EstimationError about bins, inf a RuntimeWarning
        series = classify_intervals(intervals(series_from_times([0.0, 0.12, 0.36])), 0.12)
        with pytest.raises(ParameterError, match="bin_width_ms must be positive and finite"):
            interval_stats(series, bin_width_ms=width)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -84.0])
    @pytest.mark.parametrize("name", ["bpm_hint", "max_multiple", "histogram_bin_ms"])
    def test_analysis_params_name_the_field(self, name, value):
        onsets, _ = gen_shuffle_onsets(GrooveSpec(bars=4))
        with pytest.raises(ParameterError, match=f"{name} must be positive and finite"):
            run_analysis(onsets, params=AnalysisParams(**{name: value}))

    @pytest.mark.parametrize("base", [math.nan, math.inf, -math.inf, 0.0, -0.12])
    def test_base_unit_must_be_positive_and_finite(self, base):
        # nan used to make every interval a triple and every drift NaN; inf
        # made every interval a single
        series = intervals(series_from_times([0.0, 0.12, 0.36]))
        with pytest.raises(ParameterError, match="base unit must be positive and finite"):
            classify_intervals(series, base)
        with pytest.raises(ParameterError, match="base unit must be positive and finite"):
            compute_drift(classify_intervals(series, 0.12), base)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_max_multiple_must_be_positive_and_finite(self, value):
        # nan used to discard nothing: [0.1]*5 + [0.5] at base 0.1 gave a triple
        series = intervals(series_from_times(np.cumsum([0.0] + [0.1] * 5 + [0.5])))
        with pytest.raises(ParameterError, match="max_multiple must be positive and finite"):
            classify_intervals(series, 0.1, max_multiple=value)
        with pytest.raises(ParameterError, match="max_multiple must be positive and finite"):
            estimate_base_unit(series, max_multiple=value)

    @pytest.mark.parametrize("hint", [1e308, 3e307, 5e-308, 1e-320, math.nan])
    def test_bpm_hint_without_a_finite_starting_base(self, hint):
        series = intervals(series_from_times([0.0, 0.12, 0.36]))
        # a NaN hint is refused by the positive rule before any base is computed
        message = ("hint_bpm must be positive and finite, got nan" if math.isnan(hint)
                   else f"hint_bpm={hint!r} gives a starting base")
        with pytest.raises(ParameterError, match=re.escape(message)):
            estimate_base_unit(series, hint_bpm=hint)

    def test_smallest_bpm_hint_with_a_finite_starting_base(self):
        series = intervals(series_from_times([0.0, 0.12, 0.36]))
        # a start far above every interval makes both singles: the mean of 0.12 and 0.24
        assert estimate_base_unit(series, hint_bpm=5.7e-308) == pytest.approx(0.18)

    def test_analysis_params_accept_no_bpm_hint(self):
        onsets, _ = gen_shuffle_onsets(GrooveSpec(bars=4))
        assert run_analysis(onsets, params=AnalysisParams(bpm_hint=None)).params.bpm_hint is None

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    @pytest.mark.parametrize("name", ["bpm", "swing_ratio"])
    def test_groove_spec_positive_fields(self, name, value):
        with pytest.raises(ParameterError, match=f"{name} must be positive and finite"):
            GrooveSpec(**{name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("name", ["jitter_sigma_ms", "lrc_sigma_ms", "amplitude_jitter"])
    def test_groove_spec_noise_scales(self, name, value):
        with pytest.raises(ParameterError, match=f"{name} must be non-negative and finite"):
            GrooveSpec(**{name: value})

    @pytest.mark.parametrize(
        "profile, match",
        [
            (((0.0, math.nan), (4.0, 90.0)), "tempi"),
            (((0.0, 84.0), (4.0, math.inf)), "tempi"),
            (((math.nan, 84.0), (4.0, 90.0)), "bar positions"),
            (((0.0, 84.0), (math.inf, 90.0)), "bar positions"),
        ],
    )
    def test_groove_spec_drift_profile(self, profile, match):
        with pytest.raises(ParameterError, match=match):
            GrooveSpec(drift_profile=profile)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"click_ms": math.nan}, "click_ms"),
            ({"click_ms": math.inf}, "click_ms"),
            ({"sample_rate": math.nan}, "sample_rate"),
            ({"sample_rate": math.inf}, "sample_rate"),
            ({"sample_rate": 1e12}, "sample_rate"),
            ({"noise_db": math.nan}, "noise_db"),
            ({"noise_db": 1e6}, "noise_db"),
            ({"noise_db": 6200.0}, "noise_db"),
            ({"click_ms": 1e9}, "samples exceeds"),
        ],
    )
    def test_render_clicks(self, kwargs, match):
        onsets, _ = gen_shuffle_onsets(GrooveSpec(bars=1))
        with pytest.raises(ParameterError, match=match):
            render_clicks(onsets, **kwargs)


class TestAudioContainers:
    """Sample rates and samples are checked where the data comes in."""

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -44100.0])
    def test_sample_rate_positive_and_finite(self, rate):
        with pytest.raises(ParameterError, match="sample_rate must be positive and finite"):
            AudioClip(samples=np.zeros(64), sample_rate=rate)
        with pytest.raises(ParameterError, match="sample_rate must be positive and finite"):
            EnvelopeSignal(values=np.zeros(64), sample_rate=rate, source_max=0.0, silent=True)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 31, 63])
    def test_clip_samples_finite(self, value, at):
        samples = np.zeros(64)
        samples[at] = value
        with pytest.raises(ParameterError, match="samples must be finite"):
            AudioClip(samples=samples, sample_rate=44100.0)

    def test_empty_containers_accepted(self):
        assert len(AudioClip(samples=np.zeros(0), sample_rate=8000.0).samples) == 0
        env = EnvelopeSignal(values=np.zeros(0), sample_rate=8000.0, source_max=0.0, silent=True)
        assert len(env.values) == 0

    def test_envelope_negative_rejected_beside_nan(self):
        with pytest.raises(ParameterError, match="non-negative"):
            EnvelopeSignal(values=np.array([math.nan, -0.5, 1.0]), sample_rate=100.0,
                           source_max=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_detect_onsets_rejects_non_finite_envelope(self, value):
        """A non-finite envelope is rejected where it is built, so detection
        never sees one."""
        values = np.array([0.0, 0.2, 1.0, 0.2, 0.0, 0.3, value, 0.3, 0.0])
        with pytest.raises(ParameterError, match="envelope values must be finite"):
            EnvelopeSignal(values=values, sample_rate=1000.0, source_max=1.0)


class TestSynthContract:
    """synth keeps exit 2 and one message line for a bad seed or a request
    too large to allocate."""

    @pytest.mark.parametrize("seed", ["-1", "-20261"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, seed):
        out = tmp_path / "s.csv"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "-o", str(out), "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error" in line] == [
            f"groovekit synth: error: argument --seed: expected a non-negative integer, got '{seed}'"
        ]
        assert "Traceback" not in err
        assert not out.exists()

    # both used to exit 0 (writing 64 NaN rows) or blame "onset 0" after
    # two RuntimeWarnings
    @pytest.mark.parametrize("argv, beta, n", [
        (["--series-only", "--beta", "700", "-n", "64"], "700", 64),
        (["--bars", "2", "--lrc-sigma-ms", "1", "--lrc-beta", "1e308"], "1e+308", 16),
    ])
    def test_steep_power_law_exit_2(self, tmp_path, capsys, argv, beta, n):
        out = tmp_path / "s.csv"
        assert main(["synth", "-o", str(out), *argv]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"groovekit: power-law exponent {beta} is too steep for a series of length {n}: "
            "the synthesized values overflow"
        ]
        assert not out.exists()

    # both used to exit 0: -1100 with values of ~1e-163 and a standard
    # deviation of 0, -1e308 with a column of zeros
    @pytest.mark.parametrize("argv, beta, n", [
        (["--series-only", "--beta", "-1100", "-n", "64"], "-1100", 64),
        (["--bars", "2", "--lrc-sigma-ms", "1", "--lrc-beta=-1e308"], "-1e+308", 16),
    ])
    def test_steep_negative_power_law_exit_2(self, tmp_path, capsys, argv, beta, n):
        out = tmp_path / "s.csv"
        assert main(["synth", "-o", str(out), *argv]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"groovekit: power-law exponent {beta} is too steep for a series of length {n}: "
            "the synthesized values underflow"
        ]
        assert not out.exists()

    # Each request is larger than any 64-bit user address space (57-bit
    # paging included), so no machine can start to allocate it.
    @pytest.mark.parametrize("argv", [
        ["--bars", str(10**16)],
        ["--series-only", "-n", str(10**17)],
    ])
    def test_out_of_memory_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "s.csv"
        assert main(["synth", "-o", str(out), *argv]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("groovekit: out of memory: ")
        assert "Traceback" not in err
        assert not out.exists()


class TestHugeIntervals:
    """Intervals too long to bin exit 2 with one line instead of a
    ValueError traceback from the histogram."""

    def _assert_exit_2(self, tmp_path, capsys, times, message, flags=()):
        path = tmp_path / "far.csv"
        path.write_text(HEADER + "".join(f"{i},{t!r},0.5,hihat,auto\n" for i, t in enumerate(times)))
        out = tmp_path / "out"
        assert main(["analyze", str(path), "--out-dir", str(out), *flags]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("groovekit: intervals ")
        assert message in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("n, spacing, message", [
        (12, 1e306, "are too long to count in 4 ms bins"),
    ])
    def test_analyze_exit_2(self, tmp_path, capsys, n, spacing, message):
        self._assert_exit_2(tmp_path, capsys, [i * spacing for i in range(n)], message)

    def test_singles_spread_past_an_array_exit_2(self, tmp_path, capsys):
        """Seven singles of 2**52 s and one of 8 s (base 0.875 * 2**52 s):
        2.25e18 histogram bins, more than an array of edges can hold."""
        times = [k * 2.0**52 for k in range(8)] + [7 * 2.0**52 + 8]
        self._assert_exit_2(tmp_path, capsys, times, "need more 2 ms histogram bins than an array can hold")

    @pytest.mark.parametrize("flags, message", [
        ((), "are too long to count in 4 ms bins"),
        (("--bpm-hint", "2e-13"), "are too long to count in 2 ms bins"),
    ], ids=["seed", "histogram"])
    def test_shortest_interval_past_2_52_bins_exit_2(self, tmp_path, capsys, flags, message):
        """Singles of 5e13 s and triples of 1.5e14 s: bin edges that far out
        are no longer distinct floats. The minimum-mode seed refuses them,
        and so does the histogram when a hint skips the seed (base 5e13 s)."""
        times = [i * 1e14 + (i % 2) * 5e13 for i in range(10)]
        self._assert_exit_2(tmp_path, capsys, times, message, flags)


# One row per parameter rule: the parameter's name, as its message gives it,
# and a call that passes it a value.
_CLIP = AudioClip(samples=np.random.default_rng(0).uniform(-1.0, 1.0, 4096), sample_rate=44100.0)
_NOISE = np.random.default_rng(1).normal(size=256)
_TEMPOGRAM = Tempogram(times_s=np.zeros(1), tempi_bpm=np.array([84.0]), magnitude=np.ones((1, 1)),
                       params=TempogramParams())
POSITIVE = [
    ("sample_rate", lambda v: AudioClip(samples=np.zeros(64), sample_rate=v)),
    ("sample_rate", lambda v: EnvelopeSignal(values=np.zeros(64), sample_rate=v, source_max=0.0,
                                             silent=True)),
    ("smoothing_ms", lambda v: envelope(_CLIP, smoothing_ms=v)),
    ("refractory_ms", lambda v: detect_onsets(make_envelope([0.0, 1.0, 0.0]), refractory_ms=v)),
    ("window_ms", lambda v: merge_close_onsets(series_from_times([0.1, 0.2]), window_ms=v)),
    ("bpm", lambda v: GrooveSpec(bpm=v)),
    ("swing_ratio", lambda v: GrooveSpec(swing_ratio=v)),
    ("drift_profile tempi", lambda v: GrooveSpec(drift_profile=((0.0, 84.0), (4.0, v)))),
    ("click_ms", lambda v: render_clicks(series_from_times([0.1]), click_ms=v)),
    ("max_multiple", lambda v: AnalysisParams(max_multiple=v)),
    ("histogram_bin_ms", lambda v: AnalysisParams(histogram_bin_ms=v)),
    ("bpm_hint", lambda v: AnalysisParams(bpm_hint=v)),
    ("compression", lambda v: novelty_curve(_CLIP, compression=v)),
    ("hint_bpm", lambda v: estimate_base_unit(np.array([0.12, 0.24]), hint_bpm=v)),
    ("min_bpm", lambda v: TempogramParams(min_bpm=v)),
]
FINITE = [
    ("min_db", lambda v: novelty_curve(_CLIP, min_db=v)),
    ("ref_bpm", lambda v: TempogramParams(ref_bpm=v)),
    ("ref_bpm", lambda v: argmax_track(_TEMPOGRAM, ref_bpm=v)),
    ("max_bpm", lambda v: TempogramParams(max_bpm=v)),
    ("target_time_s", lambda v: AnnotationEdit("add", v)),
    ("new_time_s", lambda v: AnnotationEdit("move", 0.5, new_time_s=v)),
    ("start_time_s", lambda v: Section(v, 1.0)),
    ("end_time_s", lambda v: Section(0.0, v)),
    ("start_s", lambda v: GrooveSpec(start_s=v)),
    ("bar", lambda v: bar_time_s(GrooveSpec(), v)),
    ("lrc_beta", lambda v: GrooveSpec(lrc_beta=v)),
    ("beta", lambda v: gen_powerlaw_noise(v, 100)),
    ("lrc_beta", lambda v: gen_crossover_series(100, [1.0, -1.0], lrc_beta=v)),
    ("noise_db", lambda v: render_clicks(series_from_times([0.1]), noise_db=v)),
]
# (name, minimum, a valid count, call)
COUNTS = [
    ("detrend_order", 0, 1, lambda v: dfa_fluctuation(_NOISE, detrend_order=v)),
    ("half_window", 1, 1, lambda v: local_alpha(dfa_fluctuation(_NOISE), half_window=v)),
    ("half_window", 1, 1, lambda v: dfa_analyze(_NOISE, half_window=v)),
    ("window_length", 2, 1024, lambda v: TempogramParams(window_length=v)),
    ("hop", 1, 64, lambda v: TempogramParams(hop=v)),
    ("fft_length", 1024, 4096, lambda v: TempogramParams(fft_length=v)),
    ("window", 2, 1024, lambda v: novelty_curve(_CLIP, window=v)),
    ("hop", 1, 512, lambda v: novelty_curve(_CLIP, hop=v)),
    ("bars", 1, 2, lambda v: gen_shuffle_onsets(GrooveSpec(bars=v))),
    ("n", 2, 100, lambda v: gen_powerlaw_noise(1.0, v)),
    ("oversample", 1, 1, lambda v: gen_powerlaw_noise(1.0, 100, oversample=v)),
    ("positions", 2, 16, lambda v: PhraseTemplate.shuffle(v)),
    ("order", 1, 2, lambda v: highpass(_CLIP, order=v)),
    ("phrase_positions", 2, 16, lambda v: AnalysisParams(phrase_positions=v)),
    ("dfa_short", 1, 4, lambda v: AnalysisParams(dfa_short=(v, 16))),
    ("dfa_long", 1, 100, lambda v: AnalysisParams(dfa_long=(16, v))),
    ("scales", 1, 8, lambda v: dfa_fluctuation(_NOISE, scales=[v])),
    ("slot_units", 0, 2, lambda v: PhraseTemplate(slot_units=(0, v), units_per_phrase=3)),
    ("units_per_phrase", 2, 24, lambda v: PhraseTemplate(units_per_phrase=v)),
    ("seed", 0, 1, lambda v: gen_shuffle_onsets(GrooveSpec(), seed=v)),
    ("seed", 0, 1, lambda v: render_clicks(series_from_times([0.1]), seed=v)),
    ("seed", 0, 1, lambda v: gen_powerlaw_noise(1.0, 100, seed=v)),
]
_NON_FINITE = [math.nan, math.inf, -math.inf]
BAD = (
    [(name, call, v) for name, call in POSITIVE for v in [*_NON_FINITE, 0.0, -1.0]]
    + [(name, call, v) for name, call in FINITE for v in _NON_FINITE]
    # a fraction, a float that equals a valid count, and counts below the minimum
    + [(name, call, v) for name, low, ok, call in COUNTS
       for v in [ok + 0.5, float(ok), *_NON_FINITE, *(k for k in (0, -1) if k < low)]]
)


@pytest.mark.parametrize("name, call, value", BAD, ids=[f"{name}={v!r}" for name, _, v in BAD])
def test_bad_parameter_is_named(name, call, value):
    with pytest.raises(ParameterError, match=f"^{name} must be"):
        call(value)


@pytest.mark.parametrize("name, value, call", [
    ("max_multiple", "3.5", lambda v: AnalysisParams(max_multiple=v)),
    ("max_multiple", None, lambda v: AnalysisParams(max_multiple=v)),
    ("bpm_hint", "84", lambda v: AnalysisParams(bpm_hint=v)),
    ("min_bpm", "30", lambda v: TempogramParams(min_bpm=v)),
    ("max_bpm", "300", lambda v: TempogramParams(max_bpm=v)),
])
def test_non_number_is_named(name, value, call):
    # each raised a bare TypeError from a comparison or math.isfinite
    with pytest.raises(ParameterError, match=re.escape(f"{name} must be a real number, got {value!r}")):
        call(value)


@pytest.mark.parametrize("name, call", POSITIVE + FINITE, ids=[row[0] for row in POSITIVE + FINITE])
def test_every_real_parameter_names_a_string(name, call):
    with pytest.raises(ParameterError, match=f"^{name} must be a real number, got '1'$"):
        call("1")


@pytest.mark.parametrize("name, low, ok, call", COUNTS, ids=[row[0] for row in COUNTS])
def test_counts_accept_numpy_integers(name, low, ok, call):
    call(np.int64(ok))


# not a COUNTS row: a second "n" row there would change the ids of gen_powerlaw_noise's
@pytest.mark.parametrize("n", [100.5, 100.0, math.nan, 0])
def test_crossover_length_is_a_count(n):
    with pytest.raises(ParameterError, match="^n must be"):
        gen_crossover_series(n, [1.0, -1.0])


@pytest.mark.parametrize("name", ["dfa_short", "dfa_long"])
@pytest.mark.parametrize("ends", [(16, 4), (8, 8)])
def test_inverted_dfa_range_is_named(name, ends):
    # (16, 4) reported alpha1 null over s_range [16, 4]
    with pytest.raises(ParameterError, match=f"^{name} must be a \\(lo, hi\\) scale range"):
        AnalysisParams(**{name: ends})


def test_negative_slot_is_named():
    # slot -3 passed the ordering rule and then indexed unit 0
    with pytest.raises(ParameterError, match="^slot_units must be at least 0, got -3"):
        PhraseTemplate(slot_units=(-3, 2))


def test_numpy_integer_counts_reach_json_as_ints():
    """A numpy integer count is stored as an ``int``, so the JSON written
    from it is that of the plain ``int``."""
    def summary(hop):
        params = TempogramParams(hop=hop)
        return tempogram_summary(Tempogram(
            times_s=np.zeros(1), tempi_bpm=np.array([84.0]), magnitude=np.ones((1, 1)), params=params))

    def report(positions, short):
        onsets, _ = gen_shuffle_onsets(GrooveSpec(bars=4))
        params = AnalysisParams(phrase_positions=positions, dfa_short=short)
        return run_analysis(onsets, params=params).report_dict()

    assert json.dumps(summary(np.int64(64))) == json.dumps(summary(64))
    assert json.dumps(report(np.int64(16), (np.int64(4), np.int64(16)))) == json.dumps(report(16, (4, 16)))


def test_numpy_floats_and_bools_reach_json_as_python_values():
    """A numpy float or bool parameter is stored as a ``float`` or ``bool``,
    so the JSON written from it is that of the plain value; a
    ``raw_intervals`` that is not a bool is refused."""
    def summary(**params):
        return tempogram_summary(Tempogram(times_s=np.zeros(1), tempi_bpm=np.array([84.0]),
                                           magnitude=np.ones((1, 1)), params=TempogramParams(**params)))

    def report(**params):
        onsets, _ = gen_shuffle_onsets(GrooveSpec(bars=4))
        return run_analysis(onsets, params=AnalysisParams(**params)).report_dict()

    def float32(params):
        return {name: np.float32(value) for name, value in params.items()}

    tempi = {"min_bpm": 40.0, "max_bpm": 320.0, "ref_bpm": 84.0}
    assert json.dumps(summary(**float32(tempi))) == json.dumps(summary(**tempi))
    analysis = {"max_multiple": 3.5, "histogram_bin_ms": 2.5, "bpm_hint": 84.0}
    assert (json.dumps(report(raw_intervals=np.True_, **float32(analysis)))
            == json.dumps(report(raw_intervals=True, **analysis)))
    with pytest.raises(ParameterError, match=re.escape("raw_intervals must be a bool, got 'yes'")):
        AnalysisParams(raw_intervals="yes")
