import csv
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from groovekit import dfa_fluctuation, fit_alpha, write_onsets_csv
from groovekit.cli import main

from conftest import series_from_times


def run_cli(*argv):
    return main(list(argv))


class TestSynthCommand:
    def test_two_bars_exact_intervals(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run_cli("synth", "-o", str(out), "--bars", "2", "--swing", "2.0",
                       "--jitter-ms", "0") == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        times = np.array([float(r["time_s"]) for r in rows])
        taus = np.diff(times)  # 15 intervals: 8 doubles, 7 singles
        # CSV times carry 6 decimals, so ratios are exact to ~1e-5
        np.testing.assert_allclose(taus[0:14:2] / taus[1::2], 2.0, rtol=1e-4)

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        wav_a, wav_b = tmp_path / "a.wav", tmp_path / "b.wav"
        args = ["--bars", "8", "--swing", "1.79", "--jitter-ms", "3",
                "--seed", "42", "--noise-db", "-30"]
        assert run_cli("synth", "-o", str(a), "--render", str(wav_a), *args) == 0
        assert run_cli("synth", "-o", str(b), "--render", str(wav_b), *args) == 0
        assert a.read_bytes() == b.read_bytes()
        assert wav_a.read_bytes() == wav_b.read_bytes()

    def test_series_only_beta_one(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run_cli("synth", "-o", str(out), "--series-only", "--beta", "1",
                       "-n", "8192", "--seed", "0") == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        series = np.array([float(r["value"]) for r in rows])
        assert len(series) == 8192
        alpha = fit_alpha(dfa_fluctuation(series), 4, 2048)
        assert 0.9 <= alpha <= 1.1


class TestOnsetsCommand:
    def test_silent_file_empty_csv(self, tmp_path):
        wav = tmp_path / "silent.wav"
        wavfile.write(wav, 44100, np.zeros(44100, dtype=np.float32))
        out = tmp_path / "onsets.csv"
        assert run_cli("onsets", str(wav), "-o", str(out)) == 0
        text = out.read_text().strip()
        assert text == "index,time_s,amplitude,label,source"

    def test_bad_path_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli("onsets", str(tmp_path / "missing.wav"), "-o", str(out))
        assert code == 2
        assert "groovekit:" in capsys.readouterr().err

    def test_detects_synthetic_render(self, tmp_path):
        onsets_csv = tmp_path / "truth.csv"
        wav = tmp_path / "clicks.wav"
        assert run_cli("synth", "-o", str(onsets_csv), "--bars", "4",
                       "--render", str(wav)) == 0
        detected_csv = tmp_path / "detected.csv"
        assert run_cli("onsets", str(wav), "-o", str(detected_csv)) == 0
        with open(detected_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 32

    def test_edits_applied(self, tmp_path):
        wav = tmp_path / "clicks.wav"
        run_cli("synth", "-o", str(tmp_path / "t.csv"), "--bars", "2",
                "--render", str(wav))
        edits = tmp_path / "edits.csv"
        edits.write_text("kind,target_time_s,new_time_s,label\nadd,9.000000,,snare\n")
        out = tmp_path / "onsets.csv"
        assert run_cli("onsets", str(wav), "-o", str(out), "--edits", str(edits)) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        added = [r for r in rows if r["source"] == "manual-add"]
        assert len(added) == 1
        assert added[0]["label"] == "snare"

    @pytest.mark.parametrize("rows, message", [
        ("add,5.0,,\nadd,5.0,,\n", "onset times must be strictly increasing"),
        ("add,5.0,,xx\n", "unknown onset label 'xx'"),
    ])
    def test_edit_errors_name_the_edits_file(self, tmp_path, capsys, rows, message):
        wav = tmp_path / "clicks.wav"
        assert run_cli("synth", "-o", str(tmp_path / "t.csv"), "--bars", "2",
                       "--render", str(wav)) == 0
        edits = tmp_path / "edits.csv"
        edits.write_text("kind,target_time_s,new_time_s,label\n" + rows)
        out = tmp_path / "onsets.csv"
        assert run_cli("onsets", str(wav), "-o", str(out), "--edits", str(edits)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"groovekit: {edits}: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()


class TestAnalyzeCommand:
    def test_metronomic_annotation(self, tmp_path):
        onsets_csv = tmp_path / "g.csv"
        run_cli("synth", "-o", str(onsets_csv), "--bars", "40", "--swing", "2.0",
                "--jitter-ms", "0")
        out_dir = tmp_path / "out"
        assert run_cli("analyze", str(onsets_csv), "--out-dir", str(out_dir)) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["onset_count"] == 320
        # exact up to the annotation CSV's microsecond time resolution
        assert report["swing"]["swing_ratio"] == pytest.approx(2.0, abs=1e-5)
        assert report["drift"]["max_abs_s"] < 1e-6
        assert report["detection_rate"] == 1.0
        for name in ("drift.csv", "phrase_interval.csv", "phrase_amplitude.csv",
                     "dfa_amplitudes.csv", "histogram_singles.csv"):
            assert (out_dir / name).exists(), name

    def test_seeded_groove_round_trip(self, tmp_path):
        # aggregate over a few seeds: swing within +-0.03 per seed and the
        # mean interval exponent within +-0.15 of the programmed (beta+1)/2
        alphas = []
        for seed in range(6):
            onsets_csv = tmp_path / f"g{seed}.csv"
            run_cli("synth", "-o", str(onsets_csv), "--bars", "60",
                    "--swing", "1.79", "--jitter-ms", "1",
                    "--lrc-beta", "1.4", "--lrc-sigma-ms", "4",
                    "--seed", str(seed))
            out_dir = tmp_path / f"out{seed}"
            assert run_cli("analyze", str(onsets_csv), "--out-dir", str(out_dir)) == 0
            report = json.loads((out_dir / "report.json").read_text())
            assert report["swing"]["swing_ratio"] == pytest.approx(1.79, abs=0.03)
            alphas.append(report["dfa"]["intervals_all"]["alpha2"])
        assert np.mean(alphas) == pytest.approx(1.2, abs=0.15)

    def test_report_recomputable_from_sidecars(self, tmp_path):
        onsets_csv = tmp_path / "g.csv"
        run_cli("synth", "-o", str(onsets_csv), "--bars", "30", "--jitter-ms", "2",
                "--seed", "3")
        out_dir = tmp_path / "out"
        run_cli("analyze", str(onsets_csv), "--out-dir", str(out_dir))
        report = json.loads((out_dir / "report.json").read_text())
        with open(out_dir / "drift.csv") as fh:
            drift_rows = list(csv.DictReader(fh))
        max_abs = max(abs(float(r["drift_s"])) for r in drift_rows)
        assert max_abs == pytest.approx(report["drift"]["max_abs_s"], abs=1e-9)
        gap_count = sum(int(r["gap"]) for r in drift_rows)
        assert gap_count == report["drift"]["gap_count"]
        assert gap_count == report["interval_counts"]["discarded"]
        # row i is the interval that onset i + 1 closes, at that onset's time
        with open(onsets_csv) as fh:
            onset_rows = list(csv.DictReader(fh))
        assert [r["time_s"] for r in drift_rows] == [r["time_s"] for r in onset_rows[1:]]

    def test_too_few_onsets_exit_1(self, tmp_path, capsys):
        onsets_csv = tmp_path / "few.csv"
        write_onsets_csv(onsets_csv, series_from_times([0.1, 0.2, 0.3]))
        code = run_cli("analyze", str(onsets_csv), "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "at least 8 onsets" in capsys.readouterr().err

    def test_analyze_audio_end_to_end(self, tmp_path):
        wav = tmp_path / "clicks.wav"
        run_cli("synth", "-o", str(tmp_path / "t.csv"), "--bars", "30",
                "--swing", "1.79", "--render", str(wav), "--seed", "5")
        out_dir = tmp_path / "out"
        assert run_cli("analyze", str(wav), "--out-dir", str(out_dir)) == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["onset_count"] == 240
        assert report["swing"]["swing_ratio"] == pytest.approx(1.79, abs=0.02)
        # audio input also yields tempogram sidecars
        tempo = json.loads((out_dir / "tempogram.json").read_text())
        assert tempo["params"]["window_length"] == 1024
        assert len(tempo["track"]) > 0
        header = (out_dir / "tempogram.csv").read_text().splitlines()[0]
        assert header == "time_s,bpm,magnitude"

    def test_failed_tempogram_write_leaves_no_partial_file(self, tmp_path, capsys, monkeypatch):
        import groovekit.tempogram

        def write_half(path, header, fmt, columns):
            with open(path, "w") as fh:
                fh.write(",".join(header) + "\r\n0.000000,")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(groovekit.tempogram, "write_rows", write_half)
        wav = tmp_path / "clicks.wav"
        run_cli("synth", "-o", str(tmp_path / "t.csv"), "--bars", "30", "--render", str(wav))
        out_dir = tmp_path / "out"
        assert run_cli("analyze", str(wav), "--out-dir", str(out_dir)) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert (out_dir / "report.json").exists()
        assert not (out_dir / "tempogram.csv").exists()
        assert list(out_dir.glob("*.tmp")) == []

    def test_ramp_drift_profile_recovered(self, tmp_path):
        # synth a 84->86 BPM ramp, analyze the CSV, and compare the final
        # drift against the closed-form grid (CSV adds ~us quantization)
        from scipy.integrate import quad
        from groovekit import GrooveSpec, bar_time_s

        onsets_csv = tmp_path / "ramp.csv"
        run_cli("synth", "-o", str(onsets_csv), "--bars", "60", "--swing", "2.0",
                "--jitter-ms", "0", "--ramp-bpm", "86")
        out_dir = tmp_path / "out"
        assert run_cli("analyze", str(onsets_csv), "--out-dir", str(out_dir)) == 0
        report = json.loads((out_dir / "report.json").read_text())
        base = report["base_unit_ms"] * 1e-3

        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=60,
                          drift_profile=((0.0, 84.0), (60.0, 86.0)))
        units = [3 * g + o for g in range(4 * 60) for o in (0, 2)]
        times = np.array([bar_time_s(spec, u / 12.0) for u in units])
        check, _ = quad(lambda b: 120.0 / (84.0 + 2.0 * b / 60.0), 0.0, units[-1] / 12.0)
        assert times[-1] == pytest.approx(check, abs=1e-9)
        taus = np.diff(times)
        mult = np.diff(units)
        d_expected = np.cumsum(taus / mult) - base * np.arange(1, len(taus) + 1)
        assert report["drift"]["final_s"] == pytest.approx(d_expected[-1], abs=1e-3)
        assert report["drift"]["gap_count"] == 0

    def test_malformed_annotation_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("index,time_s,amplitude,label,source\n0,abc,0.5,hihat,auto\n")
        code = run_cli("analyze", str(bad), "--out-dir", str(tmp_path / "o"))
        assert code == 2
        assert "bad annotation row" in capsys.readouterr().err

    def test_dfa_range_flags(self, tmp_path):
        onsets_csv = tmp_path / "g.csv"
        run_cli("synth", "-o", str(onsets_csv), "--bars", "40", "--jitter-ms", "2")
        out_dir = tmp_path / "out"
        assert run_cli("analyze", str(onsets_csv), "--out-dir", str(out_dir),
                       "--dfa-short", "4:12", "--dfa-long", "12:64") == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["dfa"]["amplitudes"]["s_ranges"]["alpha1"] == [4, 12]
        assert report["dfa"]["amplitudes"]["s_ranges"]["alpha2"] == [12, 64]


class TestExitCodeContract:
    """Bad input files and flag values exit 2 with one message, no traceback."""

    NOT_UTF8 = b"\xff\xfe,1.0\r\n"

    def assert_exit_2(self, capsys, argv, message):
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def groove(self, tmp_path):
        path = tmp_path / "g.csv"
        assert run_cli("synth", "-o", str(path), "--bars", "4") == 0
        return path

    def test_non_utf8_annotation(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"index,time_s,amplitude,label,source\r\n0," + self.NOT_UTF8)
        self.assert_exit_2(capsys, ["analyze", str(bad), "--out-dir", str(tmp_path / "o")],
                           f"{bad}: not UTF-8 text")

    def test_non_utf8_sections(self, tmp_path, capsys):
        bad = tmp_path / "sections.csv"
        bad.write_bytes(b"start_s,end_s,tag\r\n" + self.NOT_UTF8)
        self.assert_exit_2(capsys, ["analyze", str(self.groove(tmp_path)), "--sections", str(bad),
                                    "--out-dir", str(tmp_path / "o")], f"{bad}: not UTF-8 text")

    def test_non_utf8_edits(self, tmp_path, capsys):
        wav = tmp_path / "clicks.wav"
        assert run_cli("synth", "-o", str(tmp_path / "t.csv"), "--bars", "1",
                       "--render", str(wav)) == 0
        bad = tmp_path / "edits.csv"
        bad.write_bytes(b"kind,target_time_s,new_time_s,label\r\nadd," + self.NOT_UTF8)
        self.assert_exit_2(capsys, ["onsets", str(wav), "-o", str(tmp_path / "o.csv"),
                                    "--edits", str(bad)], f"{bad}: not UTF-8 text")

    def test_estimation_error_is_input_error(self, tmp_path, capsys):
        # no interval survives a 1e-9 class cutoff: the flag value is the fault
        self.assert_exit_2(capsys, ["analyze", str(self.groove(tmp_path)), "--max-multiple",
                                    "1e-9", "--out-dir", str(tmp_path / "o")],
                           "no intervals within the class cutoff")

    @pytest.mark.parametrize("hint", ["1e308", "1e-320"])
    def test_bpm_hint_without_a_finite_base_unit(self, tmp_path, capsys, hint):
        # 60/(6*hint) is 0 for the first and inf for the second
        out = tmp_path / "o"
        assert run_cli("analyze", str(self.groove(tmp_path)), "--bpm-hint", hint,
                       "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert f"groovekit: hint_bpm={float(hint)!r} gives a starting base unit" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--noise-db", "1e6"], "noise_db"),
        (["--sample-rate", "1e12"], "sample_rate"),
        (["--click-ms", "1e9"], "samples exceeds"),
    ])
    def test_synth_render_limits(self, tmp_path, capsys, flags, message):
        # every value here is rejected before any sample buffer is allocated
        self.assert_exit_2(capsys, ["synth", "-o", str(tmp_path / "g.csv"), "--bars", "2",
                                    "--render", str(tmp_path / "r.wav"), *flags], message)
        assert not (tmp_path / "r.wav").exists()

    def test_rejected_render_writes_no_annotation(self, tmp_path, capsys):
        self.assert_exit_2(capsys, ["synth", "--bars", "2", "-o", str(tmp_path / "g.csv"),
                                    "--render", str(tmp_path / "r.wav"), "--noise-db", "1e6"],
                           "noise_db")
        assert list(tmp_path.iterdir()) == []


class TestTracedNames:
    """perfbench/tracer.py times the pipeline by replacing names bound in
    groovekit.cli and groovekit.analysis; Tracer.wrap raises AttributeError
    when one is gone, and a stage called past its bound name is not timed."""

    @staticmethod
    def tracer_module():
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_traced_name_is_bound(self):
        import groovekit.analysis
        import groovekit.cli

        tracer = self.tracer_module()
        for namespace, names in ((groovekit.cli, tracer.CLI_NAMES),
                                 (groovekit.analysis, tracer.ANALYSIS_NAMES)):
            missing = [attr for attr, _ in names if not callable(getattr(namespace, attr, None))]
            assert missing == [], namespace.__name__

    def test_audio_stages_called_through_cli_names(self, tmp_path, monkeypatch):
        import groovekit.cli

        wav = tmp_path / "clicks.wav"
        assert run_cli("synth", "-o", str(tmp_path / "g.csv"), "--bars", "24", "--render", str(wav)) == 0
        calls = []
        for attr in ("highpass", "detect_onsets", "merge_close_onsets", "novelty_curve"):
            def counted(*args, _fn=getattr(groovekit.cli, attr), _attr=attr, **kwargs):
                calls.append(_attr)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(groovekit.cli, attr, counted)
        assert run_cli("analyze", str(wav), "--out-dir", str(tmp_path / "out")) == 0
        assert sorted(calls) == ["detect_onsets", "highpass", "merge_close_onsets", "novelty_curve"]
