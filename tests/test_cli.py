import builtins
import csv
import importlib.util
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from groovekit import GrooveSpec, dfa_fluctuation, fit_alpha, gen_shuffle_onsets, write_onsets_csv
from groovekit.cli import main

from conftest import series_from_times, with_triples


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

    def test_histograms_count_every_interval_of_their_class(self, tmp_path):
        # the shortest single is exactly 0.208 s, and 0.208 / 0.002 rounds up to 104
        taus_us = [208_000] + [420_000, 209_000, 420_000, 210_000] * 20
        times = np.concatenate(([0], np.cumsum(taus_us))) / 1e6
        onsets_csv, out_dir = tmp_path / "g.csv", tmp_path / "out"
        write_onsets_csv(onsets_csv, series_from_times(times))
        assert run_cli("analyze", str(onsets_csv), "--out-dir", str(out_dir)) == 0
        counts = json.loads((out_dir / "report.json").read_text())["interval_counts"]
        assert (counts["single"], counts["double"]) == (41, 40)
        for klass in ("single", "double", "triple"):
            path = out_dir / f"histogram_{klass}s.csv"
            if not counts[klass]:
                assert not path.exists()
                continue
            with open(path) as fh:
                rows = list(csv.DictReader(fh))
            assert sum(int(r["count"]) for r in rows) == counts[klass], klass
            if klass == "single":
                assert rows[0]["bin_start_ms"] == "206.000"

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
        # the tempogram's CSV is encoded in memory and written with the report's
        # other files: the disk fills halfway through writing it
        write_bytes = Path.write_bytes

        def write_half(path, data):
            if path.name != "tempogram.csv.tmp":
                return write_bytes(path, data)
            write_bytes(path, data[:len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", write_half)
        wav = tmp_path / "clicks.wav"
        run_cli("synth", "-o", str(tmp_path / "t.csv"), "--bars", "30", "--render", str(wav))
        out_dir = tmp_path / "out"
        assert run_cli("analyze", str(wav), "--out-dir", str(out_dir)) == 2
        assert "No space left on device" in capsys.readouterr().err
        # the run's other files were staged, not committed, and the directory
        # the run created is gone with them
        assert not out_dir.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clicks.wav", "t.csv"]

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


class TestOutputSet:
    """An analyze run leaves exactly its own groovekit-named files in
    --out-dir, beside whatever other files were there, and a write that fails
    anywhere leaves the directory as it was."""

    OTHERS = {"notes.txt": b"mine\n", "dfa_custom.csv": b"s,F\r\n4,1\r\n", "report.json.bak": b"{}\n"}

    @staticmethod
    def files(directory):
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    @staticmethod
    def inputs(tmp_path):
        """An 8-bar click track (long enough for a tempogram) and a 20-bar
        annotation with triples."""
        wav = tmp_path / "clicks.wav"
        assert run_cli("synth", "-o", str(tmp_path / "t.csv"), "--bars", "8", "--render", str(wav)) == 0
        spec = GrooveSpec(bpm=84.0, swing_ratio=1.79, bars=20, jitter_sigma_ms=2.0)
        triples = tmp_path / "triples.csv"
        write_onsets_csv(triples, with_triples(gen_shuffle_onsets(spec, seed=0)[0]))
        return wav, triples

    @staticmethod
    def failing_writes(monkeypatch, directory, fail_at):
        """Files opened for writing in ``directory``: their names, in order;
        the one at ``fail_at`` gets a byte and then ENOSPC."""
        names, real_open = [], io.open

        def opened(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "w" in mode and isinstance(file, (str, os.PathLike)) and Path(file).parent == directory:
                names.append(Path(file).name)
                if len(names) - 1 == fail_at:
                    fh.write(b"x" if "b" in mode else "x")
                    fh.close()
                    raise OSError(28, "No space left on device")
            return fh

        monkeypatch.setattr(builtins, "open", opened)
        monkeypatch.setattr(io, "open", opened)
        return names

    def test_csv_after_wav_leaves_no_tempogram(self, tmp_path):
        wav, triples = self.inputs(tmp_path)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert run_cli("analyze", str(wav), "--out-dir", str(out)) == 0
        assert {"tempogram.csv", "tempogram.json"} <= set(self.files(out))
        assert run_cli("analyze", str(triples), "--out-dir", str(out)) == 0
        assert run_cli("analyze", str(triples), "--out-dir", str(fresh)) == 0
        assert self.files(out) == self.files(fresh)

    def test_other_files_survive_a_run(self, tmp_path):
        wav, _ = self.inputs(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        for name, data in self.OTHERS.items():
            (out / name).write_bytes(data)
        assert run_cli("analyze", str(wav), "--out-dir", str(out)) == 0
        files = self.files(out)
        assert {name: files[name] for name in self.OTHERS} == self.OTHERS
        assert "report.json" in files and "tempogram.json" in files

    def test_failed_write_anywhere_leaves_the_directory_as_it_was(self, tmp_path, capsys, monkeypatch):
        wav, triples = self.inputs(tmp_path)
        out = tmp_path / "out"
        # an earlier run whose triples files the WAV run would remove
        assert run_cli("analyze", str(triples), "--out-dir", str(out)) == 0
        for name, data in self.OTHERS.items():
            (out / name).write_bytes(data)
        before = self.files(out)
        assert {"histogram_triples.csv", "dfa_intervals_triples.csv"} <= set(before)
        scratch = tmp_path / "scratch"
        with monkeypatch.context() as patch:
            staged = self.failing_writes(patch, scratch, None)
            assert run_cli("analyze", str(wav), "--out-dir", str(scratch)) == 0
        assert sorted(staged) == sorted(f"{name}.tmp" for name in self.files(scratch))
        assert staged[-1] == "report.json.tmp" and "tempogram.json.tmp" in staged
        for at in range(len(staged)):
            capsys.readouterr()
            with monkeypatch.context() as patch:
                self.failing_writes(patch, out, at)
                assert run_cli("analyze", str(wav), "--out-dir", str(out)) == 2, staged[at]
            assert "No space left on device" in capsys.readouterr().err
            assert self.files(out) == before, staged[at]

    def test_stale_name_that_is_a_directory_is_left_alone(self, tmp_path):
        _, triples = self.inputs(tmp_path)
        out = tmp_path / "out"
        (out / "tempogram.csv").mkdir(parents=True)
        (out / "tempogram.csv" / "inside.txt").write_bytes(b"mine\n")
        assert run_cli("analyze", str(triples), "--out-dir", str(out)) == 0
        assert (out / "report.json").is_file()
        assert list(out.glob("*.tmp")) == []
        assert [p.name for p in (out / "tempogram.csv").iterdir()] == ["inside.txt"]
        assert (out / "tempogram.csv" / "inside.txt").read_bytes() == b"mine\n"

    def test_failed_stale_unlink_commits_nothing(self, tmp_path, capsys, monkeypatch):
        wav, triples = self.inputs(tmp_path)
        out = tmp_path / "out"
        assert run_cli("analyze", str(wav), "--out-dir", str(out)) == 0
        before = self.files(out)
        unlink = Path.unlink

        def refuse_stale(path, missing_ok=False):
            if path.name in ("tempogram.csv", "tempogram.json"):
                raise PermissionError(13, "Permission denied", str(path))
            unlink(path, missing_ok=missing_ok)

        monkeypatch.setattr(Path, "unlink", refuse_stale)
        assert run_cli("analyze", str(triples), "--out-dir", str(out)) == 2
        assert "Permission denied" in capsys.readouterr().err
        # no file of the CSV run was renamed in, and its .tmp files are gone
        assert self.files(out) == before

    def test_failed_write_removes_only_the_directories_it_created(self, tmp_path, capsys, monkeypatch):
        _, triples = self.inputs(tmp_path)
        (tmp_path / "kept").mkdir()
        out = tmp_path / "kept" / "a" / "b"
        with monkeypatch.context() as patch:
            self.failing_writes(patch, out, 0)
            assert run_cli("analyze", str(triples), "--out-dir", str(out)) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert list((tmp_path / "kept").iterdir()) == []


class TestParserCache:
    """main parses with one parser per process; a call with other flags must
    write what a call with a freshly built parser writes."""

    def test_calls_share_one_parser_and_write_what_a_fresh_call_writes(self, tmp_path, monkeypatch):
        import groovekit.cli as cli

        groove = tmp_path / "g.csv"
        assert run_cli("synth", "-o", str(groove), "--bars", "30", "--jitter-ms", "3") == 0
        sections = tmp_path / "sections.csv"
        sections.write_text("start_s,end_s,tag\r\n0.0,21.0,A1-verse\r\n21.0,90.0,B-chorus\r\n")
        runs = [["--raw-intervals"], ["--phrase-len", "12"], ["--sections", str(sections)], []]
        built, build = [], cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for k, flags in enumerate(runs):
                assert run_cli("analyze", str(groove), "--out-dir", str(tmp_path / f"shared{k}"), *flags) == 0
            assert len(built) == 1
            for k, flags in enumerate(runs):
                cli._parser.cache_clear()
                assert run_cli("analyze", str(groove), "--out-dir", str(tmp_path / f"fresh{k}"), *flags) == 0
                assert TestOutputSet.files(tmp_path / f"shared{k}") == TestOutputSet.files(tmp_path / f"fresh{k}")
        finally:
            cli._parser.cache_clear()
        reports = [json.loads((tmp_path / f"shared{k}" / "report.json").read_text()) for k in range(4)]
        assert [r["parameters"]["raw_intervals"] for r in reports] == [True, False, False, False]
        assert [r["parameters"]["phrase_positions"] for r in reports] == [16, 12, 16, 16]
        assert reports[2] != reports[3]


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

    def test_bpm_hint_with_no_interval_within_the_cutoff(self, tmp_path, capsys):
        # 60/(6*2.9e307) is a finite base unit so small that every ratio to it
        # lies beyond the class cutoff: the message blames the hint, not the cutoff
        out = tmp_path / "o"
        assert run_cli("analyze", str(self.groove(tmp_path)), "--bpm-hint", "2.9e307",
                       "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert (f"groovekit: hint_bpm=2.9e+307 gives a starting base unit of {60 / (2.9e307 * 6):g} s, "
                "against which no interval is within the class cutoff") in err
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

    @staticmethod
    def count_calls(monkeypatch, names):
        import groovekit.cli

        calls = []
        for attr in names:
            def counted(*args, _fn=getattr(groovekit.cli, attr), _attr=attr, **kwargs):
                calls.append(_attr)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(groovekit.cli, attr, counted)
        return calls

    def test_audio_stages_called_through_cli_names(self, tmp_path, monkeypatch):
        wav = tmp_path / "clicks.wav"
        assert run_cli("synth", "-o", str(tmp_path / "g.csv"), "--bars", "24", "--render", str(wav)) == 0
        names = ["detect_onsets", "highpass", "merge_close_onsets", "novelty_curve",
                 "tempogram_summary", "write_analysis_outputs", "write_tempogram_csv"]
        calls = self.count_calls(monkeypatch, names)
        assert run_cli("analyze", str(wav), "--out-dir", str(tmp_path / "out")) == 0
        assert sorted(calls) == names

    def test_csv_stages_called_through_cli_names(self, tmp_path, monkeypatch):
        path = tmp_path / "g.csv"
        assert run_cli("synth", "-o", str(path), "--bars", "24") == 0
        names = ["read_onsets_csv", "run_analysis", "write_analysis_outputs"]
        calls = self.count_calls(monkeypatch, names)
        assert run_cli("analyze", str(path), "--out-dir", str(tmp_path / "out")) == 0
        assert sorted(calls) == names
