import json
import os
from pathlib import Path

import numpy as np
import pytest

from groovekit import (
    GrooveSpec,
    TempogramParams,
    gen_shuffle_onsets,
    read_onsets_csv,
    write_onsets_csv,
)
from groovekit import dfa as dfa_mod
from groovekit.analysis import (
    AnalysisParams,
    DegenerateInputError,
    run_analysis,
    write_analysis_outputs,
)

from groovekit.cli import main
from groovekit.tempogram import Tempogram, tempogram_summary

from conftest import series_from_times, with_triples


class TestRunAnalysis:
    def test_too_few_onsets(self):
        with pytest.raises(DegenerateInputError):
            run_analysis(series_from_times([0.1, 0.25, 0.4]))

    def test_swing_note_when_undefined(self):
        # straight quarter-ish grid: all intervals the same class, no doubles
        onsets = series_from_times(np.arange(20) * 0.120)
        result = run_analysis(onsets)
        assert result.swing is None
        assert "undefined" in result.swing_note
        report = result.report_dict()
        assert report["swing"] is None
        assert "no doubles" in report["swing_note"]

    def test_short_series_dfa_skipped_with_note(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=3)
        onsets, _ = gen_shuffle_onsets(spec, seed=0)
        result = run_analysis(onsets)
        # 24 onsets: 11 singles / 12 doubles are too short for DFA
        assert "intervals_singles" in result.dfa_notes
        report = result.report_dict()
        assert "skipped" in report["dfa"]["intervals_singles"]

    def test_report_fields_complete(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=1.79, bars=30, jitter_sigma_ms=2.0)
        onsets, _ = gen_shuffle_onsets(spec, seed=1)
        result = run_analysis(onsets, params=AnalysisParams(bpm_hint=84.0))
        report = result.report_dict()
        assert report["onset_count"] == 240
        assert set(report["interval_counts"]) == {"single", "double", "triple", "discarded"}
        assert report["parameters"]["bpm_hint"] == 84.0
        assert 100.0 < report["base_unit_ms"] < 140.0
        assert report["tool_version"]
        assert set(report["dfa"]["intervals_all"]["s_ranges"]) == {"alpha1", "alpha2"}
        assert report["phrase"]["interval"]["template_length"] == 16

    def test_raw_intervals_mode(self):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=30, jitter_sigma_ms=2.0)
        onsets, _ = gen_shuffle_onsets(spec, seed=2)
        norm = run_analysis(onsets)
        raw = run_analysis(onsets, params=AnalysisParams(raw_intervals=True))
        a_norm = norm.dfa_results["intervals_all"].F
        a_raw = raw.dfa_results["intervals_all"].F
        assert not np.allclose(a_norm, a_raw)


class TestWriteOutputs:
    def test_no_temp_files_left(self, tmp_path):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=20, jitter_sigma_ms=2.0)
        onsets, _ = gen_shuffle_onsets(spec, seed=0)
        result = run_analysis(onsets)
        report_path = write_analysis_outputs(tmp_path / "out", result)
        leftovers = list((tmp_path / "out").glob("*.tmp"))
        assert leftovers == []
        report = json.loads(report_path.read_text())
        assert report["onset_count"] == 160

    @staticmethod
    def files(directory):
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    def test_a_later_run_removes_the_files_it_does_not_write(self, tmp_path):
        spec = GrooveSpec(bpm=84.0, swing_ratio=1.79, bars=20, jitter_sigma_ms=2.0)
        onsets, _ = gen_shuffle_onsets(spec, seed=0)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        write_analysis_outputs(out, run_analysis(with_triples(onsets)))
        assert {"histogram_triples.csv", "dfa_intervals_triples.csv"} <= set(self.files(out))
        result = run_analysis(onsets)
        write_analysis_outputs(out, result)
        write_analysis_outputs(fresh, result)
        assert "histogram_triples.csv" not in self.files(out)
        assert "dfa_intervals_triples.csv" not in self.files(out)
        assert self.files(out) == self.files(fresh)

    def test_report_is_renamed_last_after_the_stale_files_go(self, tmp_path, monkeypatch):
        spec = GrooveSpec(bpm=84.0, swing_ratio=1.79, bars=20, jitter_sigma_ms=2.0)
        onsets, _ = gen_shuffle_onsets(spec, seed=0)
        out = tmp_path / "out"
        write_analysis_outputs(out, run_analysis(with_triples(onsets)))
        events = []
        replace, unlink = os.replace, Path.unlink

        def replaced(src, dst):
            events.append(("rename", Path(dst).name))
            replace(src, dst)

        def unlinked(path, missing_ok=False):
            events.append(("unlink", path.name))
            unlink(path, missing_ok=missing_ok)

        monkeypatch.setattr(os, "replace", replaced)
        monkeypatch.setattr(Path, "unlink", unlinked)
        write_analysis_outputs(out, run_analysis(onsets))
        # the sidecars renamed, then the stale names unlinked, then report.json
        renamed = sum(kind == "rename" for kind, _ in events)
        unlinked_count = len(events) - renamed
        assert [kind for kind, _ in events] == (
            ["rename"] * (renamed - 1) + ["unlink"] * unlinked_count + ["rename"])
        assert events[-1] == ("rename", "report.json")
        gone = {name for kind, name in events if kind == "unlink"}
        assert {"histogram_triples.csv", "dfa_intervals_triples.csv"} <= gone
        assert not any((out / name).exists() for name in gone)

    def test_dfa_csv_schema(self, tmp_path):
        spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=30, jitter_sigma_ms=2.0)
        onsets, _ = gen_shuffle_onsets(spec, seed=0)
        result = run_analysis(onsets)
        write_analysis_outputs(tmp_path / "out", result)
        header = (tmp_path / "out" / "dfa_intervals_all.csv").read_text().splitlines()[0]
        assert header == "s,F,alpha_local"


class TestJsonSchema:
    """The JSON blocks are written from their dataclasses, so a renamed or
    reordered field would change the files; these key lists pin them."""

    def test_block_keys_in_order(self, tmp_path):
        spec = GrooveSpec(bpm=84.0, swing_ratio=1.79, bars=30, jitter_sigma_ms=2.0)
        onsets, _ = gen_shuffle_onsets(spec, seed=1)
        path = write_analysis_outputs(tmp_path / "out", run_analysis(onsets))
        report = json.loads(path.read_text())
        assert list(report["parameters"]) == [
            "bpm_hint", "max_multiple", "phrase_positions", "dfa_short", "dfa_long",
            "raw_intervals", "histogram_bin_ms",
        ]
        assert report["parameters"]["dfa_short"] == [4, 16]
        assert list(report["swing"]) == [
            "swing_ratio", "mean_inter_triplet_single_s", "mean_double_s", "ratio_triad",
            "n_singles_used", "n_doubles_used",
        ]
        tg = Tempogram(times_s=np.zeros(1), tempi_bpm=np.array([84.0]),
                       magnitude=np.ones((1, 1)), params=TempogramParams())
        summary = json.loads(json.dumps(tempogram_summary(tg)))
        assert list(summary["params"]) == [
            "window_length", "hop", "fft_length", "min_bpm", "max_bpm", "ref_bpm",
        ]


class TestOneFitPerExponent:
    def test_fit_loglog_runs_once_per_exponent(self, tmp_path, monkeypatch):
        spec = GrooveSpec(bpm=84.0, swing_ratio=1.79, bars=60, jitter_sigma_ms=2.0)
        onsets, _ = gen_shuffle_onsets(spec, seed=1)
        path = tmp_path / "g.csv"
        write_onsets_csv(path, onsets)
        calls = []
        fit_loglog = dfa_mod.fit_loglog

        def counted(*args):
            calls.append(args)
            return fit_loglog(*args)

        monkeypatch.setattr(dfa_mod, "fit_loglog", counted)
        assert main(["analyze", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        assert len(calls) == 8  # four long DFA series, two exponents each
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        result = run_analysis(read_onsets_csv(path))
        assert list(result.dfa_results) == [
            "intervals_all", "intervals_singles", "intervals_doubles", "amplitudes",
        ]
        assert list(result.dfa_notes) == ["intervals_triples"]
        for name, res in result.dfa_results.items():
            for key in ("alpha1", "alpha2"):
                r2 = fit_loglog(res, *getattr(res, f"{key}_range"))[2]
                assert report["dfa"][name]["r_squared"][key] == r2
