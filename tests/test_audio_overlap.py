"""Audio ``analyze`` computes the tempogram on a second thread.

The outputs, stdout lines, exit codes and errors must be those of the serial
pipeline. Every stage returns before any file is written; then the tempogram
sidecars are staged under ``.tmp`` names with the report's other files and
renamed into place with them, ``report.json`` last, so a failed call writes
nothing. Every call must also leave no thread behind.
"""

import json
import threading

import numpy as np
import pytest
from scipy.io import wavfile

import groovekit.cli
from groovekit.analysis import AnalysisParams, DegenerateInputError, run_analysis, write_analysis_outputs
from groovekit.audio import envelope, highpass, load_audio
from groovekit.cli import main
from groovekit.errors import ParameterError
from groovekit.onsets import detect_onsets, merge_close_onsets
from groovekit.tempogram import (
    TempogramParams,
    fourier_tempogram,
    novelty_curve,
    tempogram_summary,
    write_tempogram_csv,
)


@pytest.fixture(autouse=True)
def no_thread_left():
    before = threading.active_count()
    yield
    assert threading.active_count() == before


def render(tmp_path, bars):
    wav = tmp_path / "clicks.wav"
    argv = ["synth", "-o", str(tmp_path / "truth.csv"), "--bars", str(bars), "--seed", "7",
            "--swing", "1.79", "--jitter-ms", "2", "--render", str(wav)]
    assert main(argv) == 0
    return wav


def serial_reference(wav, out_dir):
    """The audio pipeline run stage after stage on one thread."""
    clip = load_audio(wav)
    env = envelope(highpass(clip))
    series = merge_close_onsets(detect_onsets(env))
    result = run_analysis(series, params=AnalysisParams(), input_descriptor=str(wav))
    write_analysis_outputs(out_dir, result)
    tg = fourier_tempogram(novelty_curve(clip), TempogramParams())
    write_tempogram_csv(out_dir / "tempogram.csv", tg)
    (out_dir / "tempogram.json").write_text(
        json.dumps(tempogram_summary(tg), indent=2) + "\n", encoding="utf-8"
    )


def contents(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_outputs_match_serial_reference(tmp_path, capsys):
    wav = render(tmp_path, 24)
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert main(["analyze", str(wav), "--out-dir", str(out_dir)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"wrote {out_dir / 'report.json'}"]
    ref_dir = tmp_path / "ref"
    serial_reference(wav, ref_dir)
    got = contents(out_dir)
    assert {"report.json", "tempogram.csv", "tempogram.json"} <= set(got)
    assert got == contents(ref_dir)


def test_short_clip_prints_skip_before_report(tmp_path, capsys):
    wav = render(tmp_path, 2)
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert main(["analyze", str(wav), "--out-dir", str(out_dir)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "clip shorter than one tempogram window; skipping tempogram outputs",
        f"wrote {out_dir / 'report.json'}",
    ]
    assert not any(p.name.startswith("tempogram") for p in out_dir.iterdir())


def test_tempogram_error_surfaces_after_report(tmp_path, capsys, monkeypatch):
    wav = render(tmp_path, 24)
    capsys.readouterr()

    def failing_novelty(clip):
        raise ParameterError("novelty failed")

    monkeypatch.setattr(groovekit.cli, "novelty_curve", failing_novelty)
    out_dir = tmp_path / "out"
    assert main(["analyze", str(wav), "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "groovekit: novelty failed\n"
    assert not out_dir.exists()


def test_analysis_error_writes_nothing(tmp_path, capsys, monkeypatch):
    wav = render(tmp_path, 24)
    capsys.readouterr()

    def failing_analysis(*args, **kwargs):
        raise DegenerateInputError("analysis failed")

    monkeypatch.setattr(groovekit.cli, "run_analysis", failing_analysis)
    out_dir = tmp_path / "out"
    assert main(["analyze", str(wav), "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == "groovekit: analysis failed\n"
    assert not out_dir.exists()


def test_detection_error_writes_nothing(tmp_path, capsys):
    wav = tmp_path / "clip.wav"
    wavfile.write(wav, 44100, np.zeros(44100, dtype=np.float32))
    out_dir = tmp_path / "out"
    assert main(["analyze", str(wav), "--out-dir", str(out_dir), "--cutoff-hz", "30000"]) == 2
    err = capsys.readouterr().err
    assert "cutoff_hz must be in (0, 22050)" in err
    assert "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize("name", ["write_tempogram_csv", "tempogram_summary"])
def test_sidecar_encoding_error_writes_nothing(tmp_path, capsys, monkeypatch, name):
    """The tempogram thread encodes its two files before any file is
    written; an error there is raised from the pool's result."""
    wav = render(tmp_path, 24)
    capsys.readouterr()

    def failing(*args):
        raise ParameterError(f"{name} failed")

    monkeypatch.setattr(groovekit.cli, name, failing)
    out_dir = tmp_path / "out"
    assert main(["analyze", str(wav), "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr() == ("", f"groovekit: {name} failed\n")
    assert not out_dir.exists()


SCHEDULES = {
    # (the tempogram thread idle from the start, CPUs)
    "every hand-off taken": (True, 2),
    "helper busy": (False, 2),
    "one CPU": (True, 1),
}


@pytest.mark.parametrize("schedule", list(SCHEDULES))
def test_outputs_do_not_depend_on_the_schedule(tmp_path, monkeypatch, schedule):
    """The tempogram thread's hand-offs (half of the envelope and of its
    divide, half of the peak scan) all taken, or each refused: the same
    bytes as the serial pipeline. Idle from the start, the thread finishes
    the tempogram and its files before detection begins, as the ``after``
    case of the memory test in test_audio_streaming.py arranges."""
    from groovekit import _cpu, _signal, audio

    idle, cpus = SCHEDULES[schedule]
    wav = render(tmp_path, 24)  # 34 s: long enough for both splits from the first block
    detect = groovekit.cli._detect_from_audio

    def scheduled(source, args, helper):
        pool, done = helper
        pool.submit(int).result(timeout=120)  # the one-thread pool has run the tempogram task
        return detect(source, args, (pool, lambda: idle and done()))

    tails, scans = [], []
    smooth_tail, candidate_peaks = audio._smooth_tail, _signal._candidate_peaks

    def spy_tail(*args):
        tails.append(smooth_tail(*args))
        return tails[-1]

    def spy_scan(*args):
        scans.append(threading.current_thread() is threading.main_thread())
        return candidate_peaks(*args)

    monkeypatch.setattr(groovekit.cli, "_detect_from_audio", scheduled)
    monkeypatch.setattr(_cpu, "cpu_count", lambda: cpus)
    monkeypatch.setattr(audio, "_smooth_tail", spy_tail)
    monkeypatch.setattr(_signal, "_candidate_peaks", spy_scan)
    out_dir = tmp_path / "out"
    assert main(["analyze", str(wav), "--out-dir", str(out_dir)]) == 0
    if idle and cpus > 1:
        assert len(tails) == 1 and tails[0] is not None
        assert sorted(scans) == [False, True]  # the tail on the helper, the head here
    else:
        assert tails == [] and scans == [True]
    ref_dir = tmp_path / "ref"
    serial_reference(wav, ref_dir)
    assert contents(out_dir) == contents(ref_dir)
