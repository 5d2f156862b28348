"""Invariants of ``report.json`` over drawn annotation files and flags.

The files are synth grooves (drawn tempo, swing, bars, jitter, ghost
probability, amplitude jitter and seed), isochronous files, grooves with
every amplitude set to one value, grooves with drawn runs of onsets removed
(so that many intervals are discarded), and files whose every interval lies
beyond the class cutoff. Each is analyzed with drawn ``--dfa-short``,
``--dfa-long``, ``--phrase-len``, ``--max-multiple`` and ``--raw-intervals``.

A run that writes a report must satisfy:

- the class counts, discarded included, sum to ``onset_count - 1``;
- ``gap_count`` equals ``discarded``;
- ``swing`` is null exactly when ``swing_note`` is present;
- each α is null exactly when its r² is;
- ``n_scales`` equals the row count of ``dfa_<series>.csv``;
- no phrase slot count exceeds ``n_phrases``;
- each ``s_ranges`` is the requested range clipped to the series' largest
  scale, the last ``s`` of its ``dfa_<series>.csv``.

Apart from the drawn files, a gap-free synth groove's ``drift.final_s`` is 0
up to a stated rounding bound, and a jitter-free tempo ramp's
``drift.max_abs_s`` is the drift of its programmed onset times, up to a
stated rounding bound.

A file with no interval within the cutoff has no base unit: it exits 2 and
writes nothing. So may a drawn file under a tight ``--max-multiple``, and a
gappy one left with fewer than 8 onsets exits 1.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groovekit import GrooveSpec, gen_shuffle_onsets
from groovekit.analysis import DFA_SERIES
from groovekit.cli import main
from groovekit.onsets import read_onsets_csv

HEADER = "index,time_s,amplitude,label,source\r\n"
# what a run that writes no report may say, by exit code: too few onsets
# (a gappy file), or no base unit under the drawn --max-multiple
NO_REPORT = {
    1: ("need at least 8 onsets",),
    2: ("no intervals within the class cutoff", "did not converge"),
}


def _write(path, times, amplitudes):
    rows = "".join(
        f"{i},{t:.6f},{a:.6f},hihat,auto\r\n" for i, (t, a) in enumerate(zip(times, amplitudes))
    )
    path.write_text(HEADER + rows, newline="")


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


@st.composite
def annotation_file(draw, path):
    """Write a drawn annotation file to ``path``; return its kind."""
    kind = draw(st.sampled_from(
        ["groove", "isochronous", "constant-amplitude", "gappy", "all-discarded"]
    ))
    if kind in ("isochronous", "all-discarded"):
        n = draw(st.integers(8, 300))
        period = draw(st.floats(0.05, 0.5))
        times = 0.5 + period * np.arange(n)
        level = draw(st.floats(0.05, 1.0))
        _write(path, times, [level] * n)
        return kind
    argv = [
        "synth", "-o", str(path),
        "--bpm", repr(draw(st.floats(60.0, 140.0))),
        "--swing", repr(draw(st.floats(1.0, 3.0))),
        "--bars", str(draw(st.integers(2, 40))),
        "--jitter-ms", repr(draw(st.floats(0.0, 6.0))),
        "--ghost-prob", repr(draw(st.floats(0.0, 0.5))),
        "--amplitude-jitter", repr(draw(st.floats(0.0, 0.3))),
        "--seed", str(draw(st.integers(0, 2**16))),
    ]
    assert main(argv) == 0
    if kind == "groove":
        return kind
    rows = _rows(path)
    times = [float(r[1]) for r in rows]
    amplitudes = [float(r[2]) for r in rows]
    if kind == "constant-amplitude":
        amplitudes = [draw(st.floats(0.05, 1.0))] * len(rows)
    else:  # gappy: drop every onset of a few drawn runs
        keep = [True] * len(rows)
        for _ in range(draw(st.integers(1, 6))):
            start = draw(st.integers(1, len(rows) - 1))
            for k in range(start, min(start + draw(st.integers(1, 8)), len(rows))):
                keep[k] = False
        times = [t for t, k in zip(times, keep) if k]
        amplitudes = [a for a, k in zip(amplitudes, keep) if k]
    _write(path, times, amplitudes)
    return kind


@st.composite
def scale_range(draw):
    lo = draw(st.integers(1, 40))
    return lo, draw(st.integers(lo + 1, 160))


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_report_invariants(data, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "onsets.csv"
        kind = data.draw(annotation_file(path))
        short, long = data.draw(scale_range()), data.draw(scale_range())
        max_multiple = data.draw(
            st.floats(0.2, 0.95) if kind == "all-discarded" else st.floats(1.0, 6.0)
        )
        argv = [
            "analyze", str(path), "--out-dir", str(tmp / "out"),
            "--dfa-short", f"{short[0]}:{short[1]}", "--dfa-long", f"{long[0]}:{long[1]}",
            "--phrase-len", str(2 * data.draw(st.integers(1, 16))),
            "--max-multiple", repr(max_multiple),
        ]
        if data.draw(st.booleans()):
            argv.append("--raw-intervals")
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err
        out = tmp / "out"
        if kind == "all-discarded":
            assert code == 2 and "no intervals within the class cutoff" in err, err
        if code:
            assert any(why in err for why in NO_REPORT.get(code, ())), (code, err)
            assert not out.exists()
            return
        report = json.loads((out / "report.json").read_text())

        counts = report["interval_counts"]
        assert sum(counts.values()) == report["onset_count"] - 1
        assert report["drift"]["gap_count"] == counts["discarded"]
        assert (report["swing"] is None) == ("swing_note" in report)

        assert set(report["dfa"]) == set(DFA_SERIES)
        for name, entry in report["dfa"].items():
            sidecar = out / f"dfa_{name}.csv"
            if "skipped" in entry:
                assert not sidecar.exists()
                continue
            for alpha in ("alpha1", "alpha2"):
                assert (entry[alpha] is None) == (entry["r_squared"][alpha] is None)
            rows = _rows(sidecar)
            assert entry["n_scales"] == len(rows)
            s_max = int(rows[-1][0])
            assert entry["s_ranges"] == {
                "alpha1": [short[0], min(short[1], s_max)],
                "alpha2": [long[0], min(long[1], s_max)],
            }

        for profile in report["phrase"].values():
            assert all(n <= profile["n_phrases"] for n in profile["n"])


@pytest.mark.parametrize("groove", [
    ["--jitter-ms", "5", "--lrc-beta", "1", "--lrc-sigma-ms", "2"],
    ["--jitter-ms", "3", "--ramp-bpm", "96"],
], ids=["lrc", "ramp"])
@pytest.mark.parametrize("bars", [60, 600])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_gap_free_final_drift_is_rounding(tmp_path, groove, bars, seed):
    """With no gap, the drift sums ``tau/multiple - base`` over every interval,
    and ``base`` is the mean of those same ``n`` normalized intervals, so the
    sum is 0 in exact arithmetic. Each of its rounded steps (the mean's ``n``
    additions and its division, the ``n`` subtractions of ``base`` and the
    ``n`` additions of the running drift) errs by at most half an ulp of a
    value no larger than the track length ``T``, so ``|final_s|`` stays under
    ``2 n ulp(T)``. Measured over 96 gap-free grooves (seeds 0-7; 16, 60, 300
    and 1200 bars; plain, with LRC noise, and ramped from 84 to 96 BPM): at
    most 0.0034 n ulp(T), or 26 ulp(T). A base unit other than that mean
    shows far above the bound."""
    csv_path, out = tmp_path / "groove.csv", tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "-o", str(csv_path), "--bars", str(bars), "--seed", str(seed), *groove]) == 0
        assert main(["analyze", str(csv_path), "--out-dir", str(out)]) == 0
    drift = json.loads((out / "report.json").read_text())["drift"]
    times = read_onsets_csv(csv_path).times()
    n, track_s = len(times) - 1, float(times[-1] - times[0])
    assert drift["gap_count"] == 0
    assert abs(drift["final_s"]) < 2 * n * math.ulp(track_s), drift


@pytest.mark.parametrize("bars", [60, 300])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jitter_free_ramp_drift_is_the_programmed_drift(tmp_path, bars, seed):
    """An 84 -> 96 BPM ramp with no timing noise (swing 2, so every programmed
    interval is a whole number of units; ghosts make the seeds differ):
    ``max_abs_s`` is the largest deviation of the programmed onset times from
    their own mean tick, ``max |sum_{i<k} (tau_i/m_i - mean tau/m)|`` over the
    nominal intervals and their unit counts.

    The annotation CSV rounds each time by at most eps = 0.5 us (``%.6f``).
    Interval i then moves by (e_{i+1} - e_i)/m_i; summed up to k, the e_j
    telescope to two end terms plus e_j (1/m_{j-1} - 1/m_j), at most eps/2
    each for m in {1, 2}, so a partial sum moves by at most eps (2 + k/2),
    and k times the mean tick by at most eps (2 + n/2). So the two figures
    differ by at most eps (n + 4), plus float rounding far below 4 ulp(T)
    per interval, T the track length. Measured over seeds 0-7 and 16-1200
    bars: at most 0.0056 n us, about 1% of the bound, against drifts of
    0.4-20 s."""
    csv_path, out = tmp_path / "groove.csv", tmp_path / "out"
    flags = ["--bars", str(bars), "--seed", str(seed), "--ramp-bpm", "96", "--ghost-prob", "0.3"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "-o", str(csv_path), *flags]) == 0
        assert main(["analyze", str(csv_path), "--out-dir", str(out)]) == 0
    drift = json.loads((out / "report.json").read_text())["drift"]
    spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=bars, ghost_probability=0.3,
                      drift_profile=((0.0, 84.0), (float(bars), 96.0)))
    truth = gen_shuffle_onsets(spec, seed=seed)[1]
    ticks = np.diff(truth.nominal_times_s) / np.diff(truth.unit_positions)
    programmed = float(np.max(np.abs(np.cumsum(ticks - ticks.mean()))))
    n, track_s = len(ticks), float(truth.nominal_times_s[-1])
    assert drift["gap_count"] == 0
    assert abs(drift["max_abs_s"] - programmed) <= (n + 4) * (0.5e-6 + 4 * math.ulp(track_s))
