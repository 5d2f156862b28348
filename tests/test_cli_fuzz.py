"""The exit-code contract for arbitrary annotation CSVs and analysis flags.

``analyze`` on a CSV must exit 0, 1 or 2 and print no traceback, whatever
follows a valid header and whatever values the analysis flags take. Every
generated file is small, and so is every flag value that sizes an array:
``--bpm-hint`` only seeds the base unit, so it is also drawn log-uniformly
from subnormal to near the float64 limit, but ``--max-multiple`` stays small,
since a huge class cutoff makes the class histograms allocate by size.
Warnings are errors under the test settings, so a RuntimeWarning on the way
fails too.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from groovekit.cli import main
from groovekit.onsets import LABELS, SOURCES

HEADER = "index,time_s,amplitude,label,source\r\n"


@st.composite
def csv_tails(draw):
    """Raw bytes, or shuffle-like rows with at most one field spoiled."""
    kind = draw(st.sampled_from(["bytes", "rows", "spoiled"]))
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    n = draw(st.integers(0, 60))
    gaps = draw(st.lists(st.sampled_from([0.1, 0.2, 0.15, 0.3, 0.4]), min_size=n, max_size=n))
    rows = [
        [str(k), f"{t:.6f}", repr(draw(st.floats(0.0, 1.0))),
         draw(st.sampled_from(LABELS)), draw(st.sampled_from(SOURCES))]
        for k, t in enumerate(0.5 + np.cumsum(gaps))
    ]
    if kind == "spoiled" and rows:
        row = draw(st.integers(0, len(rows) - 1))
        field = draw(st.integers(0, 4))
        rows[row][field] = draw(st.sampled_from(["", "nan", "-inf", "-1", "0", "x", '"1"', "1e400"]))
    return "".join(",".join(row) + "\r\n" for row in rows).encode()


@st.composite
def dfa_range(draw):
    lo = draw(st.integers(-1, 40))
    return f"{lo}:{lo + draw(st.integers(-1, 90))}"


@st.composite
def analyze_flags(draw):
    """Each flag absent or set; mostly to values the parser accepts."""
    values = {
        "--max-multiple": st.floats(-1.0, 10.0).map(repr),
        "--phrase-len": st.integers(-1, 20).map(lambda k: str(2 * k + (k == 5))),
        # a tempo, or 10**e with e uniform in [-320, 308]
        "--bpm-hint": st.one_of(
            st.floats(-10.0, 400.0), st.floats(-320.0, 308.0).map(lambda e: 10.0**e)
        ).map(repr),
        "--dfa-short": dfa_range(),
        "--dfa-long": dfa_range(),
    }
    argv = []
    for flag, strategy in values.items():
        if draw(st.booleans()):
            argv += [flag, draw(strategy)]
    return argv


# a groove that reaches the base-unit estimate
GROOVE = "".join(f"{k},{0.5 + 0.3 * (k // 2) + 0.2 * (k % 2):.6f},0.5,hihat,auto\r\n"
                 for k in range(40)).encode()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tail=csv_tails(), flags=analyze_flags())
@example(tail=GROOVE, flags=["--bpm-hint", "1e308"])
@example(tail=GROOVE, flags=["--bpm-hint", "1e-320"])
def test_analyze_csv_exits_cleanly(tail, flags, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.csv"
        path.write_bytes(HEADER.encode() + tail)
        try:
            code = main(["analyze", str(path), "--out-dir", str(Path(tmp) / "out"), *flags])
        except SystemExit as exc:  # argparse rejects a malformed flag value
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in err
