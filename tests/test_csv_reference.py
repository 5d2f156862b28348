"""Block-formatted CSV writers and the block-streamed annotation reader
against the row-at-a-time code they replaced.

The reference writers below are the ``csv.writer`` versions; every library
writer must match them byte for byte, at sizes on both sides of the
writer's block boundary and with the awkward values (signed zeros, ``None``
fields, exponent forms). The reader test compares the fast path with the
row reader it falls back to: equal columns and dtypes, or the same
:class:`FormatError` text.
"""

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groovekit import (
    AnnotationEdit,
    OnsetSeries,
    read_onsets_csv,
    write_edits_csv,
    write_onsets_csv,
)
import groovekit._csvio as csvio
from groovekit._csvio import BLOCK_ROWS, write_rows
from groovekit.analysis import _write_dfa_csv, _write_histogram_csv
from groovekit.cli import main
from groovekit.dfa import FluctuationResult
from groovekit.errors import FormatError
from groovekit.groove import (
    PhraseProfile,
    PhraseTemplate,
    write_drift_csv,
    write_profile_csv,
)
from groovekit.intervals import Section, SectionMap, write_sections_csv
from groovekit.onsets import LABELS, SOURCES, _read_onsets_rows
from groovekit.synth import gen_powerlaw_noise

SIZES = [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]
ODD_FLOATS = [0.0, -0.0, -1.5, 1e-20, -3.25e-7, 1.2345678912345e15, 9.87654321e22, 5e-324]
# exact halfway cases at 3, 6 and 9 digits (x*10**N is k + 1/2 exactly, so %
# rounds half to even), their neighbours, and negatives that round to zero
TIE_FLOATS = [0.0625, 0.1875, -0.3125, 0.0078125, -0.0234375, 1.0078125, 0.0009765625,
              -0.0029296875, np.nextafter(0.0625, 1.0), np.nextafter(0.0078125, 0.0),
              np.nextafter(-0.0009765625, -1.0), -4e-10, -4e-7, -4e-4]
HEADER = "index,time_s,amplitude,label,source"


# ---------------------------------------------------------------------------
# the seed writers


def _csv_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def ref_drift(path, times, drift, gaps):
    _csv_rows(path, ["index", "time_s", "drift_s", "gap"], (
        [i, f"{t:.6f}", f"{d:.9f}", int(g)]
        for i, (t, d, g) in enumerate(zip(times.tolist(), drift.tolist(), gaps.tolist()), start=1)
    ))


def _fixed(value, digits):
    return "" if value is None else f"{value:.{digits}f}"


def ref_profile(path, profile):
    dev = profile.deviation_pct or (None,) * len(profile.template)
    _csv_rows(path, ["position", "mean", "std", "n", "deviation_pct"], (
        [s, _fixed(profile.mean[s], 9), _fixed(profile.std[s], 9), profile.n[s], _fixed(dev[s], 6)]
        for s in range(len(profile.template))
    ))


def ref_dfa(path, result):
    local = dict(result.alpha_local)
    _csv_rows(path, ["s", "F", "alpha_local"], (
        [int(s), f"{f:.9g}", "" if local.get(int(s)) is None else f"{local[int(s)]:.6f}"]
        for s, f in zip(result.scales, result.F)
    ))


def ref_histogram(path, hist):
    edges = hist["bin_edges_s"]
    _csv_rows(path, ["bin_start_ms", "bin_end_ms", "count"], (
        [f"{lo * 1e3:.3f}", f"{hi * 1e3:.3f}", c]
        for lo, hi, c in zip(edges, edges[1:], hist["counts"])
    ))


def ref_onsets(path, series):
    rows = zip(series.times().tolist(), series.amplitudes().tolist(), series.labels(), series.sources())
    _csv_rows(path, HEADER.split(","), (
        [i, f"{t:.6f}", f"{a:.6f}", label, source] for i, (t, a, label, source) in enumerate(rows)
    ))


def ref_edits(path, edits):
    _csv_rows(path, ["kind", "target_time_s", "new_time_s", "label"], (
        [e.kind, f"{e.target_time_s:.6f}",
         "" if e.new_time_s is None else f"{e.new_time_s:.6f}", e.label or ""]
        for e in edits
    ))


def ref_sections(path, sections):
    _csv_rows(path, ["start_s", "end_s", "tag"], (
        [f"{s.start_time_s:.6f}", f"{s.end_time_s:.6f}", s.tag] for s in sections
    ))


def ref_series(path, values):
    _csv_rows(path, ["value"], ([f"{v:.12g}"] for v in values))


def assert_same_bytes(tmp_path, write, ref, *args):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(got, *args)
    ref(want, *args)
    assert got.read_bytes() == want.read_bytes()


def odd_values(n, seed=0):
    """n floats that cycle through ODD_FLOATS between random ones."""
    values = np.random.default_rng(seed).normal(0.0, 1e-3, n)
    values[::3] = np.resize(ODD_FLOATS, len(values[::3]))
    return values


# ---------------------------------------------------------------------------
# writers, byte for byte


@pytest.mark.parametrize("n", SIZES)
class TestWritersMatchCsvWriter:
    def test_drift(self, tmp_path, n):
        times, gaps = np.cumsum(np.full(n, 0.1234567)), np.arange(n) % 5 == 0
        assert_same_bytes(tmp_path, write_drift_csv, ref_drift, times, odd_values(n), gaps)

    def test_profile(self, tmp_path, n):
        n = max(n, 2)
        values = odd_values(n).tolist()
        maybe = [None if k % 4 == 1 else v for k, v in enumerate(values)]
        template = PhraseTemplate(slot_units=tuple(range(n)), units_per_phrase=n + 1)
        for deviation in ((), tuple(reversed(maybe))):
            profile = PhraseProfile("interval", template, tuple(maybe), tuple(values),
                                    tuple(range(n)), deviation)
            assert_same_bytes(tmp_path, write_profile_csv, ref_profile, profile)

    def test_dfa(self, tmp_path, n):
        scales = np.arange(4, 4 + n)
        F = np.abs(odd_values(n)) * 10.0 ** (np.arange(n) % 40 - 20)
        local = tuple((int(s), float(v)) for s, v in zip(scales[::2], odd_values(n)[::2]))
        result = FluctuationResult(scales=scales, F=F, detrend_order=1, alpha_local=local)
        assert_same_bytes(tmp_path, _write_dfa_csv, ref_dfa, result)

    def test_drift_ties(self, tmp_path, n):
        ties = np.resize(TIE_FLOATS, n)
        times, gaps = np.abs(ties) + np.arange(n) // 7, np.arange(n) % 3 == 0
        assert_same_bytes(tmp_path, write_drift_csv, ref_drift, times, ties, gaps)

    def test_histogram_ties(self, tmp_path, n):
        # 0.0625 ms steps: in ms, about 2 edges in 5 are exact 3-digit ties
        edges = (np.arange(n + 1) * 0.0625e-3).tolist()
        hist = {"bin_edges_s": edges, "counts": [k % 3 for k in range(n)]}
        assert_same_bytes(tmp_path, _write_histogram_csv, ref_histogram, hist)

    def test_histogram(self, tmp_path, n):
        edges = (0.0123 + 0.002 * np.arange(n + 1)).tolist()
        hist = {"bin_edges_s": edges, "counts": [k % 7 for k in range(n)]}
        assert_same_bytes(tmp_path, _write_histogram_csv, ref_histogram, hist)

    def test_onsets(self, tmp_path, n):
        times = 0.1 * np.arange(n) + np.abs(odd_values(n)) % 1e-3
        times[:1] = -0.0
        amplitudes = np.abs(odd_values(n, seed=1)) % 1.0
        amplitudes[1::7] = -0.0
        labels = [LABELS[k % len(LABELS)] for k in range(n)]
        sources = [SOURCES[k % len(SOURCES)] for k in range(n)]
        series = OnsetSeries.from_columns(times, amplitudes, labels, sources)
        assert_same_bytes(tmp_path, write_onsets_csv, ref_onsets, series)

    def test_edits(self, tmp_path, n):
        kinds = ("add", "remove", "move", "relabel")
        edits = [
            AnnotationEdit(kind=kinds[k % 4], target_time_s=float(v),
                           new_time_s=-float(v) if k % 4 == 2 else None,
                           label=("ghost", 'odd, "quoted"\nlabel', "hihat")[k % 3]
                           if k % 4 == 3 else None)
            for k, v in enumerate(odd_values(n))
        ]
        assert_same_bytes(tmp_path, write_edits_csv, ref_edits, edits)

    def test_sections(self, tmp_path, n):
        tags = ("A1-verse", "A2-prechorus", "B-chorus", "other")
        sections = SectionMap(sections=tuple(
            Section(-0.0 if k == 0 else 2.0 * k, 2.0 * k + 1.0000004, tags[k % 4]) for k in range(n)
        ))
        assert_same_bytes(tmp_path, write_sections_csv, ref_sections, sections)

    def test_series_only(self, tmp_path, n):
        n = max(n, 2)
        out, want = tmp_path / "s.csv", tmp_path / "want.csv"
        assert main(["synth", "-o", str(out), "--series-only", "-n", str(n), "--seed", "3"]) == 0
        ref_series(want, gen_powerlaw_noise(1.0, n, seed=3))
        assert out.read_bytes() == want.read_bytes()


# ---------------------------------------------------------------------------
# the numpy encoder of %d and %.Nf fields against %


def _percent_rows(fmt, columns):
    return "".join(fmt % row for row in zip(*(c.tolist() for c in columns))).encode()


def _fixed_values(digits):
    """Floats across exponents, with ties, signed zeros, the smallest
    subnormal, negatives that round to zero, the encoder's 2**52 cutoff and
    non-finite values (which only the % fallback writes)."""
    cutoff = 2.0**52 / 10**digits
    return st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0), st.integers(-12, 8)),
        st.builds(lambda k, e: k * 2.0**e, st.integers(-(2**21), 2**21), st.integers(-30, 0)),
        st.floats(-0.5 * 10.0**-digits, 0.0),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, cutoff, -cutoff, np.nextafter(cutoff, 0.0),
                         np.nextafter(-cutoff, 0.0), np.nextafter(cutoff, np.inf), *TIE_FLOATS]),
        st.floats(cutoff, 8 * cutoff),
    )


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("digits", [3, 6, 9])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_encoder_matches_percent(tmp_path, n, digits, data):
    """Drawn values repeat to ``n`` rows; one drawn value, out of range or
    not, lands at a drawn row, so blocks on either path meet."""
    fmt = f"%d,%.{digits}f\r\n"
    ints = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40))
    floats = data.draw(st.lists(_fixed_values(digits), min_size=1, max_size=40))
    index = np.resize(np.array(ints, dtype=np.int64), n)
    values = np.resize(np.array(floats), n)
    if n:
        values[data.draw(st.integers(0, n - 1))] = data.draw(_fixed_values(digits))
    path = tmp_path / "got.csv"
    write_rows(path, ["i", "x"], fmt, [index, values])
    assert path.read_bytes() == b"i,x\r\n" + _percent_rows(fmt, [index, values])


def _refuse(fmt, block):
    raise AssertionError(f"fell back to % for {fmt!r}")


def test_drift_and_histogram_are_encoded_without_percent(tmp_path, monkeypatch):
    n = 2 * BLOCK_ROWS + 1
    d = odd_values(n)
    d[np.abs(d) > 1.0] = 0.5  # in the encoder's range
    times, gaps = np.cumsum(np.full(n, 0.1234567)), np.arange(n) % 5 == 0
    hist = {"bin_edges_s": (0.0123 + 0.002 * np.arange(n + 1)).tolist(), "counts": [k % 7 for k in range(n)]}
    monkeypatch.setattr(csvio, "_percent_block", _refuse)
    assert_same_bytes(tmp_path, write_drift_csv, ref_drift, times, d, gaps)
    assert_same_bytes(tmp_path, _write_histogram_csv, ref_histogram, hist)


@pytest.fixture
def percent_calls(monkeypatch):
    """The rows of each block the ``%`` fallback writes."""
    calls, fallback = [], csvio._percent_block

    def percent(fmt, block):
        calls.append(len(block[0]))
        return fallback(fmt, block)

    monkeypatch.setattr(csvio, "_percent_block", percent)
    return calls


def test_only_blocks_out_of_range_fall_back(tmp_path, percent_calls):
    values = np.linspace(-2.0, 2.0, 3 * BLOCK_ROWS)
    values[BLOCK_ROWS + 5] = np.nan
    values[2 * BLOCK_ROWS + 7] = 2.0**52  # |x|*10**6 beyond the cutoff
    ints = np.arange(3 * BLOCK_ROWS, dtype=np.int64)
    fmt = "%d,%.6f\r\n"
    write_rows(tmp_path / "got.csv", ["i", "x"], fmt, [ints, values])
    assert percent_calls == [BLOCK_ROWS, BLOCK_ROWS]
    assert (tmp_path / "got.csv").read_bytes() == b"i,x\r\n" + _percent_rows(fmt, [ints, values])


@pytest.mark.parametrize("fmt, column", [
    ("%d\r\n", np.array([1.0, 2.0])),  # %d of floats truncates in %
    ("%d\r\n", np.array([np.iinfo(np.int64).min, 0])),
    ("%d\r\n", np.array([2**63, 1], dtype=np.uint64)),
    ("%.6f\r\n", np.array([1.5, 2], dtype=object)),
    ("%.6f\r\n", np.array([3, -2])),
    ("%s,%.3f\r\n", None),
    ("%.9g\r\n", np.array([0.5])),
    ("%5d\r\n", np.array([3, -4])),
    ("%.16f\r\n", np.array([0.5])),
])
def test_other_conversions_and_dtypes_fall_back(tmp_path, percent_calls, fmt, column):
    columns = [np.array(["a", "b"], dtype=object), np.array([0.25, -0.5])] if column is None else [column]
    write_rows(tmp_path / "got.csv", ["h"], fmt, columns)
    assert percent_calls == [len(columns[0])]
    assert (tmp_path / "got.csv").read_bytes() == b"h\r\n" + _percent_rows(fmt, columns)


def test_literal_text_and_percent_signs_are_kept(tmp_path, percent_calls):
    fmt = "<%d%%|%.3f>\t%.0f;\r\n"
    columns = [np.array([-7, 0, 12345]), np.array([2.0005, -0.0, 1e9]), np.array([0.5, 1.5, -2.5])]
    write_rows(tmp_path / "got.csv", ["h"], fmt, columns)
    assert percent_calls == []
    assert (tmp_path / "got.csv").read_bytes() == b"h\r\n" + _percent_rows(fmt, columns)


@pytest.mark.parametrize("time_s", [[0.1], [0.1, 0.2]])
def test_columns_of_unequal_length_are_rejected(tmp_path, time_s):
    """A one-row column must not be broadcast over the others."""
    with pytest.raises(ValueError, match="columns of 3, 1|columns of 3, 2"):
        write_drift_csv(tmp_path / "drift.csv", np.array(time_s), np.zeros(3), np.zeros(3, dtype=bool))
    assert not (tmp_path / "drift.csv").exists()


def test_series_format_exponent_forms(tmp_path):
    values = ODD_FLOATS + [123456789012345.0, 1e-5, -2.5e300, float("nan"), float("inf")]
    write_rows(tmp_path / "got.csv", ["value"], "%.12g\r\n", [values])
    ref_series(tmp_path / "want.csv", values)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# ---------------------------------------------------------------------------
# reader: fast path against the row reader


def outcome(read, path):
    try:
        series = read(path)
    except FormatError as exc:
        return ("error", str(exc))
    return ("series", [(c.dtype.str, c.tobytes()) for c in series._cols])


def assert_readers_agree(path):
    fast, rows = outcome(read_onsets_csv, path), outcome(_read_onsets_rows, path)
    assert fast == rows
    return fast


def annotation(n, time0=0.5):
    return "".join(
        f"{k},{time0 + 0.1 * k:.6f},{0.25 + 0.5 * (k % 2):.6f},{LABELS[k % 4]},{SOURCES[k % 3]}\r\n"
        for k in range(n)
    )


BODY = annotation(40)
ROWS = BODY.splitlines(keepends=True)

READER_CASES = {
    "crlf": HEADER + "\r\n" + BODY,
    "lf": HEADER + "\n" + BODY.replace("\r\n", "\n"),
    "cr": HEADER + "\r" + BODY.replace("\r\n", "\r"),
    "mixed endings": HEADER + "\n" + "".join(r.replace("\r\n", ("\n", "\r", "\r\n")[k % 3])
                                              for k, r in enumerate(ROWS)),
    "no final newline": HEADER + "\r\n" + BODY.rstrip("\r\n"),
    "header only": HEADER + "\r\n",
    "header without newline": HEADER,
    "empty file": "",
    "blank lines": HEADER + "\r\n\r\n" + "".join(ROWS[:5]) + "\r\n\n" + "".join(ROWS[5:]) + "\r\n",
    "whitespace line": HEADER + "\r\n" + "".join(ROWS[:5]) + "   \r\n" + "".join(ROWS[5:]),
    "quoted fields": HEADER + "\r\n" + "".join(ROWS[:3]) + '3,"0.800000",0.5,"hihat",auto\r\n'
    + "".join(ROWS[4:]),
    "quoted header": '"index","time_s",amplitude,label,source\r\n' + BODY,
    "quoted field across lines": HEADER + "\r\n" + '"0,0.5,0.5,hihat,auto\r\n1",0.6,0.5,hihat,auto\r\n',
    "quoted comma in index": HEADER + "\r\n" + '"0,x",0.5,0.5,hihat,auto\r\n' + "".join(ROWS[1:]),
    "BOM": "\ufeff" + HEADER + "\r\n" + BODY,
    "bad header": "index,time,amplitude,label,source\r\n" + BODY,
    "extra column": HEADER + "\r\n" + "".join(ROWS[:7]) + "7,1.200000,0.5,hihat,auto,x\r\n"
    + "".join(ROWS[8:]),
    "missing column": HEADER + "\r\n" + "".join(ROWS[:7]) + "7,1.200000,0.5,hihat\r\n"
    + "".join(ROWS[8:]),
    "extra then missing column": HEADER + "\r\n" + "".join(ROWS[:7])
    + "7,1.200000,0.5,hihat,auto,8\r\n1.300000,0.5,hihat,auto\r\n" + "".join(ROWS[9:]),
    "nan time": HEADER + "\r\n" + "".join(ROWS[:9]) + "9,nan,0.5,hihat,auto\r\n" + "".join(ROWS[10:]),
    "inf amplitude": HEADER + "\r\n" + "".join(ROWS[:9]) + "9,1.400000,inf,hihat,auto\r\n"
    + "".join(ROWS[10:]),
    "amplitude above one": HEADER + "\r\n" + "2,0.1,1.5,hihat,auto\r\n",
    "bad float": HEADER + "\r\n" + "".join(ROWS[:9]) + "9,1.4s,0.5,hihat,auto\r\n" + "".join(ROWS[10:]),
    "python float forms": HEADER + "\r\n" + "0, 1_0.5 ,1e-1,hihat,auto\r\n1,11,.5,ghost,manual-add\r\n",
    "unknown label": HEADER + "\r\n" + "".join(ROWS[:9]) + "9,1.400000,0.5,cowbell,auto\r\n"
    + "".join(ROWS[10:]),
    "unknown source": HEADER + "\r\n" + "".join(ROWS[:9]) + "9,1.400000,0.5,ghost,robot\r\n"
    + "".join(ROWS[10:]),
    "label with space": HEADER + "\r\n" + "0,0.5,0.5, hihat,auto\r\n",
    "non-increasing time": HEADER + "\r\n" + "".join(ROWS[:20]) + "20,0.600000,0.5,hihat,auto\r\n"
    + "".join(ROWS[21:]),
    "equal times": HEADER + "\r\n" + "0,0.5,0.5,hihat,auto\r\n1,0.5,0.5,hihat,auto\r\n",
    "NUL in index": HEADER + "\r\n" + "\x00,0.5,0.5,hihat,auto\r\n",
    "any index text": HEADER + "\r\n" + "a,0.5,0.5,hihat,auto\r\n,0.6,0.5,hihat,auto\r\n",
    "trailing empty column": HEADER + "\r\n" + "".join(ROWS[:3]) + "3,0.8,0.5,hihat,auto,\r\n",
    "NUL after label": HEADER + "\r\n" + "".join(ROWS[:3]) + "3,0.8,0.5,ghost\x00,auto\r\n",
    "source with suffix": HEADER + "\r\n" + "".join(ROWS[:3]) + "3,0.8,0.5,hihat,manual-moveX\r\n",
    "hash in label": HEADER + "\r\n" + "".join(ROWS[:3]) + "3,0.8,0.5,hihat#x,auto\r\n",
    "hash after source": HEADER + "\r\n" + "".join(ROWS[:3]) + "3,0.8,0.5,hihat,auto#1\r\n",
    "whitespace first row": HEADER + "\r\n" + "   \r\n" + BODY,
    "two inf times": HEADER + "\r\n" + "".join(ROWS[:3]) + "3,inf,0.5,hihat,auto\r\n"
    + "4,inf,0.5,hihat,auto\r\n",
    "unit separator after time": HEADER + "\r\n" + "".join(ROWS[:3]) + "3,0.8\x1f,0.5,hihat,auto\r\n",
    # numpy's float parser skips \x1c-\x1f, float() does not
    "file separator before amplitude": HEADER + "\r\n" + "".join(ROWS[:3]) + "3,0.8,\x1c0.5,hihat,auto\r\n",
    "group separator after amplitude": HEADER + "\r\n" + "".join(ROWS[:3]) + "3,0.8,0.5\x1d,hihat,auto\r\n",
    "record separator after amplitude": HEADER + "\r\n" + "".join(ROWS[:3])
    + "3,0.8,0.5\x1e,hihat,auto\r\n",
    "NUL inside label": HEADER + "\r\n" + "".join(ROWS[:3]) + "3,0.8,0.5,hi\x00hat,auto\r\n",
    # longer than the fast path's 8-byte label field, with a valid name as prefix
    "label longer than its field": HEADER + "\r\n" + "".join(ROWS[:3]) + "3,0.8,0.5,hihatXXXX,auto\r\n",
    "non-Latin-1 label": HEADER + "\r\n" + "".join(ROWS[:3]) + "3,0.8,0.5,\u0168ihat,auto\r\n",
    "Latin-1 label": HEADER + "\r\n" + "".join(ROWS[:3]) + "3,0.8,0.5,hih\xe2t,auto\r\n",
    # longer than the fast path's 12-byte source field, with a valid name as prefix
    "source longer than its field": HEADER + "\r\n" + "".join(ROWS[:3])
    + "3,0.8,0.5,hihat,manual-moveXY\r\n",
}


@pytest.mark.parametrize("name", sorted(READER_CASES))
def test_reader_matches_row_reader(tmp_path, name):
    path = tmp_path / "a.csv"
    path.write_text(READER_CASES[name], encoding="utf-8", newline="")
    assert_readers_agree(path)


def test_reader_reads_plain_files_in_blocks(tmp_path):
    path = tmp_path / "a.csv"
    rows = 4915  # about 192 KiB
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(HEADER + "\r\n" + annotation(rows))
    kind, _ = assert_readers_agree(path)
    assert kind == "series"
    assert len(read_onsets_csv(path)) == rows


@pytest.mark.parametrize("problem", ["9,nan,0.5,hihat,auto", "9,1.0,0.5,cowbell,auto",
                                     "9,0.4,0.5,hihat,auto", "9,1.0,0.5,hihat"])
def test_error_on_first_row_of_second_block(tmp_path, problem):
    path = tmp_path / "a.csv"
    lines = annotation(4915).splitlines(keepends=True)
    first_block = 1620  # rows in the first 64 KiB
    lines[first_block] = problem + "\r\n"
    path.write_text(HEADER + "\r\n" + "".join(lines), newline="")
    kind, message = assert_readers_agree(path)
    assert kind == "error"
    assert message.startswith(f"{path}:{first_block + 2}: bad annotation row")


def test_reader_non_utf8_is_format_error(tmp_path):
    path = tmp_path / "a.csv"
    path.write_bytes((HEADER + "\r\n").encode() + b"0,\xff\xfe,0.5,hihat,auto\r\n")
    kind, message = assert_readers_agree(path)
    assert kind == "error" and "not UTF-8" in message


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tail=st.binary(max_size=300))
def test_any_bytes_after_header_read_or_format_error(tmp_path, tail):
    path = tmp_path / "a.csv"
    path.write_bytes((HEADER + "\r\n").encode() + tail)
    fast = assert_readers_agree(path)
    assert fast[0] in ("series", "error")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["0.1", "0.2", "0.2", "1e-1", "nan", "-1", "x", ""]),
            st.sampled_from(["0.5", "1", "1.5", "0", "-0.0", "inf"]),
            st.sampled_from(LABELS + ("", "Hihat")),
            st.sampled_from(SOURCES + ("",)),
            st.sampled_from(["\r\n", "\n", "\r", ",\r\n", "\r\n\r\n"]),
        ),
        max_size=30,
    )
)
def test_near_valid_rows_readers_agree(tmp_path, rows):
    path = tmp_path / "a.csv"
    text = "".join(f"{k},{t},{a},{lab},{src}{end}" for k, (t, a, lab, src, end) in enumerate(rows))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(HEADER + "\r\n" + text)
    assert_readers_agree(path)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    gaps=st.lists(st.floats(min_value=1e-5, max_value=10.0), max_size=60),
    amps=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=60, max_size=60),
    codes=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2)), min_size=60, max_size=60),
)
def test_write_read_round_trip(tmp_path, gaps, amps, codes):
    times = np.cumsum(np.round(gaps, 5))
    n = len(times)
    labels = [LABELS[c[0]] for c in codes[:n]]
    sources = [SOURCES[c[1]] for c in codes[:n]]
    series = OnsetSeries.from_columns(times, amps[:n], labels, sources)
    path = tmp_path / "a.csv"
    write_onsets_csv(path, series)
    back = read_onsets_csv(path)
    np.testing.assert_allclose(back.times(), series.times(), rtol=0, atol=6e-7)
    np.testing.assert_allclose(back.amplitudes(), series.amplitudes(), rtol=0, atol=6e-7)
    assert back.labels() == labels and back.sources() == sources
    assert [c.dtype for c in back._cols] == [c.dtype for c in series._cols]
