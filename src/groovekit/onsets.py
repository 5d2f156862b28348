"""Onset extraction and annotation handling.

Peaks of the amplitude envelope become onsets; quality control discards
uncertain ones, a merge rule collapses double-triggered hits a few
milliseconds apart, and an edit protocol applies human corrections that
arrive as CSV files.
"""

from __future__ import annotations

import io
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ._csvio import quote, read_rows, row_error, write_rows
from .errors import EditError, ParameterError, _check_finite, _check_positive

if TYPE_CHECKING:  # annotations only; the CSV path never loads audio
    from .audio import EnvelopeSignal

__all__ = [
    "Onset",
    "OnsetSeries",
    "AnnotationEdit",
    "detect_onsets",
    "merge_close_onsets",
    "apply_edits",
    "write_onsets_csv",
    "read_onsets_csv",
    "write_edits_csv",
    "read_edits_csv",
]

LABELS = ("hihat", "snare", "ghost", "unknown")
SOURCES = ("auto", "manual-add", "manual-move")

# onsets whose peak-width uncertainty exceeds this are dropped at detection
MAX_UNCERTAINTY_MS = 5.0
# samples each side of a peak that _runs reads first (wider than nearly every
# run on a 44.1 kHz click track), and its most samples per gather: about
# 0.6 MB of indices, values and flags
_WIDTH_WINDOW = 64
_WIDTH_GATHER = 1 << 15

# window for resolving an edit's target time against existing onsets
EDIT_RESOLUTION_S = 0.005


@dataclass(frozen=True)
class Onset:
    """One onset as ``OnsetSeries.__getitem__`` returns it, read from
    columns the series has already checked.

    Series are built from columns only. This view stays because callers read
    single onsets by index: the benchmark's input generator
    (``perfbench/inputs.py``) reads ``onsets[len(onsets) - 1].time_s`` to
    size its CSV workloads.
    """

    time_s: float
    amplitude: float
    label: str
    source: str


_LABEL_CODES = {name: i for i, name in enumerate(LABELS)}
_SOURCE_CODES = {name: i for i, name in enumerate(SOURCES)}


def _code(name: str, codes: dict[str, int], what: str) -> int:
    try:
        return codes[name]
    except KeyError:
        raise ParameterError(f"unknown onset {what} {name!r}") from None


def _first_bad_row(times: np.ndarray, amplitudes: np.ndarray):
    """(row, problem) of the first row that breaks a column rule, or None."""
    # NaN from inf - inf (the finiteness check names that row); +inf from a gap past float64
    with np.errstate(invalid="ignore", over="ignore"):
        steps = np.diff(times)
    checks = (
        (~np.isfinite(times), "onset time must be finite"),
        (~((amplitudes >= 0.0) & (amplitudes <= 1.0)), "onset amplitude must lie in [0, 1]"),
        (np.concatenate(([False], steps <= 0.0)), "onset times must be strictly increasing"),
        (np.concatenate(([False], steps == np.inf)), "onset gap overflows float64"),
    )
    found = [(int(np.argmax(bad)), why) for bad, why in checks if bad.any()]
    return min(found, key=lambda f: f[0], default=None)


class ColumnSeries:
    """Read-only, equal-length 1-D columns, given to the constructor in order.

    Subclasses set ``_DTYPES`` (one per column) and provide ``_check``
    (validates the converted columns).
    """

    __slots__ = ("_cols",)
    _DTYPES: tuple = ()

    def __init__(self, *cols):
        cols = tuple(np.array(c, dtype=dtype) for c, dtype in zip(cols, self._DTYPES, strict=True))
        if any(c.ndim != 1 or len(c) != len(cols[0]) for c in cols):
            raise ParameterError("columns must be 1-D and of equal length")
        self._check(*cols)
        for c in cols:
            c.setflags(write=False)
        self._cols = cols

    def __len__(self) -> int:
        return len(self._cols[0])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(map(np.array_equal, self._cols, other._cols))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(<{len(self)} rows>)"


class OnsetSeries(ColumnSeries):
    """Strictly time-ordered onsets with amplitudes and provenance: the
    columns of an annotation file but its index.

    ``OnsetSeries(times, amplitudes, label_codes, source_codes)``: the codes
    index ``LABELS``/``SOURCES``, and :meth:`from_columns` takes the names
    instead. ``series[i]`` is the :class:`Onset` at integer index ``i``.
    """

    __slots__ = ()
    _DTYPES = (np.float64, np.float64, np.int8, np.int8)

    @classmethod
    def from_columns(cls, times, amplitudes, labels=None, sources=None):
        """Series from per-onset arrays; ``labels``/``sources`` are names
        (default unknown/auto)."""
        n = len(times)
        labels = ["unknown"] * n if labels is None else labels
        sources = ["auto"] * n if sources is None else sources
        return cls(
            times,
            amplitudes,
            [_code(x, _LABEL_CODES, "label") for x in labels],
            [_code(x, _SOURCE_CODES, "source") for x in sources],
        )

    @staticmethod
    def _check(times, amplitudes, labels, sources) -> None:
        bad = _first_bad_row(times, amplitudes)
        if bad is not None:
            raise ParameterError(f"onset {bad[0]}: {bad[1]}")
        if np.any((labels < 0) | (labels >= len(LABELS)) | (sources < 0) | (sources >= len(SOURCES))):
            raise ParameterError("label and source codes must index LABELS and SOURCES")

    def __getitem__(self, i) -> Onset:
        k = operator.index(i)  # an integer; negative counts from the end
        time_s, amplitude, label, source = (c[k].item() for c in self._cols)
        return Onset(time_s, amplitude, LABELS[label], SOURCES[source])

    def times(self) -> np.ndarray:
        return self._cols[0]

    def amplitudes(self) -> np.ndarray:
        return self._cols[1]

    def label_codes(self) -> np.ndarray:
        """Index of each onset's label in ``LABELS``."""
        return self._cols[2]

    def labels(self) -> list[str]:
        return [LABELS[c] for c in self._cols[2].tolist()]

    def sources(self) -> list[str]:
        return [SOURCES[c] for c in self._cols[3].tolist()]


@dataclass(frozen=True)
class AnnotationEdit:
    """One human correction: add, remove, move, or relabel an onset.

    ``target_time_s`` must land within 5 ms of an existing onset for
    remove/move/relabel; for add it is the new onset's time.
    """

    kind: str
    target_time_s: float
    new_time_s: float | None = None
    label: str | None = None

    def __post_init__(self):
        if self.kind not in ("add", "remove", "move", "relabel"):
            raise ParameterError(f"unknown edit kind {self.kind!r}")
        _check_finite("target_time_s", self.target_time_s)
        if self.new_time_s is not None:
            _check_finite("new_time_s", self.new_time_s)
        if self.kind == "move" and self.new_time_s is None:
            raise ParameterError("move edits need new_time_s")
        if self.kind == "relabel" and self.label is None:
            raise ParameterError("relabel edits need a label")


def _uncertainty_ms(values: np.ndarray, peaks: np.ndarray, sample_rate: float) -> np.ndarray:
    """Half of each peak's width above 90% of its height, in milliseconds,
    for ``peaks`` in ascending order; above ``MAX_UNCERTAINTY_MS`` for a
    peak wider than that, whose exact width is not needed (it is dropped).

    The width is 1 plus the runs of values at or above ``0.9 * values[peak]``
    on each side, each ending before a lower value or at an end of
    ``values``. Only runs that could keep the peak are measured: the left run
    up to ``widest``, the right one up to what the left leaves. A kept peak
    spans at most ``sample_rate`` × 10 ms samples; the one sample added
    covers the rounding of that product and of the uncertainty, and no peak
    spans more than ``n``.
    """
    n = len(values)
    widest = int(min(MAX_UNCERTAINTY_MS * 2e-3 * sample_rate, n)) + 1
    cuts = 0.9 * values[peaks]
    left = _runs(values, peaks, cuts, -1, np.minimum(peaks, widest))
    right = _runs(values, peaks, cuts, 1, np.minimum(n - 1 - peaks, widest - left))
    return 0.5 * (left + right + 1) / sample_rate * 1e3


def _runs(values, peaks, cuts, step: int, limits) -> np.ndarray:
    """Per peak, how many values from ``peak + step`` on, in the direction of
    ``step`` (1 or -1), are at or above its cut before a lower one, counted up
    to its limit (at most its distance to that end of ``values``).

    The values ``_WIDTH_WINDOW`` samples out are read first, at most
    ``_WIDTH_GATHER`` values at a time; a peak whose run fills the window
    and has not reached its limit is read again with the window doubled.
    """
    limits = np.asarray(limits, dtype=np.intp)
    runs = limits.copy()
    todo = np.flatnonzero(limits > 0)
    window = _WIDTH_WINDOW
    while todo.size:
        window = min(window, int(limits[todo].max()))
        offsets = step * np.arange(1, window + 1)
        size = max(1, _WIDTH_GATHER // window)
        for start in range(0, len(todo), size):
            chunk = todo[start:start + size]
            at = peaks[chunk, None] + offsets
            # peaks are in order, so the corners hold the farthest reads; one
            # past an end reads the end instead, beyond the limit and not counted
            if at[0, -1] < 0 or at[-1, -1] >= len(values):
                np.clip(at, 0, len(values) - 1, out=at)
            lower = values[at] < cuts[chunk, None]
            first = np.where(lower.any(axis=1), lower.argmax(axis=1), window)
            runs[chunk] = np.minimum(first, limits[chunk])
        todo = todo[(runs[todo] == window) & (limits[todo] > window)]
        window *= 2
    return runs


def detect_onsets(
    env: EnvelopeSignal,
    threshold: float = 0.1,
    refractory_ms: float = 50.0,
    *,
    _helper=None,
) -> OnsetSeries:
    """Pick local envelope maxima above a threshold as onsets.

    ``threshold`` is a fraction of the envelope peak. Peaks closer than
    ``refractory_ms`` are pruned smaller-first, so the survivors respect the
    spacing exactly. A peak whose timing uncertainty, half its width above
    90% of its height, exceeds 5 ms is discarded; the uncertainty decides
    which peaks are kept and is not stored. A silent envelope yields an
    empty series.
    The peaks are those of ``scipy.signal.find_peaks`` with the same height
    and distance. ``_helper`` is private: the CLI lends the peak scan a
    second thread with it (see ``_signal.find_peaks``).
    """
    if not 0 < threshold < 1:
        raise ParameterError("threshold must lie in (0, 1)")
    _check_positive("refractory_ms", refractory_ms)
    values = env.values
    if env.silent or len(values) < 3:
        return OnsetSeries((), (), (), ())

    height = threshold * env._max
    samples = refractory_ms * 1e-3 * env.sample_rate
    if samples == math.inf:
        raise ParameterError(f"refractory_ms {refractory_ms:g} overflows at sample rate {env.sample_rate:g}")
    from . import _signal  # local import; the CSV path never needs it

    peaks = _signal.find_peaks(values, height, max(1, int(round(samples))), _helper)
    keep = _uncertainty_ms(values, peaks, env.sample_rate) <= MAX_UNCERTAINTY_MS
    peaks = peaks[keep]
    return OnsetSeries.from_columns(peaks / env.sample_rate, values[peaks])


def merge_close_onsets(series: OnsetSeries, window_ms: float = 3.0) -> OnsetSeries:
    """Collapse runs of onsets with consecutive gaps under ``window_ms``.

    A run keeps its first member's time (the hit is annotated to the first
    trigger) and the maximum amplitude seen in the run.
    """
    _check_positive("window_ms", window_ms)
    if len(series) <= 1:
        return series
    times, amplitudes, labels, sources = series._cols
    starts = np.flatnonzero(np.concatenate(([True], np.diff(times) >= window_ms * 1e-3)))
    return OnsetSeries(
        times[starts],
        np.maximum.reduceat(amplitudes, starts),
        labels[starts],
        sources[starts],
    )


def _nearest(times: list[float], target_time_s: float) -> int | None:
    """Index of the first onset at the minimal distance from ``target_time_s``
    if within ``EDIT_RESOLUTION_S`` (inclusive), else None. ``times`` is sorted:
    on the left the first index at the nearest distance (equal times, or
    distances equal after rounding) is taken, and it wins a tie with the right.
    """
    p = bisect_left(times, target_time_s)
    best = None
    if p > 0:
        best = bisect_left(
            times, times[p - 1] - target_time_s, 0, p, key=lambda t: t - target_time_s
        )
    if p < len(times) and (
        best is None or abs(times[p] - target_time_s) < abs(times[best] - target_time_s)
    ):
        best = p
    if best is None or abs(times[best] - target_time_s) > EDIT_RESOLUTION_S:
        return None
    return best


def _amplitude_at(env: EnvelopeSignal | None, time_s: float) -> float:
    if env is None or len(env.values) == 0:
        return 0.0
    idx = int(round(time_s * env.sample_rate))
    idx = min(max(idx, 0), len(env.values) - 1)
    return float(env.values[idx])


def apply_edits(
    series: OnsetSeries,
    edits: list[AnnotationEdit],
    env: EnvelopeSignal | None = None,
) -> OnsetSeries:
    """Apply ``edits`` in order, each to the result of those before it.

    Remove, move and relabel act on the first onset at the minimal distance
    from the target, within 5 ms inclusive; an edit whose target resolves to
    no onset raises :class:`EditError` naming the edit index. An added or
    moved onset goes where a stable sort by time would put it. Added onsets
    read their amplitude from ``env`` when given, else 0, and are labelled
    unknown unless the edit names a label.
    """
    cols = [c.tolist() for c in series._cols]
    times, labels = cols[0], cols[2]
    for idx, edit in enumerate(edits):
        if edit.kind == "add":
            t = edit.target_time_s
            label = _code(edit.label or "unknown", _LABEL_CODES, "label")
            amplitude = _amplitude_at(env, t)
            if not 0.0 <= amplitude <= 1.0:
                raise ParameterError("onset amplitude must lie in [0, 1]")
            row = (t, amplitude, label, _SOURCE_CODES["manual-add"])
            k = bisect_right(times, t)
        else:
            target = _nearest(times, edit.target_time_s)
            if target is None:
                raise EditError(
                    f"edit {idx} ({edit.kind}) has no onset within 5 ms of "
                    f"{edit.target_time_s:.6f} s"
                )
            if edit.kind == "relabel":
                labels[target] = _code(edit.label, _LABEL_CODES, "label")
                continue
            row = [c.pop(target) for c in cols]
            if edit.kind == "remove":
                continue
            t = row[0] = edit.new_time_s
            row[3] = _SOURCE_CODES["manual-move"]
            # after equal times that preceded it, before those that followed
            k = min(max(target, bisect_left(times, t)), bisect_right(times, t))
        for c, value in zip(cols, row):
            c.insert(k, value)
    return OnsetSeries(*cols)


# ---------------------------------------------------------------------------
# CSV round-trip (annotation files are the lingua franca of the pipeline)

_ONSET_HEADER = ["index", "time_s", "amplitude", "label", "source"]
_EDIT_HEADER = ["kind", "target_time_s", "new_time_s", "label"]

# One annotation row for numpy's reader, parsed with no converters. The integer
# index rejects any '"', so a quoted field never reads as plain. Each text width
# exceeds its longest name, so a longer value truncates to a non-name; each is
# a whole number of 8-byte words, so a row is six words, compared as uint64.
_ONSET_ROW = np.dtype({"names": _ONSET_HEADER, "formats": ["i8", "f8", "f8", "S8", "S16"]})
# per text field: its first word in a row, and its names as NUL-padded words
_NAME_WORDS = {
    field: (
        _ONSET_ROW.fields[field][1] // 8,
        np.array([name.encode() for name in names], dtype=_ONSET_ROW[field])
        .view(np.uint64).reshape(len(names), -1),
    )
    for field, names in (("label", LABELS), ("source", SOURCES))
}
# numpy's float parser skips \x1c-\x1f as white space, which ``float`` rejects,
# and its bytes fields drop trailing NULs: a file holding one goes to the row reader
_ROW_READER_BYTES = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")
_SCAN_BLOCK = 1 << 16


def write_onsets_csv(path, series: OnsetSeries) -> None:
    times, amplitudes, labels, sources = series._cols
    write_rows(path, _ONSET_HEADER, "%d,%.6f,%.6f,%s,%s\r\n", [
        range(len(series)),
        times,
        amplitudes,
        np.array(LABELS)[labels],
        np.array(SOURCES)[sources],
    ])


def read_onsets_csv(path) -> OnsetSeries:
    """Parse an annotation CSV into columns; a malformed or non-finite
    value raises :class:`FormatError` naming its line.

    Plain files are parsed by numpy's C reader; anything else (quotes, a
    blank first row, a bad value, a byte numpy reads differently from
    ``float``) is re-read row by row, which names the bad line.
    """
    try:
        with open(path, "rb") as raw:
            if _plain_bytes(raw):
                raw.seek(0)
                with io.TextIOWrapper(raw, encoding="utf-8-sig", newline="") as fh:
                    return _read_onsets_plain(fh)
    except ValueError:
        pass
    return _read_onsets_rows(path)


def _plain_bytes(raw) -> bool:
    """Whether no block of the file holds a byte of ``_ROW_READER_BYTES``."""
    block = bytearray(_SCAN_BLOCK)
    while n := raw.readinto(block):
        if any(block.find(b, 0, n) >= 0 for b in _ROW_READER_BYTES):
            return False
    return True


def _read_onsets_plain(fh) -> OnsetSeries:
    """The series in a plain annotation file; ValueError sends it to the row reader."""
    if fh.readline().rstrip("\r\n") != ",".join(_ONSET_HEADER):
        raise ValueError("not the annotation header")
    start = fh.tell()
    # loadtxt warns on a file with no data rows; the row reader does not
    if not fh.readline().rstrip("\r\n"):
        raise ValueError("blank first row")
    fh.seek(start)
    rows = np.loadtxt(fh, dtype=_ONSET_ROW, delimiter=",", comments=None, ndmin=1)
    words = rows.view(np.uint64).reshape(len(rows), _ONSET_ROW.itemsize // 8)
    codes = []
    for field, (first, names) in _NAME_WORDS.items():
        text = np.ascontiguousarray(words[:, first:first + names.shape[1]].T)
        code = np.full(len(rows), -1, dtype=np.int8)
        for k, name in enumerate(names):
            match = text[0] == name[0]
            for column, word in zip(text[1:], name[1:]):
                match &= column == word
            code[match] = k
        if np.any(code < 0):
            raise ValueError(f"unknown onset {field}")
        codes.append(code)
    # a row that breaks a column rule raises ParameterError, a ValueError
    return OnsetSeries(rows["time_s"], rows["amplitude"], *codes)


def _parse_onset_row(fields) -> tuple[float, float, int, int]:
    _, time_s, amplitude, label, source = fields
    return (float(time_s), float(amplitude),
            _code(label, _LABEL_CODES, "label"), _code(source, _SOURCE_CODES, "source"))


def _read_onsets_rows(path) -> OnsetSeries:
    rows = list(read_rows(path, _ONSET_HEADER, "annotation", _parse_onset_row))
    times, amplitudes, labels, sources = np.array(
        [values for _, values in rows], dtype=np.float64
    ).reshape(-1, 4).T
    bad = _first_bad_row(times, amplitudes)
    if bad is not None:
        raise row_error(path, rows[bad[0]][0], "annotation", bad[1])
    return OnsetSeries(times, amplitudes, labels, sources)


def write_edits_csv(path, edits: list[AnnotationEdit]) -> None:
    write_rows(path, _EDIT_HEADER, "%s,%.6f,%s,%s\r\n", [
        [e.kind for e in edits],
        [e.target_time_s for e in edits],
        ["" if e.new_time_s is None else f"{e.new_time_s:.6f}" for e in edits],
        [quote(e.label or "") for e in edits],
    ])


def _parse_edit_row(fields) -> AnnotationEdit:
    kind, target, new_time, label = fields
    return AnnotationEdit(kind, float(target), float(new_time) if new_time else None, label or None)


def read_edits_csv(path) -> list[AnnotationEdit]:
    return [edit for _, edit in read_rows(path, _EDIT_HEADER, "edit", _parse_edit_row)]
