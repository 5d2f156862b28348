"""apply_edits against the row loop it replaced.

The reference below is the original implementation: a list of frozen
onset rows (``OnsetRow``, read from the series and checked as the original
rows were), a linear scan for each edit's target, ``dataclasses.replace``
for moves and relabels, and a full re-sort after every add or move. The
columnar ``apply_edits`` must give the same columns (bytes and dtypes) after
every edit, or raise the same exception with the same text at the same edit.
The random cases are built to hit duplicate and tied times, targets at and
around the 5 ms window's edge, moves onto existing times, envelopes with
samples outside [0, 1], unknown labels, unresolvable targets and results
that are not strictly increasing.
"""

from collections import Counter
from dataclasses import astuple, dataclass, replace

import numpy as np
import pytest

from groovekit import AnnotationEdit, EnvelopeSignal, OnsetSeries, apply_edits
from groovekit.errors import EditError, GrooveKitError, ParameterError
from groovekit.onsets import EDIT_RESOLUTION_S, LABELS, SOURCES


@dataclass(frozen=True)
class OnsetRow:
    time_s: float
    amplitude: float
    label: str
    source: str
    uncertainty_ms: float

    def __post_init__(self):
        if self.label not in LABELS:
            raise ParameterError(f"unknown onset label {self.label!r}")
        if self.source not in SOURCES:
            raise ParameterError(f"unknown onset source {self.source!r}")
        if not np.isfinite(self.time_s):
            raise ParameterError("onset time must be finite")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ParameterError("onset amplitude must lie in [0, 1]")
        if not 0.0 <= self.uncertainty_ms < np.inf:
            raise ParameterError("uncertainty_ms must be non-negative and finite")


def _ref_resolve_target(onsets, target_time_s):
    best = None
    best_dist = EDIT_RESOLUTION_S
    for i, onset in enumerate(onsets):
        dist = abs(onset.time_s - target_time_s)
        if dist <= best_dist:
            if best is None or dist < best_dist:
                best, best_dist = i, dist
    return best


def _ref_amplitude_at(env, time_s):
    if env is None or len(env.values) == 0:
        return 0.0
    idx = int(round(time_s * env.sample_rate))
    idx = min(max(idx, 0), len(env.values) - 1)
    return float(env.values[idx])


def ref_apply_edits(series, edits, env=None):
    onsets = [OnsetRow(*astuple(series[i])) for i in range(len(series))]
    for idx, edit in enumerate(edits):
        if edit.kind == "add":
            onsets.append(
                OnsetRow(
                    time_s=edit.target_time_s,
                    amplitude=_ref_amplitude_at(env, edit.target_time_s),
                    label=edit.label or "unknown",
                    source="manual-add",
                    uncertainty_ms=0.0,
                )
            )
            onsets.sort(key=lambda o: o.time_s)
            continue
        target = _ref_resolve_target(onsets, edit.target_time_s)
        if target is None:
            raise EditError(
                f"edit {idx} ({edit.kind}) has no onset within 5 ms of "
                f"{edit.target_time_s:.6f} s"
            )
        if edit.kind == "remove":
            del onsets[target]
        elif edit.kind == "move":
            onsets[target] = replace(
                onsets[target], time_s=edit.new_time_s, source="manual-move"
            )
            onsets.sort(key=lambda o: o.time_s)
        elif edit.kind == "relabel":
            onsets[target] = replace(onsets[target], label=edit.label)
    return OnsetSeries.from_columns(*(list(zip(*map(astuple, onsets))) or [()] * 5))


def _outcome(fn, series, edits, env):
    try:
        out = fn(series, edits, env)
    except GrooveKitError as exc:
        return type(exc), str(exc)
    return [(c.dtype.str, c.tobytes()) for c in out._cols]


def _assert_same_per_edit(series, edits, env=None) -> list:
    """Compare both implementations on every prefix of ``edits`` and return
    the outcomes.

    A prefix that leaves two onsets at one time fails only when the result
    is built, so later prefixes still run: a remove or relabel there shows
    which of the equal times came first.
    """
    outcomes = []
    for k in range(1, len(edits) + 1):
        got = _outcome(apply_edits, series, edits[:k], env)
        want = _outcome(ref_apply_edits, series, edits[:k], env)
        assert got == want, f"differs after edit {k - 1} of {edits}"
        outcomes.append(got)
    return outcomes


# Times on a 2.5 ms grid (so times two steps apart sit exactly one window
# apart), plus tiny and negative values where subtraction rounds, so distinct
# times can tie.
_GRID = np.concatenate((np.arange(0, 21) * 0.0025, [-0.001, 1e-20, 2e-20, 0.0125 + 1e-17]))
_LABEL_CHOICES = (None, None, "hihat", "snare", "ghost", "unknown", "", "bogus")


def _random_series(rng) -> OnsetSeries:
    times = np.unique(rng.choice(_GRID, size=rng.integers(0, 9)))
    n = len(times)
    return OnsetSeries.from_columns(
        times,
        rng.choice([0.0, 0.25, 1.0], size=n),
        labels=rng.choice(LABELS, size=n).tolist(),
        sources=rng.choice(SOURCES, size=n).tolist(),
        uncertainty_ms=rng.choice([0.0, 1.5], size=n),
    )


def _random_time(rng, times) -> float:
    base = float(rng.choice(times)) if len(times) and rng.random() < 0.7 else float(
        rng.choice(_GRID)
    )
    pick = rng.integers(0, 6)
    if pick == 0:
        return base
    if pick == 1:
        return base + float(rng.choice([-1, 1])) * EDIT_RESOLUTION_S
    if pick == 2:  # one ulp either side of the window's edge
        edge = base + EDIT_RESOLUTION_S
        return float(np.nextafter(edge, rng.choice([-np.inf, np.inf])))
    if pick == 3:
        return base + float(rng.choice([-0.0025, 0.0025, 0.001, -0.004]))
    if pick == 4:
        return float(rng.choice([0.5, -0.5]))  # far from every onset
    return float(rng.choice(_GRID))


def _random_edits(rng, series) -> list:
    times = series.times().tolist()
    edits = []
    for _ in range(rng.integers(1, 9)):
        kind = str(rng.choice(["add", "remove", "move", "relabel"]))
        target = _random_time(rng, times)
        label = _LABEL_CHOICES[rng.integers(0, len(_LABEL_CHOICES))]
        if kind == "add":
            edits.append(AnnotationEdit(kind, target, label=label))
        elif kind == "remove":
            edits.append(AnnotationEdit(kind, target))
        elif kind == "move":
            edits.append(AnnotationEdit(kind, target, new_time_s=_random_time(rng, times)))
        else:
            edits.append(AnnotationEdit(kind, target, label=label if label is not None else ""))
    return edits


def _random_envelope(rng):
    pick = rng.integers(0, 3)
    if pick == 0:
        return None
    values = rng.choice([0.0, 0.3, 1.0], size=60)
    if pick == 2:  # samples outside [0, 1]
        values[rng.integers(0, 60, size=20)] = rng.choice([1.5, np.nan])
    return EnvelopeSignal(values=values, sample_rate=1000.0, source_max=1.0)


def _kind(outcome) -> str:
    if not isinstance(outcome, tuple):
        return "ok"
    exc_type, text = outcome
    if exc_type is EditError:
        return "unresolved"
    for key in ("label", "amplitude", "strictly increasing"):
        if key in text:
            return key
    return text


@pytest.mark.parametrize("block", range(4))
def test_random_edit_lists_match_reference(block):
    rng = np.random.default_rng(7000 + block)
    seen = Counter()
    for _ in range(600):
        series = _random_series(rng)
        edits = _random_edits(rng, series)
        outcomes = _assert_same_per_edit(series, edits, _random_envelope(rng))
        seen.update(_kind(o) for o in outcomes)
    # the cases reach every path, so a pass means something
    for kind in ("ok", "unresolved", "label", "amplitude", "strictly increasing"):
        assert seen[kind] > 0, (kind, seen)


def _series(times, labels=None):
    n = len(times)
    return OnsetSeries.from_columns(
        np.array(times, dtype=float),
        np.linspace(0.1, 0.9, n) if n else [],
        labels=labels or ["hihat"] * n,
    )


CASES = {
    # equal distances on both sides: the left onset wins
    "tie_left_wins": ([1.0, 1.004], [AnnotationEdit("relabel", 1.002, label="ghost")]),
    # duplicate times (after adds): the first of them is the target
    "duplicates_first": (
        [1.0],
        [
            AnnotationEdit("add", 1.0, label="snare"),
            AnnotationEdit("add", 1.0, label="ghost"),
            AnnotationEdit("relabel", 1.001, label="hihat"),
            AnnotationEdit("remove", 0.999),
            AnnotationEdit("remove", 1.0),
        ],
    ),
    # distances equal only after rounding: the first such onset is the target
    "rounding_tie_first": ([1e-20, 2e-20], [AnnotationEdit("relabel", 0.004, label="ghost")]),
    "exactly_5ms_inclusive": ([0.0], [AnnotationEdit("relabel", 0.005, label="snare")]),
    "just_outside_5ms": ([0.0], [AnnotationEdit("remove", float(np.nextafter(0.005, 1.0)))]),
    # moves onto an existing time keep a stable sort's order; the closing
    # remove takes the first of the equal times, which shows that order
    "move_down_onto_existing": (
        [1.0, 2.0, 3.0],
        [
            AnnotationEdit("move", 3.0, new_time_s=1.0),
            AnnotationEdit("relabel", 1.0, label="ghost"),
            AnnotationEdit("remove", 1.0),
        ],
    ),
    "move_up_onto_existing": (
        [1.0, 2.0, 3.0],
        [
            AnnotationEdit("move", 1.0, new_time_s=3.0),
            AnnotationEdit("relabel", 3.0, label="ghost"),
            AnnotationEdit("remove", 3.0),
        ],
    ),
    "move_within_duplicates": (
        [1.0, 2.0, 3.0],
        [
            AnnotationEdit("add", 2.0, label="snare"),
            AnnotationEdit("move", 2.0, new_time_s=2.0),
            AnnotationEdit("remove", 2.0),
        ],
    ),
    "add_unknown_label": ([1.0], [AnnotationEdit("add", 2.0, label="cowbell")]),
    "relabel_unknown_label": ([1.0], [AnnotationEdit("relabel", 1.0, label="cowbell")]),
    "relabel_empty_label": ([1.0], [AnnotationEdit("relabel", 1.0, label="")]),
    "unresolvable_second_edit": (
        [1.0],
        [AnnotationEdit("relabel", 1.0, label="snare"), AnnotationEdit("remove", 1.5)],
    ),
    "empty_series": ([], [AnnotationEdit("remove", 0.0)]),
    "not_strictly_increasing": ([1.0, 2.0], [AnnotationEdit("add", 2.0)]),
}


@pytest.mark.parametrize("name", list(CASES))
def test_named_case_matches_reference(name):
    times, edits = CASES[name]
    _assert_same_per_edit(_series(times), edits)


@pytest.mark.parametrize("sample", [1.5, np.nan, 1.0, 0.0])
def test_add_reads_envelope_like_reference(sample):
    env = EnvelopeSignal(values=np.full(10, sample), sample_rate=100.0, source_max=1.0)
    edits = [AnnotationEdit("add", 0.05, label="snare")]
    outcomes = _assert_same_per_edit(_series([0.01]), edits, env)
    if not 0.0 <= sample <= 1.0:
        assert outcomes[-1][0] is ParameterError


def test_rounding_tie_picks_first_onset():
    out = apply_edits(_series([1e-20, 2e-20]), [AnnotationEdit("relabel", 0.004, label="ghost")])
    assert out.labels() == ["ghost", "hihat"]
