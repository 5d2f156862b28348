"""Spans around groovekit's public functions, recorded from outside ``src/``.

``groovekit.cli`` and ``groovekit.analysis`` bind their dependencies with
``from .x import y``, so a span has to replace the name in the namespace
that calls it, not in the module that defines it. Spans nest (name, start,
end, parent) and stay in memory until :meth:`Tracer.dump` writes them.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import time
from collections import Counter

# (attribute, span name) per namespace; a span's module is the part before the dot.
CLI_NAMES = [
    ("main", "cli.main"),
    ("read_onsets_csv", "onsets.read_csv"),
    ("detect_onsets", "onsets.detect"),
    ("merge_close_onsets", "onsets.merge"),
    ("load_audio", "audio.load"),
    ("highpass", "audio.highpass"),
    ("envelope", "audio.envelope"),
    ("run_analysis", "analysis.run"),
    ("write_analysis_outputs", "analysis.write"),
    ("novelty_curve", "tempogram.novelty"),
    ("fourier_tempogram", "tempogram.fourier"),
    ("write_tempogram_csv", "tempogram.write_csv"),
    ("tempogram_summary", "tempogram.summary"),
]
ANALYSIS_NAMES = [
    ("intervals", "intervals.intervals"),
    ("estimate_base_unit", "intervals.base_unit"),
    ("classify_intervals", "intervals.classify"),
    ("interval_stats", "intervals.stats"),
    ("swing_ratio", "groove.swing"),
    ("compute_drift", "groove.drift"),
    ("phrase_interval_profile", "groove.phrase_interval"),
    ("phrase_amplitude_profile", "groove.phrase_amplitude"),
]
# Spans whose growth of the process's peak RSS is recorded.
RSS_SPANS = {"audio.load", "audio.highpass", "audio.envelope", "tempogram.novelty"}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, peak RSS growth MB]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, namespace, attr: str, name: str, count=None) -> None:
        """Replace ``namespace.attr`` with a spanned call.

        ``count(counts, args, result)`` adds the call's work counts; it runs
        after the span closes and must stay cheap (``len`` of a result).
        """
        fn = getattr(namespace, attr)
        rss = name in RSS_SPANS

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            rss0 = _maxrss_mb() if rss else 0.0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if rss:
                span[4] = _maxrss_mb() - rss0
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(namespace, attr, spanned)

    def self_times(self, first: int, last: int) -> dict[str, float]:
        """Self time per span name over spans ``first..last-1``: duration
        minus the durations of direct children."""
        child = [0.0] * (last - first)
        for name, start, end, parent, _ in self.spans[first:last]:
            if parent >= first:
                child[parent - first] += end - start
        out: dict[str, float] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans[first:last]):
            out[name] = out.get(name, 0.0) + (end - start) - child[k]
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "rss_growth_mb")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def install(tracer: Tracer) -> None:
    """Wrap every function the ``analyze`` path calls, plus DFA."""
    import groovekit.analysis as analysis
    import groovekit.cli as cli
    from groovekit import tempogram

    window = inspect.signature(tempogram.novelty_curve).parameters["window"].default
    counters = {
        "onsets.detect": lambda c, a, r: c.update({"onsets.detected": len(r)}),
        "onsets.merge": lambda c, a, r: c.update({"onsets.merge_removed": len(a[0]) - len(r)}),
        "audio.load": lambda c, a, r: c.update({"audio.samples": len(r.samples)}),
        "intervals.intervals": lambda c, a, r: c.update({"intervals.count": len(r)}),
        # one float64 frame of ``window`` samples per novelty value
        "tempogram.novelty": lambda c, a, r: c.update(
            {"tempogram.frame_bytes_computed": len(r) * window * 8}
        ),
    }
    for attr, name in CLI_NAMES:
        tracer.wrap(cli, attr, name, counters.get(name))
    for attr, name in ANALYSIS_NAMES:
        tracer.wrap(analysis, attr, name, counters.get(name))

    def dfa_count(c, a, r):
        c.update({"dfa.calls": 1, "dfa.points": len(a[0]), "dfa.scales": len(r.scales)})

    tracer.wrap(analysis.dfa_mod, "dfa_analyze", "dfa.analyze", dfa_count)
