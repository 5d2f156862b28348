"""Closed loop of ``groovekit analyze`` calls over one workload, in a fresh process.

One caller makes sequential in-process ``groovekit.cli.main(["analyze", ...])``
calls over the workload's inputs, pass after pass, until ``--seconds`` have
passed and at least two full passes are done (so every input is analyzed at
least twice and its report can be compared byte for byte). Each call is
timed from argv to return; its outputs are checked afterwards, untimed.
Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workdir DIR --seconds 20 [--trace] [--expect-swing R]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

SWING_TOLERANCE = 0.05
ONSET_TOLERANCE = 0.01  # detected vs rendered onsets, audio input
MIN_PASSES = 2
# The first call of a fresh process pays one-off costs (lazy imports, first
# touch of a new heap). It is checked like any call, and reported as
# first_call_s, but kept out of the timed samples.
WARMUP = -1


def check_call(inp: dict, kind: str, expected: dict, out: Path) -> tuple[str | None, str | None]:
    """Return (reason the call failed or None, SHA-256 of report.json)."""
    try:
        raw = (out / "report.json").read_bytes()
        report = json.loads(raw)
    except (OSError, ValueError) as exc:
        return f"report.json unreadable: {exc}", None
    digest = hashlib.sha256(raw).hexdigest()
    count, want = report.get("onset_count"), inp["onsets"]
    if kind == "csv" and count != want:
        return f"onset_count {count} != {want} rows", digest
    if kind == "wav" and not (isinstance(count, int) and abs(count - want) <= ONSET_TOLERANCE * want):
        return f"onset_count {count} not within 1% of {want} rendered", digest
    swing = (report.get("swing") or {}).get("swing_ratio")
    if swing is None or abs(swing - expected["swing_ratio"]) > SWING_TOLERANCE:
        return f"swing_ratio {swing} not within {SWING_TOLERANCE} of {expected['swing_ratio']}", digest
    if kind == "wav":
        try:
            track = json.loads((out / "tempogram.json").read_text())["track"]
            with open(out / "tempogram.csv", encoding="utf-8") as fh:
                rows = [next(fh).split(",") for _ in range(3)]
            bin_bpm = float(rows[2][1]) - float(rows[1][1])
            bpm = statistics.median(row["bpm"] for row in track)
        except (OSError, ValueError, KeyError, StopIteration, IndexError) as exc:
            return f"tempogram outputs unreadable: {exc}", digest
        if abs(bpm - expected["group_bpm"]) > bin_bpm:
            return f"tempo track median {bpm:.2f} BPM not within {bin_bpm:.2f} of {expected['group_bpm']}", digest
    return None, digest


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cap = re.search(r"MAX_THREADS=(\d+)", blas.get("openblas configuration", ""))
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_max_threads": int(cap.group(1)) if cap else None,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _module_metrics(tracer, calls: list[dict], n_inputs: int) -> dict:
    """Per-module numbers: each summed over a full pass, median over passes."""
    sizes = Counter(c["pass"] for c in calls)
    per_pass: dict[int, dict] = {}
    for c in calls:
        # the last pass may be cut short by the clock
        if c["pass"] != WARMUP and sizes[c["pass"]] == n_inputs:
            acc = per_pass.setdefault(c["pass"], {})
            for key, value in c["module"].items():
                acc[key] = acc.get(key, 0.0) + value
            acc["trace.self_sum_s"] = acc.get("trace.self_sum_s", 0.0) + c["self_sum_s"]
            acc["trace.pass_wall_s"] = acc.get("trace.pass_wall_s", 0.0) + c["wall_s"]
    keys = sorted({k for acc in per_pass.values() for k in acc})
    metrics = {k: statistics.median(acc.get(k, 0.0) for acc in per_pass.values()) for k in keys}
    dfa_ms = [(s[2] - s[1]) * 1e3 for s in tracer.spans if s[0] == "dfa.analyze"]
    metrics["dfa.max_call_ms"] = max(dfa_ms, default=0.0)
    metrics["dfa.lstsq_calls_computed"] = 2 * metrics.get("dfa.scales", 0)
    # the first call of the fresh process is where the peak RSS grows
    metrics["audio.rss_delta_mb"] = max(c["module"].get("audio.rss_delta_mb", 0.0) for c in calls)
    metrics["tempogram.novelty_rss_delta_mb"] = max(
        c["module"].get("tempogram.novelty_rss_delta_mb", 0.0) for c in calls
    )
    wall = sum(c["wall_s"] for c in calls)
    covered = sum(c["self_sum_s"] for c in calls)
    metrics["trace.uncovered_frac"] = (wall - covered) / wall
    metrics["trace.passes"] = len(per_pass)
    return metrics


def run(args) -> dict:
    manifest = json.loads((args.workdir / "in" / "manifest.json").read_text())
    kind, expected = manifest["kind"], dict(manifest["expected"])
    if args.expect_swing is not None:
        expected["swing_ratio"] = args.expect_swing
    inputs = manifest["inputs"]

    import groovekit
    import groovekit.cli as cli

    src = Path("src").resolve()
    if Path(groovekit.__file__).resolve().parent.parent != src:
        raise SystemExit(f"groovekit imported from {groovekit.__file__}, not from {src}")
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    reports: dict[int, str] = {}
    calls: list[dict] = []
    outs = [args.workdir / "out" / str(i) for i in range(len(inputs))]

    def analyze(i: int, n_pass: int) -> None:
        inp = inputs[i]
        shutil.rmtree(outs[i], ignore_errors=True)
        argv = ["analyze", str(args.workdir / "in" / inp["file"]), "--out-dir", str(outs[i])]
        first_span = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.counts.clear()
        stdout, stderr = io.StringIO(), io.StringIO()
        rc, raised = None, None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            raised = traceback.format_exc()
        wall = time.perf_counter() - t0
        if raised:
            why, digest = f"raised: {raised.strip().splitlines()[-1]}", None
        elif rc != 0:
            why, digest = f"exit code {rc}: {stderr.getvalue().strip()}", None
        elif "Traceback" in stderr.getvalue():
            why, digest = "traceback on stderr", None
        else:
            why, digest = check_call(inp, kind, expected, outs[i])
        if why is None and reports.setdefault(i, digest) != digest:
            why = "report.json differs from an earlier run of the same input"
        call = {"input": i, "pass": n_pass, "wall_s": wall, "failed": why}
        if tracer:
            call.update(_call_trace(tracer, first_span, outs[i]))
        calls.append(call)

    t_start = time.perf_counter()
    analyze(0, WARMUP)
    n_pass = 0
    while n_pass < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
        for i in range(len(inputs)):
            if n_pass >= MIN_PASSES and time.perf_counter() - t_start >= args.seconds:
                break
            analyze(i, n_pass)
        n_pass += 1

    result = {
        "calls": calls,
        "inputs": [{k: inp[k] for k in ("onsets", "duration_s")} for inp in inputs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
    }
    if tracer:
        result["module"] = _module_metrics(tracer, calls, len(inputs))
        tracer.dump(args.workdir / "spans.json")
        for c in calls:
            del c["module"], c["self_sum_s"]
    return result


def _call_trace(tracer, first_span: int, out: Path) -> dict:
    """Self times, counts and RSS growth of one call, plus output sizes
    measured after the call returned."""
    spans = tracer.spans[first_span:]
    self_times = tracer.self_times(first_span, len(tracer.spans))
    module = {f"{name}_s": t for name, t in self_times.items()}
    module.update(tracer.counts)
    module["audio.rss_delta_mb"] = sum(s[4] for s in spans if s[0].startswith("audio."))
    module["tempogram.novelty_rss_delta_mb"] = sum(s[4] for s in spans if s[0] == "tempogram.novelty")
    files = [p for p in out.iterdir() if not p.name.startswith("tempogram.")] if out.is_dir() else []
    module["analysis.files_written"] = len(files)
    module["analysis.bytes_written"] = sum(p.stat().st_size for p in files)
    csv_path = out / "tempogram.csv"
    module["tempogram.csv_bytes"] = csv_path.stat().st_size if csv_path.exists() else 0
    return {"module": module, "self_sum_s": sum(self_times.values())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True, type=Path,
                        help="directory holding in/manifest.json and the inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true", help="record spans around each module")
    parser.add_argument("--expect-swing", type=float, default=None,
                        help="override the programmed swing ratio the checks expect")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
