"""Benchmark of ``groovekit analyze``, end to end and per module.

Run from the root of a groovekit checkout:

    python3 perfbench/run.py --workload csv_long --seed 1 --seconds 20 --trace 0

Steps, each in its own fresh process: generate the workload's inputs from the
seed (untimed), run the closed loop of ``analyze`` calls in ``worker.py``,
then time ``import groovekit.cli`` in fresh interpreters. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the loop once untraced and once
traced (half the seconds each) and reports per-module metrics. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
Working files go to ``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORK = Path(".perfbench-work")
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
WORKLOADS = ("csv_long", "csv_batch", "wav_long")

# (name, unit); the names and units match BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s"),
    ("analyze_s", "s"),
    ("onsets_per_s", "1/s"),
    ("audio_x_realtime", "s/s"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("cli.main_s", "s"),
    ("onsets.read_csv_s", "s"),
    ("onsets.detect_s", "s"),
    ("onsets.merge_s", "s"),
    ("onsets.detected", "count"),
    ("onsets.merge_removed", "count"),
    ("audio.load_s", "s"),
    ("audio.highpass_s", "s"),
    ("audio.envelope_s", "s"),
    ("audio.samples", "count"),
    ("audio.rss_delta_mb", "MB"),
    ("intervals.intervals_s", "s"),
    ("intervals.base_unit_s", "s"),
    ("intervals.classify_s", "s"),
    ("intervals.stats_s", "s"),
    ("intervals.count", "count"),
    ("groove.swing_s", "s"),
    ("groove.drift_s", "s"),
    ("groove.phrase_interval_s", "s"),
    ("groove.phrase_amplitude_s", "s"),
    ("dfa.analyze_s", "s"),
    ("dfa.calls", "count"),
    ("dfa.points", "count"),
    ("dfa.scales", "count"),
    ("dfa.lstsq_calls_computed", "count"),
    ("dfa.max_call_ms", "ms"),
    ("tempogram.novelty_s", "s"),
    ("tempogram.novelty_rss_delta_mb", "MB"),
    ("tempogram.frame_bytes_computed", "bytes"),
    ("tempogram.fourier_s", "s"),
    ("tempogram.write_csv_s", "s"),
    ("tempogram.csv_bytes", "bytes"),
    ("tempogram.summary_s", "s"),
    ("analysis.run_s", "s"),
    ("analysis.write_s", "s"),
    ("analysis.files_written", "count"),
    ("analysis.bytes_written", "bytes"),
    ("import.scipy_signal_s", "s"),
    ("import.groovekit_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_frac", "fraction"),
]


class BenchError(Exception):
    """A step of the benchmark could not run; no result is printed."""


def _run(argv: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(argv)} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def _fresh_import(env: dict, runs: int, importtime: bool = False) -> list:
    """Wall seconds (or ``-X importtime`` stderr) of fresh interpreters that
    import groovekit.cli. Called after a worker has imported the same
    modules, so file caches are warm."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", "import groovekit.cli"]
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = _run(argv, env, 120)
        out.append(proc.stderr if importtime else time.perf_counter() - t0)
    return out


def _import_seconds(log: str) -> tuple[float, float]:
    """(cumulative scipy.signal, self time of groovekit's own modules), in s."""
    scipy_signal, own = 0.0, 0.0
    for line in log.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", line)
        if not m:
            continue
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "scipy.signal":
            scipy_signal = cum_us * 1e-6
        if name == "groovekit" or name.startswith("groovekit."):
            own += self_us * 1e-6
    return scipy_signal, own


def _worker(env: dict, workdir: Path, seconds: float, trace: bool, expect_swing) -> dict:
    argv = [sys.executable, str(BENCH / "worker.py"), "--workdir", str(workdir), "--seconds", str(seconds)]
    if trace:
        argv.append("--trace")
    if expect_swing is not None:
        argv += ["--expect-swing", str(expect_swing)]
    proc = _run(argv, env, seconds + 90)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"worker printed no result: {exc}") from exc


def _timed(calls: list[dict]) -> list[dict]:
    """The calls that count as timed samples: all but the warm-up call."""
    return [c for c in calls if c["pass"] >= 0]


def _pass_walls(calls: list[dict], n_inputs: int) -> list[float]:
    """Summed wall time of each full pass over the inputs."""
    walls: dict[int, list[float]] = {}
    for c in _timed(calls):
        walls.setdefault(c["pass"], []).append(c["wall_s"])
    return [sum(w) for w in walls.values() if len(w) == n_inputs]


def _p95(values: list[float]) -> float:
    """Nearest-rank 95th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.95 * len(ordered)) - 1)]


def _end_to_end(work: dict, setup: list[float]) -> tuple[dict, dict]:
    calls, inputs = _timed(work["calls"]), work["inputs"]
    wall = [c["wall_s"] for c in calls]
    values = {
        "setup_s": statistics.median(setup),
        "analyze_s": statistics.median(wall),
        "onsets_per_s": statistics.median(inputs[c["input"]]["onsets"] / c["wall_s"] for c in calls),
        "audio_x_realtime": statistics.median(inputs[c["input"]]["duration_s"] / c["wall_s"] for c in calls),
        "peak_rss_mb": work["peak_rss_mb"],
        "analyze_p95_s": _p95(wall),
    }
    samples = {name: len(calls) for name in values}
    samples.update(setup_s=len(setup), peak_rss_mb=1)
    return values, samples


def _per_layer(plain: dict, traced: dict, import_logs: list[str]) -> tuple[dict, dict]:
    module = traced["module"]
    values = {name: float(module.get(name, 0.0)) for name, _ in PER_LAYER}
    imports = [_import_seconds(log) for log in import_logs]
    values["import.scipy_signal_s"] = statistics.median(s for s, _ in imports)
    values["import.groovekit_s"] = statistics.median(g for _, g in imports)
    values["trace.overhead_s"] = statistics.median(c["wall_s"] for c in _timed(traced["calls"])) - statistics.median(
        c["wall_s"] for c in _timed(plain["calls"])
    )
    samples = {name: module["trace.passes"] for name in values}
    samples.update({"import.scipy_signal_s": len(imports), "import.groovekit_s": len(imports)})
    samples["trace.overhead_s"] = len(_timed(traced["calls"]))
    return values, samples


def _git_commit() -> str | None:
    if not Path(".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def run(args) -> dict:
    if not Path("src/groovekit/cli.py").is_file():
        raise BenchError("run from the root of a groovekit checkout (no src/groovekit/cli.py here)")
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")]))

    gen = [sys.executable, str(BENCH / "inputs.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(workdir / "in")]
    _run(gen + (["--smoke"] if args.smoke else []), env, 120)
    manifest = json.loads((workdir / "in" / "manifest.json").read_text())

    if args.trace:
        plain = _worker(env, workdir, args.seconds / 2, False, args.expect_swing)
        logs = _fresh_import(env, IMPORTTIME_RUNS, importtime=True)
        work = _worker(env, workdir, args.seconds / 2, True, args.expect_swing)
        values, samples = _per_layer(plain, work, logs)
        printed = []
        accounting = {
            "self_sum_s": work["module"]["trace.self_sum_s"],
            "traced_wall_s": work["module"]["trace.pass_wall_s"],
            "untraced_wall_s": statistics.median(_pass_walls(plain["calls"], len(plain["inputs"]))),
        }
        calls = plain["calls"] + work["calls"]
        units = dict(PER_LAYER)
    else:
        work = _worker(env, workdir, args.seconds, False, args.expect_swing)
        setup = _fresh_import(env, SETUP_RUNS)
        values, samples = _end_to_end(work, setup)
        printed = [("analyze_p95_s", values["analyze_p95_s"], "s", samples["analyze_p95_s"])]
        accounting = None
        calls = work["calls"]
        units = dict(END_TO_END)

    failures = [c["failed"] for c in calls if c["failed"]]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": len(calls),
        "failed": len(failures),
        "failures": sorted(set(failures))[:10],
        # printed with the metrics but left out of the JSON line; README says why
        "ungated": printed + [
            ("failed_frac", len(failures) / len(calls), "fraction", len(calls)),
            ("first_call_s", work["calls"][0]["wall_s"], "s", 1),
        ],
        "pass_accounting": accounting,
        "call_wall_s": [c["wall_s"] for c in calls],
        "metrics": {name: {"value": values[name], "unit": units[name], "samples": samples[name]}
                    for name in units},
        "inputs": {k: manifest[k] for k in ("generator", "expected", "inputs")},
        "environment": dict(work["environment"], git_commit=_git_commit()),
    }


def report(result: dict) -> None:
    print(f"# {result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} calls, {result['failed']} failed")
    for reason in result["failures"]:
        print(f"#   failed: {reason}")
    rows = [(name, m["value"], m["unit"], m["samples"]) for name, m in result["metrics"].items()]
    for name, value, unit, n in rows + result["ungated"]:
        print(f"{name:34s} {value:16.6g} {unit:9s} n={n}")
    acc = result["pass_accounting"]
    if acc:
        print(f"# per pass (median): module self times sum to {acc['self_sum_s']:.4f} s; "
              f"traced calls {acc['traced_wall_s']:.4f} s; untraced calls {acc['untraced_wall_s']:.4f} s")
    print("# inputs:", json.dumps(result["inputs"]))
    print("# environment:", json.dumps(result["environment"]))
    (WORK / result["workload"] / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in result["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test input sizes")
    parser.add_argument("--expect-swing", type=float, default=None,
                        help="swing ratio the checks expect instead of the programmed one "
                             "(the negative self-test sets a wrong one)")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
