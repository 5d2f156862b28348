"""Self-test of the benchmark at smoke size. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that every workload, traced and untraced, reports exactly the metrics
BENCHMARK.json names, with no failed call and no end-to-end metric at 0; that
a deliberately wrong expected swing ratio fails every call; and that the
benchmark refuses to run where there is no groovekit source. Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    argv = [sys.executable, f"{BENCH.name}/run.py", "--seed", "7", "--seconds", "1", *args]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300, cwd=cwd)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}{': ' + detail if detail and not ok else ''}", flush=True)
    if not ok:
        sys.exit(1)


def main() -> int:
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in WORKLOADS:
            res = result(bench("--workload", workload, "--trace", trace, "--smoke"))
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            label = f"{workload} --trace {trace}"
            check(f"{label}: metric names and units match BENCHMARK.json", got == want,
                  f"{sorted(set(got) ^ set(want))}")
            check(f"{label}: {res['attempted']} calls, none failed",
                  res["correct"] and res["failed"] == 0 and res["attempted"] > 0, json.dumps(res)[:500])
            if trace == "0":
                zero = [n for n, m in res["metrics"].items() if m["value"] <= 0]
                check(f"{label}: no end-to-end metric is 0", not zero, str(zero))

    res = result(bench("--workload", "csv_batch", "--trace", "0", "--smoke", "--expect-swing", "2.5"))
    check("wrong expected swing fails every call (failed_frac = 1.0)",
          not res["correct"] and res["failed"] == res["attempted"] > 0, json.dumps(res)[:500])

    bare = Path(".perfbench-work") / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    proc = bench("--workload", "csv_long", "--trace", "0", cwd=bare)
    check("outside a checkout: non-zero exit, no result", proc.returncode != 0 and not proc.stdout.strip(),
          f"exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    shutil.rmtree(bare)
    return 0


if __name__ == "__main__":
    sys.exit(main())
