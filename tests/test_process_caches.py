"""Per-process caches leak nothing between calls.

``groovekit.cli.main`` parses with one parser per process, and DFA keeps its
Gram bases and default scale grids in process-wide caches. A batch of
``analyze`` calls in one process must therefore write, call for call, the
same bytes as each call run alone in a fresh interpreter. Each input gets
its own flags, and every input is analyzed twice, in the order A, B, C, A,
B, C, so a cache filled by one call serves the calls after it.
"""

import os
import subprocess
import sys
from pathlib import Path

from groovekit.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
# a 60-bar groove with the benchmark's settings, one seed per input
GROOVE = ["--bars", "60", "--swing", "1.79", "--jitter-ms", "5", "--lrc-beta", "1",
          "--lrc-sigma-ms", "2", "--ghost-prob", "0.2", "--amplitude-jitter", "0.1"]
FLAGS = [[], ["--raw-intervals", "--phrase-len", "12"], ["--dfa-short", "5:20", "--bpm-hint", "84"]]


def _files(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_batch_in_one_process_writes_what_fresh_processes_write(tmp_path, capsys):
    inputs = []
    for seed, flags in enumerate(FLAGS, start=1):
        path = tmp_path / f"g{seed}.csv"
        assert main(["synth", "-o", str(path), "--seed", str(seed), *GROOVE]) == 0
        inputs.append((path, flags))

    for rep in range(2):
        for path, flags in inputs:
            out = tmp_path / f"{path.stem}-in-process-{rep}"
            assert main(["analyze", str(path), "--out-dir", str(out), *flags]) == 0
    capsys.readouterr()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for path, flags in inputs:
        out = tmp_path / f"{path.stem}-fresh"
        proc = subprocess.run(
            [sys.executable, "-m", "groovekit.cli", "analyze", str(path), "--out-dir", str(out), *flags],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        fresh = _files(out)
        assert len(fresh) >= 9
        for rep in range(2):
            assert _files(tmp_path / f"{path.stem}-in-process-{rep}") == fresh, (path.name, rep)
