"""SHA-256 of every file that a fixed set of ``groovekit`` commands writes.

The inputs are built with ``groovekit synth`` from fixed seeds:

- a 300-bar LRC groove ramped from 84 to 90 BPM, as CSV, analyzed plain, with
  ``--sections``, with ``--raw-intervals`` and with ``--phrase-len 12``;
- ten 60-bar grooves as CSV, each analyzed once;
- a 20 s click track as WAV, run through ``analyze``, ``onsets`` and
  ``onsets --edits`` (one edit of each kind);
- a power-law series of the default length, from ``synth --series-only``,
  whose ``%.12g`` column takes the CSV writer's ``%.Ng`` encoder.

``tests/test_outputs_manifest.py`` compares the hashes with the committed
``tests/data/outputs_sha256.json``. A change that alters outputs on purpose
regenerates that file, from the root of a checkout:

    PYTHONPATH=src python tests/outputs_manifest.py

The manifest also records a fingerprint of the numerical stack: the numpy
and scipy versions and the SIMD extensions numpy dispatches to on this CPU.
Transcendental functions (``exp``, ``log``, ``sin``) may differ in their last
bit between these, so hashes are comparable only under the same fingerprint.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent / "data" / "outputs_sha256.json"

_GROOVE = ["--swing", "1.79", "--jitter-ms", "5", "--lrc-beta", "1", "--lrc-sigma-ms", "2",
           "--ghost-prob", "0.2", "--amplitude-jitter", "0.1"]
# 14 bars at 84 BPM (120/84 s each) last 20 s
_CLICKS = ["--bars", "14", "--swing", "1.79", "--jitter-ms", "5", "--amplitude-jitter", "0.1",
           "--noise-db", "-40"]
_SECTIONS = "start_s,end_s,tag\r\n0,120,A1-verse\r\n120,240,A2-prechorus\r\n240,500,B-chorus\r\n"
# targets are onsets that ``onsets`` detects in the click track
_EDITS = ("kind,target_time_s,new_time_s,label\r\nrelabel,0.504694,,hihat\r\n"
          "move,0.730227,0.74,\r\nremove,0.861746,,\r\nadd,1.0,,ghost\r\n")
_BATCH = 10


def fingerprint() -> dict:
    """The versions and SIMD dispatch that the output bits depend on."""
    import numpy as np
    import scipy

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "simd_baseline": list(umath.__cpu_baseline__),
        "simd_dispatched": [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]],
    }


def _commands():
    """``(argv, output)`` in run order. Paths are relative, since
    ``report.json`` records the input path as given."""
    groove = "inputs/groove.csv"
    yield ["synth", "-o", groove, "--bars", "300", "--seed", "29", "--ramp-bpm", "90", *_GROOVE], groove
    for name, extra in {"plain": [], "sections": ["--sections", "inputs/sections.csv"],
                        "raw_intervals": ["--raw-intervals"],
                        "phrase_len_12": ["--phrase-len", "12"]}.items():
        yield ["analyze", groove, "--out-dir", f"long_{name}", *extra], f"long_{name}"
    for i in range(_BATCH):
        csv_path, out = f"inputs/batch_{i:02d}.csv", f"batch_{i:02d}"
        yield ["synth", "-o", csv_path, "--bars", "60", "--seed", str(100 + i), *_GROOVE], csv_path
        yield ["analyze", csv_path, "--out-dir", out], out
    wav = "inputs/clicks.wav"
    yield ["synth", "-o", "inputs/clicks.csv", "--render", wav, "--seed", "7", *_CLICKS], wav
    yield ["analyze", wav, "--out-dir", "clicks"], "clicks"
    yield ["onsets", wav, "-o", "clicks_onsets.csv"], "clicks_onsets.csv"
    yield ["onsets", wav, "--edits", "inputs/edits.csv", "-o", "clicks_edited.csv"], "clicks_edited.csv"
    yield ["synth", "-o", "series.csv", "--series-only", "--seed", "11"], "series.csv"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_hashes(workdir: Path) -> dict[str, str]:
    """Run every command from the empty directory ``workdir`` and hash each
    file it leaves there, keyed by its path relative to ``workdir``."""
    from groovekit.cli import main

    (workdir / "inputs").mkdir()
    (workdir / "inputs" / "sections.csv").write_bytes(_SECTIONS.encode())
    (workdir / "inputs" / "edits.csv").write_bytes(_EDITS.encode())
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv, output in _commands():
                if main(argv) != 0 or not Path(output).exists():
                    raise RuntimeError(f"groovekit {' '.join(argv)} failed")
    finally:
        os.chdir(cwd)
    return {
        path.relative_to(workdir).as_posix(): _sha256(path)
        for path in sorted(workdir.rglob("*")) if path.is_file()
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        files = output_hashes(Path(tmp))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps({"fingerprint": fingerprint(), "files": files}, indent=1) + "\n")
    print(f"wrote {len(files)} hashes to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
