"""Seeded inputs for the benchmark workloads.

Run as a script, it writes one workload's input files plus ``manifest.json``
(generator parameters, SHA-256 and expected values of every input) into a
directory:

    python3 perfbench/inputs.py --workload csv_long --seed 1 --out DIR [--smoke]

The same seed always gives the same bytes. Input generation is never timed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

# Programmed groove; the output checks compare against these values.
BPM = 84.0
SWING = 1.79
# A shuffle bar holds four triplet groups, and a bar lasts 120/bpm seconds
# (see groovekit.synth.bar_time_s), so the group rate is 2 * bpm per minute.
GROUP_BPM = 2.0 * BPM

CSV_GROOVE = {
    "bpm": BPM,
    "swing_ratio": SWING,
    "jitter_sigma_ms": 5.0,
    "lrc_beta": 1.0,
    "lrc_sigma_ms": 2.0,
    "ghost_probability": 0.2,
    "amplitude_jitter": 0.1,
    "ramp_to_bpm": 90.0,
}
# Constant tempo and no ghosts, so the tempogram has one true group rate and
# every rendered onset is a hi-hat the detector should find.
WAV_GROOVE = {
    "bpm": BPM,
    "swing_ratio": SWING,
    "jitter_sigma_ms": 5.0,
    "amplitude_jitter": 0.1,
}
WAV_RENDER = {"sample_rate": 44100.0, "click_ms": 3.0, "noise_db": -40.0}

# name -> (input kind, files, bars per file); SMOKE holds the self-test sizes.
WORKLOADS = {
    "csv_long": ("csv", 1, 3000),
    "csv_batch": ("csv", 200, 60),
    "wav_long": ("wav", 1, 210),
}
SMOKE = {
    "csv_long": ("csv", 1, 300),
    "csv_batch": ("csv", 4, 60),
    "wav_long": ("wav", 1, 40),
}


def file_seed(seed: int, index: int) -> int:
    """Independent generator seed for file ``index`` of a workload."""
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _spec(groove: dict, bars: int):
    from groovekit.synth import GrooveSpec

    params = dict(groove)
    ramp = params.pop("ramp_to_bpm", None)
    profile = ((0.0, params["bpm"]), (float(bars), ramp)) if ramp is not None else None
    return GrooveSpec(bars=bars, drift_profile=profile, **params)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def generate(workload: str, seed: int, out: Path, smoke: bool = False) -> dict:
    """Write the workload's inputs under ``out`` and return its manifest."""
    from groovekit.audio import save_audio
    from groovekit.onsets import write_onsets_csv
    from groovekit.synth import gen_shuffle_onsets, render_clicks

    kind, n_files, bars = (SMOKE if smoke else WORKLOADS)[workload]
    groove = CSV_GROOVE if kind == "csv" else WAV_GROOVE
    out.mkdir(parents=True, exist_ok=True)
    inputs = []
    for i in range(n_files):
        fseed = file_seed(seed, i)
        onsets, _ = gen_shuffle_onsets(_spec(groove, bars), seed=fseed)
        path = out / f"{workload}_{i:03d}.{kind}"
        if kind == "csv":
            write_onsets_csv(path, onsets)
            duration_s = onsets[len(onsets) - 1].time_s
        else:
            clip = render_clicks(onsets, seed=fseed, **WAV_RENDER)
            save_audio(path, clip)
            duration_s = clip.duration_s
        inputs.append({
            "file": path.name,
            "seed": fseed,
            "onsets": len(onsets),
            "duration_s": duration_s,
            "sha256": _sha256(path),
        })
    return {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "kind": kind,
        "generator": {
            "functions": ["gen_shuffle_onsets", "write_onsets_csv"]
            if kind == "csv"
            else ["gen_shuffle_onsets", "render_clicks", "save_audio"],
            "bars": bars,
            "groove": groove,
            "render": WAV_RENDER if kind == "wav" else None,
        },
        "expected": {"swing_ratio": SWING, "group_bpm": GROUP_BPM},
        "inputs": inputs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    manifest = generate(args.workload, args.seed, args.out, smoke=args.smoke)
    (args.out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
