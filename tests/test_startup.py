"""Start-up cost: scipy and the thread pool load only on the audio path,
and the audio path reads WAVs without ``scipy.io``.

Importing scipy.signal takes over a second, several times a whole CSV
analysis, so ``import groovekit`` and a CSV ``analyze`` must not load it, nor
``concurrent.futures``, which only audio ``analyze`` uses. Each check runs in
a fresh interpreter, since this test process has these modules loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from groovekit.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
SCIPY_SUBPACKAGES = ("scipy.signal", "scipy.io", "scipy.linalg", "scipy.sparse", "scipy.stats")

# Imports groovekit, runs main(argv) and prints which of ``modules`` were
# loaded before and after the call as the last line of stdout.
PROBE = """
import json, sys
import groovekit, groovekit.cli
loaded = lambda: [m for m in {modules!r} if m in sys.modules]
before = loaded()
rc = groovekit.cli.main(sys.argv[1:])
print(json.dumps({{"before": before, "rc": rc, "after": loaded()}}))
"""


def _probe(argv: list[str], modules=SCIPY_SUBPACKAGES) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(modules=modules), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_csv_analyze_loads_no_scipy(tmp_path):
    csv_path = tmp_path / "groove.csv"
    assert main(["synth", "-o", str(csv_path), "--bars", "16", "--seed", "1"]) == 0
    result = _probe(["analyze", str(csv_path), "--out-dir", str(tmp_path / "out")])
    assert result == {"before": [], "rc": 0, "after": []}


def test_wav_analyze_loads_scipy_signal(tmp_path):
    csv_path, wav_path = tmp_path / "groove.csv", tmp_path / "groove.wav"
    assert main(["synth", "-o", str(csv_path), "--bars", "4", "--render", str(wav_path)]) == 0
    result = _probe(["analyze", str(wav_path), "--out-dir", str(tmp_path / "out")])
    assert result["before"] == [] and result["rc"] == 0
    assert "scipy.signal" in result["after"]


def test_wav_commands_load_no_scipy_io(tmp_path):
    """groovekit reads WAVs itself; scipy.io is only for writing them."""
    csv_path, wav_path = tmp_path / "groove.csv", tmp_path / "groove.wav"
    assert main(["synth", "-o", str(csv_path), "--bars", "4", "--render", str(wav_path)]) == 0
    for argv in (["analyze", str(wav_path), "--out-dir", str(tmp_path / "out")],
                 ["onsets", str(wav_path), "-o", str(tmp_path / "onsets.csv")]):
        result = _probe(argv, modules=("scipy.io", "scipy.io.wavfile"))
        assert result == {"before": [], "rc": 0, "after": []}, argv[0]


def test_csv_analyze_loads_no_thread_pool(tmp_path):
    csv_path = tmp_path / "groove.csv"
    assert main(["synth", "-o", str(csv_path), "--bars", "16", "--seed", "1"]) == 0
    result = _probe(["analyze", str(csv_path), "--out-dir", str(tmp_path / "out")],
                    modules=("concurrent.futures",))
    assert result == {"before": [], "rc": 0, "after": []}
