"""Start-up cost: the audio path imports no scipy subpackage, and the CSV
path neither scipy nor the thread pool.

Importing scipy.signal takes over a second, several times a whole CSV
analysis, and also imports scipy.stats, scipy.interpolate and scipy.optimize.
So ``import groovekit`` and a CSV ``analyze`` must not load scipy at all, nor
``concurrent.futures``, which only audio ``analyze`` uses. The audio commands
read and write WAVs without ``scipy.io`` and reach scipy's filter and peak
kernels without importing ``scipy.signal`` (``groovekit._signal``). Each check
runs in a fresh interpreter, since this test process has these modules loaded
already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from groovekit import _signal
from groovekit.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
SCIPY_SUBPACKAGES = ("scipy.signal", "scipy.io", "scipy.linalg", "scipy.sparse", "scipy.stats")
# what `from scipy import signal` brings in, and the WAV codec groovekit replaces
AUDIO_UNUSED = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize", "scipy.io")

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


def _run(code: str, argv=()):
    """The JSON last line of stdout of ``code`` run in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _probe(argv: list[str], modules=SCIPY_SUBPACKAGES) -> dict:
    return _run(PROBE.format(modules=modules), argv)


def test_csv_analyze_loads_no_scipy(tmp_path):
    csv_path = tmp_path / "groove.csv"
    assert main(["synth", "-o", str(csv_path), "--bars", "16", "--seed", "1"]) == 0
    result = _probe(["analyze", str(csv_path), "--out-dir", str(tmp_path / "out")])
    assert result == {"before": [], "rc": 0, "after": []}


def test_wav_commands_load_no_scipy_signal(tmp_path):
    """With scipy's kernels bound, WAV analyze and onsets import neither
    scipy.signal nor what its __init__ pulls in, nor scipy.io."""
    if not _signal.bound():
        pytest.skip("scipy's compiled kernels cannot be bound; the audio path uses scipy.signal")
    csv_path, wav_path = tmp_path / "groove.csv", tmp_path / "groove.wav"
    assert main(["synth", "-o", str(csv_path), "--bars", "4", "--render", str(wav_path)]) == 0
    for argv in (["analyze", str(wav_path), "--out-dir", str(tmp_path / "out")],
                 ["onsets", str(wav_path), "-o", str(tmp_path / "onsets.csv")]):
        result = _probe(argv, modules=AUDIO_UNUSED)
        assert result == {"before": [], "rc": 0, "after": []}, argv[0]


def test_scipy_kernels_bound():
    """The binding, not the fallback to public scipy.signal, is active on the
    installed scipy. A silent fallback gives the same outputs, so only this
    shows the start-up time and memory being lost."""
    code = "import json; from groovekit import _signal; print(json.dumps(_signal.bound()))"
    assert _run(code) is True


def test_wav_commands_load_no_scipy_io(tmp_path):
    """groovekit reads and writes WAVs itself."""
    csv_path, wav_path = tmp_path / "groove.csv", tmp_path / "groove.wav"
    synth = ["synth", "-o", str(csv_path), "--bars", "4", "--render", str(wav_path)]
    for argv in (synth,
                 ["analyze", str(wav_path), "--out-dir", str(tmp_path / "out")],
                 ["onsets", str(wav_path), "-o", str(tmp_path / "onsets.csv")]):
        result = _probe(argv, modules=("scipy.io", "scipy.io.wavfile"))
        assert result == {"before": [], "rc": 0, "after": []}, argv[0]


def test_csv_analyze_loads_no_thread_pool(tmp_path):
    csv_path = tmp_path / "groove.csv"
    assert main(["synth", "-o", str(csv_path), "--bars", "16", "--seed", "1"]) == 0
    result = _probe(["analyze", str(csv_path), "--out-dir", str(tmp_path / "out")],
                    modules=("concurrent.futures",))
    assert result == {"before": [], "rc": 0, "after": []}
