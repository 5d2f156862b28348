"""Start-up cost: the audio path imports no scipy subpackage, and the CSV
path neither scipy, nor the thread pool, nor groovekit's own audio stack.

Importing scipy.signal takes over a second, several times a whole CSV
analysis, and also imports scipy.stats, scipy.interpolate and scipy.optimize.
So ``import groovekit`` and a CSV ``analyze`` must not load scipy at all, nor
``concurrent.futures``, which only audio ``analyze`` uses, nor
``groovekit.audio``, ``.synth``, ``.tempogram`` or ``._signal``, which load
on first use. The audio commands read and write WAVs without ``scipy.io`` and
reach scipy's filter and peak kernels without importing ``scipy.signal``
(``groovekit._signal``). Each check runs in a fresh interpreter, since this
test process has these modules loaded already.
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
# groovekit's modules that only the audio and synth commands use
AUDIO_STACK = ("groovekit.audio", "groovekit.synth", "groovekit.tempogram", "groovekit._signal")

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
    """Also at 2100 bars, where DFA's longest series is long enough for its
    helper thread on a host with two CPUs."""
    for bars in (16, 2100):
        csv_path = tmp_path / f"groove{bars}.csv"
        assert main(["synth", "-o", str(csv_path), "--bars", str(bars), "--seed", "1"]) == 0
        result = _probe(["analyze", str(csv_path), "--out-dir", str(tmp_path / f"out{bars}")],
                        modules=("concurrent.futures",))
        assert result == {"before": [], "rc": 0, "after": []}, bars


def test_csv_analyze_loads_no_audio_stack(tmp_path):
    """Neither ``import groovekit.cli`` nor a CSV ``analyze`` loads the audio
    stack, also at 2100 bars, where DFA takes its helper thread."""
    for bars in (16, 2100):
        csv_path = tmp_path / f"groove{bars}.csv"
        assert main(["synth", "-o", str(csv_path), "--bars", str(bars), "--seed", "1"]) == 0
        result = _probe(["analyze", str(csv_path), "--out-dir", str(tmp_path / f"out{bars}")],
                        modules=AUDIO_STACK)
        assert result == {"before": [], "rc": 0, "after": []}, bars


def test_audio_commands_load_the_audio_stack_on_first_use(tmp_path):
    """Each audio or synth command, as the first call of a fresh interpreter,
    binds the names it needs and succeeds."""
    csv_path, wav_path = tmp_path / "groove.csv", tmp_path / "groove.wav"
    assert main(["synth", "-o", str(csv_path), "--bars", "16", "--render", str(wav_path)]) == 0
    cases = [
        (["analyze", str(wav_path), "--out-dir", str(tmp_path / "out")],
         ["groovekit.audio", "groovekit.tempogram", "groovekit._signal"]),
        (["onsets", str(wav_path), "-o", str(tmp_path / "onsets.csv")],
         ["groovekit.audio", "groovekit._signal"]),
        (["synth", "-o", str(tmp_path / "s.csv"), "--bars", "4", "--render", str(tmp_path / "s.wav")],
         ["groovekit.audio", "groovekit.synth"]),
        (["synth", "-o", str(tmp_path / "n.csv"), "--series-only", "-n", "64"],
         ["groovekit.audio", "groovekit.synth"]),
    ]
    for argv, loaded in cases:
        result = _probe(argv, modules=AUDIO_STACK)
        assert result == {"before": [], "rc": 0, "after": loaded}, argv[0]
    assert (tmp_path / "out" / "tempogram.json").is_file()
    assert (tmp_path / "s.wav").is_file() and (tmp_path / "n.csv").is_file()


def test_names_set_on_cli_before_first_use_are_kept(tmp_path):
    """A name looked up and replaced on ``groovekit.cli`` before the first
    WAV call (a tracer's span, a test's monkeypatch) is the one that call
    uses; ``load_audio`` and ``envelope`` resolve though nothing calls them."""
    csv_path, wav_path = tmp_path / "groove.csv", tmp_path / "groove.wav"
    assert main(["synth", "-o", str(csv_path), "--bars", "16", "--render", str(wav_path)]) == 0
    code = """
import json, sys
import groovekit.cli as cli
calls = []
for name in ("highpass", "load_audio", "envelope", "novelty_curve", "write_tempogram_csv"):
    def spanned(*args, _fn=getattr(cli, name), _name=name, **kwargs):
        calls.append(_name)
        return _fn(*args, **kwargs)
    setattr(cli, name, spanned)
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "calls": sorted(set(calls))}))
"""
    result = _run(code, ["analyze", str(wav_path), "--out-dir", str(tmp_path / "out")])
    assert result == {"rc": 0, "calls": ["highpass", "novelty_curve", "write_tempogram_csv"]}


def test_package_names_resolve_on_first_use():
    """``dir(groovekit)`` lists every ``__all__`` name before any is loaded,
    and ``from groovekit import *`` binds each one to its module's object."""
    code = """
import json, sys
import groovekit
undir = sorted(set(groovekit.__all__) - set(dir(groovekit)))
before = [m for m in ("groovekit.audio", "groovekit.synth", "groovekit.tempogram") if m in sys.modules]
ns = {}
exec("from groovekit import *", ns)
unbound = [n for n in groovekit.__all__ if n not in ns]
from groovekit import audio, synth, tempogram
foreign = [n for n in groovekit.__all__ for mod in (audio, synth, tempogram)
           if n in mod.__all__ and ns[n] is not getattr(mod, n)]
print(json.dumps({"undir": undir, "before": before, "unbound": unbound, "foreign": foreign,
                  "submodules": [groovekit.audio is audio, groovekit.synth is synth,
                                 groovekit.tempogram is tempogram]}))
"""
    assert _run(code) == {"undir": [], "before": [], "unbound": [], "foreign": [],
                          "submodules": [True, True, True]}
