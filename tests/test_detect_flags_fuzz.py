"""The exit-code contract for the WAV detection flags at their extremes.

``onsets`` on a short click track must exit 0, 1 or 2 and print no traceback
whatever positive values ``--cutoff-hz``, ``--smoothing-ms``,
``--threshold``, ``--refractory-ms`` and ``--merge-ms`` take: each is drawn
log-uniformly from subnormal to near the float64 limit. Warnings are errors
under the test settings, so a RuntimeWarning on the way fails too.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groovekit.cli import main

FLAGS = ["--cutoff-hz", "--smoothing-ms", "--threshold", "--refractory-ms", "--merge-ms"]


@pytest.fixture(scope="module")
def click_wav(tmp_path_factory):
    """About 2 s of rendered clicks at 44.1 kHz."""
    out = tmp_path_factory.mktemp("clicks")
    wav = out / "clicks.wav"
    argv = ["synth", "-o", str(out / "truth.csv"), "--bars", "2", "--seed", "3",
            "--swing", "1.79", "--jitter-ms", "2", "--render", str(wav)]
    assert main(argv) == 0
    return wav


@st.composite
def detection_flags(draw):
    """Each flag absent or set to 10**e, e uniform in [-320, 308]."""
    argv = []
    for flag in FLAGS:
        if draw(st.booleans()):
            argv += [flag, repr(10.0 ** draw(st.floats(-320.0, 308.0)))]
    return argv


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(flags=detection_flags())
def test_onsets_flags_exit_cleanly(click_wav, flags, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["onsets", str(click_wav), "-o", str(Path(tmp) / "o.csv"), *flags])
    err = capsys.readouterr().err
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
