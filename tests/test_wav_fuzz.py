"""The exit-code contract for arbitrary WAV bytes.

``analyze`` and ``onsets`` must exit 0, 1 or 2, print no traceback and leave
no thread behind, whatever the file holds: small valid WAVs of every accepted
encoding (and NaN/inf in float payloads), and truncated or byte-flipped copies
of them that break the parser in many different ways.
"""

import io
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from groovekit.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def wav_bytes(dtype, channels, n_samples, rate, seed, non_finite):
    rng = np.random.default_rng(seed)
    shape = (n_samples, channels) if channels > 1 else (n_samples,)
    if np.dtype(dtype).kind == "f":
        data = rng.uniform(-1.0, 1.0, size=shape).astype(dtype)
        if non_finite and n_samples:
            flat = data.reshape(-1)
            flat[rng.integers(0, flat.size, size=3)] = rng.choice([np.nan, np.inf, -np.inf], 3)
    else:
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, size=shape, endpoint=True, dtype=dtype)
    buf = io.BytesIO()
    wavfile.write(buf, rate, data)
    return buf.getvalue()


@st.composite
def wav_files(draw):
    raw = wav_bytes(
        dtype=draw(st.sampled_from([np.int16, np.int32, np.float32])),
        channels=draw(st.integers(min_value=1, max_value=2)),
        n_samples=draw(st.integers(min_value=0, max_value=4000)),
        rate=draw(st.integers(min_value=1000, max_value=48000)),
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        non_finite=draw(st.booleans()),
    )
    damage = draw(st.sampled_from(["none", "truncate", "flip"]))
    if damage == "truncate":
        raw = raw[:draw(st.integers(min_value=0, max_value=len(raw) - 1))]
    elif damage == "flip":
        data = bytearray(raw)
        # mostly the 44-byte header, where a flip changes how the rest is read
        for _ in range(draw(st.integers(min_value=1, max_value=4))):
            at = draw(st.integers(min_value=0, max_value=min(len(data), 64) - 1))
            data[at] = draw(st.integers(min_value=0, max_value=255))
        raw = bytes(data)
    return raw


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(raw=wav_files())
def test_any_wav_bytes_exit_cleanly(raw, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        wav = Path(tmp) / "clip.wav"
        wav.write_bytes(raw)
        for argv in (["analyze", str(wav), "--out-dir", str(Path(tmp) / "out")],
                     ["onsets", str(wav), "-o", str(Path(tmp) / "onsets.csv")]):
            threads = threading.active_count()
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv[0], code, err)
            assert "Traceback" not in err
            assert threading.active_count() == threads


@pytest.mark.parametrize("dtype, keep", [
    # a float WAV's header runs past 44 bytes, so both cuts land inside it
    pytest.param(np.float32, 20, id="20"),
    pytest.param(np.float32, 44, id="44"),
    # an int16 WAV's header is 44 bytes: cut at its end, mid-data and one byte short
    pytest.param(np.int16, 44, id="int16-44"),
    pytest.param(np.int16, 1044, id="int16-mid-data"),
    pytest.param(np.int16, 2043, id="int16-one-byte-short"),
])
def test_truncated_header_is_format_error(tmp_path, capsys, dtype, keep):
    full = wav_bytes(dtype, 1, 1000, 44100, seed=0, non_finite=False)
    assert keep < len(full)
    wav = tmp_path / "t.wav"
    wav.write_bytes(full[:keep])
    assert main(["analyze", str(wav), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"groovekit: unsupported or malformed audio file {str(wav)!r}")
    assert "Traceback" not in err


def test_cut_inside_data_prints_one_error_line(tmp_path):
    """A WAV cut inside its data chunk is rejected with one stderr line and
    no warning (scipy's reader warned "Reached EOF prematurely")."""
    wav = tmp_path / "t.wav"
    wav.write_bytes(wav_bytes(np.int16, 1, 1000, 44100, seed=0, non_finite=False)[:1000])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "groovekit.cli", "analyze", str(wav), "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("groovekit: "), proc.stderr
