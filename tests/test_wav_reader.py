"""groovekit's WAV reader against ``scipy.io.wavfile``.

Whenever ``WavReader`` accepts a file, its samples must be byte for byte
those of scipy's ``read``, cast to float64, divided by the full-scale value
and averaged over channels, and its sample rate scipy's. It may reject a
damaged file that scipy reads, but never an intact file of an accepted
encoding. Hand-built files cover what scipy's writer does not make: 24-bit
PCM, RIFX, WAVE_FORMAT_EXTENSIBLE, odd-sized chunks and skipped chunks
around the data. A WAV holding NaN or infinity is rejected naming the file.
"""

import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from scipy.io import wavfile

from groovekit.audio import _BLOCK, _PCM_SCALES, WavReader, load_audio
from groovekit.cli import main
from groovekit.errors import FormatError

from test_wav_fuzz import wav_bytes, wav_files

SRC = Path(__file__).resolve().parents[1] / "src"


def scipy_samples(path):
    """(rate, samples) the way groovekit read WAVs through scipy."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns about chunks it skips
        rate, data = wavfile.read(path)
    with np.errstate(invalid="ignore"):  # a signalling NaN warns on the cast
        samples = data.astype(np.float64)
    samples /= _PCM_SCALES[data.dtype.newbyteorder("=")]  # RIFX data is big-endian
    if samples.ndim > 1:
        with np.errstate(invalid="ignore"):  # inf and -inf in one frame
            samples = samples.mean(axis=1)
    return rate, samples


def reader_samples(path):
    with WavReader(path) as reader:
        return reader.sample_rate, reader.read(0, len(reader)), reader.channel_count_original


def assert_same_as_scipy(path, channels=None):
    rate, got, got_channels = reader_samples(path)
    want_rate, want = scipy_samples(path)
    assert rate == want_rate
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    if channels is not None:
        assert got_channels == channels
    return got


# a float32 WAV whose one sample is a signalling NaN (bytes 01 00 80 ff)
SIGNALLING_NAN_WAV = (
    b"RIFF6\x00\x00\x00WAVEfmt \x12\x00\x00\x00\x03\x00\x01\x00\xe8\x03\x00\x00\xa0\x0f\x00\x00"
    b"\x04\x00 \x00\x00\x00fact\x04\x00\x00\x00\x01\x00\x00\x00data\x04\x00\x00\x00\x01\x00\x80\xff"
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=wav_files())
@example(raw=SIGNALLING_NAN_WAV)
def test_accepted_files_read_as_scipy_reads_them(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "clip.wav"
        path.write_bytes(raw)
        try:
            rate, got, _ = reader_samples(path)
        except FormatError as exc:
            if "samples must be finite" in str(exc):
                assert not np.all(np.isfinite(scipy_samples(path)[1]))
            else:
                # an intact file is never rejected; scipy's writer made it
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    try:
                        intact = raw == _rewrite(wavfile.read(path))
                    except Exception:
                        intact = False
                assert not intact, exc
            return
        want_rate, want = scipy_samples(path)
        assert rate == want_rate
        assert got.tobytes() == want.tobytes()


def _rewrite(rate_data):
    """scipy's bytes for ``(rate, data)``: equal to a file only if it is intact."""
    import io

    buf = io.BytesIO()
    wavfile.write(buf, *rate_data)
    return buf.getvalue()


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.float32, np.float64])
@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK + 1])
def test_intact_files_accepted(tmp_path, dtype, channels, n):
    path = tmp_path / "clip.wav"
    path.write_bytes(wav_bytes(dtype, channels, n, 44100, seed=n, non_finite=False))
    assert len(assert_same_as_scipy(path, channels)) == n


# hand-built files -----------------------------------------------------------

def chunk(cid, body, order="little"):
    pad = b"\0" if len(body) % 2 else b""
    return cid + len(body).to_bytes(4, order) + body + pad


def fmt_body(tag, channels, rate, width, bits, order="little", extensible_tag=None):
    def u(value, size):
        return value.to_bytes(size, order)

    body = (u(tag, 2) + u(channels, 2) + u(rate, 4) + u(rate * channels * width, 4)
            + u(channels * width, 2) + u(bits, 2))
    if extensible_tag is not None:
        tail = (b"\x00\x00\x10\x00\x80\x00\x00\xAA\x00\x38\x9B\x71" if order == "little"
                else b"\x00\x00\x00\x10\x80\x00\x00\xAA\x00\x38\x9B\x71")
        body += u(22, 2) + u(bits, 2) + u(0, 4) + u(extensible_tag, 4) + tail
    return body


def riff(chunks, kind=b"RIFF", order="little"):
    body = b"WAVE" + b"".join(chunks)
    return kind + len(body).to_bytes(4, order) + body


def int24(values, order="little"):
    return b"".join(int(v).to_bytes(3, order, signed=True) for v in values)


RNG = np.random.default_rng(5)
I24 = RNG.integers(-(1 << 23), 1 << 23, size=2 * 1001)
I16 = RNG.integers(-(1 << 15), 1 << 15, size=2 * 1001).astype("<i2")


def hand_built(name):
    if name == "24-bit":
        return riff([chunk(b"fmt ", fmt_body(1, 2, 44100, 3, 24)), chunk(b"data", int24(I24))])
    if name == "24-bit-rifx":
        return riff([chunk(b"fmt ", fmt_body(1, 1, 22050, 3, 24, "big"), "big"),
                     chunk(b"data", int24(I24, "big"), "big")], b"RIFX", "big")
    if name == "int16-rifx":
        return riff([chunk(b"fmt ", fmt_body(1, 2, 8000, 2, 16, "big"), "big"),
                     chunk(b"data", I16.astype(">i2").tobytes(), "big")], b"RIFX", "big")
    if name == "float32-rifx":
        data = RNG.uniform(-1, 1, 999).astype(">f4").tobytes()
        return riff([chunk(b"fmt ", fmt_body(3, 1, 48000, 4, 32, "big"), "big"),
                     chunk(b"data", data, "big")], b"RIFX", "big")
    if name == "extensible-int16":
        return riff([chunk(b"fmt ", fmt_body(0xFFFE, 2, 44100, 2, 16, extensible_tag=1)),
                     chunk(b"data", I16.tobytes())])
    if name == "extensible-float64":
        data = RNG.uniform(-1, 1, 1001).astype("<f8").tobytes()
        return riff([chunk(b"fmt ", fmt_body(0xFFFE, 1, 96000, 8, 64, extensible_tag=3)),
                     chunk(b"data", data)])
    if name == "extensible-24-bit-rifx":
        return riff([chunk(b"fmt ", fmt_body(0xFFFE, 2, 44100, 3, 24, "big", extensible_tag=1), "big"),
                     chunk(b"data", int24(I24, "big"), "big")], b"RIFX", "big")
    if name == "odd-chunk-before-data":
        return riff([chunk(b"fmt ", fmt_body(1, 2, 44100, 2, 16)), chunk(b"abcd", b"xyz"),
                     chunk(b"data", I16.tobytes())])
    if name == "odd-data-then-list":
        # mono 24-bit, odd data size: a pad byte sits between data and LIST
        return riff([chunk(b"fmt ", fmt_body(1, 1, 44100, 3, 24)), chunk(b"data", int24(I24[:7])),
                     chunk(b"LIST", b"INFOISFT\x05\x00\x00\x00test\x00\x00")])
    if name == "list-after-data":
        return riff([chunk(b"fmt ", fmt_body(1, 2, 44100, 2, 16)), chunk(b"data", I16.tobytes()),
                     chunk(b"LIST", b"INFOICMT\x03\x00\x00\x00ab\x00\x00")])
    if name == "bext":
        return riff([chunk(b"fmt ", fmt_body(1, 1, 44100, 2, 16)), chunk(b"bext", bytes(8)),
                     chunk(b"data", I16.tobytes())])
    if name == "rf64":
        # the RIFF and data sizes live in a ds64 chunk; both 32-bit fields read 0xFFFFFFFF
        fmt, data = chunk(b"fmt ", fmt_body(1, 2, 44100, 2, 16)), I16.tobytes()
        riff_size = 4 + (8 + 28) + len(fmt) + 8 + len(data)
        ds64 = chunk(b"ds64", riff_size.to_bytes(8, "little") + len(data).to_bytes(8, "little")
                     + (len(data) // 4).to_bytes(8, "little") + bytes(4))
        return b"RF64" + b"\xff" * 4 + b"WAVE" + ds64 + fmt + b"data" + b"\xff" * 4 + data
    raise KeyError(name)


HAND_BUILT = ["24-bit", "24-bit-rifx", "int16-rifx", "float32-rifx", "extensible-int16",
              "extensible-float64", "extensible-24-bit-rifx", "odd-chunk-before-data",
              "odd-data-then-list", "list-after-data", "bext", "rf64"]


@pytest.mark.parametrize("name", HAND_BUILT)
def test_hand_built_files_match_scipy(tmp_path, name):
    path = tmp_path / f"{name}.wav"
    path.write_bytes(hand_built(name))
    got = assert_same_as_scipy(path)
    assert len(got) > 0
    clip = load_audio(path)
    assert clip.samples.tobytes() == got.tobytes()


def test_24_bit_is_left_justified(tmp_path):
    path = tmp_path / "s24.wav"
    path.write_bytes(riff([chunk(b"fmt ", fmt_body(1, 1, 8000, 3, 24)),
                           chunk(b"data", int24([0x400000, -0x400000, 1, -1, 0]))]))
    assert reader_samples(path)[1].tolist() == [0.5, -0.5, 2.0 ** -23, -(2.0 ** -23), 0.0]


def test_bext_chunk_prints_nothing(tmp_path):
    """scipy warned "Chunk (non-data) not understood" on stderr for this file."""
    wav = tmp_path / "bwf.wav"
    wav.write_bytes(hand_built("bext"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "groovekit.cli", "onsets", str(wav), "-o", str(tmp_path / "o.csv")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("raw, reason", [
    (b"", "not a RIFF"),
    (b"RIFF\x04\x00\x00\x00WAVE", "no data chunk"),
    (riff([chunk(b"data", bytes(4))]), "no fmt chunk before the data chunk"),
    (riff([chunk(b"fmt ", fmt_body(1, 1, 8000, 2, 16))] * 2 + [chunk(b"data", bytes(4))]),
     "more than one fmt chunk"),
    (riff([chunk(b"fmt ", fmt_body(1, 1, 8000, 2, 16)), chunk(b"data", bytes(4)),
           chunk(b"data", bytes(4))]), "more than one data chunk"),
    (riff([chunk(b"fmt ", fmt_body(2, 1, 8000, 2, 16)), chunk(b"data", bytes(4))]),
     "wave format 0x0002"),
    (riff([chunk(b"fmt ", fmt_body(1, 1, 8000, 2, 16)[:8] + bytes(4) + fmt_body(1, 1, 8000, 2, 16)[12:]),
           chunk(b"data", bytes(4))]), "nAvgBytesPerSec"),
    (riff([chunk(b"fmt ", fmt_body(1, 2, 8000, 2, 16)), chunk(b"data", bytes(6))]),
     "not whole 2-channel frames"),
])
def test_malformed_files_name_the_reason(tmp_path, raw, reason):
    path = tmp_path / "bad.wav"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=f"malformed audio file {str(path)!r}: .*{reason}"):
        WavReader(str(path))


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        WavReader(tmp_path / "nope.wav")


# non-finite samples ---------------------------------------------------------

N_FINITE_CHECK = 2 * _BLOCK + 777


@pytest.mark.parametrize("command", ["analyze", "onsets"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, _BLOCK + 1234, N_FINITE_CHECK - 1], ids=["first", "later-block", "last"])
def test_non_finite_sample_names_the_file(tmp_path, capsys, command, dtype, value, at):
    samples = (0.1 * np.random.default_rng(at).uniform(-1, 1, N_FINITE_CHECK)).astype(dtype)
    samples[at] = value
    wav = tmp_path / "bad.wav"
    wavfile.write(wav, 44100, samples)
    out = ["--out-dir", str(tmp_path / "out")] if command == "analyze" else ["-o", str(tmp_path / "o.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning from either thread is recorded
        code = main([command, str(wav), *out])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"groovekit: samples must be finite in {str(wav)!r}: sample {at} is {float(value)}\n"
    assert not caught, [str(w.message) for w in caught]
    assert not (tmp_path / "out").exists() and not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("dtype", [np.float32, np.float64, ">f4", ">f8"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [_BLOCK - 1, _BLOCK, 2 * _BLOCK + 5])
def test_mono_float_checked_before_widening(tmp_path, dtype, value, at):
    """Mono float samples are checked in their own type, before the
    conversion to float64; the first non-finite sample is named by its
    frame in the file, whatever the read's start, as before. Big-endian
    samples come from a RIFX file."""
    samples = np.random.default_rng(at).uniform(-1, 1, 3 * _BLOCK).astype(dtype)
    samples[at] = value
    samples[at + 3] = np.nan
    dtype = np.dtype(dtype)
    order = "big" if dtype.byteorder == ">" else "little"
    wav = tmp_path / "bad.wav"
    wav.write_bytes(riff([chunk(b"fmt ", fmt_body(3, 1, 44100, dtype.itemsize, 8 * dtype.itemsize, order), order),
                          chunk(b"data", samples.tobytes(), order)], b"RIFX" if order == "big" else b"RIFF", order))
    message = f"samples must be finite in {str(wav)!r}: sample {at} is {float(value)}"
    with WavReader(str(wav)) as reader:
        assert reader.read(0, at).tobytes() == samples[:at].astype(np.float64).tobytes()
        for start in (0, at - 7, at):
            with pytest.raises(FormatError) as exc:
                reader.read(start, len(reader))
            assert str(exc.value) == message


def test_stereo_mean_overflow_is_rejected(tmp_path):
    """Two finite float64 channels near DBL_MAX average to infinity (their
    sum overflows), so a multichannel file is checked on the mean; the same
    value in a mono file is finite and read as it is."""
    big = np.finfo(np.float64).max
    stereo = np.zeros((4096, 2))
    stereo[100] = [big, big]
    wav = tmp_path / "stereo.wav"
    wavfile.write(wav, 44100, stereo)
    with WavReader(str(wav)) as reader, pytest.raises(FormatError) as exc:
        reader.read(0, len(reader))
    assert str(exc.value) == f"samples must be finite in {str(wav)!r}: sample 100 is inf"
    mono = tmp_path / "mono.wav"
    wavfile.write(mono, 44100, stereo[:, 0].copy())
    assert reader_samples(str(mono))[1][100] == big


def test_opposite_infinities_in_one_frame(tmp_path, capsys):
    """Their mean is NaN; the downmix must not warn about it on the way."""
    samples = np.zeros((4096, 2), dtype=np.float32)
    samples[100] = [np.inf, -np.inf]
    wav = tmp_path / "stereo.wav"
    wavfile.write(wav, 44100, samples)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["analyze", str(wav), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"groovekit: samples must be finite in {str(wav)!r}: sample 100 is nan\n"
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("command", ["analyze", "onsets"])
@pytest.mark.parametrize("channels", [1, 2])
def test_signalling_nan_is_one_error_line(tmp_path, command, channels):
    """The cast of a signalling NaN sample warns in numpy; the CLI prints only
    its own error."""
    samples = np.zeros((4096, channels), dtype=np.float32)
    samples.view(np.uint32)[100, -1] = 0xFF800001  # bytes 01 00 80 ff
    wav = tmp_path / "snan.wav"
    wavfile.write(wav, 44100, samples if channels > 1 else samples[:, 0])
    out = ["--out-dir", str(tmp_path / "out")] if command == "analyze" else ["-o", str(tmp_path / "o.csv")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "groovekit.cli", command, str(wav), *out],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr == f"groovekit: samples must be finite in {str(wav)!r}: sample 100 is nan\n"


def test_concurrent_reads_see_their_own_blocks(tmp_path):
    """The file position is shared; each read must still return its own
    samples when more threads than cores read at once."""
    import threading

    path = tmp_path / "clip.wav"
    path.write_bytes(wav_bytes(np.int16, 2, 3 * _BLOCK + 5, 44100, seed=9, non_finite=False))
    want = scipy_samples(path)[1]
    spans = [(start, start + width) for start in range(0, len(want), 4099) for width in (1, 700, _BLOCK + 3)]
    failures = []
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with WavReader(str(path)) as reader:
            def worker(k):
                for start, stop in spans[k::8]:
                    if reader.read(start, stop).tobytes() != want[start:stop].tobytes():
                        failures.append((start, stop))

            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert failures == []
