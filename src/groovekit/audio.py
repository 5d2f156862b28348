"""Audio loading, pre-filtering, and amplitude-envelope extraction.

The front end of the pipeline: read a PCM file, high-pass it so low drums
and rumble do not smear hi-hat attacks, then rectify and smooth into the
envelope that peak picking consumes.
"""

from __future__ import annotations

import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import _cpu
from .errors import FormatError, ParameterError

__all__ = ["AudioClip", "EnvelopeSignal", "load_audio", "save_audio", "highpass", "envelope"]


def _check_rate(sample_rate: float) -> None:
    if not 0 < sample_rate < np.inf:
        raise ParameterError(f"sample_rate must be positive and finite, got {sample_rate}")


@dataclass(frozen=True)
class AudioClip:
    """Mono audio at full scale 1.0.

    Multi-channel inputs are downmixed at load time; ``channel_count_original``
    records what the file held.
    """

    samples: np.ndarray
    sample_rate: float
    channel_count_original: int = 1

    def __post_init__(self):
        _check_rate(self.sample_rate)
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ParameterError("AudioClip holds mono data; downmix before constructing")
        # reductions, not a clip-sized mask; a NaN sample makes min() NaN
        if len(samples) and not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
            raise ParameterError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate

    # the block-read interface of WavReader, so a filter can take either
    def __len__(self) -> int:
        return len(self.samples)

    def read(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            return self.samples[start:stop]
        out[...] = self.samples[start:stop]
        return out

    @classmethod
    def _checked(cls, samples: np.ndarray, sample_rate: float, channel_count_original: int) -> AudioClip:
        """A clip of float64 mono ``samples`` that the caller has already
        checked finite, at a checked rate: built without scanning them again."""
        clip = object.__new__(cls)
        object.__setattr__(clip, "samples", samples)
        object.__setattr__(clip, "sample_rate", sample_rate)
        object.__setattr__(clip, "channel_count_original", channel_count_original)
        return clip


@dataclass(frozen=True)
class EnvelopeSignal:
    """Non-negative envelope normalized to peak 1.0 (unless silent).

    ``source_max`` keeps the pre-normalization peak so absolute units can be
    recovered; ``silent`` marks an all-zero input that was left unnormalized.
    """

    values: np.ndarray
    sample_rate: float
    source_max: float
    silent: bool = False
    # the values' maximum when it is known without a scan (see _checked), else
    # None; a class attribute, not a field
    _max = None

    def __post_init__(self):
        _check_rate(self.sample_rate)
        values = np.asarray(self.values, dtype=np.float64)
        # a reduction, not a clip-sized mask; fmin skips NaN, which detection rejects
        if values.size and np.fmin.reduce(values, axis=None) < 0:
            raise ParameterError("envelope values must be non-negative")
        object.__setattr__(self, "values", values)

    @classmethod
    def _checked(
        cls, values: np.ndarray, sample_rate: float, source_max: float, silent: bool, finite: bool = False
    ) -> EnvelopeSignal:
        """An envelope of float64 ``values`` that are non-negative (or NaN) by
        construction, at a checked rate: built without scanning them again.
        ``finite`` says that ``values`` were divided by ``source_max`` and
        that every value was finite before the divide; the maximum is then
        exactly 1.0 (``P / P`` is 1.0, and ``u <= P`` gives ``u / P <= 1``
        under correct rounding), and is kept as ``_max``, which detection
        trusts instead of scanning: so only for values that nothing changes
        afterwards (:func:`envelope`'s caller may, so it keeps none).

        :func:`envelope` builds its values so: ``|x|`` is +0.0 or positive,
        the one-pole smoother scales it by ``1 - a >= 0`` and its state by
        ``a >= 0`` (``a = exp(-1/(smoothing_ms * 1e-3 * rate))`` lies in
        [0, 1]), and sums and products of non-negative floats are
        non-negative or +inf; the division is by a positive peak, so a value
        is non-negative, or NaN where an infinite one meets an infinite peak.
        """
        env = object.__new__(cls)
        object.__setattr__(env, "values", values)
        object.__setattr__(env, "sample_rate", sample_rate)
        object.__setattr__(env, "source_max", source_max)
        object.__setattr__(env, "silent", silent)
        if finite:
            object.__setattr__(env, "_max", 1.0)
        return env

    @property
    def times_s(self) -> np.ndarray:
        return np.arange(len(self.values)) / self.sample_rate


# samples per filter call in highpass and envelope, and per block decoded by
# WavReader: large enough that the per-call overhead stays out of the timings,
# small beside any real clip
_BLOCK = 1 << 18

# full-scale divisors of the sample types a WAV may hold (scipy.io.wavfile's
# dtypes for the same files); 24-bit PCM is placed left-justified in an int32
_PCM_SCALES = {
    np.dtype(np.int16): 32768.0,
    np.dtype(np.int32): 2147483648.0,
    np.dtype(np.float32): 1.0,
    np.dtype(np.float64): 1.0,
}
_WAVE_FORMAT_PCM, _WAVE_FORMAT_IEEE_FLOAT, _WAVE_FORMAT_EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# the largest size a RIFF header's 32-bit fields hold; save_audio writes RF64 past it
_RIFF_MAX = 0xFFFFFFFF
# the 12 bytes after the format tag in a WAVE_FORMAT_EXTENSIBLE subformat GUID
_GUID_TAIL = {
    "little": b"\x00\x00\x10\x00\x80\x00\x00\xAA\x00\x38\x9B\x71",
    "big": b"\x00\x00\x00\x10\x80\x00\x00\xAA\x00\x38\x9B\x71",
}


class WavReader:
    """A PCM or IEEE-float WAV file, opened for reading samples in blocks.

    The header is parsed once, when the file is opened: RIFF (little-endian),
    RIFX (big-endian) and RF64 containers; 16-, 24- and 32-bit PCM, 32- and
    64-bit float, plain or WAVE_FORMAT_EXTENSIBLE; any number of channels.
    Chunks other than ``fmt `` and ``data`` are skipped, odd-sized chunks are
    followed by a pad byte, and the walk stops at the size the RIFF header
    declares. ``read(start, stop)`` returns samples ``start..stop-1`` as
    float64 at full scale 1.0, downmixed to mono by the per-sample mean, the
    same values ``scipy.io.wavfile.read`` gives after the same scaling and
    downmix. It decodes them a ``_BLOCK``-sample piece at a time, into a new
    array or straight into the caller's ``out``, and checks each piece for NaN
    and infinity. Reads are safe from several threads at once.

    Use it as a context manager, or call :meth:`close`.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb", buffering=0)  # OSError when missing or unreadable
        self._lock = threading.Lock()
        try:
            self._parse_header()
        except BaseException:
            self._fh.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        self._fh.close()

    def __len__(self) -> int:
        return self._frames

    def _malformed(self, reason: str) -> FormatError:
        return FormatError(f"unsupported or malformed audio file {self.path!r}: {reason}")

    def _read_at(self, offset: int, size: int) -> bytes:
        self._fh.seek(offset)
        return self._fh.read(size)

    def _parse_header(self) -> None:
        file_size = os.fstat(self._fh.fileno()).st_size
        head = self._read_at(0, 12)
        kind = head[:4]
        if kind not in (b"RIFF", b"RIFX", b"RF64"):
            raise self._malformed(f"not a RIFF, RIFX or RF64 file (starts with {kind!r})")
        if len(head) < 12:
            raise self._malformed(f"file is truncated ({file_size} bytes; a WAV header needs 12)")
        order = "big" if kind == b"RIFX" else "little"
        end = int.from_bytes(head[4:8], order) + 8
        if head[8:12] != b"WAVE":
            raise self._malformed(f"RIFF form type is {head[8:12]!r}, not b'WAVE'")
        pos, data_size = 12, None
        if kind == b"RF64":  # the sizes live in a ds64 chunk; the 32-bit fields hold 0xFFFFFFFF
            ds64 = self._read_at(12, 24)
            if len(ds64) < 24 or ds64[:4] != b"ds64" or int.from_bytes(ds64[4:8], order) < 16:
                raise self._malformed("RF64 file without a ds64 chunk")
            end = int.from_bytes(ds64[8:16], order) + 8
            data_size = int.from_bytes(ds64[16:24], order)
            pos = 20 + int.from_bytes(ds64[4:8], order)
        elif end == 0xFFFFFFFF + 8:  # a streaming writer that never went back to fill it in
            end = file_size
        if end > file_size:
            raise self._malformed(
                f"file is truncated ({file_size} bytes; {end} expected from header)"
            )
        fmt = data = None
        while pos < end:
            chunk = self._read_at(pos, 8)
            if len(chunk) < 8:
                raise self._malformed(f"file is truncated (chunk header at byte {pos})")
            cid, size = chunk[:4], int.from_bytes(chunk[4:], order)
            body = pos + 8
            if cid == b"data" and data_size is not None:
                size = data_size
            if body + size > file_size:
                if data is not None and cid not in (b"fmt ", b"data"):
                    break  # a trailing chunk cut short; the samples are all there
                raise self._malformed(
                    f"file is truncated ({cid!r} chunk at byte {pos} needs {size} bytes, "
                    f"{file_size - body} present)"
                )
            if cid == b"fmt ":
                if fmt is not None:
                    raise self._malformed("more than one fmt chunk")
                fmt = self._parse_fmt(self._read_at(body, size), order)
            elif cid == b"data":
                if fmt is None:
                    raise self._malformed("no fmt chunk before the data chunk")
                if data is not None:
                    raise self._malformed("more than one data chunk")
                data = (body, size)
            pos = body + size + (size & 1)
        if data is None:
            raise self._malformed("no data chunk")
        self._layout(fmt, order, *data)

    def _parse_fmt(self, raw: bytes, order: str) -> tuple:
        if len(raw) < 16:
            raise self._malformed(f"fmt chunk of {len(raw)} bytes; at least 16 expected")
        tag, channels, rate, byte_rate, block_align, bits = struct.unpack(
            (">" if order == "big" else "<") + "HHIIHH", raw[:16]
        )
        if tag == _WAVE_FORMAT_EXTENSIBLE and len(raw) >= 18:
            if int.from_bytes(raw[16:18], order) < 22 or len(raw) < 40:
                raise self._malformed("WAVE_FORMAT_EXTENSIBLE fmt chunk without its 22-byte extension")
            guid = raw[24:40]
            if guid[4:] == _GUID_TAIL[order]:
                tag = int.from_bytes(guid[:4], order)
        if tag not in (_WAVE_FORMAT_PCM, _WAVE_FORMAT_IEEE_FLOAT):
            raise self._malformed(f"wave format {tag:#06x}; only PCM and IEEE float are supported")
        if tag == _WAVE_FORMAT_PCM and byte_rate != rate * block_align:
            raise self._malformed(
                f"nAvgBytesPerSec must equal nSamplesPerSec * nBlockAlign, but the header "
                f"has {byte_rate}, {rate} and {block_align}"
            )
        if channels == 0 or block_align < channels:
            raise self._malformed(f"{channels} channels in blocks of {block_align} bytes")
        if rate == 0:
            raise self._malformed("sample rate 0")
        return tag, channels, rate, block_align, bits

    def _layout(self, fmt: tuple, order: str, offset: int, size: int) -> None:
        """Sample type, frame count and data offset, as scipy.io.wavfile reads them."""
        tag, channels, rate, block_align, bits = fmt
        width = block_align // channels  # bytes per sample, whatever the bit depth says
        prefix = ">" if order == "big" else "<"
        if tag == _WAVE_FORMAT_PCM:
            if 1 <= bits <= 8:
                spec = "u1"  # 8-bit and narrower PCM is unsigned
            elif width == 3:
                spec = "i4"  # left-justified, below
            elif width in (5, 6, 7):
                spec = "i8"
            elif bits <= 64:
                spec = f"i{width}"
            else:
                raise self._malformed(f"{bits}-bit integer samples")
        elif bits in (32, 64):
            spec = f"f{width}"
        else:
            raise self._malformed(f"{bits}-bit floating-point samples")
        try:
            dtype = np.dtype(prefix + spec)
        except TypeError:
            raise self._malformed(f"no sample type of {width} bytes") from None
        if dtype.newbyteorder("=") not in _PCM_SCALES:
            raise FormatError(f"unsupported sample encoding {dtype.name!r} in {self.path!r}")
        values = size // width
        if (width == 3 and size % 3) or values % channels:
            raise self._malformed(f"data chunk of {size} bytes is not whole {channels}-channel frames")
        self.sample_rate = float(rate)
        self.channel_count_original = channels
        self._frames = values // channels
        self._dtype, self._width, self._offset = dtype, width, offset
        self._scale = _PCM_SCALES[dtype.newbyteorder("=")]

    def read(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """Samples ``start..stop-1`` as float64, downmixed to mono, in a new
        array or decoded into ``out``: a float64 array of that many samples,
        whose earlier contents are overwritten.

        Raises
        ------
        FormatError
            If a sample is NaN or infinite, or the file has shrunk.
        """
        start, stop = max(0, start), min(stop, self._frames)
        if out is None:
            out = np.empty(max(0, stop - start))
        for lo in range(start, stop, _BLOCK):
            hi = min(lo + _BLOCK, stop)
            self._decode(lo, hi, out[lo - start:hi - start])
        return out

    def _decode(self, start: int, stop: int, out: np.ndarray) -> None:
        channels = self.channel_count_original
        raw = np.empty((stop - start) * channels * self._width, dtype=np.uint8)
        with self._lock:
            self._fh.seek(self._offset + start * channels * self._width)
            got = self._fh.readinto(raw)
        if got != raw.size:
            raise self._malformed("file is truncated (it changed while being read)")
        if self._width == 3:  # scipy's layout: the 3 bytes at the top of an int32
            wide = np.zeros((len(raw) // 3, 4), dtype=np.uint8)
            (wide[:, :3] if self._dtype.byteorder == ">" else wide[:, 1:])[...] = raw.reshape(-1, 3)
            raw = wide.reshape(-1)
        values = raw.view(self._dtype)
        with np.errstate(invalid="ignore"):  # a signalling NaN warns here; reported below
            if channels == 1:
                if self._dtype.kind == "f":  # checked before widening: half the bytes for float32
                    self._check_finite(start, values)
                out[...] = values
                samples = out
            else:
                samples = values.astype(np.float64)
        if self._scale != 1.0:  # x / 1.0 is x: float samples skip the pass
            samples /= self._scale
        if channels > 1:
            with np.errstate(invalid="ignore", over="ignore"):  # a non-finite mean is reported below
                samples.reshape(-1, channels).mean(axis=1, out=out)
            # the mean, since a mean of finite samples can overflow
            if self._dtype.kind == "f":
                self._check_finite(start, out)

    def _check_finite(self, start: int, values: np.ndarray) -> None:
        """Raise if a value of ``values``, frames ``start..``, is NaN or infinite."""
        # reductions, not a block-sized mask; a NaN sample makes min() NaN
        if len(values) and not (np.isfinite(values.min()) and np.isfinite(values.max())):
            at = int(np.flatnonzero(~np.isfinite(values))[0])
            raise FormatError(
                f"samples must be finite in {self.path!r}: sample {start + at} is {float(values[at])}"
            )


def _of(source) -> str:
    """Where a block source's samples come from, for an error message:
    " of '<path>'" for a :class:`WavReader`, nothing for a clip."""
    return f" of {source.path!r}" if isinstance(source, WavReader) else ""


def load_audio(path) -> AudioClip:
    """Load a PCM WAV file as a mono, [-1, 1]-scaled clip.

    Supports 16/24/32-bit integer and 32/64-bit float samples (see
    :class:`WavReader`). Multi-channel content is downmixed by per-sample
    arithmetic mean.

    Raises
    ------
    OSError
        If the file does not exist or cannot be read.
    FormatError
        If the container or sample encoding is unsupported, the file is
        truncated, or a sample is NaN or infinite.
    """
    with WavReader(path) as reader:
        return AudioClip(
            samples=reader.read(0, len(reader)),
            sample_rate=reader.sample_rate,
            channel_count_original=reader.channel_count_original,
        )


def save_audio(path, clip: AudioClip) -> None:
    """Write a clip as 32-bit float WAV.

    The file is byte for byte what ``scipy.io.wavfile.write(path,
    round(sample_rate), samples.astype(np.float32))`` writes: a RIFF header
    (RF64 with a ``ds64`` chunk when the sizes pass 32 bits), an 18-byte
    ``fmt `` chunk of IEEE float (format tag 3, cbSize 0), a ``fact`` chunk
    holding the sample count, and ``data``. Samples are converted a block at
    a time, so no float32 copy of the clip is built.
    """
    rate, frames = int(round(clip.sample_rate)), len(clip.samples)
    size = 4 * frames
    fmt = struct.pack("<HHIIHHH", _WAVE_FORMAT_IEEE_FLOAT, 1, rate, 4 * rate, 4, 32, 0)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"fact" + struct.pack("<II", 4, frames)
    riff_size = 4 + len(chunks) + 8 + size
    if riff_size <= _RIFF_MAX:
        header = b"RIFF" + struct.pack("<I", riff_size) + b"WAVE"
    else:
        riff_size += 36  # the ds64 chunk
        header = b"RF64\xff\xff\xff\xffWAVEds64" + struct.pack("<IQQQI", 28, riff_size, size, frames, 0)
    with open(path, "wb") as fh:
        fh.write(header + chunks + b"data" + struct.pack("<I", min(size, _RIFF_MAX)))
        for start in range(0, frames, _BLOCK):
            fh.write(clip.samples[start:start + _BLOCK].astype("<f4").data)


def highpass(clip: AudioClip, cutoff_hz: float = 1000.0, order: int = 4) -> AudioClip:
    """Zero-phase Butterworth high-pass.

    The filter runs forward and backward so onset timings are not skewed by
    phase delay; effective magnitude response is the square of a single pass.
    Output length equals input length, and the output is byte for byte that
    of ``scipy.signal.sosfiltfilt`` with its default odd padding. Both passes
    run in place in one buffer of the padded length, a block at a time with
    the filter state carried across blocks, so the call holds one clip-sized
    buffer. ``clip`` may also be a :class:`WavReader`: the forward pass then
    decodes each block from the file straight into the buffer just before
    filtering it, and no other clip-sized array is built.

    Raises
    ------
    ParameterError
        If the cutoff is not below the Nyquist rate or so far below it
        that the filter's initial state is singular, the clip is too short
        for the filter's padding, or samples near the float64 limit make
        the filter's output overflow.
    """
    from . import _signal  # local import; the CSV path never needs it

    nyquist = clip.sample_rate / 2.0
    if not 0 < cutoff_hz < nyquist:
        raise ParameterError(
            f"cutoff_hz must be in (0, {nyquist:g}) for sample rate {clip.sample_rate:g}"
        )
    sos = _signal.butter_highpass_sos(order, cutoff_hz, clip.sample_rate)
    # sosfiltfilt's default padding: 3 * taps samples at each end, fewer than the clip
    taps = 2 * len(sos) + 1 - min(np.sum(sos[:, 2] == 0), np.sum(sos[:, 5] == 0))
    edge = 3 * taps
    n = len(clip)
    if n < edge + 1:
        raise ParameterError(
            f"clip of {n} samples is too short for the high-pass "
            f"filter, which needs at least {edge + 1}"
        )
    # scipy's odd extension (odd_ext) at each end
    buf = np.empty(n + 2 * edge)
    head, tail = clip.read(0, edge + 1), clip.read(n - edge - 1, n)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):  # a singular state raises here
            zi_unit = _signal.sosfilt_zi(sos)
    except np.linalg.LinAlgError:
        raise ParameterError(
            f"cutoff_hz {cutoff_hz:g} is too low for sample rate {clip.sample_rate:g}: "
            "the high-pass filter's initial state is singular"
        ) from None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        buf[:edge] = 2 * head[0] - head[edge:0:-1]
        buf[edge + n:] = 2 * tail[-1] - tail[-2::-1]
        zi = zi_unit * buf[0]
    for start in range(0, len(buf), _BLOCK):  # forward pass, in place, reading the clip in as it goes
        block = buf[start:start + _BLOCK]
        lo, hi = max(start, edge), min(start + len(block), edge + n)
        if lo < hi:
            clip.read(lo - edge, hi - edge, out=buf[lo:hi])
        _, zi = _signal.sosfilt(sos, block, zi, out=block)
    # backward pass over the forward output, each reversed block through one
    # contiguous scratch block; the clip's samples are checked while in cache
    back, scratch = buf[::-1], np.empty(min(_BLOCK, len(buf)))
    with np.errstate(over="ignore", invalid="ignore"):
        zi = zi_unit * back[0]
    for start in range(0, len(back), _BLOCK):
        block = back[start:start + _BLOCK]
        block[...], zi = _signal.sosfilt(sos, block, zi, out=scratch[:len(block)])
        lo, hi = max(len(buf) - start - len(block), edge), min(len(buf) - start, edge + n)
        if lo < hi and not (np.isfinite(buf[lo:hi].min()) and np.isfinite(buf[lo:hi].max())):
            raise ParameterError(
                f"the samples{_of(clip)} overflow the high-pass filter: its output is not finite"
            )
    return AudioClip._checked(buf[edge:edge + n], clip.sample_rate, clip.channel_count_original)


def envelope(clip: AudioClip, smoothing_ms: float = 2.0) -> EnvelopeSignal:
    """Full-wave rectified, first-order low-pass smoothed amplitude envelope.

    ``smoothing_ms`` is the time constant of the one-pole smoother. The result
    is normalized to peak 1.0; an all-zero input yields an all-zero envelope
    flagged ``silent`` instead. The clip is rectified and smoothed a block at
    a time into the output array, the smoother's state carried across blocks,
    so the call holds one clip-sized buffer.
    """
    env = _envelope_into(clip, smoothing_ms, out=np.empty(len(clip.samples)))
    # the caller holds these values and may change them, so their maximum is
    # not kept: detection scans them (and checks them finite)
    return EnvelopeSignal._checked(env.values, env.sample_rate, env.source_max, env.silent)


# the smoother's warm-up before a split point is read through scratch
# blocks of this many samples, one per bound
_WARM_BLOCK = 1 << 13


def _envelope_into(clip: AudioClip, smoothing_ms: float, out: np.ndarray, helper=None) -> EnvelopeSignal:
    """:func:`envelope`, written into ``out``, which may be ``clip.samples``
    itself: each block is read before its output is written.

    ``helper`` is ``(executor, idle)``: a one-thread executor and a callable
    that says whether its thread is free. At each block boundary ``p`` where
    it is idle, the process has more than one CPU, nothing has been offered
    yet, and ``n - p >= 2 * W + 4 * _BLOCK`` (``W`` from :func:`_warmup`),
    the thread is offered the tail ``[S, n)``, ``S = p + (n - p) // 2``, and
    this thread stops at ``S``; the normalizing divide is then split at the
    middle between the two. The values are the bits of the sequential loop:

    The smoother is the section ``[1 - a, 0, 0, 1, -a, 0]`` in scipy's
    ``_sosfilt``, on inputs ``|x| >= 0``. With a finite state the kernel
    keeps ``z1 = +0``, sets ``x_new = fl(b0 * x) + z0`` and
    ``z0 = fl(a * x_new)``: a chain of correctly rounded operations, each
    monotone, so the state after any stretch of input is non-decreasing in
    the ``z0`` it started from. Every finite state lies between ``(0, +0)``
    and ``(DBL_MAX, +0)``, so the helper runs the ``W`` samples before ``S``
    from both bounds (reading them through scratch blocks before this thread
    overwrites them, which it waits for). Only if the two end states are
    finite and bitwise equal does it smooth ``[S, n)`` from that state; else
    it writes nothing and this thread goes on past ``S`` itself.

    At the join this thread's exact state at ``S`` is compared with the
    tail's, bitwise. If the exact state at ``S - W`` was finite, the sandwich
    makes them equal. They differ only when it was not: an infinite value
    (an overflow, or a non-finite sample in a clip built without the finite
    check) makes ``z1 = 0 * inf`` NaN, the state stays NaN from there, and
    every later output is that NaN whatever the (finite) input. So the tail
    is rerun from the exact state, over zeros, since ``out`` may hold the
    helper's values, NaN among them, where the input was.

    The peak is the NaN-propagating maximum of the block maxima, so it is
    the sequential loop's wherever ``S`` cuts a block, and a non-finite
    envelope keeps a NaN peak, which leaves its maximum unknown.
    """
    if not 0 < smoothing_ms < np.inf:
        raise ParameterError("smoothing_ms must be positive and finite")
    # one-pole low-pass of the rectified signal: y[n] = a*y[n-1] + (1-a)*x[n],
    # as one second-order section filtered in place; on input >= 0 it gives
    # lfilter([1 - a], [1, -a])'s bits
    a = np.exp(-1.0 / (smoothing_ms * 1e-3 * clip.sample_rate))
    sos = np.array([[1.0 - a, 0.0, 0.0, 1.0, -a, 0.0]])
    x, n = clip.samples, len(clip.samples)
    z = np.zeros((1, 2))
    maxima = []  # one per block of the sequential loop
    warmup = _warmup(a, n) if helper is not None else None
    start, split, tail = 0, n, None
    while start < split:
        if (tail is None and warmup is not None and n - start >= 2 * warmup + 4 * _BLOCK
                and helper[1]() and _cpu.cpu_count() > 1):
            split = start + (n - start) // 2
            ready = threading.Event()
            tail = helper[0].submit(_smooth_tail, sos, x, out, split, warmup, ready)
        stop = min(start + _BLOCK, split)
        if tail is not None and stop > split - warmup:
            ready.wait()  # the helper has read its warm-up input
        z = _smooth(sos, x, out, start, stop, z, maxima)
        start = stop
    if tail is not None:
        taken = tail.result()
        if taken is None:
            _smooth(sos, x, out, split, n, z, maxima)
        elif taken[0].tobytes() == z.tobytes():
            maxima += taken[1]
        else:
            if np.isfinite(z).all():
                raise RuntimeError("the envelope's split tail does not continue its exact state")
            out[split:] = 0.0
            _smooth(sos, out, out, split, n, z, maxima)
    peak = float(np.max(maxima)) if maxima else 0.0
    if peak <= 0.0:  # every smoothed value is then +0.0
        return EnvelopeSignal._checked(out, clip.sample_rate, 0.0, True)
    if tail is None:
        np.divide(out, peak, out=out)
    else:
        half = helper[0].submit(np.divide, out[n // 2:], peak, out=out[n // 2:])
        np.divide(out[:n // 2], peak, out=out[:n // 2])
        half.result()
    finite = bool(np.isfinite(maxima).all())
    return EnvelopeSignal._checked(out, clip.sample_rate, peak, False, finite)


def _smooth(sos, x, out, start, stop, z, maxima) -> np.ndarray:
    """Rectify and smooth ``x[start:stop]`` into ``out`` from state ``z``,
    in blocks that end on multiples of ``_BLOCK``, appending each block's
    maximum to ``maxima``; the state after ``stop``."""
    from . import _signal  # local import; the CSV path never needs it

    while start < stop:
        end = min((start // _BLOCK + 1) * _BLOCK, stop)
        block = np.abs(x[start:end], out=out[start:end])
        _, z = _signal.sosfilt(sos, block, z, out=block)
        maxima.append(float(block.max()))
        start = end
    return z


def _smooth_tail(sos, x, out, split, warmup, ready):
    """The helper's part of :func:`_envelope_into`: its state at ``split``
    and the tail's block maxima, with ``[split, n)`` smoothed into ``out``;
    or None, with nothing written, when the warm-up from the two bounds does
    not end in one finite state. ``ready`` is set once the warm-up input is
    read."""
    from . import _signal  # local import; the CSV path never needs it

    low, high = np.zeros((1, 2)), np.array([[np.finfo(np.float64).max, 0.0]])
    scratch = np.empty((2, _WARM_BLOCK))
    try:
        for start in range(split - warmup, split, _WARM_BLOCK):
            stop = min(start + _WARM_BLOCK, split)
            lo, hi = scratch[0, :stop - start], scratch[1, :stop - start]
            np.abs(x[start:stop], out=lo)
            hi[...] = lo
            _, low = _signal.sosfilt(sos, lo, low, out=lo)
            _, high = _signal.sosfilt(sos, hi, high, out=hi)
    finally:
        ready.set()
    if not (np.isfinite(low).all() and low.tobytes() == high.tobytes()):
        return None
    maxima = []
    _smooth(sos, x, out, split, len(x), low, maxima)
    return low, maxima


def _warmup(a: float, n: int) -> int | None:
    """Samples of warm-up ``W`` before a split point: the smallest power of
    two at least ``1100 / -ln(a)`` (1100 time constants; a state of DBL_MAX
    decays to the signal's scale in about 710), or a power of two past ``n``
    when that is longer than the clip. None when ``a`` is 0 or 1."""
    if not 0 < a < 1:
        return None
    need, w = 1100.0 / -math.log(a), 1
    while w < need and w <= n:
        w <<= 1
    return w
