"""The few parts of ``scipy.signal`` the audio path uses, without importing it.

``from scipy import signal`` also imports scipy.stats, scipy.interpolate and
scipy.optimize: over a second and about 75 MB, for a pipeline that needs only
a Butterworth high-pass design and three compiled kernels. The design is
ported to numpy here, step for step and in scipy's order of operations, so
its coefficients are byte for byte scipy's. The three kernels are scipy's
own: ``sosfilt``'s, and ``find_peaks``' local-maximum scan and distance rule.
Their modules, ``_sosfilt`` and ``_peak_finding_utils``, are loaded straight
from the installed ``scipy/signal/`` directory, without running the package's
``__init__``. Around each kernel stays the argument handling of the public
function it serves. Those modules are private to scipy, so if one cannot be
loaded or lacks the function, every call here goes to public ``scipy.signal``
instead, with the same results; its ``find_peaks`` then scans the whole array
at once, so its peak arrays scale with the clip.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os

import numpy as np

from . import _cpu

__all__ = ["butter_highpass_sos", "sosfilt_zi", "sosfilt", "find_peaks"]


# --- filter design: scipy.signal.butter(order, cutoff, "highpass", fs=fs, output="sos")


def butter_highpass_sos(order: int, cutoff_hz: float, fs: float) -> np.ndarray:
    """Second-order sections of a digital Butterworth high-pass, as
    ``scipy.signal.butter(order, cutoff_hz, btype="highpass", fs=fs,
    output="sos")`` returns them. The caller checks ``cutoff_hz``, and that
    ``order`` is at least 1."""
    wn = np.asarray(cutoff_hz, dtype=np.float64) / (float(fs) / 2)
    warped = 2 * 2.0 * np.tan(np.pi * wn / 2.0)  # iirfilter pre-warps with fs = 2
    # buttap: the analog prototype
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    z, p, k = np.zeros(0), -np.exp(1j * np.pi * m / (2 * order)), 1.0
    # lp2hp_zpk
    wo = float(warped)
    degree = len(p) - len(z)
    z, p, k = (
        np.concatenate((wo / z, np.zeros(degree))),
        wo / p,
        k * np.real(np.prod(-z) / np.prod(-p)),
    )
    # bilinear_zpk, fs = 2
    fs2 = 2.0 * 2.0
    degree = len(p) - len(z)
    z, p, k = (
        np.concatenate(((fs2 + z) / (fs2 - z), -np.ones(degree))),
        (fs2 + p) / (fs2 - p),
        k * np.real(np.prod(fs2 - z) / np.prod(fs2 - p)),
    )
    return _zpk2sos(z, p, np.asarray(k))


def _zpk2sos(z: np.ndarray, p: np.ndarray, k: np.ndarray) -> np.ndarray:
    """scipy's ``zpk2sos`` with "nearest" pairing, for the zeros and poles of
    a digital Butterworth high-pass. Its zeros are all real (at z = 1), and
    its poles are conjugate pairs plus, for an odd order, one real pole, so
    only scipy's pairing branches for real zeros can run; they are kept."""
    sos = np.zeros(((len(p) + 1) // 2, 6))
    if len(p) % 2 == 1:  # a real pole at 0, and a zero to match
        p = np.concatenate((p, [0.0]))
        z = np.concatenate((z, [0.0]))
    z = np.concatenate(_cplxreal(z))
    p = np.concatenate(_cplxreal(p))  # one pole of each conjugate pair
    for si in range(len(sos) - 1, -1, -1):
        p1, p = _pop(p, _idx_worst(p))
        if np.isreal(p1):  # paired with the real pole nearest the unit circle
            reals = np.flatnonzero(np.isreal(p))
            p2, p = _pop(p, reals[_idx_worst(p[reals])])
        else:
            p2 = p1.conj()
        z1, z = _pop(z, np.argsort(np.abs(z - p1))[0])
        z2, z = _pop(z, np.argsort(np.abs(z - p1))[0])
        # zpk2tf of unit gain: scipy's gain of 1.0 multiplies exactly
        sos[si] = np.concatenate((_poly([z1, z2]), _poly([p1, p2])))
    sos[0][:3] *= k.real
    return sos


def _idx_worst(p: np.ndarray):
    """Index of the pole nearest the unit circle."""
    return np.argmin(np.abs(1 - np.abs(p)))


def _pop(values: np.ndarray, i) -> tuple:
    return values[i], np.delete(values, i)


def _cplxreal(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's ``_cplxreal``: (one of each conjugate pair, the real values),
    sorted by real part."""
    tol = 100 * np.finfo((1.0 * z).dtype).eps
    z = z[np.lexsort((abs(z.imag), z.real))]
    real_indices = abs(z.imag) <= tol * abs(z)
    zr = z[real_indices].real
    if len(zr) == len(z):
        return np.array([]), zr
    z = z[~real_indices]
    zp = z[z.imag > 0]
    zn = z[z.imag < 0]
    if len(zp) != len(zn):
        raise ValueError("Array contains complex value with no matching conjugate.")
    # runs of (nearly) equal real part are sorted by imaginary magnitude
    same_real = np.diff(zp.real) <= tol * abs(zp[:-1])
    diffs = np.diff(np.concatenate(([0], same_real, [0])))
    for start, stop in zip(np.nonzero(diffs > 0)[0], np.nonzero(diffs < 0)[0] + 1):
        for chunk in (zp[start:stop], zn[start:stop]):
            chunk[...] = chunk[np.lexsort([abs(chunk.imag)])]
    if any(abs(zp - zn.conj()) > tol * abs(zn)):
        raise ValueError("Array contains complex value with no matching conjugate.")
    return (zp + zn.conj()) / 2, zr


def _poly(roots: list) -> np.ndarray:
    """scipy's ``_polyutils.poly``: coefficients of the monic polynomial with
    these roots, real when they come in conjugate pairs."""
    roots = np.asarray(roots)
    a = np.ones((1,), dtype=roots.dtype)
    one = np.ones_like(roots[0])
    for root in roots:
        a = np.convolve(a, np.stack((one, -root)), mode="full")
    if np.iscomplexobj(a):
        as_complex = np.asarray(roots, dtype=np.complex128)
        if np.all(np.sort(np.imag(as_complex)) == np.sort(np.imag(np.conj(as_complex)))):
            a = np.asarray(np.real(a), copy=True)
    return a


def sosfilt_zi(sos: np.ndarray) -> np.ndarray:
    """``scipy.signal.sosfilt_zi``: the initial state of each section for a
    step response at steady state."""
    zi = np.empty((sos.shape[0], 2), dtype=sos.dtype)
    scale = 1.0
    for section in range(sos.shape[0]):
        b = sos[section, :3]
        a = sos[section, 3:]
        zi[section, ...] = scale * _lfilter_zi(b, a)
        scale *= np.sum(b) / np.sum(a)
    return zi


def _lfilter_zi(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """scipy's ``lfilter_zi`` for one section whose ``a[0]`` is 1, as in every
    section designed here, with ``scipy.linalg.companion`` built in place."""
    companion = np.zeros((2, 2))
    companion[0, :] = -a[1:] / (1.0 * a[0:1])
    companion[1, 0] = 1
    return np.linalg.solve(np.eye(2) - companion.T, b[1:] - a[1:] * b[0])


# --- the compiled kernels

# values per local-maximum scan in find_peaks
_PEAK_BLOCK = 1 << 18
# values searched first for a cut: by _last_cut, and before the middle for a split scan
_CUT_SEARCH = 1024


def _load(name: str):
    """The compiled module ``scipy.signal.<name>``, loaded from its file
    without importing ``scipy.signal``."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed")
    directory = os.path.join(spec.submodule_search_locations[0], "signal")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, name + suffix)
        if os.path.isfile(path):
            module_spec = importlib.util.spec_from_file_location(f"scipy.signal.{name}", path)
            module = importlib.util.module_from_spec(module_spec)
            module_spec.loader.exec_module(module)
            return module
    raise ImportError(f"no compiled scipy.signal.{name} in {directory}")


@functools.cache
def _kernels():
    """(``_sosfilt``, ``_local_maxima_1d``, ``_select_by_peak_distance``) from
    scipy's compiled modules, or None when any cannot be bound."""
    try:
        peaks = _load("_peak_finding_utils")
        return _load("_sosfilt")._sosfilt, peaks._local_maxima_1d, peaks._select_by_peak_distance
    except (ImportError, AttributeError):
        return None


def bound() -> bool:
    """Whether the compiled kernels are bound, rather than reached through
    public ``scipy.signal``."""
    return _kernels() is not None


def sosfilt(
    sos: np.ndarray, x: np.ndarray, zi: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.signal.sosfilt(sos, x, zi=zi)`` for float64 1-D ``x`` and
    ``zi`` of shape ``(sections, 2)``: the filtered signal and the final
    state. The signal is a new array, or ``out`` when given: a C-contiguous
    float64 array of ``x``'s length, which may be ``x`` itself, filtered in
    place."""
    if out is not None and not out.flags.c_contiguous:  # the kernel would filter a reshaped copy
        raise ValueError("out must be C-contiguous")
    kernels = _kernels()
    if kernels is None:
        from scipy import signal

        y, zf = signal.sosfilt(sos, x, zi=zi)
        if out is None:
            return y, zf
        out[...] = y
        return out, zf
    if out is None:
        out = np.array(x, np.float64, order="C")
    elif out is not x:
        out[...] = x
    state = np.ascontiguousarray(np.array(zi, dtype=np.float64).reshape(1, -1, 2))
    kernels[0](sos.astype(np.float64, copy=False), out.reshape(1, -1), state)
    return out, state.reshape(zi.shape)


def find_peaks(values: np.ndarray, height: float, distance: float, helper=None) -> np.ndarray:
    """The peak indices of ``scipy.signal.find_peaks(values, height=height,
    distance=distance)`` for finite ``values`` and ``distance >= 1``.

    scipy rounds ``distance`` up to a C integer, which a huge distance
    overflows, so it is clamped first to the length of ``values``: no two
    peaks lie that far apart, so every larger distance keeps the same peaks.
    Bound, the peaks are found a block at a time (``_candidate_peaks``) and
    spaced by scipy's compiled ``_select_by_peak_distance``.

    ``helper`` is ``(executor, idle)``, as for ``audio._envelope_into``. When
    its thread is idle, the process has more than one CPU and ``values``
    holds at least two blocks, the values are cut at the last cut value (see
    ``_candidate_peaks``) among the ``_CUT_SEARCH`` before the middle: the
    thread scans from there to the end while this one scans up to it, and
    the distance rule runs once over both. With no cut there, the scan is
    serial.
    """
    distance = min(distance, max(len(values), 1))
    kernels = _kernels()
    if kernels is None:
        from scipy import signal

        return signal.find_peaks(values, height=height, distance=distance)[0]
    values = np.asarray(values, dtype=np.float64)
    cut = near = 0
    if helper is not None and len(values) >= 2 * _PEAK_BLOCK and helper[1]() and _cpu.cpu_count() > 1:
        near = max(len(values) // 2 - _CUT_SEARCH, 0)
        cut = near + _last_cut(values[near:len(values) // 2 + 1], height)
    if cut > near:
        tail = helper[0].submit(_candidate_peaks, values[cut:], height, kernels[1])
        head = _candidate_peaks(values[:cut + 1], height, kernels[1])
        peaks = np.concatenate((head, tail.result() + cut))
    else:
        peaks = _candidate_peaks(values, height, kernels[1])
    return peaks[kernels[2](peaks, values[peaks], distance)]


def _candidate_peaks(values: np.ndarray, height: float, local_maxima) -> np.ndarray:
    """The peaks of ``find_peaks(values, height=height)``, a block at a time.

    Each block goes to ``local_maxima`` with its values below ``height`` set
    to -inf: they can be neither a peak nor part of one's plateau, and a
    peak's neighbours stay strictly lower, so the peaks are the same and far
    fewer local maxima are scanned. A block ends, and the next one starts,
    on a value that is below ``height`` or lower than the value before it.
    Such a value is never a peak nor inside a plateau, so every peak has its
    whole plateau and both neighbours inside one block. A run of
    non-decreasing values above ``height`` that fills a block doubles the
    block until a cut fits.
    """
    found = []
    # the masked block, in one reused array: a fresh 2 MB array per block is
    # mapped and paged in anew each time unless glibc's mmap threshold was
    # raised by a larger freed array (27k page faults a call on a 5-minute clip)
    scratch = np.empty(0)
    start, size = 0, _PEAK_BLOCK
    while True:
        stop = min(start + size, len(values))
        block = values[start:stop]
        if stop < len(values):
            cut = _last_cut(block, height)
            if cut == 0:
                size *= 2
                continue
            stop = start + cut + 1
            block = block[:cut + 1]
        if len(scratch) < len(block):
            scratch = np.empty(len(block))
        masked = scratch[:len(block)]
        masked.fill(-np.inf)
        np.copyto(masked, block, where=block >= height)
        found.append(local_maxima(masked)[0] + start)
        if stop == len(values):
            return np.concatenate(found)
        start, size = stop - 1, _PEAK_BLOCK


def _last_cut(block: np.ndarray, height: float) -> int:
    """Index of the last value of ``block[1:]`` that is below ``height`` or
    lower than the value before it, or 0 when there is none. The block's
    last ``_CUT_SEARCH`` values are searched first; a cut is nearly always
    there."""
    for width in (min(_CUT_SEARCH, len(block)), len(block)):
        tail = block[len(block) - width:]
        ok = (tail[1:] < height) | (tail[1:] < tail[:-1])
        if ok.any():
            return len(block) - 1 - int(np.argmax(ok[::-1]))
    return 0
