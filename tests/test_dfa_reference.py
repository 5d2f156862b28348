"""The projection DFA kernel against the solver loops it replaced.

The references below are the loop implementations the kernel replaced: one
``lstsq`` fit per scale and tiling direction for F(s), and one ``polyfit`` per
sliding window for alpha(s). The kernel detrends by subtracting orthonormal
Gram-polynomial components instead, so sums run in another order and results
agree to a bound, 1e-12, not exactly.

On doubly-integrated input at orders 2 and 3 the ``lstsq`` reference itself is
off by up to ~1e-11 (against exact rational arithmetic, n = 256 to 530), and on
Brownian input at n = 26k by up to ~2e-12 (against an extended-precision
oracle), so there it cannot hold a 1e-12 bound. Doubly-integrated series are
therefore checked against an exact ``Fraction`` oracle, and the 26k grid runs
on white noise.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from groovekit import (
    FluctuationResult,
    ParameterError,
    default_scales,
    dfa_analyze,
    dfa_fluctuation,
    local_alpha,
)
from groovekit.dfa import _gram_basis

ORDERS = [1, 2, 3]
BOUND = 1e-12


# ---------------------------------------------------------------------------
# loop references


def _profile(series):
    x = np.asarray(series, dtype=np.float64)
    return np.concatenate(([0.0], np.cumsum(x - np.mean(x))))


def ref_pass_variances(profile, s, vander):
    n_win = len(profile) // s
    blocks = profile[: n_win * s].reshape(n_win, s).T
    coef, *_ = np.linalg.lstsq(vander, blocks, rcond=None)
    resid = blocks - vander @ coef
    return np.mean(resid**2, axis=0)


def ref_fluctuation(series, scales, order):
    profile = _profile(series)
    F = []
    for s in scales:
        vander = np.vander(np.arange(s, dtype=np.float64), order + 1, increasing=True)
        fwd = ref_pass_variances(profile, s, vander)
        bwd = ref_pass_variances(profile[::-1], s, vander)
        F.append(np.sqrt((fwd.sum() + bwd.sum()) / (len(fwd) + len(bwd))))
    return np.array(F)


def ref_local_alpha(result, half_window=2):
    log_s = np.log(result.scales.astype(np.float64))
    log_f = np.log(result.F)
    out = []
    for c in range(half_window, len(result.scales) - half_window):
        sl = slice(c - half_window, c + half_window + 1)
        out.append((int(result.scales[c]), float(np.polyfit(log_s[sl], log_f[sl], 1)[0])))
    return tuple(out)


def exact_fluctuation(series, scales, order):
    """F(s) of the same float profile in exact rational arithmetic: the trend
    is removed by the unnormalized Gram polynomials, whose coefficients are
    rational on the half-integer centered positions."""
    profile = [Fraction(v) for v in _profile(series).tolist()]
    F = []
    for s in scales:
        t = [Fraction(2 * j - (s - 1), 2) for j in range(s)]
        polys = [[Fraction(1)] * s, t]
        for k in range(1, order):
            beta = Fraction(k * k * (s * s - k * k), 4 * (4 * k * k - 1))
            polys.append([tj * a - beta * b for tj, a, b in zip(t, polys[k], polys[k - 1])])
        polys = [(p, sum(v * v for v in p)) for p in polys[: order + 1]]
        n_win = len(profile) // s
        total = Fraction(0)
        for tiling in (profile, profile[::-1]):
            for w in range(n_win):
                y = tiling[w * s : (w + 1) * s]
                total += sum(v * v for v in y)
                for p, norm2 in polys:
                    dot = sum(a * b for a, b in zip(p, y))
                    total -= dot * dot / norm2
        F.append(np.sqrt(float(total / (2 * n_win * s))))
    return np.array(F)


# ---------------------------------------------------------------------------
# cases: (series, scales); scales below order + 2 are dropped per order


def _white(n, seed):
    return np.random.default_rng(seed).normal(size=n)


CASES = {
    "white_530_default_grid": (_white(530, 1), default_scales(530)),
    "brownian_530_default_grid": (np.cumsum(_white(530, 2)), default_scales(530)),
    "white_26k_default_grid": (_white(26_000, 3), default_scales(26_000)),
    "white_offset_1e6": (_white(530, 4) + 1e6, default_scales(530)),
    "brownian_offset_1e6": (np.cumsum(_white(530, 5)) + 1e6, default_scales(530)),
    "smallest_scales": (_white(200, 6), np.arange(3, 12)),
    # 128 = 4 * 32, the shortest series the largest scale allows
    "n_exactly_4_s_max": (np.cumsum(_white(128, 7)), np.array([4, 5, 6, 8, 10, 13, 16, 21, 32])),
    # profile length 524 is a multiple of none of these scales
    "n_not_multiple_of_s": (_white(523, 8), np.array([5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 30])),
}


def _scales_for(scales, order):
    return np.asarray(scales)[np.asarray(scales) >= order + 2]


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_fluctuation_matches_lstsq_loop(case, order):
    x, scales = CASES[case]
    scales = _scales_for(scales, order)
    got = dfa_fluctuation(x, scales=scales, detrend_order=order)
    want = ref_fluctuation(x, scales.tolist(), order)
    assert not got.degenerate
    assert np.max(np.abs(got.F - want) / want) <= BOUND


@pytest.mark.parametrize("order", ORDERS)
def test_doubly_integrated_matches_exact_oracle(order):
    x = np.cumsum(np.cumsum(_white(530, 9)))
    scales = _scales_for(default_scales(len(x)), order)
    got = dfa_fluctuation(x, scales=scales, detrend_order=order).F
    want = exact_fluctuation(x, scales.tolist(), order)
    assert np.max(np.abs(got - want) / want) <= BOUND


@pytest.mark.parametrize("half_window", [1, 2, 3])
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_local_alpha_matches_polyfit_loop(case, order, half_window):
    x, scales = CASES[case]
    result = dfa_fluctuation(x, scales=_scales_for(scales, order), detrend_order=order)
    got = local_alpha(result, half_window=half_window)
    want = ref_local_alpha(result, half_window=half_window)
    assert [s for s, _ in got] == [s for s, _ in want]
    assert all(isinstance(s, int) and isinstance(a, float) for s, a in got)
    assert max(abs(a - b) for (_, a), (_, b) in zip(got, want)) <= BOUND


def test_local_alpha_of_exact_power_law():
    scales = default_scales(26_000)
    result = FluctuationResult(scales=scales, F=2.0 * scales.astype(float) ** 1.3, detrend_order=1)
    got = np.array([a for _, a in local_alpha(result)])
    np.testing.assert_allclose(got, 1.3, rtol=0, atol=BOUND)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("s", [5, 6, 17, 1000, 25_000])
def test_gram_basis_is_orthonormal_polynomial(s, order):
    basis = _gram_basis(s, order)
    assert basis.shape == (s, order + 1)
    np.testing.assert_allclose(basis.T @ basis, np.eye(order + 1), rtol=0, atol=1e-12)
    # every column lies in the span of the monomials up to ``order``
    t = np.linspace(-1.0, 1.0, s)
    vander = np.vander(t, order + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(vander, basis, rcond=None)
    np.testing.assert_allclose(vander @ coef, basis, rtol=0, atol=1e-9)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("level", [0.0, 3.7, 1e6])
def test_constant_input_stays_degenerate(order, level):
    x = np.full(530, level)
    result = dfa_fluctuation(x, scales=_scales_for(default_scales(530), order), detrend_order=order)
    assert result.degenerate
    np.testing.assert_array_equal(result.F, 0.0)
    analyzed = dfa_analyze(x, detrend_order=order, scales=result.scales)
    assert analyzed.degenerate
    assert analyzed.alpha1 is None and analyzed.alpha2 is None and analyzed.alpha_local == ()


def test_negative_detrend_order_rejected():
    x = np.random.default_rng(0).normal(size=256)
    with pytest.raises(ParameterError, match="detrend_order must be at least 0"):
        dfa_fluctuation(x, scales=[4, 8, 16], detrend_order=-1)


# ---------------------------------------------------------------------------
# the kernel bit for bit: one reused buffer and cached bases against the
# concatenating kernel they replaced


def _concat_gram_basis(s, order):
    t = np.arange(s, dtype=np.float64) - (s - 1) / 2.0
    cols = [np.ones(s), t]
    for k in range(1, order):
        cols.append(t * cols[k] - k * k * (s * s - k * k) / (4.0 * (4 * k * k - 1)) * cols[k - 1])
    basis = np.column_stack(cols[: order + 1])
    return basis / np.linalg.norm(basis, axis=0)


def concat_fluctuation(series, scales, order):
    """The kernel as it was: a fresh (2m, s) array per scale and a fresh basis.
    Its sum of squares is the library's BLAS-free einsum reduction."""
    profile = _profile(series)
    F = np.empty(len(scales), dtype=np.float64)
    for i, s in enumerate(scales):
        used = len(profile) // s * s
        resid = np.concatenate((profile[:used], profile[::-1][:used])).reshape(-1, s)
        resid -= resid[:, :1]
        basis = _concat_gram_basis(s, order)
        resid -= (resid @ basis) @ basis.T
        F[i] = np.sqrt(np.einsum("ij,ij->", resid, resid) / resid.size)
    return F


BIT_CASES = {
    # profile length 18: 2 and 3 divide it, 4 does not
    "white_17": (_white(17, 10), [2, 3, 4]),
    # profile length 30: 5 and 6 divide it, 7 does not
    "brownian_29": (np.cumsum(_white(29, 11)), [5, 6, 7]),
    "white_530_default_grid": (_white(530, 12), default_scales(530).tolist()),
    # profile length 1024: the powers of two divide it, the odd scales do not
    "offset_1023": (_white(1023, 13) + 1e6, [4, 5, 8, 16, 31, 32, 64, 127, 128, 255]),
    "brownian_26417_default_grid": (np.cumsum(_white(26_417, 14)), default_scales(26_417).tolist()),
    "white_26417_default_grid": (_white(26_417, 15), default_scales(26_417).tolist()),
}


@pytest.mark.parametrize("case, order", [
    (case, order) for case in sorted(BIT_CASES) for order in range(4)
    if max(BIT_CASES[case][1]) >= order + 2  # at n = 17 no scale leaves order 3 a residual
])
def test_fluctuation_bit_for_bit_with_concatenating_kernel(case, order):
    x, scales = BIT_CASES[case]
    scales = [s for s in scales if s >= order + 2]
    got = dfa_fluctuation(x, scales=scales, detrend_order=order).F
    assert np.array_equal(got, concat_fluctuation(x, scales, order))


def test_cached_basis_is_read_only():
    basis = _gram_basis(16, 1)
    assert basis is _gram_basis(16, 1)
    with pytest.raises(ValueError):
        basis[0, 0] = 1.0


@pytest.mark.parametrize("order", [1, 2])
def test_fluctuation_same_with_cold_and_warm_cache(order):
    x, other = np.cumsum(_white(5_000, 16)), _white(6_000, 17)
    scales = default_scales(len(x))
    _gram_basis.cache_clear()
    cold = dfa_fluctuation(x, scales=scales, detrend_order=order).F
    _gram_basis.cache_clear()
    dfa_fluctuation(other, scales=scales, detrend_order=order)  # warms every scale of x
    assert _gram_basis.cache_info().currsize == len(scales)
    warm = dfa_fluctuation(x, scales=scales, detrend_order=order).F
    assert _gram_basis.cache_info().hits >= len(scales)
    assert np.array_equal(cold, warm)


# ---------------------------------------------------------------------------
# F does not depend on the OpenBLAS thread count

SRC = Path(__file__).resolve().parent.parent / "src"
# prints F of a 26,417-point white and Brownian series, at orders 1 and 2, as hex
F_BYTES = """
import numpy as np
from groovekit import dfa_fluctuation
x = np.random.default_rng(15).normal(size=26_417)
print("".join(dfa_fluctuation(series, detrend_order=order).F.tobytes().hex()
              for series in (x, np.cumsum(x)) for order in (1, 2)))
"""


def _f_bytes(blas_threads: int) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", F_BYTES], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_fluctuation_same_bytes_under_one_and_three_openblas_threads():
    """F is the same bytes under 1 and 3 OpenBLAS threads.

    OpenBLAS reads ``OPENBLAS_NUM_THREADS`` when numpy loads, so each count
    runs in a fresh interpreter. OpenBLAS's ddot splits a long sum across
    its threads, so a sum of squares through BLAS (``np.vdot``) made F differ
    here at about half the scales of each series, in the last bits. On a
    one-CPU host both settings may run one thread, and the test then proves
    nothing.
    """
    one = _f_bytes(1)
    assert len(one) > 0
    assert _f_bytes(3) == one
