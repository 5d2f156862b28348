"""What the reported interval exponent measures, on 400-bar shuffles.

``report.json``'s ``intervals_all`` α comes from first-order DFA on the
class-normalized interval deviations. Timing jitter on onset times makes
consecutive intervals anticorrelated (α below 0.5), and a tempo ramp is a
trend in the intervals that first-order DFA does not remove, so it raises α2
(Hu et al. 2001); second-order DFA removes it (Kantelhardt et al. 2001).
Long-range correlated timing (LRC β = 1) raises α2 far above either effect.

Every check is per seed, over seeds 0–5, each groove compared with the
jitter-only groove of the same seed (the same jitter draws). The bounds were
set from seeds 0–19: the 84→96 BPM ramp raised DFA1's α2 by 0.049–0.064
(84→90: 0.013–0.022) and moved DFA2's by at most 0.002; jitter-only α2 was
0.27–0.34; LRC raised α2 by 0.51–0.63, with or without the ramp.
"""

import pytest

from groovekit import GrooveSpec, dfa_analyze, gen_shuffle_onsets, run_analysis
from groovekit.analysis import _dfa_series

SEEDS = range(6)
BARS = 400


def alpha2(seed, ramp_bpm=None, lrc_beta=0.0, detrend_order=1):
    spec = GrooveSpec(
        bpm=84.0, swing_ratio=1.79, bars=BARS, jitter_sigma_ms=2.0,
        lrc_beta=lrc_beta, lrc_sigma_ms=3.0 if lrc_beta else 0.0,
        drift_profile=None if ramp_bpm is None else ((0.0, 84.0), (float(BARS), ramp_bpm)),
    )
    result = run_analysis(gen_shuffle_onsets(spec, seed=seed)[0])
    if detrend_order == 1:
        return result.dfa_results["intervals_all"].alpha2
    series = _dfa_series(result.series, result.onsets, result.params)["intervals_all"]
    return dfa_analyze(series, detrend_order=detrend_order).alpha2


@pytest.mark.parametrize("seed", SEEDS)
def test_jitter_alone_reads_as_anticorrelated(seed):
    assert alpha2(seed) < 0.5


@pytest.mark.parametrize("ramp_bpm, low, high", [(90.0, 0.005, 0.035), (96.0, 0.03, 0.09)])
@pytest.mark.parametrize("seed", SEEDS)
def test_a_tempo_ramp_raises_first_order_alpha_by_a_bounded_amount(seed, ramp_bpm, low, high):
    rise = alpha2(seed, ramp_bpm=ramp_bpm) - alpha2(seed)
    assert low < rise < high


@pytest.mark.parametrize("seed", SEEDS)
def test_second_order_dfa_is_flat_against_the_ramp(seed):
    rise = alpha2(seed, ramp_bpm=96.0, detrend_order=2) - alpha2(seed, detrend_order=2)
    assert abs(rise) < 0.005


@pytest.mark.parametrize("ramp_bpm", [None, 96.0], ids=["steady", "ramp"])
@pytest.mark.parametrize("seed", SEEDS)
def test_long_range_correlation_stands_above_jitter(seed, ramp_bpm):
    assert alpha2(seed, ramp_bpm=ramp_bpm, lrc_beta=1.0) - alpha2(seed) > 0.4
