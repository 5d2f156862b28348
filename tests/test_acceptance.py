"""Acceptance suite: one test per shipping criterion, one printed line each.

Statistical criteria follow the aggregate contract: fixed seed sets, mean (or
pass-rate) tolerances as stated. Run with ``pytest -v tests/test_acceptance.py``
(add ``-s`` to see the pass/fail lines on success).
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from groovekit import (
    GrooveSpec,
    OnsetSeries,
    classify_intervals,
    compute_drift,
    default_scales,
    detect_onsets,
    dfa_fluctuation,
    envelope,
    estimate_base_unit,
    fit_alpha,
    gen_crossover_series,
    gen_powerlaw_noise,
    gen_shuffle_onsets,
    fourier_tempogram,
    highpass,
    interval_stats,
    intervals,
    local_alpha,
    merge_close_onsets,
    novelty_curve,
    read_onsets_csv,
    render_clicks,
    swing_ratio,
    argmax_track,
)
from groovekit.analysis import run_analysis

from test_dfa import dfa_brute_force

N_SEEDS = 20
FIXTURE = Path(__file__).parent / "fixtures" / "rosanna_annotations.csv"


def _report(num, desc, ok, detail=""):
    line = f"[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'}  {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_dfa_white_noise():
    alphas, worst = [], 0.0
    for seed in range(N_SEEDS):
        x = np.random.default_rng(seed).normal(size=10_000)
        t0 = time.perf_counter()
        result = dfa_fluctuation(x)
        alphas.append(fit_alpha(result, 4, len(x) // 4))
        worst = max(worst, time.perf_counter() - t0)
    mean = float(np.mean(alphas))
    _report(
        1,
        "white-noise global alpha in [0.45, 0.55], each run < 1 s",
        0.45 <= mean <= 0.55 and worst < 1.0,
        f"mean alpha={mean:.4f}, slowest run={worst * 1e3:.0f} ms",
    )


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_criterion_02_dfa_powerlaw_recovery(beta):
    target = (beta + 1.0) / 2.0
    alphas = []
    for seed in range(N_SEEDS):
        x = gen_powerlaw_noise(beta, 8192, seed=seed)
        alphas.append(fit_alpha(dfa_fluctuation(x), 4, 2048))
    mean = float(np.mean(alphas))
    _report(
        2,
        f"power-law beta={beta:g} recovers alpha within +-0.10 of {target}",
        abs(mean - target) <= 0.10,
        f"mean alpha={mean:.4f}",
    )


def test_criterion_03_dfa_brute_force_oracle():
    rng = np.random.default_rng(2024)
    scales = [s for s in range(4, 33)]
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4 * 33, 513))
        kind = rng.integers(3)
        if kind == 0:
            x = rng.normal(size=n)
        elif kind == 1:
            x = np.cumsum(rng.normal(size=n))
        else:
            x = rng.uniform(-1, 1, size=n)
        fast = dfa_fluctuation(x, scales=scales).F
        slow = dfa_brute_force(x, scales)
        worst = max(worst, float(np.max(np.abs(fast - slow) / slow)))
    _report(
        3,
        "F(s) matches independent per-window oracle to 1e-10 (50 series, s <= 32)",
        worst <= 1e-10,
        f"worst relative error={worst:.2e}",
    )


def test_criterion_04_crossover_reproduction():
    passes = 0
    transitions = []
    for seed in range(N_SEEDS):
        x = gen_crossover_series(4096, [1.0, -1.0] * 12, lrc_beta=1.4, mix=0.5, seed=seed)
        result = dfa_fluctuation(x, scales=default_scales(4096, s_max=200))
        a1 = fit_alpha(result, 4, 16)
        a2 = fit_alpha(result, 16, 100)
        local = local_alpha(result)
        lo = np.mean([a for s, a in local if s <= 10])
        hi = np.mean([a for s, a in local if s >= 60])
        s_cross = next((s for s, a in local if a >= (lo + hi) / 2), None)
        ok = a1 <= a2 - 0.25 and s_cross is not None and 16 <= s_cross <= 40
        passes += ok
        if s_cross is not None:
            transitions.append(s_cross)
    _report(
        4,
        "crossover: alpha1 <= alpha2 - 0.25 and transition in s=[16,40], >=90% of seeds",
        passes >= int(np.ceil(0.9 * N_SEEDS)),
        f"{passes}/{N_SEEDS} seeds, median transition s={int(np.median(transitions))}",
    )


@pytest.mark.parametrize("ratio", [1.5, 1.79, 2.0])
def test_criterion_05_swing_recovery(ratio):
    worst = 0.0
    for seed in range(N_SEEDS):
        spec = GrooveSpec(bpm=84.0, swing_ratio=ratio, bars=60, jitter_sigma_ms=5.0)
        onsets, _ = gen_shuffle_onsets(spec, seed=seed)
        series = intervals(onsets)
        base = estimate_base_unit(series)
        report = swing_ratio(classify_intervals(series, base), onsets)
        worst = max(worst, abs(report.swing_ratio - ratio))
    _report(
        5,
        f"swing ratio {ratio} recovered within +-0.03 over {N_SEEDS} seeds (sigma=5 ms)",
        worst <= 0.03,
        f"worst error={worst:.4f}",
    )


def test_criterion_06_drift_correctness():
    # metronomic: zero drift
    spec = GrooveSpec(bpm=84.0, swing_ratio=2.0, bars=60)
    onsets, _ = gen_shuffle_onsets(spec, seed=0)
    series = intervals(onsets)
    base = estimate_base_unit(series)
    drift = compute_drift(classify_intervals(series, base), base)
    metronomic_ok = float(np.max(np.abs(drift))) < 1e-6

    # linear ramp 84 -> 86 over 60 bars vs quadrature closed form
    spec = GrooveSpec(
        bpm=84.0, swing_ratio=2.0, bars=60, drift_profile=((0.0, 84.0), (60.0, 86.0))
    )
    onsets, truth = gen_shuffle_onsets(spec, seed=0)
    series = intervals(onsets)
    base = estimate_base_unit(series, hint_bpm=85.0)
    drift = compute_drift(classify_intervals(series, base), base)

    def oracle_time(unit):
        val, _ = quad(lambda b: 120.0 / (84.0 + 2.0 * b / 60.0), 0.0, unit / 12.0)
        return spec.start_s + val

    oracle_times = np.array([oracle_time(u) for u in truth.unit_positions])
    taus = np.diff(oracle_times)
    mult = np.diff(truth.unit_positions)
    d_oracle = np.cumsum(taus / mult) - base * np.arange(1, len(taus) + 1)
    ramp_err = float(np.max(np.abs(drift - d_oracle)))

    # discarded interval resets the drift to zero
    taus = np.array([1, 1, 2, 5, 1, 2] * 5) * 0.124
    times = np.concatenate(([0.0], np.cumsum(taus)))
    gap_series = classify_intervals(intervals(_series(times)), 0.120)
    gap_drift = compute_drift(gap_series, 0.120)
    gaps = gap_drift[gap_series.multiples() == 0]
    gap_ok = len(gaps) == 5 and all(gaps == 0.0)

    _report(
        6,
        "drift: metronomic < 1e-6 s, ramp matches closed form < 1 ms, gaps reset to 0",
        metronomic_ok and ramp_err < 1e-3 and gap_ok,
        f"ramp error={ramp_err * 1e3:.4f} ms",
    )


def _series(times):
    return OnsetSeries.from_columns(times, np.full(len(times), 0.5))


def test_criterion_07_onset_pipeline():
    spec = GrooveSpec(bpm=84.0, swing_ratio=1.79, bars=60, jitter_sigma_ms=2.0)
    onsets, _ = gen_shuffle_onsets(spec, seed=17)
    clip = render_clicks(onsets, sample_rate=44100.0, noise_db=-30.0, seed=5)
    env = envelope(highpass(clip, 1000.0), smoothing_ms=2.0)
    detected = merge_close_onsets(detect_onsets(env, threshold=0.1, refractory_ms=50.0))
    got = detected.times()
    errors = []
    matched = 0
    for t in onsets.times():
        dist = float(np.min(np.abs(got - t)))
        if dist <= 2e-3:
            matched += 1
            errors.append(dist)
    recall = matched / len(onsets)

    # merge rule: injected double-hits 2-3 ms apart collapse to the first hit
    base_times = [1.0, 2.0, 3.0]
    doubled = [u for t in base_times for u in (t, t + 0.0025)]
    merged = merge_close_onsets(
        OnsetSeries.from_columns(doubled, [0.4, 0.6] * len(base_times)), window_ms=3.0
    )
    merge_ok = (
        len(merged) == 3
        and list(merged.times()) == base_times
        and all(merged.amplitudes() == 0.6)
    )

    _report(
        7,
        "60-bar render at -30 dB noise: recall >= 99%, timing <= 2 ms, merge-to-first",
        recall >= 0.99 and max(errors) <= 2e-3 and merge_ok,
        f"recall={recall:.4f}, worst timing={max(errors) * 1e3:.3f} ms",
    )


def test_criterion_08_classification():
    rng = np.random.default_rng(31)
    base_s = 0.119
    n = 2000
    multiples = rng.choice([1, 2, 3], size=n, p=[0.4, 0.35, 0.25])
    # choose gap positions whose merged neighbor-sum exceeds the 3.5x cutoff
    candidates = [
        i for i in range(1, n - 1) if multiples[i] + multiples[i + 1] >= 4
    ]
    gap_positions = sorted(rng.choice(candidates, size=40, replace=False))
    gap_positions = [
        g for k, g in enumerate(gap_positions)
        if k == 0 or g - gap_positions[k - 1] > 2
    ]

    times = 0.5 + np.concatenate(([0.0], np.cumsum(multiples * base_s)))
    times = times + rng.normal(0.0, 10e-3, size=len(times))
    keep = np.ones(len(times), dtype=bool)
    for g in gap_positions:
        keep[g + 1] = False  # drop the onset that closes interval g
    # post-removal ground truth: merged intervals sum their multiples
    surviving = np.flatnonzero(keep)
    true_sums = []
    for a, b in zip(surviving, surviving[1:]):
        true_sums.append(int(np.sum(multiples[a:b])))

    series = intervals(_series(times[keep]))
    base = estimate_base_unit(series)
    classified = classify_intervals(series, base)

    correct = 0
    classifiable = 0
    # multiple 0 is a discarded interval, and a valid one's class multiple is 1-3
    for m, true_m in zip(classified.multiples().tolist(), true_sums):
        if true_m <= 3:
            classifiable += 1
            if m != 0 and m == true_m:
                correct += 1
    accuracy = correct / classifiable

    stats = interval_stats(classified)
    expected_rate = sum(1 for m in true_sums if m <= 3) / len(true_sums)
    rate_err_pp = abs(stats["detection_rate"] - expected_rate) * 100.0

    discard_ok = all(
        got == 0 for got, m in zip(classified.multiples().tolist(), true_sums) if m >= 4
    )
    _report(
        8,
        "classification: >=99.9% correct at sigma=10 ms, gaps discarded, rate within 0.5 pp",
        accuracy >= 0.999 and discard_ok and rate_err_pp <= 0.5,
        f"accuracy={accuracy:.5f}, rate error={rate_err_pp:.3f} pp",
    )


def test_criterion_09_tempogram():
    def clicks(bpm, t0, t1):
        period = 60.0 / bpm
        out, t = [], t0
        while t < t1:
            out.append(t)
            t += period
        return out, t

    steady, _ = clicks(84.0, 0.5, 60.0)
    clip = render_clicks(
        OnsetSeries.from_columns(steady, np.full(len(steady), 0.9)),
        sample_rate=44100.0,
    )
    tg = fourier_tempogram(novelty_curve(clip))
    bin_width = float(tg.tempi_bpm[1] - tg.tempi_bpm[0])
    track = argmax_track(tg)
    steady_ok = bool(np.all(np.abs(track - 84.0) <= bin_width + 1e-9))

    first, t_end = clicks(82.0, 0.5, 40.0)
    second, _ = clicks(87.0, t_end, 80.0)
    clip2 = render_clicks(
        OnsetSeries.from_columns(first + second, np.full(len(first + second), 0.9)),
        sample_rate=44100.0,
    )
    tg2 = fourier_tempogram(novelty_curve(clip2))
    track2 = argmax_track(tg2)
    mid = (82.0 + 87.0) / 2.0
    switch = next(i for i, b in enumerate(track2) if b >= mid)
    boundary = int(np.argmin(np.abs(tg2.times_s - t_end)))
    switch_ok = abs(switch - boundary) <= 2

    _report(
        9,
        "tempogram: 84 BPM argmax within 1 bin; 82/87 switch within 2 frames",
        steady_ok and switch_ok,
        f"bin={bin_width:.2f} bpm, switch offset={switch - boundary} frames",
    )


@pytest.mark.skipif(
    not FIXTURE.exists(),
    reason="conditional replay fixture not shipped (copyrighted source recording); "
    "place the annotation CSV at tests/fixtures/rosanna_annotations.csv to enable",
)
def test_criterion_10_conditional_replay():
    onsets = read_onsets_csv(FIXTURE)
    result = run_analysis(onsets)
    stats = result.stats
    counts_ok = (
        stats["single"]["count"] == 454
        and stats["double"]["count"] == 421
        and stats["triple"]["count"] == 279
    )
    means_ok = (
        abs(stats["single"]["mean_s"] - 0.1276) <= 1e-4
        and abs(stats["double"]["mean_s"] - 0.2287) <= 1e-4
        and abs(stats["triple"]["mean_s"] - 0.3640) <= 1e-4
    )
    swing_ok = abs(result.swing.swing_ratio - 1.79) <= 0.01
    dfa_all = result.dfa_results["intervals_all"]
    alpha_ok = abs(dfa_all.alpha1 - 0.58) <= 0.05 and abs(dfa_all.alpha2 - 1.19) <= 0.05
    _report(
        10,
        "conditional replay: counts 454/421/279, means, swing 1.79, alpha 0.58/1.19",
        counts_ok and means_ok and swing_ok and alpha_ok,
    )
