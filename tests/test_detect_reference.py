"""detect_onsets against a plain ``find_peaks`` over the whole envelope.

``detect_onsets`` zeroes every value below the height threshold before
calling ``find_peaks``. The reference below is the original detection: the
unmasked envelope, the same height and distance, the same uncertainty rule.
Both must find the same peaks and build the same series, on hand-made edge
cases (plateaus at and around the threshold, array ends, ties closer than the
refractory distance) and on small quantized envelopes full of ties.

``detect_onsets`` also cuts the envelope into blocks of ``_PEAK_BLOCK``
samples and applies the distance rule itself. With the block shrunk to a few
samples, every plateau, long run above the threshold and close tie lands
across block ends, and the result must still be plain ``find_peaks``'.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from groovekit import OnsetSeries, detect_onsets
from groovekit import onsets as onsets_mod
from groovekit.onsets import MAX_UNCERTAINTY_MS, _peak_uncertainty_ms

from conftest import make_envelope

# high enough that no peak of a short test envelope is dropped for its width
SAMPLE_RATE = 1e5


def ref_detect(env, threshold, refractory_ms):
    """(peak indices of plain find_peaks, the series built from them)."""
    values = env.values
    if env.silent or len(values) < 3:
        return np.zeros(0, dtype=np.intp), OnsetSeries((), (), (), (), ())
    height = threshold * float(np.max(values))
    distance = max(1, int(round(refractory_ms * 1e-3 * env.sample_rate)))
    peaks, _ = find_peaks(values, height=height, distance=distance)
    unc = np.array(
        [_peak_uncertainty_ms(values, int(p), env.sample_rate) for p in peaks], dtype=np.float64
    )
    keep = unc <= MAX_UNCERTAINTY_MS
    series = OnsetSeries.from_columns(
        peaks[keep] / env.sample_rate, values[peaks[keep]], uncertainty_ms=unc[keep]
    )
    return peaks, series


def assert_same_detection(values, threshold, distance=1):
    env = make_envelope(values, sample_rate=SAMPLE_RATE)
    refractory_ms = distance * 1e3 / SAMPLE_RATE
    want_peaks, want = ref_detect(env, threshold, refractory_ms)
    got = detect_onsets(env, threshold=threshold, refractory_ms=refractory_ms)
    got_peaks = np.rint(got.times() * SAMPLE_RATE).astype(np.intp)
    np.testing.assert_array_equal(got_peaks, want_peaks)
    assert got == want
    return got_peaks


@pytest.mark.parametrize("values, threshold, distance, peaks", [
    # plateau exactly at the height
    ([0, 0.5, 0.5, 0.5, 0, 1.0, 0], 0.5, 1, [2, 5]),
    # plateau with one side below the height, the other above it
    ([0, 0.55, 0.7, 0.7, 0.3, 1.0, 0], 0.5, 1, [2, 5]),
    # plateau at the height with both neighbours just below it
    ([0, 0.4, 0.5, 0.5, 0.45, 1.0, 0], 0.5, 1, [2, 5]),
    # single sample equal to the height
    ([0, 0.5, 0, 1.0, 0], 0.5, 1, [1, 3]),
    # candidates at index 0 and n-1 are never peaks
    ([1.0, 0.2, 0.6, 0.2, 0.9], 0.5, 1, [2]),
    # plateau running to the array end is not a peak
    ([0, 0.2, 1.0, 0.1, 0.7, 0.7, 0.7], 0.5, 1, [2]),
    # equal-height peaks closer than the distance
    ([0, 1.0, 0, 1.0, 0, 1.0, 0, 0.6, 0], 0.5, 3, [1, 5]),
    # a dip below the height between two peaks above it
    ([0, 0.6, 0.3, 0.6, 0, 1.0, 0], 0.5, 1, [1, 3, 5]),
])
def test_edge_cases(values, threshold, distance, peaks):
    np.testing.assert_array_equal(assert_same_detection(values, threshold, distance), peaks)


@settings(max_examples=300, deadline=None)
@given(
    levels=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40),
    threshold=st.sampled_from([0.25, 0.5, 0.75, 0.3, 0.6]),
    distance=st.integers(min_value=1, max_value=5),
)
def test_quantized_envelopes(levels, threshold, distance):
    assert_same_detection(np.asarray(levels, dtype=float) / 4.0, threshold, distance)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    runs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=12)),
        min_size=1, max_size=30,
    ),
    block=st.integers(min_value=1, max_value=9),
    threshold=st.sampled_from([0.25, 0.5, 0.75, 0.3, 0.6]),
    distance=st.integers(min_value=1, max_value=8),
)
def test_small_blocks(monkeypatch, runs, block, threshold, distance):
    """Runs of equal values: plateaus, and stretches above the threshold,
    longer than the block, and ties closer than the distance."""
    monkeypatch.setattr(onsets_mod, "_PEAK_BLOCK", block)
    levels, lengths = zip(*runs)
    assert_same_detection(np.repeat(np.asarray(levels, dtype=float) / 4.0, lengths), threshold, distance)


@pytest.mark.parametrize("shape", ["rising-run", "plateau", "peaks-then-ramp"])
def test_runs_longer_than_the_block(monkeypatch, shape):
    """A non-decreasing run above the threshold with no place to cut, longer
    than the block and longer than the 1024-sample tail searched first."""
    monkeypatch.setattr(onsets_mod, "_PEAK_BLOCK", 2000)
    noise = np.random.default_rng(3).uniform(0.0, 1.0, 7000)
    if shape == "rising-run":
        values = np.concatenate([noise, np.linspace(0.5, 0.9, 5000), [0.2], noise])
    elif shape == "plateau":
        values = np.concatenate([noise, np.full(4500, 0.8), [0.1], noise])
    else:
        values = np.concatenate([noise[:800], np.linspace(0.3, 0.95, 2600), [0.0], noise])
    env = make_envelope(values, sample_rate=SAMPLE_RATE)
    height = 0.25 * float(np.max(values))
    candidates = onsets_mod._candidate_peaks(values, height)
    for distance in (1, 7, 300):
        # the wide peaks here are dropped for their width, so compare before that
        spaced = candidates[onsets_mod._spaced(candidates, values[candidates], distance)]
        np.testing.assert_array_equal(spaced, find_peaks(values, height=height, distance=distance)[0])
        refractory_ms = distance * 1e3 / SAMPLE_RATE
        assert detect_onsets(env, threshold=0.25, refractory_ms=refractory_ms) == ref_detect(
            env, 0.25, refractory_ms)[1]
