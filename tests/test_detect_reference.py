"""detect_onsets against a plain ``find_peaks`` over the whole envelope.

``detect_onsets`` takes its peaks from ``_signal.find_peaks``, which sets
every value below the height threshold to -inf before scanning for local
maxima. The reference below is the original detection: public ``find_peaks``
on the unmasked envelope, the same height and distance, the same uncertainty
rule. Both must find the same peaks and build the same series, on hand-made
edge cases (plateaus at and around the threshold, array ends, ties closer
than the refractory distance) and on small quantized envelopes full of ties.

``_signal.find_peaks`` also cuts the envelope into blocks of ``_PEAK_BLOCK``
samples before it applies scipy's compiled distance rule to all the peaks.
With the block shrunk to a few samples, every plateau, long run above the
threshold and close tie lands across block ends, and the result must still
be plain ``find_peaks``'.

Peak widths are measured for all peaks at once, over windows each side of
them. The reference is the scalar loop that walked out from one peak at a
time; every kept peak must get its uncertainty bit for bit, and every dropped
one must be dropped, with the windows and gathers shrunk too.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from groovekit import OnsetSeries, _signal, detect_onsets
from groovekit import onsets as onsets_mod
from groovekit.onsets import MAX_UNCERTAINTY_MS

from conftest import make_envelope

# high enough that no peak of a short test envelope is dropped for its width
SAMPLE_RATE = 1e5


def ref_uncertainty_ms(values, peak, sample_rate):
    """Half the width of the peak above 90% of its height, in milliseconds."""
    cut = 0.9 * values[peak]
    left = peak
    while left > 0 and values[left - 1] >= cut:
        left -= 1
    right = peak
    last = len(values) - 1
    while right < last and values[right + 1] >= cut:
        right += 1
    width_samples = right - left + 1
    return 0.5 * width_samples / sample_rate * 1e3


def ref_detect(env, threshold, refractory_ms):
    """(peak indices of plain find_peaks, the series built from them)."""
    values = env.values
    if env.silent or len(values) < 3:
        return np.zeros(0, dtype=np.intp), OnsetSeries((), (), (), ())
    height = threshold * float(np.max(values))
    distance = max(1, int(round(refractory_ms * 1e-3 * env.sample_rate)))
    peaks, _ = find_peaks(values, height=height, distance=distance)
    unc = np.array(
        [ref_uncertainty_ms(values, int(p), env.sample_rate) for p in peaks], dtype=np.float64
    )
    keep = unc <= MAX_UNCERTAINTY_MS
    series = OnsetSeries.from_columns(peaks[keep] / env.sample_rate, values[peaks[keep]])
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
    monkeypatch.setattr(_signal, "_PEAK_BLOCK", block)
    levels, lengths = zip(*runs)
    assert_same_detection(np.repeat(np.asarray(levels, dtype=float) / 4.0, lengths), threshold, distance)


@pytest.mark.parametrize("shape", ["rising-run", "plateau", "peaks-then-ramp"])
def test_runs_longer_than_the_block(monkeypatch, shape):
    """A non-decreasing run above the threshold with no place to cut, longer
    than the block and longer than the 1024-sample tail searched first."""
    monkeypatch.setattr(_signal, "_PEAK_BLOCK", 2000)
    noise = np.random.default_rng(3).uniform(0.0, 1.0, 7000)
    if shape == "rising-run":
        values = np.concatenate([noise, np.linspace(0.5, 0.9, 5000), [0.2], noise])
    elif shape == "plateau":
        values = np.concatenate([noise, np.full(4500, 0.8), [0.1], noise])
    else:
        values = np.concatenate([noise[:800], np.linspace(0.3, 0.95, 2600), [0.0], noise])
    env = make_envelope(values, sample_rate=SAMPLE_RATE)
    height = 0.25 * float(np.max(values))
    for distance in (1, 7, 300):
        # the wide peaks here are dropped for their width, so compare before that
        np.testing.assert_array_equal(
            _signal.find_peaks(values, height, distance), find_peaks(values, height=height, distance=distance)[0])
        refractory_ms = distance * 1e3 / SAMPLE_RATE
        assert detect_onsets(env, threshold=0.25, refractory_ms=refractory_ms) == ref_detect(
            env, 0.25, refractory_ms)[1]


@pytest.mark.parametrize("block", [4, 5000])
def test_signed_zeros_below_the_height(monkeypatch, block):
    """The masked block holds -inf wherever a value is below the height;
    zeros of either sign there, beside peaks and plateaus, must leave the
    peaks where plain ``find_peaks`` puts them."""
    monkeypatch.setattr(_signal, "_PEAK_BLOCK", block)
    values = np.array([-0.0, 0.5, -0.0, 0.0, 0.7, 0.7, -0.0, 0.3, 0.3, -0.0, 0.0, 0.9, -0.0, -0.0] * 5)
    for height in (0.2, 0.4, 0.6, 0.8):
        np.testing.assert_array_equal(
            _signal.find_peaks(values, height, 1), find_peaks(values, height=height)[0])
    env = make_envelope(values, sample_rate=SAMPLE_RATE)
    assert detect_onsets(env, threshold=0.45, refractory_ms=1.0) == ref_detect(env, 0.45, 1.0)[1]


# ---------------------------------------------------------------------------
# peak widths


def assert_same_widths(values, peaks, sample_rate):
    """The kept mask, equal to the reference's, and equal uncertainties for it."""
    values, peaks = np.asarray(values, dtype=float), np.asarray(peaks, dtype=np.intp)
    got = onsets_mod._uncertainty_ms(values, peaks, sample_rate)
    want = np.array([ref_uncertainty_ms(values, int(p), sample_rate) for p in peaks])
    keep = want <= MAX_UNCERTAINTY_MS
    np.testing.assert_array_equal(got <= MAX_UNCERTAINTY_MS, keep)
    np.testing.assert_array_equal(got[keep], want[keep])
    return keep


@pytest.fixture(params=[(64, 1 << 15), (1, 1), (3, 7)], ids=["default", "one", "small"])
def windows(request, monkeypatch):
    """The first window and the gather size, the defaults and shrunk."""
    monkeypatch.setattr(onsets_mod, "_WIDTH_WINDOW", request.param[0])
    monkeypatch.setattr(onsets_mod, "_WIDTH_GATHER", request.param[1])


def plateaus(widths, gap=20):
    """Unit plateaus of the given widths, ``gap`` zeros around each."""
    values = np.concatenate([np.concatenate([np.zeros(gap), np.ones(w)]) for w in widths] + [np.zeros(gap)])
    peaks = find_peaks(values)[0]
    assert len(peaks) == len(widths)
    return values, peaks


def test_runs_touch_the_ends(windows):
    # the first peak's run above 90% reaches index 0, the last one's the end
    values = [0.95, 0.97, 1.0, 0.2, 0.5, 0.6, 0.2, 0.92, 0.96, 1.0, 0.99, 0.95]
    assert assert_same_widths(values, [2, 5, 9], SAMPLE_RATE).all()
    np.testing.assert_array_equal(assert_same_detection(values, 0.1), [2, 5, 9])


def test_plateau_longer_than_the_first_window(windows):
    width = 3 * onsets_mod._WIDTH_WINDOW + 1
    values, peaks = plateaus([width, 5])
    assert assert_same_widths(values, peaks, SAMPLE_RATE).all()
    assert onsets_mod._uncertainty_ms(values, peaks, SAMPLE_RATE)[0] == 0.5 * width / SAMPLE_RATE * 1e3
    assert_same_detection(values, 0.5)


@pytest.mark.parametrize("sample_rate, widest", [
    (44100.0, 441),  # 441 samples are exactly 5 ms of uncertainty
    (22050.5, 220),  # the limit falls between 220 and 221 samples
])
def test_width_at_the_limit(windows, sample_rate, widest):
    assert ref_uncertainty_ms(np.ones(widest), 0, sample_rate) <= MAX_UNCERTAINTY_MS
    assert ref_uncertainty_ms(np.ones(widest + 1), 0, sample_rate) > MAX_UNCERTAINTY_MS
    values, peaks = plateaus([widest, widest + 1, widest - 1, 2 * widest])
    np.testing.assert_array_equal(assert_same_widths(values, peaks, sample_rate), [True, False, True, False])
    env = make_envelope(values, sample_rate=sample_rate)
    got = detect_onsets(env, threshold=0.5, refractory_ms=0.01)
    np.testing.assert_array_equal(np.rint(got.times() * sample_rate).astype(np.intp), peaks[[0, 2]])
    assert got == ref_detect(env, 0.5, 0.01)[1]


def test_peak_dropped_for_its_width(windows):
    # a bump about 20 ms wide above 90% beside a click one sample wide
    t = np.arange(8000)
    values = np.exp(-0.5 * ((t - 3000) / 1000.0) ** 2)
    values[6000] = 0.9
    peaks = find_peaks(values)[0]
    np.testing.assert_array_equal(peaks, [3000, 6000])
    np.testing.assert_array_equal(assert_same_widths(values, peaks, 44100.0), [False, True])
    env = make_envelope(values, sample_rate=44100.0)
    got = detect_onsets(env, threshold=0.5, refractory_ms=1.0)
    np.testing.assert_array_equal(got.times(), [6000 / 44100.0])
    assert got == ref_detect(env, 0.5, 1.0)[1]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    runs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=20), st.integers(min_value=1, max_value=30)),
        min_size=1, max_size=30,
    ),
    window=st.integers(min_value=1, max_value=9),
    gather=st.integers(min_value=1, max_value=40),
    sample_rate=st.sampled_from([1.0, 1e3, 2e3, 4410.0, 1e4, 7777.7]),
)
def test_widths_match_the_scalar_loop(monkeypatch, runs, window, gather, sample_rate):
    """Runs of equal values with drawn rates, so that many peaks are dropped;
    every local maximum, at the ends included, is measured."""
    monkeypatch.setattr(onsets_mod, "_WIDTH_WINDOW", window)
    monkeypatch.setattr(onsets_mod, "_WIDTH_GATHER", gather)
    levels, lengths = zip(*runs)
    values = np.repeat(np.asarray(levels, dtype=float) / 20.0, lengths)
    peaks = np.union1d(find_peaks(values)[0], [0, len(values) - 1])
    assert_same_widths(values, peaks, sample_rate)
