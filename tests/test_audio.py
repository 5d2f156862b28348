import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps
from scipy.io import wavfile

from groovekit import (
    AudioClip,
    EnvelopeSignal,
    FormatError,
    ParameterError,
    detect_onsets,
    envelope,
    highpass,
    load_audio,
)
from groovekit import audio as audio_mod
from groovekit.audio import _BLOCK, WavReader, save_audio


def _rms(x):
    return np.sqrt(np.mean(np.square(x)))


def _filtfilt_gain(cutoff_hz, sample_rate, freq_hz, order=4):
    """Analytic magnitude of the designed high-pass applied forward-backward."""
    sos = sps.butter(order, cutoff_hz, btype="highpass", fs=sample_rate, output="sos")
    _, h = sps.sosfreqz(sos, worN=[2 * np.pi * freq_hz / sample_rate])
    return float(np.abs(h[0]) ** 2)


class TestLoadAudio:
    def test_mono_sample_count(self, tmp_path):
        path = tmp_path / "mono.wav"
        wavfile.write(path, 44100, np.zeros(44100, dtype=np.float32))
        clip = load_audio(path)
        assert len(clip.samples) == 44100
        assert clip.sample_rate == 44100
        assert clip.channel_count_original == 1

    def test_opposite_stereo_downmixes_to_zero(self, tmp_path):
        path = tmp_path / "stereo.wav"
        left = np.full(1000, 0.5, dtype=np.float32)
        stereo = np.stack([left, -left], axis=1)
        wavfile.write(path, 44100, stereo)
        clip = load_audio(path)
        assert clip.channel_count_original == 2
        assert np.max(np.abs(clip.samples)) == 0.0

    def test_int16_scaling(self, tmp_path):
        path = tmp_path / "i16.wav"
        wavfile.write(path, 8000, np.array([16384, -16384, 0], dtype=np.int16))
        clip = load_audio(path)
        assert clip.samples == pytest.approx([0.5, -0.5, 0.0])

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_audio(tmp_path / "nope.wav")

    def test_24bit_pcm(self, tmp_path):
        # scipy reads 24-bit PCM left-justified into int32
        path = tmp_path / "s24.wav"
        frames = [0x400000, -0x400000, 0]  # +/- half of 24-bit full scale
        data = b"".join(v.to_bytes(3, "little", signed=True) for v in frames)
        n = len(data)
        header = (
            b"RIFF" + (36 + n).to_bytes(4, "little") + b"WAVEfmt "
            + (16).to_bytes(4, "little")
            + (1).to_bytes(2, "little")      # PCM
            + (1).to_bytes(2, "little")      # mono
            + (44100).to_bytes(4, "little")
            + (44100 * 3).to_bytes(4, "little")
            + (3).to_bytes(2, "little")      # block align
            + (24).to_bytes(2, "little")     # bits per sample
            + b"data" + n.to_bytes(4, "little")
        )
        path.write_bytes(header + data)
        clip = load_audio(path)
        assert clip.samples == pytest.approx([0.5, -0.5, 0.0])

    def test_unsupported_encoding_names_it(self, tmp_path):
        path = tmp_path / "u8.wav"
        wavfile.write(path, 8000, np.array([0, 255, 128], dtype=np.uint8))
        with pytest.raises(FormatError, match="uint8"):
            load_audio(path)


class TestSaveAudio:
    """groovekit's float32 writer against scipy.io.wavfile.write, byte for byte."""

    @pytest.mark.parametrize("n", [0, 1, 2, 1001, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    @pytest.mark.parametrize("rate", [8000.0, 22050.0, 44099.7, 44100.0, 96000.0, 192000.0])
    def test_bytes_match_scipy(self, tmp_path, n, rate):
        samples = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        ours, theirs = tmp_path / "ours.wav", tmp_path / "scipy.wav"
        save_audio(ours, AudioClip(samples, rate))
        wavfile.write(theirs, int(round(rate)), samples.astype(np.float32))
        assert ours.read_bytes() == theirs.read_bytes()

    def test_rf64_past_the_riff_size_limit(self, tmp_path, monkeypatch):
        """Past 32-bit sizes the header is RF64; scipy's layout, shown here
        with the limit lowered so a small clip crosses it."""
        samples = np.random.default_rng(5).uniform(-1.0, 1.0, 100)
        path = tmp_path / "big.wav"
        monkeypatch.setattr(audio_mod, "_RIFF_MAX", 400)
        save_audio(path, AudioClip(samples, 44100.0))
        raw = path.read_bytes()
        assert raw[:16] == b"RF64\xff\xff\xff\xffWAVEds64"
        assert int.from_bytes(raw[20:28], "little") == len(raw) - 8
        want = samples.astype(np.float32).astype(np.float64)
        with WavReader(path) as reader:
            assert reader.read(0, len(reader)).tobytes() == want.tobytes()
        rate, data = wavfile.read(path)
        assert rate == 44100 and data.tobytes() == samples.astype(np.float32).tobytes()


class TestHighpass:
    def test_dc_fully_rejected(self):
        clip = AudioClip(samples=np.full(44100, 0.7), sample_rate=44100.0)
        out = highpass(clip, 1000.0)
        assert len(out.samples) == len(clip.samples)
        assert np.max(np.abs(out.samples)) < 1e-6

    def test_passband_sine_matches_designed_response(self, sine_clip):
        clip = sine_clip(2000.0)
        out = highpass(clip, 1000.0)
        ratio = _rms(out.samples) / _rms(clip.samples)
        predicted = _filtfilt_gain(1000.0, clip.sample_rate, 2000.0)
        assert ratio == pytest.approx(predicted, rel=1e-3)
        assert abs(20 * np.log10(ratio)) < 1.0  # within 1 dB of input

    def test_stopband_sine_attenuated_40db(self, sine_clip):
        clip = sine_clip(100.0)
        out = highpass(clip, 1000.0)
        attenuation_db = 20 * np.log10(_rms(out.samples) / _rms(clip.samples))
        # analytic response predicts far more than 40 dB; edge transients cap
        # the measured figure but it must clear the 40 dB contract
        assert _filtfilt_gain(1000.0, clip.sample_rate, 100.0) < 10 ** (-40 / 20)
        assert attenuation_db < -40.0

    def test_cutoff_at_nyquist_rejected(self, sine_clip):
        clip = sine_clip(2000.0)
        with pytest.raises(ParameterError):
            highpass(clip, clip.sample_rate / 2)

    def test_zero_phase_keeps_energy_centroid(self):
        # symmetric pulse: centroid must move < 0.5 ms through the filter
        sr = 44100.0
        n = 44100
        t = (np.arange(n) - n // 2) / sr
        pulse = np.exp(-0.5 * (t / 0.002) ** 2)
        clip = AudioClip(samples=pulse, sample_rate=sr)
        out = highpass(clip, 1000.0)

        def centroid(x):
            e = np.square(x)
            return float(np.sum(np.arange(len(x)) * e) / np.sum(e)) / sr

        assert abs(centroid(out.samples) - centroid(pulse)) < 0.5e-3

    def test_double_filtering_keeps_passband_within_1db(self, sine_clip):
        clip = sine_clip(2000.0)  # 2x the cutoff
        once = highpass(clip, 1000.0)
        twice = highpass(once, 1000.0)
        change_db = 20 * np.log10(_rms(twice.samples) / _rms(clip.samples))
        assert abs(change_db) < 1.0


class TestEnvelope:
    def test_silent_input_flagged(self):
        clip = AudioClip(samples=np.zeros(1000), sample_rate=8000.0)
        env = envelope(clip)
        assert env.silent
        assert np.all(env.values == 0.0)
        assert env.source_max == 0.0

    def test_impulse_peak_within_2ms(self):
        sr = 44100.0
        samples = np.zeros(44100)
        samples[22050] = 1.0
        env = envelope(AudioClip(samples=samples, sample_rate=sr), smoothing_ms=2.0)
        peak_time = np.argmax(env.values) / sr
        assert abs(peak_time - 0.5) <= 2e-3
        assert np.max(env.values) == pytest.approx(1.0)

    def test_two_equal_clicks_equal_peaks(self):
        sr = 44100.0
        samples = np.zeros(44100)
        samples[10000] = 1.0
        samples[10000 + int(0.2 * sr)] = 1.0
        env = envelope(AudioClip(samples=samples, sample_rate=sr), smoothing_ms=2.0)
        peaks, _ = sps.find_peaks(env.values, height=0.5)
        assert len(peaks) == 2
        heights = env.values[peaks]
        assert abs(heights[0] - heights[1]) / heights.max() < 0.01

    def test_invalid_smoothing(self):
        clip = AudioClip(samples=np.ones(10), sample_rate=8000.0)
        with pytest.raises(ParameterError):
            envelope(clip, smoothing_ms=0.0)

    @settings(max_examples=25, deadline=None)
    @given(scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(7)
        samples = rng.normal(size=4000)
        sr = 8000.0
        base = envelope(AudioClip(samples=samples, sample_rate=sr))
        scaled = envelope(AudioClip(samples=scale * samples, sample_rate=sr))
        np.testing.assert_allclose(scaled.values, base.values, rtol=1e-9, atol=1e-12)
        assert scaled.source_max == pytest.approx(scale * base.source_max, rel=1e-9)

    def test_known_maximum_is_one(self):
        """Every envelope records its values' maximum, so detect_onsets need
        not scan for it: exactly 1.0 from the in-place envelope and from
        envelope(), 0.0 when silent, and the scanned maximum from the public
        constructor. Detection gives the same onsets from each."""
        samples = np.random.default_rng(5).normal(size=20000)
        samples[::997] *= 40.0
        clip = AudioClip(samples=samples, sample_rate=8000.0)
        env = audio_mod._envelope_into(clip, 2.0, out=clip.samples.copy())
        assert env._max == 1.0 == np.max(env.values)
        public = envelope(clip)
        assert public._max == 1.0 and public.values.tobytes() == env.values.tobytes()
        built = EnvelopeSignal(env.values, env.sample_rate, env.source_max, env.silent)
        assert built._max == 1.0
        halved = EnvelopeSignal(env.values / 2, env.sample_rate, env.source_max, env.silent)
        assert halved._max == 0.5 == np.max(halved.values)
        assert len(detect_onsets(env, threshold=0.2, refractory_ms=5.0)) > 10
        for other in (public, built):
            assert detect_onsets(env, threshold=0.2, refractory_ms=5.0) == detect_onsets(
                other, threshold=0.2, refractory_ms=5.0)
        got = detect_onsets(halved, threshold=0.2, refractory_ms=5.0)
        want = detect_onsets(env, threshold=0.2, refractory_ms=5.0)
        assert got.times().tobytes() == want.times().tobytes()
        assert envelope(AudioClip(samples=np.zeros(100), sample_rate=8000.0))._max == 0.0
        assert EnvelopeSignal(np.zeros(0), 8000.0, 0.0, True)._max == 0.0

    @pytest.mark.parametrize("edit", ["gate", "rescale", "inf", "nan"])
    def test_envelope_edited_in_place_is_scanned(self, edit):
        """The values of envelope() and of the constructor are read-only, so
        the maximum they recorded cannot go stale. Edited values are a new
        envelope: the constructor takes the threshold's maximum from them,
        and rejects a non-finite value."""
        samples = np.random.default_rng(7).normal(size=20000)
        samples[::997] *= 40.0
        env = envelope(AudioClip(samples=samples, sample_rate=8000.0))
        built = EnvelopeSignal(env.values, env.sample_rate, env.source_max, env.silent)
        values = env.values.copy()
        top = int(np.argmax(values))
        if edit == "gate":
            values[max(top - 50, 0):top + 50] = 0.0
        elif edit == "rescale":
            values[:] *= 0.25
        else:
            values[top] = np.inf if edit == "inf" else np.nan
        for e in (env, built):
            assert not e.values.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                e.values[...] = values
        if edit in ("inf", "nan"):
            with pytest.raises(ParameterError, match="must be finite"):
                EnvelopeSignal(values, env.sample_rate, env.source_max, env.silent)
            return
        edited = EnvelopeSignal(values, env.sample_rate, env.source_max, env.silent)
        assert edited._max == np.max(values) < 1.0
        got = detect_onsets(edited, threshold=0.2, refractory_ms=5.0)
        assert len(got) > 10
        assert np.min(got.amplitudes()) >= 0.2 * edited._max
        if edit == "rescale":  # a power-of-two scale moves no peak
            want = detect_onsets(env, threshold=0.2, refractory_ms=5.0)
            assert got.times().tobytes() == want.times().tobytes()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_envelope_has_no_known_maximum(self, bad):
        """A clip built without the finite check can hold an infinite or NaN
        sample; its envelope is not finite, so it has no maximum and is
        rejected where it is built, as the constructor rejects such values."""
        samples = np.random.default_rng(6).normal(size=_BLOCK + 5000)
        samples[_BLOCK + 1000] = bad
        clip = AudioClip._checked(samples, 8000.0, 1)
        with pytest.raises(ParameterError, match="must be finite"):
            audio_mod._envelope_into(clip, 2.0, out=np.empty(len(samples)))
        values = np.linspace(0.0, 1.0, 50)
        values[20] = bad
        with pytest.raises(ParameterError, match="must be finite"):
            EnvelopeSignal(values, 8000.0, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        samples=st.lists(
            st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 5e-324, -5e-324])),
            min_size=1, max_size=300,
        ),
        # 1e-6 ms gives a = 0 (no smoothing), 1e300 ms a = 1 (1 - a is 0)
        smoothing_ms=st.one_of(st.sampled_from([1e-6, 1e300]), st.floats(1e-3, 50.0)),
        sample_rate=st.sampled_from([8000.0, 44100.0]),
    )
    def test_values_pass_the_public_check(self, samples, smoothing_ms, sample_rate):
        """envelope() skips EnvelopeSignal's scan for negative values, since
        its values are non-negative by construction: the public constructor
        accepts the same values and gives the same signal."""
        env = envelope(AudioClip(samples=np.array(samples), sample_rate=sample_rate), smoothing_ms)
        public = EnvelopeSignal(env.values.copy(), env.sample_rate, env.source_max, env.silent)
        assert not np.any(env.values < 0)
        np.testing.assert_array_equal(public.values, env.values)
        assert (public.sample_rate, public.source_max, public.silent) == (
            env.sample_rate, env.source_max, env.silent)
        assert env.values.dtype == np.float64
