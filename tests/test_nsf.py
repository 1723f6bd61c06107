import numpy as np
import pytest

from voxanon import F0Contour, FeatureMatrix, SpeakerEmbedding, Waveform
from voxanon.nnet import (
    ModelWeights,
    NsfConfig,
    filter_block_forward,
    init_weights,
    nsf_forward,
    nsf_source,
    spectral_loss,
)
from voxanon.nnet import nsf as nsf_module
from voxanon.nnet.nsf import _TILE

from _oracles import nsf_filter_block
from conftest import make_noise


class TestSource:
    def test_constant_f0_has_fft_peak_at_frequency(self):
        fs = 16000
        excitation = nsf_source(np.full(fs, 100.0), seed=0, sample_rate=fs)
        spectrum = np.abs(np.fft.rfft(excitation))
        peak_hz = np.argmax(spectrum) * fs / excitation.size
        assert abs(peak_hz - 100.0) <= fs / excitation.size  # within one bin

    def test_unvoiced_noise_statistics(self):
        excitation = nsf_source(np.zeros(16000), seed=42)
        std = float(np.std(excitation))
        assert abs(std - 0.003) / 0.003 <= 0.20
        assert abs(float(np.mean(excitation))) < 1e-3

    def test_phase_continuity_across_f0_change(self):
        fs = 16000
        f0 = np.concatenate([np.full(8000, 100.0), np.full(8000, 120.0)])
        excitation = nsf_source(f0, seed=1, sample_rate=fs)
        jumps = np.abs(np.diff(excitation))
        # |sin(p + d) - sin(p)| <= d with d = 2*pi*fmax/fs, times amplitude.
        bound = 0.1 * 2.0 * np.pi * 120.0 / fs
        assert float(jumps.max()) <= bound * 1.0001

    def test_negative_f0_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            nsf_source(np.array([100.0, -1.0]), seed=0)

    def test_seed_determinism(self):
        f0 = np.where(np.arange(4000) % 100 < 50, 0.0, 200.0)
        a = nsf_source(f0, seed=9)
        b = nsf_source(f0, seed=9)
        c = nsf_source(f0, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        # Voiced samples are seed independent.
        voiced = f0 > 0
        assert np.array_equal(a[voiced], c[voiced])


class TestConfig:
    def test_dilation_schedule(self):
        config = NsfConfig()
        assert config.dilations == (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
        assert config.blocks == 5

    def test_receptive_field(self):
        assert NsfConfig().receptive_field == 1 + 2 * (2**10 - 1) == 2047

    def test_invalid_configs(self):
        with pytest.raises(ValueError, match="block"):
            NsfConfig(blocks=0)
        with pytest.raises(ValueError, match="kernel"):
            NsfConfig(kernel_size=2)
        with pytest.raises(ValueError, match="upsample"):
            NsfConfig(upsample_factor=0)


def _inputs(n_frames, config, seed=0):
    rng = np.random.default_rng(seed)
    mel = FeatureMatrix(
        rng.standard_normal((n_frames, config.mel_dim)), hop=0.005, kind="melspec80"
    )
    values = np.where(rng.random(n_frames) < 0.5, 150.0, 0.0)
    f0 = F0Contour(values)
    xvec = SpeakerEmbedding("x", rng.standard_normal(config.xvec_dim))
    return mel, f0, xvec


class TestForward:
    def test_output_length_law(self, small_nsf_weights):
        config = small_nsf_weights.config
        for n_frames in (1, 3, 17):
            mel, f0, xvec = _inputs(n_frames, config, seed=n_frames)
            out = nsf_forward(mel, f0, xvec, small_nsf_weights, seed=5)
            assert len(out) == n_frames * config.upsample_factor

    def test_zero_filter_weights_pass_excitation_through(self, small_nsf_weights):
        config = small_nsf_weights.config
        tensors = {
            name: (np.zeros_like(t) if name.startswith("filter.") else t)
            for name, t in small_nsf_weights.tensors.items()
        }
        weights = ModelWeights("nsf", config, tensors)
        mel, f0, xvec = _inputs(12, config, seed=3)
        out = nsf_forward(mel, f0, xvec, weights, seed=21)
        f0_up = np.repeat(f0.values, config.upsample_factor)
        excitation = nsf_source(
            f0_up, 21, sample_rate=config.sample_rate,
            amplitude=config.sine_amplitude, noise_std=config.noise_std,
        )
        assert np.array_equal(out.samples, excitation)

    def test_frame_count_mismatch(self, small_nsf_weights):
        config = small_nsf_weights.config
        mel, f0, xvec = _inputs(10, config)
        short_f0 = F0Contour(f0.values[:9])
        with pytest.raises(ValueError, match="frame"):
            nsf_forward(mel, short_f0, xvec, small_nsf_weights, seed=0)

    def test_embedding_dim_mismatch(self, small_nsf_weights):
        config = small_nsf_weights.config
        mel, f0, _ = _inputs(4, config)
        wrong = SpeakerEmbedding("w", np.ones(config.xvec_dim + 1))
        with pytest.raises(ValueError, match="dim"):
            nsf_forward(mel, f0, wrong, small_nsf_weights, seed=0)

    def test_deterministic_given_seed(self, small_nsf_weights):
        config = small_nsf_weights.config
        mel, f0, xvec = _inputs(8, config, seed=2)
        a = nsf_forward(mel, f0, xvec, small_nsf_weights, seed=77)
        b = nsf_forward(mel, f0, xvec, small_nsf_weights, seed=77)
        assert np.array_equal(a.samples, b.samples)

    def test_block_impulse_response_support(self):
        # The deviation a single input sample can cause is confined to the
        # block's receptive field, measured against a zero-input baseline.
        config = NsfConfig(channels=8, blocks=1, xvec_dim=4)
        weights = init_weights("nsf", config, seed=31)
        length = 6000
        center = length // 2
        condition = np.tile(
            np.random.default_rng(0).standard_normal(config.channels), (length, 1)
        )
        impulse = np.zeros(length)
        impulse[center] = 1.0
        response = filter_block_forward(impulse, condition, weights, block=1)
        baseline = filter_block_forward(np.zeros(length), condition, weights, block=1)
        support = np.flatnonzero(response != baseline)
        assert support.size > 0
        assert support.max() - support.min() + 1 <= config.receptive_field
        half = (config.receptive_field - 1) // 2
        assert support.min() >= center - half
        assert support.max() <= center + half


# The filter runs in float32 internally; against the float64 reference its
# output may drift by at most this much, well under one PCM16 step (2**-15).
PRECISION = 1e-4


def _block_inputs(length, config, seed=0):
    rng = np.random.default_rng(seed)
    excitation = 0.1 * rng.standard_normal(length)
    condition = rng.standard_normal((length, config.channels))
    return excitation, condition


class TestPrecisionContract:
    @pytest.fixture(scope="class")
    def full_weights(self):
        return init_weights("nsf", NsfConfig(), seed=41)

    # One tile and its neighbours, a ragged multi-tile length, a single
    # sample, and a signal shorter than the largest dilation (512).
    @pytest.mark.parametrize(
        "length", [1, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 17, 511]
    )
    def test_filter_block_within_contract(self, full_weights, length):
        excitation, condition = _block_inputs(length, full_weights.config, seed=length)
        out = filter_block_forward(excitation, condition, full_weights, block=2)
        expected = nsf_filter_block(excitation, condition, full_weights, 2)
        assert out.shape == (length,)
        assert np.abs(out - expected).max() <= PRECISION

    def test_nsf_forward_within_contract(self, full_weights, monkeypatch):
        mel, f0, xvec = _inputs(60, full_weights.config, seed=8)
        out = nsf_forward(mel, f0, xvec, full_weights, seed=3)
        monkeypatch.setattr(nsf_module, "filter_block_forward", nsf_filter_block)
        expected = nsf_forward(mel, f0, xvec, full_weights, seed=3)
        assert np.abs(out.samples - expected.samples).max() <= PRECISION


class TestInputsUnchanged:
    def test_filter_block_leaves_inputs_alone(self, small_nsf_weights):
        excitation, condition = _block_inputs(700, small_nsf_weights.config, seed=4)
        excitation_before, condition_before = excitation.copy(), condition.copy()
        out = filter_block_forward(excitation, condition, small_nsf_weights, block=1)
        assert out.dtype == np.float64
        assert not np.shares_memory(out, excitation)
        assert np.array_equal(excitation, excitation_before)
        assert np.array_equal(condition, condition_before)

    def test_nsf_forward_leaves_inputs_alone(self, small_nsf_weights):
        mel, f0, xvec = _inputs(9, small_nsf_weights.config, seed=6)
        before = (mel.frames.copy(), f0.values.copy(), xvec.vector.copy())
        out = nsf_forward(mel, f0, xvec, small_nsf_weights, seed=2)
        assert out.samples.dtype == np.float64
        for array, copy in zip((mel.frames, f0.values, xvec.vector), before):
            assert np.array_equal(array, copy)


class TestSpectralLoss:
    def test_zero_on_identical(self):
        wav = make_noise(seconds=1.0, seed=3)
        assert spectral_loss(wav, wav) == 0.0

    def test_symmetry(self):
        a = make_noise(seconds=1.0, seed=4)
        b = make_noise(seconds=1.0, seed=5)
        assert spectral_loss(a, b) == spectral_loss(b, a)

    def test_amplitude_doubling_gives_log_two_squared(self):
        rng = np.random.default_rng(6)
        samples = 0.1 * rng.standard_normal(16000)
        assert np.abs(samples).max() < 0.5  # doubling must not clip
        a = Waveform(samples)
        b = Waveform(2.0 * samples)
        expected = float(np.log(2.0) ** 2)
        assert abs(spectral_loss(a, b) - expected) <= 1e-6

    def test_polarity_flip_invariance(self):
        a = make_noise(seconds=0.5, seed=7)
        b = make_noise(seconds=0.5, seed=8)
        flipped_a = Waveform(-a.samples, a.sample_rate)
        flipped_b = Waveform(-b.samples, b.sample_rate)
        assert spectral_loss(a, b) == spectral_loss(flipped_a, flipped_b)

    def test_non_negative(self):
        for seed in range(5):
            a = make_noise(seconds=0.3, seed=seed)
            b = make_noise(seconds=0.3, seed=seed + 100)
            assert spectral_loss(a, b) >= 0.0

    def test_length_mismatch(self):
        a = make_noise(seconds=0.5, seed=1)
        b = Waveform(a.samples[:-1], a.sample_rate)
        with pytest.raises(ValueError, match="length"):
            spectral_loss(a, b)

    def test_too_short(self):
        a = Waveform(np.ones(1000) * 0.1)
        with pytest.raises(ValueError, match="2048"):
            spectral_loss(a, a)
