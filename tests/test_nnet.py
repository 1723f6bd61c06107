import numpy as np
import pytest

from voxanon import FeatureMatrix, SpeakerEmbedding
from voxanon.errors import DataError
from voxanon.nnet import (
    AcousticConfig,
    ModelWeights,
    PpgConfig,
    XVectorConfig,
    acoustic_forward,
    init_weights,
    load_weights,
    ppg_forward,
    save_weights,
    xvector_embedding,
    xvector_forward,
)

from _oracles import acoustic_frames


def _fbank(n_frames, seed=0, value=None):
    if value is not None:
        data = np.full((n_frames, 24), value)
    else:
        data = np.random.default_rng(seed).standard_normal((n_frames, 24))
    return FeatureMatrix(data, hop=0.010, kind="fbank24")


def _zeroed(weights):
    zeros = {name: np.zeros_like(tensor) for name, tensor in weights.tensors.items()}
    return ModelWeights(weights.component, weights.config, zeros)


class TestWeights:
    def test_init_is_seed_deterministic(self):
        config = PpgConfig(hidden_size=16, n_states=8)
        a = init_weights("ppg", config, seed=3)
        b = init_weights("ppg", config, seed=3)
        c = init_weights("ppg", config, seed=4)
        for name in a.tensors:
            assert np.array_equal(a[name], b[name])
        assert any(not np.array_equal(a[name], c[name]) for name in a.tensors)

    def test_fan_in_bound(self):
        config = PpgConfig(hidden_size=16, n_states=8)
        weights = init_weights("ppg", config, seed=5)
        bound = 1.0 / np.sqrt(40 * 11)
        assert np.max(np.abs(weights["hidden1.w"])) <= bound

    def test_roundtrip_bit_exact(self, tmp_path):
        config = PpgConfig(hidden_size=16, n_states=8)
        weights = init_weights("ppg", config, seed=6)
        path = tmp_path / "ppg.weights"
        save_weights(path, weights)
        loaded = load_weights(path)
        assert loaded.component == "ppg"
        assert loaded.config == config
        for name in weights.tensors:
            assert weights[name].tobytes() == loaded[name].tobytes()

    def test_roundtrip_preserves_forward_output(self, tmp_path):
        config = PpgConfig(input_dim=5, context_frames=3, hidden_size=8,
                           hidden_layers=2, n_states=6)
        weights = init_weights("ppg", config, seed=7)
        frames = FeatureMatrix(
            np.random.default_rng(0).standard_normal((9, 5)), hop=0.01, kind="ppg"
        )
        before = ppg_forward(frames, weights)
        path = tmp_path / "w.weights"
        save_weights(path, weights)
        after = ppg_forward(frames, load_weights(path))
        assert np.array_equal(before.frames, after.frames)

    def test_zero_layer_config_rejected(self):
        with pytest.raises(ValueError, match="hidden layer"):
            PpgConfig(hidden_layers=0)

    def test_shape_mismatch_rejected(self):
        config = PpgConfig(hidden_size=4, n_states=3, hidden_layers=1)
        weights = init_weights("ppg", config, seed=1)
        tensors = dict(weights.tensors)
        tensors["softmax.w"] = np.zeros((3, 5))  # wrong inner dim
        with pytest.raises(ValueError, match="softmax.w"):
            ModelWeights("ppg", config, tensors)

    def test_component_config_mismatch(self):
        with pytest.raises(ValueError, match="component"):
            init_weights("xvector", PpgConfig(), seed=0)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "junk.weights"
        path.write_bytes(b"definitely not weights\n")
        with pytest.raises(DataError):
            load_weights(path)

    def test_manifest_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.weights"
        path.write_bytes(b"voxanon-weights 1\n[]\n")
        with pytest.raises(DataError, match="not a JSON object"):
            load_weights(path)


@pytest.fixture(scope="module")
def weights():
    return init_weights("xvector", XVectorConfig(n_train_speakers=31), seed=9)


class TestXVector:
    def test_layer_shapes(self, weights):
        shapes = XVectorConfig(n_train_speakers=31).tensor_shapes()
        assert shapes["frame1.w"] == (512, 120)
        assert shapes["frame2.w"] == (512, 1536)
        assert shapes["frame3.w"] == (512, 1536)
        assert shapes["frame4.w"] == (512, 512)
        assert shapes["frame5.w"] == (1500, 512)
        assert shapes["segment6.w"] == (512, 3000)
        assert shapes["segment7.w"] == (512, 512)
        assert shapes["softmax.w"] == (31, 512)
        for name, shape in shapes.items():
            assert weights[name].shape == shape

    @pytest.mark.parametrize("n_frames", [15, 16, 40, 137])
    def test_output_dim_independent_of_length(self, weights, n_frames):
        embedding = xvector_forward(_fbank(n_frames, seed=n_frames), weights)
        assert embedding.dim == 512

    def test_minimum_length_enforced(self, weights):
        with pytest.raises(ValueError, match="15"):
            xvector_forward(_fbank(14), weights)

    def test_input_dim_enforced(self, weights):
        frames = FeatureMatrix(np.ones((30, 40)), hop=0.01, kind="mel40")
        with pytest.raises(ValueError, match="24"):
            xvector_forward(frames, weights)

    def test_constant_input_length_invariance(self, weights):
        # Mathematically exact (zero spread, constant mean); in floats the
        # two lengths may differ by one BLAS rounding step.
        short = xvector_embedding(_fbank(20, value=0.37), weights)
        long = xvector_embedding(_fbank(200, value=0.37), weights)
        assert np.allclose(short, long, rtol=0, atol=1e-12)

    def test_constant_input_matches_hand_trace(self, weights):
        # Single-frame trace: with constant input every splice sees copies
        # of the same vector, pooling has zero spread, so the embedding is
        # affine(concat(frame_features, zeros)).
        value = 0.37
        h = np.full(24, value)
        for i, n_copies in enumerate([5, 3, 3, 1, 1], start=1):
            spliced = np.concatenate([h] * n_copies)
            h = np.maximum(
                weights[f"frame{i}.w"] @ spliced + weights[f"frame{i}.b"], 0.0
            )
        pooled = np.concatenate([h, np.zeros_like(h)])
        expected = weights["segment6.w"] @ pooled + weights["segment6.b"]
        got = xvector_embedding(_fbank(20, value=value), weights)
        assert np.allclose(got, expected, rtol=0, atol=1e-10)

    def test_context_sensitivity(self, weights):
        base = _fbank(30, seed=5)
        padded = FeatureMatrix(
            np.vstack([np.full((3, 24), 0.5), base.frames]), hop=0.010, kind="fbank24"
        )
        a = xvector_embedding(base, weights)
        b = xvector_embedding(padded, weights)
        assert not np.allclose(a, b)

    def test_zero_weights_give_zero_embedding(self, weights):
        zeroed = _zeroed(weights)
        raw = xvector_embedding(_fbank(20, seed=2), zeroed)
        assert np.array_equal(raw, np.zeros(512))
        # The embedding wrapper cannot represent a zero vector.
        with pytest.raises(ValueError, match="zero norm"):
            xvector_forward(_fbank(20, seed=2), zeroed)

    def test_variance_pooling_flag(self):
        config_std = XVectorConfig(n_train_speakers=5, pool_with_std=True)
        config_var = XVectorConfig(n_train_speakers=5, pool_with_std=False)
        w_std = init_weights("xvector", config_std, seed=4)
        w_var = ModelWeights("xvector", config_var, dict(w_std.tensors))
        frames = _fbank(25, seed=8)
        assert not np.allclose(
            xvector_embedding(frames, w_std), xvector_embedding(frames, w_var)
        )


class TestPpg:
    def test_output_rows_match_input(self, small_ppg_weights):
        frames = FeatureMatrix(
            np.random.default_rng(1).standard_normal((50, 40)), hop=0.01, kind="mel40"
        )
        out = ppg_forward(frames, small_ppg_weights)
        assert out.n_frames == 50
        assert out.kind == "ppg"

    def test_softmax_rows_are_distributions(self, small_ppg_weights):
        frames = FeatureMatrix(
            np.random.default_rng(2).standard_normal((20, 40)) * 5, hop=0.01, kind="mel40"
        )
        out = ppg_forward(frames, small_ppg_weights, tap="softmax")
        assert np.all(out.frames >= 0)
        assert np.max(np.abs(out.frames.sum(axis=1) - 1.0)) <= 1e-9

    def test_zero_weights_give_uniform_rows(self):
        config = PpgConfig()
        zeroed = _zeroed(init_weights("ppg", config, seed=1))
        frames = FeatureMatrix(
            np.random.default_rng(3).standard_normal((4, 40)), hop=0.01, kind="mel40"
        )
        out = ppg_forward(frames, zeroed, tap="softmax")
        assert out.dim == 1944
        assert np.allclose(out.frames, 1.0 / 1944.0, rtol=0, atol=1e-15)

    def test_hidden_tap_range_and_width(self, small_ppg_weights):
        frames = FeatureMatrix(
            np.random.default_rng(4).standard_normal((6, 40)), hop=0.01, kind="mel40"
        )
        out = ppg_forward(frames, small_ppg_weights, tap="sigmoid6")
        assert out.dim == 32
        assert np.all((out.frames > 0) & (out.frames < 1))

    def test_wrong_input_dim(self, small_ppg_weights):
        frames = FeatureMatrix(np.ones((5, 24)), hop=0.01, kind="fbank24")
        with pytest.raises(ValueError, match="40"):
            ppg_forward(frames, small_ppg_weights)

    def test_single_frame_input(self, small_ppg_weights):
        frames = FeatureMatrix(np.ones((1, 40)), hop=0.01, kind="mel40")
        assert ppg_forward(frames, small_ppg_weights).n_frames == 1

    def test_bad_tap(self, small_ppg_weights):
        frames = FeatureMatrix(np.ones((2, 40)), hop=0.01, kind="mel40")
        with pytest.raises(ValueError, match="tap"):
            ppg_forward(frames, small_ppg_weights, tap="layer9")


def _aligned(n_frames, config, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(
        rng.standard_normal((n_frames, config.input_dim)), hop=0.005, kind="aligned"
    )


def _mel(n_frames, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(rng.standard_normal((n_frames, 80)), hop=0.005, kind="melspec80")


class TestAcoustic:
    def test_output_shape(self, small_acoustic_weights):
        config = small_acoustic_weights.config
        out = acoustic_forward(_aligned(12, config), small_acoustic_weights)
        assert out.frames.shape == (12, 80)
        assert out.kind == "melspec80"

    def test_first_frame_agrees_between_modes(self, small_acoustic_weights):
        config = small_acoustic_weights.config
        aligned = _aligned(6, config, seed=5)
        teacher = _mel(6, seed=6)
        free = acoustic_forward(aligned, small_acoustic_weights, mode="free")
        forced = acoustic_forward(
            aligned, small_acoustic_weights, mode="teacher", teacher_mel=teacher
        )
        assert np.array_equal(free.frames[0], forced.frames[0])
        assert not np.allclose(free.frames[1:], forced.frames[1:])

    def test_zero_weights_emit_output_bias(self, small_acoustic_weights):
        config = small_acoustic_weights.config
        zeroed = _zeroed(small_acoustic_weights)
        bias = np.full(80, 0.625)
        tensors = dict(zeroed.tensors)
        tensors["out.b"] = bias
        weights = ModelWeights("acoustic", config, tensors)
        out = acoustic_forward(_aligned(7, config, seed=9), weights)
        assert np.array_equal(out.frames, np.tile(bias, (7, 1)))

    def test_teacher_mel_required(self, small_acoustic_weights):
        config = small_acoustic_weights.config
        with pytest.raises(ValueError, match="teacher_mel"):
            acoustic_forward(_aligned(4, config), small_acoustic_weights, mode="teacher")

    def test_teacher_mel_length_checked(self, small_acoustic_weights):
        config = small_acoustic_weights.config
        with pytest.raises(ValueError, match="frames"):
            acoustic_forward(
                _aligned(4, config), small_acoustic_weights,
                mode="teacher", teacher_mel=_mel(5),
            )

    def test_input_width_checked(self, small_acoustic_weights):
        bad = FeatureMatrix(np.ones((4, 7)), hop=0.005, kind="aligned")
        with pytest.raises(ValueError, match="width"):
            acoustic_forward(bad, small_acoustic_weights)

    @pytest.mark.parametrize("mode", ["free", "teacher"])
    def test_matches_per_step_reference(self, mode):
        weights = init_weights("acoustic", AcousticConfig(), seed=21)
        aligned = _aligned(24, weights.config, seed=13)
        teacher = _mel(24, seed=14)
        out = acoustic_forward(
            aligned, weights, mode=mode, teacher_mel=teacher if mode == "teacher" else None
        )
        expected = acoustic_frames(
            aligned.frames, weights, teacher=teacher.frames if mode == "teacher" else None
        )
        assert np.abs(out.frames - expected).max() <= 1e-12
        free = acoustic_forward(aligned, weights, mode="free")
        assert np.array_equal(out.frames[0], free.frames[0])

    def test_deterministic(self, small_acoustic_weights):
        config = small_acoustic_weights.config
        aligned = _aligned(9, config, seed=11)
        a = acoustic_forward(aligned, small_acoustic_weights)
        b = acoustic_forward(aligned, small_acoustic_weights)
        assert np.array_equal(a.frames, b.frames)
