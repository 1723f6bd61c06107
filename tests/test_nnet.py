import json
import re
import warnings
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np
import pytest

from voxanon import FeatureMatrix, SpeakerEmbedding
from voxanon.errors import DataError, write_npz
from voxanon.features import ALIGNED, EMBED_DIM, FBANK24, MEL40, MELSPEC80, PPG
from voxanon.nnet import (
    AcousticConfig,
    ModelWeights,
    NsfConfig,
    PpgConfig,
    XVectorConfig,
    acoustic_forward,
    filter_block_forward,
    init_weights,
    load_weights,
    ppg_forward,
    save_weights,
    xvector_embedding,
    xvector_forward,
)
from voxanon.nnet.weights import _CONFIG_REGISTRY

from _oracles import acoustic_frames, ppg_posteriors, xvector_embedding_ref


def _fbank(n_frames, seed=0, value=None):
    if value is not None:
        data = np.full((n_frames, 24), value)
    else:
        data = np.random.default_rng(seed).standard_normal((n_frames, 24))
    return FeatureMatrix(data, FBANK24)


def _zeroed(weights):
    zeros = {name: np.zeros_like(tensor) for name, tensor in weights.tensors.items()}
    return ModelWeights(weights.config, zeros)


# Each tensor axis that reads or writes a stream, and the width it must have:
# the stream's, times the frames of a splice window where it reads one.
_STREAM_AXES = [
    ("xvector", "frame1.w", 1, lambda config: FBANK24.width * 5),
    ("xvector", "segment6.w", 0, lambda config: EMBED_DIM),
    ("ppg", "hidden1.w", 1, lambda config: MEL40.width * config.context_frames),
    ("ppg", "softmax.w", 0, lambda config: PPG.width),
    ("acoustic", "ff1.w", 1, lambda config: ALIGNED.width),
    ("acoustic", "out.w", 0, lambda config: MELSPEC80.width),
    ("nsf", "cond.proj.w", 1, lambda config: MELSPEC80.width + EMBED_DIM),
]


class TestWeights:
    def test_init_is_seed_deterministic(self):
        config = PpgConfig(hidden_size=16)
        a = init_weights("ppg", config, seed=3)
        b = init_weights("ppg", config, seed=3)
        c = init_weights("ppg", config, seed=4)
        for name in a.tensors:
            assert np.array_equal(a[name], b[name])
        assert any(not np.array_equal(a[name], c[name]) for name in a.tensors)

    def test_fan_in_bound(self):
        config = PpgConfig(hidden_size=16)
        weights = init_weights("ppg", config, seed=5)
        bound = 1.0 / np.sqrt(40 * 11)
        assert np.max(np.abs(weights["hidden1.w"])) <= bound

    def test_roundtrip_bit_exact(self, tmp_path):
        config = PpgConfig(hidden_size=16)
        weights = init_weights("ppg", config, seed=6)
        path = tmp_path / "ppg.weights"
        save_weights(path, weights)
        loaded = load_weights(path)
        assert loaded.component == "ppg"
        assert loaded.config == config
        for name in weights.tensors:
            assert weights[name].tobytes() == loaded[name].tobytes()

    def test_float32_roundtrip_bit_exact(self, tmp_path):
        weights = init_weights("xvector", XVectorConfig(n_train_speakers=5), seed=6)
        path = tmp_path / "xvector.weights"
        save_weights(path, weights)
        with np.load(path, allow_pickle=False) as archive:
            assert archive["values"].dtype == np.dtype("<f4")
            assert json.loads(archive["manifest"].tolist())["format_version"] == 3
        loaded = load_weights(path)
        for name, tensor in weights.tensors.items():
            assert tensor.dtype == loaded[name].dtype == np.float32
            assert tensor.tobytes() == loaded[name].tobytes()

    def test_float64_input_is_rounded_once(self):
        config = PpgConfig(hidden_size=4, hidden_layers=1)
        drawn = init_weights("ppg", config, seed=1)
        fine = {name: np.asarray(t, dtype=np.float64) + 1e-12 for name, t in drawn.tensors.items()}
        before = {name: t.copy() for name, t in fine.items()}
        rounded = ModelWeights(config, fine)
        for name, tensor in fine.items():
            assert rounded[name].dtype == np.float32
            assert rounded[name].tobytes() == tensor.astype(np.float32).tobytes()
            assert np.array_equal(tensor, before[name])  # the caller's array is untouched
        # float32 input is not copied.
        kept = ModelWeights(config, drawn.tensors)
        assert all(np.shares_memory(kept[name], drawn[name]) for name in drawn.tensors)

    def test_tensor_beyond_float32_range_names_the_tensor_without_warning(self):
        config = PpgConfig(hidden_size=4, hidden_layers=1)
        tensors = dict(init_weights("ppg", config, seed=1).tensors)
        tensors["hidden1.b"] = np.full(4, 1e39)  # finite in float64 only
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="'hidden1.b' has non-finite values"):
                ModelWeights(config, tensors)

    def test_version_2_file_rejected_naming_file_and_version(self, tmp_path):
        path = tmp_path / "ppg.weights"
        save_weights(path, init_weights("ppg", PpgConfig(hidden_size=8), seed=2))
        with np.load(path, allow_pickle=False) as archive:
            manifest = json.loads(archive["manifest"].tolist())
            values = archive["values"].astype(np.float64)
        manifest["format_version"] = 2
        write_npz(path, manifest=np.array(json.dumps(manifest)), values=values)
        with pytest.raises(DataError, match="format version 2") as info:
            load_weights(path)
        assert str(path) in str(info.value)

    def test_roundtrip_preserves_forward_output(self, tmp_path):
        config = PpgConfig(context_frames=3, hidden_size=8, hidden_layers=2)
        weights = init_weights("ppg", config, seed=7)
        frames = FeatureMatrix(
            np.random.default_rng(0).standard_normal((9, 40)), MEL40
        )
        before = ppg_forward(frames, weights)
        path = tmp_path / "w.weights"
        save_weights(path, weights)
        after = ppg_forward(frames, load_weights(path))
        assert np.array_equal(before.frames, after.frames)

    def test_zero_layer_config_rejected(self):
        with pytest.raises(ValueError, match="ppg config hidden_layers = 0: expected an integer"):
            PpgConfig(hidden_layers=0)

    @pytest.mark.parametrize("component", sorted(_CONFIG_REGISTRY))
    @pytest.mark.parametrize("value", [0, -1, 2.0, True])
    def test_every_config_field_refuses_what_is_no_count(self, component, value):
        config = _CONFIG_REGISTRY[component]
        for field in fields(config):
            message = f"{component} config {field.name} = {value!r}: expected an integer of at least 1"
            with pytest.raises(ValueError, match=re.escape(message)):
                config(**{field.name: value})

    @pytest.mark.parametrize("config, field", [
        (PpgConfig, "context_frames"), (NsfConfig, "smooth_width"),
    ])
    def test_window_widths_must_be_odd(self, config, field):
        for value in (2, 80):
            message = f"{config.component} config {field} = {value}: expected an odd number"
            with pytest.raises(ValueError, match=re.escape(message)):
                config(**{field: value})

    def test_shape_mismatch_rejected(self):
        config = PpgConfig(hidden_size=4, hidden_layers=1)
        weights = init_weights("ppg", config, seed=1)
        tensors = dict(weights.tensors)
        tensors["softmax.w"] = np.zeros((PPG.width, 5))  # wrong inner dim
        with pytest.raises(ValueError, match="softmax.w"):
            ModelWeights(config, tensors)

    def test_caller_arrays_stay_writable(self):
        weights = init_weights("ppg", PpgConfig(hidden_size=4, hidden_layers=1), seed=1)
        tensors = {name: np.array(tensor) for name, tensor in weights.tensors.items()}
        shared = ModelWeights(weights.config, tensors)
        assert all(tensor.flags.writeable for tensor in tensors.values())
        assert not shared["softmax.w"].flags.writeable

    def test_component_config_mismatch(self):
        with pytest.raises(ValueError, match="component"):
            init_weights("xvector", PpgConfig(), seed=0)

    def test_forward_rejects_another_components_weights(
        self, small_ppg_weights, small_acoustic_weights
    ):
        # Weights take their component from their config, so acoustic
        # tensors cannot pass as PPG weights and fail later on a width.
        acoustic = ModelWeights(small_acoustic_weights.config, small_acoustic_weights.tensors)
        assert acoustic.component == "acoustic"
        frames = FeatureMatrix(np.zeros((10, 40)), MEL40)
        with pytest.raises(ValueError, match="expected ppg weights, got 'acoustic'"):
            ppg_forward(frames, acoustic)
        with pytest.raises(ValueError, match="expected acoustic weights, got 'ppg'"):
            acoustic_forward(frames, small_ppg_weights)
        with pytest.raises(ValueError, match="expected nsf weights, got 'acoustic'"):
            filter_block_forward(np.zeros(80), np.zeros((1, 8)), acoustic, block=1)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "junk.weights"
        path.write_bytes(b"definitely not weights\n")
        with pytest.raises(DataError):
            load_weights(path)

    def test_manifest_must_be_an_object(self, tmp_path):
        path = tmp_path / "list.weights"
        write_npz(path, manifest=np.array("[]"), values=np.zeros(3))
        with pytest.raises(DataError, match="not a JSON object"):
            load_weights(path)

    def test_save_is_deterministic(self, tmp_path):
        weights = init_weights("ppg", PpgConfig(hidden_size=8, hidden_layers=2), seed=2)
        save_weights(tmp_path / "a.weights", weights)
        save_weights(tmp_path / "b.weights", weights)
        assert (tmp_path / "a.weights").read_bytes() == (tmp_path / "b.weights").read_bytes()

    def test_file_holds_manifest_and_values(self, tmp_path):
        path = tmp_path / "ppg.weights"
        save_weights(path, init_weights("ppg", PpgConfig(hidden_size=8), seed=2))
        with np.load(path, allow_pickle=False) as archive:
            assert sorted(archive.files) == ["manifest", "values"]

    def test_loaded_tensors_are_read_only_views_of_one_array(self, tmp_path):
        path = tmp_path / "ppg.weights"
        save_weights(path, init_weights("ppg", PpgConfig(hidden_size=8), seed=3))
        loaded = load_weights(path)

        def root(arr):
            while arr.base is not None:
                arr = arr.base
            return arr

        values = root(loaded["hidden1.w"])
        assert values.ndim == 1
        assert values.size == sum(t.size for t in loaded.tensors.values())
        for tensor in loaded.tensors.values():
            assert root(tensor) is values and np.shares_memory(tensor, values)
            assert not tensor.flags.writeable

    def test_every_config_field_is_an_integer(self):
        # The one field rule, TensorTable.__post_init__, takes a plain int of
        # at least 1, so a field of any other type could never be set.
        assert set(_CONFIG_REGISTRY) == {"xvector", "ppg", "acoustic", "nsf"}
        for config in _CONFIG_REGISTRY.values():
            hints = get_type_hints(config)
            assert [f.name for f in fields(config)] == list(hints)
            assert set(hints.values()) == {int}, config.__name__

    @pytest.mark.parametrize("component, tensor, axis, width", _STREAM_AXES,
                             ids=[f"{c}-{t}" for c, t, _, _ in _STREAM_AXES])
    def test_config_fields_stay_inside_their_network(self, component, tensor, axis, width):
        # A config sizes only its own network: no field moves a stream's width.
        default = _CONFIG_REGISTRY[component]()
        for field in fields(default):
            # +2 keeps an odd window width odd.
            config = replace(default, **{field.name: getattr(default, field.name) + 2})
            assert config.tensor_shapes()[tensor][axis] == width(config), field.name


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
        frames = FeatureMatrix(np.ones((30, 40)), MEL40)
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
        # The frame layers run in float32; the trace above is float64.
        assert np.allclose(got, expected, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("n_frames", [20, 200])
    def test_constant_input_pools_exactly_zero_spread(self, weights, n_frames):
        # segment6 reads only the std half, all ones: each embedding value
        # is the sum of the pooled stds, 0 only if every std is exactly 0.
        tensors = dict(weights.tensors)
        seg = np.zeros(tensors["segment6.w"].shape)
        seg[:, seg.shape[1] // 2 :] = 1.0
        tensors["segment6.w"] = seg
        tensors["segment6.b"] = np.zeros(512)
        std_only = ModelWeights(weights.config, tensors)
        raw = xvector_embedding(_fbank(n_frames, value=0.37), std_only)
        assert np.array_equal(raw, np.zeros(512))
        # A varying input pools a positive spread through the same weights.
        assert np.all(xvector_embedding(_fbank(n_frames, seed=3), std_only) > 0)

    def test_context_sensitivity(self, weights):
        base = _fbank(30, seed=5)
        padded = FeatureMatrix(
            np.vstack([np.full((3, 24), 0.5), base.frames]), FBANK24
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

    @pytest.mark.parametrize("n_frames", [24, 600])
    def test_matches_float64_reference(self, n_frames):
        weights = init_weights("xvector", XVectorConfig(), seed=22)
        frames = _fbank(n_frames, seed=15)
        got = xvector_embedding(frames, weights)
        expected = xvector_embedding_ref(frames.frames, weights)
        assert got.dtype == np.float64
        # The frame layers run in float32 against a float64 oracle.
        assert np.abs(got - expected).max() <= 1e-6


class TestPpg:
    def test_output_rows_match_input(self, small_ppg_weights):
        frames = FeatureMatrix(
            np.random.default_rng(1).standard_normal((50, 40)), MEL40
        )
        out = ppg_forward(frames, small_ppg_weights)
        assert out.n_frames == 50
        assert out.stream.kind == "ppg"

    def test_softmax_rows_are_distributions(self, small_ppg_weights):
        frames = FeatureMatrix(
            np.random.default_rng(2).standard_normal((20, 40)) * 5, MEL40
        )
        out = ppg_forward(frames, small_ppg_weights)
        assert np.all(out.frames >= 0)
        assert np.max(np.abs(out.frames.sum(axis=1) - 1.0)) <= 1e-9

    def test_zero_weights_give_uniform_rows(self):
        config = PpgConfig()
        zeroed = _zeroed(init_weights("ppg", config, seed=1))
        frames = FeatureMatrix(
            np.random.default_rng(3).standard_normal((4, 40)), MEL40
        )
        out = ppg_forward(frames, zeroed)
        assert out.dim == 1944
        assert np.allclose(out.frames, 1.0 / 1944.0, rtol=0, atol=1e-15)

    def test_saturated_hidden_layer_gives_distributions_without_warning(
        self, small_ppg_weights
    ):
        tensors = dict(small_ppg_weights.tensors)
        tensors["hidden1.b"] = tensors["hidden1.b"] - 1000.0
        weights = ModelWeights(small_ppg_weights.config, tensors)
        frames = FeatureMatrix(
            np.random.default_rng(5).standard_normal((10, 40)), MEL40
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ppg_forward(frames, weights)
        assert np.all(np.isfinite(out.frames))
        assert np.max(np.abs(out.frames.sum(axis=1) - 1.0)) <= 1e-9

    def test_output_width_is_state_count(self, small_ppg_weights):
        # The posteriors span the 1944 tied states, not the 32 hidden units.
        frames = FeatureMatrix(
            np.random.default_rng(4).standard_normal((6, 40)), MEL40
        )
        assert ppg_forward(frames, small_ppg_weights).dim == 1944

    def test_takes_no_tap(self, small_ppg_weights):
        frames = FeatureMatrix(np.ones((3, 40)), MEL40)
        with pytest.raises(TypeError, match="tap"):
            ppg_forward(frames, small_ppg_weights, tap="softmax")

    def test_wrong_input_dim(self, small_ppg_weights):
        frames = FeatureMatrix(np.ones((5, 24)), FBANK24)
        with pytest.raises(ValueError, match="40"):
            ppg_forward(frames, small_ppg_weights)

    def test_single_frame_input(self, small_ppg_weights):
        frames = FeatureMatrix(np.ones((1, 40)), MEL40)
        assert ppg_forward(frames, small_ppg_weights).n_frames == 1

    @pytest.mark.parametrize("n_frames", [24, 600])
    def test_matches_float64_reference(self, n_frames):
        weights = init_weights("ppg", PpgConfig(), seed=23)
        frames = FeatureMatrix(
            np.random.default_rng(16).standard_normal((n_frames, 40)), MEL40
        )
        out = ppg_forward(frames, weights)
        expected = ppg_posteriors(frames.frames, weights)
        assert out.frames.dtype == np.float64
        # The sigmoid stack and the softmax GEMM run in float32 against a
        # float64 oracle.
        assert np.abs(out.frames - expected).max() <= 1e-6


def _aligned(n_frames, seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(
        rng.standard_normal((n_frames, ALIGNED.width)), ALIGNED
    )


class TestAcoustic:
    def test_output_shape(self, small_acoustic_weights):
        out = acoustic_forward(_aligned(12), small_acoustic_weights)
        assert out.frames.shape == (12, 80)
        assert out.stream.kind == "melspec80"

    def test_zero_weights_emit_output_bias(self, small_acoustic_weights):
        config = small_acoustic_weights.config
        zeroed = _zeroed(small_acoustic_weights)
        bias = np.full(80, 0.625)
        tensors = dict(zeroed.tensors)
        tensors["out.b"] = bias
        weights = ModelWeights(config, tensors)
        out = acoustic_forward(_aligned(7, seed=9), weights)
        assert np.array_equal(out.frames, np.tile(bias, (7, 1)))

    def test_input_width_checked(self):
        # The aligned stream has one width, 1944 + 2 + 512, which every
        # FeatureMatrix of its kind has; no config sets another.
        with pytest.raises(ValueError, match="kind 'aligned' requires dim 2458, got 7"):
            FeatureMatrix(np.ones((4, 7)), ALIGNED)

    @pytest.mark.parametrize("n_frames", [
        pytest.param(24, id="free"),
        pytest.param(600, id="free-600-frames"),
    ])
    def test_matches_per_step_reference(self, n_frames):
        # The recurrences run in float32 against a float64 oracle: the
        # contract is 1e-6 absolute on every output value.
        weights = init_weights("acoustic", AcousticConfig(), seed=21)
        aligned = _aligned(n_frames, seed=13)
        out = acoustic_forward(aligned, weights)
        expected = acoustic_frames(aligned.frames, weights)
        assert out.frames.dtype == np.float64
        assert np.abs(out.frames - expected).max() <= 1e-6

    def test_closed_gates_emit_output_bias_without_warning(self, small_acoustic_weights):
        # Every gate pre-activation near -1000: a sigmoid through exp(-x)
        # overflows there, while 1/2 + tanh(x/2)/2 gives exactly 0, so no
        # cell ever opens and every frame is the output bias.
        config = small_acoustic_weights.config
        tensors = dict(small_acoustic_weights.tensors)
        for name in ("blstm.fw.b", "blstm.bw.b", "ar.b"):
            tensors[name] = np.full_like(tensors[name], -1000.0)
        weights = ModelWeights(config, tensors)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = acoustic_forward(_aligned(8, seed=3), weights)
        assert np.array_equal(out.frames, np.tile(tensors["out.b"], (8, 1)))

    def test_deterministic(self, small_acoustic_weights):
        aligned = _aligned(9, seed=11)
        a = acoustic_forward(aligned, small_acoustic_weights)
        b = acoustic_forward(aligned, small_acoustic_weights)
        assert np.array_equal(a.frames, b.frames)
