import numpy as np
import pytest

from voxanon import EmbeddingPool, SpeakerEmbedding, Waveform
from voxanon.nnet import AcousticConfig, NsfConfig, PpgConfig, init_weights

try:
    from hypothesis import settings
except ImportError:  # the hypothesis tests skip themselves
    pass
else:
    # Every run draws the same examples and keeps no example database, so a
    # run that passes passes again. Per-test max_examples still apply.
    settings.register_profile("deterministic", derandomize=True, database=None)
    settings.load_profile("deterministic")


def make_tone(freq_hz, seconds=1.0, fs=16000, amplitude=0.5):
    t = np.arange(int(seconds * fs)) / fs
    return Waveform(amplitude * np.sin(2.0 * np.pi * freq_hz * t), fs)


def make_noise(seconds=1.0, fs=16000, std=0.2, seed=0):
    rng = np.random.default_rng(seed)
    return Waveform(np.clip(std * rng.standard_normal(int(seconds * fs)), -1, 1), fs)


def random_embedding(rng, dim, name):
    return SpeakerEmbedding(name, rng.standard_normal(dim))


def grid_pools(speakers):
    """The enrollment pool and the test-utterance pool of generated speakers,
    as ``simulate`` builds them."""
    return (EmbeddingPool(s.enroll for s in speakers),
            EmbeddingPool(utt for s in speakers for utt in s.tests))


def make_similarity_ladder_pool(
    original: SpeakerEmbedding,
    size: int,
    sim_low: float,
    sim_high: float,
) -> EmbeddingPool:
    """A pool of unit vectors whose similarities to ``original`` sweep a range.

    Entries lie in a fixed half-plane spanned by the original's direction
    and one deterministic orthogonal direction, at similarities evenly
    covering [sim_low, sim_high]. Because all entries sit on the same side,
    averaging a similarity window lands near the window's center instead of
    collapsing onto the original's axis, which is what range-selection
    experiments need.
    """
    if not -1.0 <= sim_low < sim_high <= 1.0:
        raise ValueError("need -1 <= sim_low < sim_high <= 1")
    if size < 2:
        raise ValueError("ladder pool needs at least two entries")
    if original.dim < 2:
        raise ValueError("ladder pool requires an embedding dimension of at least 2")
    axis = original.vector / np.linalg.norm(original.vector)
    # Deterministic orthogonal direction: the basis vector least aligned
    # with the axis, Gram-Schmidt orthogonalized.
    pivot = int(np.argmin(np.abs(axis)))
    basis = np.zeros(original.dim)
    basis[pivot] = 1.0
    ortho = basis - np.dot(basis, axis) * axis
    ortho /= np.linalg.norm(ortho)
    entries = []
    for i, s in enumerate(np.linspace(sim_low, sim_high, size)):
        vec = s * axis + np.sqrt(1.0 - s * s) * ortho
        entries.append(SpeakerEmbedding(f"ladder{i:04d}", vec))
    return EmbeddingPool(entries)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# Reduced-size configs for functional tests where the full widths would
# only cost time; shape-contract tests build the full-size defaults.
@pytest.fixture
def small_ppg_weights():
    config = PpgConfig(hidden_size=32)
    return init_weights("ppg", config, seed=11)


@pytest.fixture
def small_acoustic_weights():
    config = AcousticConfig(ff_size=16, blstm_size=8, ar_size=16)
    return init_weights("acoustic", config, seed=12)


@pytest.fixture
def small_nsf_weights():
    config = NsfConfig(channels=8, blocks=2, layers_per_block=4)
    return init_weights("nsf", config, seed=13)
