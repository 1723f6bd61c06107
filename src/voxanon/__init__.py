"""voxanon: desk-scale speaker anonymization toolkit.

Composes anonymous pseudo-speaker embeddings from a pool, runs the
feature-extraction and neural synthesis stack as verifiable forward
passes, and measures anonymization strength with a speaker-verification
metrics harness.
"""

from .anonymize import (
    AnonymizationSpec,
    PseudoSpeaker,
    apply_spec,
)
from .audio import Waveform, read_wav, write_wav
from .benchmark import (
    ConditionResult,
    EvalSpeaker,
    make_cluster_speakers,
    make_random_pool,
    run_anonymization_benchmark,
)
from .config import RunConfig, load_config
from .embeddings import (
    EmbeddingPool,
    SpeakerEmbedding,
    centered_mean,
    cosine_matrix,
    load_pool,
    save_pool,
)
from .errors import ConfigError, DataError
from .features import (
    F0Contour,
    FeatureMatrix,
    align_streams,
    extract_f0,
    load_f0,
    load_features,
    mel_features,
    save_f0,
    save_features,
)
from .metrics import (
    EerResult,
    ScoredTrials,
    Trial,
    WerResult,
    compute_eer,
    nearest_k_mask,
    rank_by_similarity,
    read_trials,
    score_trials,
    wer,
    write_trials,
)
from .seeding import derive_seed

__version__ = "0.1.0"
