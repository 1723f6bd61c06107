"""Forward-pass implementations of the four pipeline networks."""

from .acoustic import AcousticConfig, acoustic_forward
from .loss import spectral_loss
from .nsf import NsfConfig, filter_block_forward, nsf_forward, nsf_source
from .ppg import PpgConfig, ppg_forward
from .weights import ModelWeights, init_weights, load_weights, save_weights
from .xvector import XVectorConfig, xvector_embedding, xvector_forward
