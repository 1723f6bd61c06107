"""Each network, and ``align_streams`` for its PPG, reads one stream: a
feature matrix of another stream fails the one shared check
(``features.Stream.check``) with a message naming the expected and the
received kind and hop.

A matrix holds its ``Stream``, so every matrix the pipeline makes is at its
kind's one hop. The hop cases below hand a consumer a matrix of an
undeclared stream, built for the test; files at another hop are refused on
read (``test_signal.py::TestFeatureFiles``)."""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from voxanon import F0Contour, FeatureMatrix, SpeakerEmbedding, align_streams, extract_f0, mel_features
from voxanon.features import ALIGNED, EMBED_DIM, FBANK24, MEL40, MELSPEC80, PPG, Stream
from voxanon.nnet import (
    AcousticConfig,
    NsfConfig,
    PpgConfig,
    XVectorConfig,
    acoustic_forward,
    init_weights,
    nsf_forward,
    ppg_forward,
    xvector_forward,
)

from conftest import make_tone

@pytest.fixture(scope="module")
def nets():
    """Tiny weights for every network (the x-vector's frame layers are fixed)."""
    ppg = PpgConfig(context_frames=3, hidden_size=8, hidden_layers=1)
    acoustic = AcousticConfig(ff_size=8, blstm_size=4, ar_size=8)
    nsf = NsfConfig(channels=4, blocks=1, layers_per_block=2)
    return SimpleNamespace(
        xvector=init_weights("xvector", XVectorConfig(n_train_speakers=3), seed=1),
        ppg=init_weights("ppg", ppg, seed=2),
        acoustic=init_weights("acoustic", acoustic, seed=3),
        nsf=init_weights("nsf", nsf, seed=4),
    )


def _xvec():
    return SpeakerEmbedding("x", np.random.default_rng(5).standard_normal(EMBED_DIM))


def _f0(n_frames):
    return F0Contour(np.where(np.arange(n_frames) % 4 < 2, 150.0, 0.0))


# consumer -> (the stream it reads, a call of it on a matrix of n frames)
CONSUMERS = {
    "xvector_forward": (("fbank24", 0.01), lambda m, nets: xvector_forward(m, nets.xvector)),
    "ppg_forward": (("mel40", 0.01), lambda m, nets: ppg_forward(m, nets.ppg)),
    "align_streams": (("ppg", 0.01), lambda m, nets: align_streams(m, _f0(2 * m.n_frames), _xvec())),
    "acoustic_forward": (("aligned", 0.005), lambda m, nets: acoustic_forward(m, nets.acoustic)),
    "nsf_forward": (("melspec80", 0.005),
                    lambda m, nets: nsf_forward(m, _f0(m.n_frames), _xvec(), nets.nsf, seed=6)),
}

# (consumer, kind, hop) of a stream the consumer must refuse. The matrix
# has its kind's one width, so only the kind or the hop is wrong; a kind at
# its other hop is no declared stream.
REFUSED = [
    pytest.param("xvector_forward", "aligned", 0.01, id="xvector-aligned"),
    pytest.param("xvector_forward", "fbank24", 0.005, id="xvector-5ms"),
    pytest.param("ppg_forward", "ppg", 0.005, id="ppg-5ms-ppg"),
    pytest.param("ppg_forward", "mel40", 0.005, id="ppg-5ms"),
    pytest.param("align_streams", "mel40", 0.01, id="align-mel40"),
    pytest.param("align_streams", "ppg", 0.005, id="align-5ms"),
    pytest.param("acoustic_forward", "ppg", 0.005, id="acoustic-ppg"),
    pytest.param("acoustic_forward", "aligned", 0.01, id="acoustic-10ms"),
    pytest.param("nsf_forward", "aligned", 0.005, id="nsf-aligned"),
    pytest.param("nsf_forward", "melspec80", 0.01, id="nsf-10ms"),
]
WIDTHS = {stream.kind: stream.width for stream in (FBANK24, MEL40, PPG, ALIGNED, MELSPEC80)}


@pytest.mark.parametrize("consumer, kind, hop", REFUSED)
def test_stream_of_another_kind_or_hop_refused(nets, consumer, kind, hop):
    (expected_kind, expected_hop), call = CONSUMERS[consumer]
    stream = Stream(kind, WIDTHS[kind], hop)
    matrix = FeatureMatrix(np.random.default_rng(7).standard_normal((20, stream.width)), stream)
    message = (f"expected {expected_kind} at a {expected_hop} s hop, "
               f"got {kind} at a {hop} s hop")
    with pytest.raises(ValueError, match=re.escape(message)):
        call(matrix, nets)


def test_chain_hands_each_stage_its_stream(nets):
    wav = make_tone(170.0, seconds=0.3)
    fbank, mel40 = (mel_features(wav, stream) for stream in (FBANK24, MEL40))
    f0 = extract_f0(wav)
    xvec = xvector_forward(fbank, nets.xvector, embedding_id="tone")
    ppg = ppg_forward(mel40, nets.ppg)
    aligned = align_streams(ppg, f0, xvec)
    mel = acoustic_forward(aligned, nets.acoustic)
    out = nsf_forward(mel, F0Contour(f0.values[: aligned.n_frames]), xvec, nets.nsf, seed=8)
    edges = [(m.stream.kind, m.dim, m.stream.hop) for m in (fbank, mel40, ppg, aligned, mel)]
    assert edges == [("fbank24", 24, 0.01), ("mel40", 40, 0.01), ("ppg", 1944, 0.01),
                     ("aligned", 1944 + 2 + 512, 0.005), ("melspec80", 80, 0.005)]
    assert aligned.n_frames == f0.n_frames == 56
    assert len(out) == 80 * aligned.n_frames
    assert out.sample_rate == 16000
