"""
Verification and content metrics
================================

Scores speaker-verification trials with cosine similarity, locates the
equal error rate, restricts non-targets to the nearest K speakers, and
counts word errors.
"""

import numpy as np

from voxanon import (
    SpeakerEmbedding,
    Trial,
    compute_eer,
    cosine_matrix,
    rank_by_similarity,
    trial_indices,
    wer,
)

rng = np.random.default_rng(3)

# Two enrolled speakers and a few test utterances around them.
enroll = {
    "spk1": SpeakerEmbedding("spk1", rng.standard_normal(32)),
    "spk2": SpeakerEmbedding("spk2", rng.standard_normal(32)),
}
test = {}
for speaker, base in enroll.items():
    for j in range(3):
        test[f"{speaker}_u{j}"] = SpeakerEmbedding(
            f"{speaker}_u{j}", base.vector + 0.2 * rng.standard_normal(32)
        )

trials = [
    Trial(enrolled, utt, "target" if utt.startswith(enrolled) else "nontarget")
    for enrolled in enroll
    for utt in test
]
# One cosine matrix scores every enrollment against every test utterance;
# each trial reads its cell.
rows, cols, is_target = trial_indices(trials, list(enroll), list(test))
grid = cosine_matrix(
    np.stack([e.vector for e in enroll.values()]),
    np.stack([t.vector for t in test.values()]),
)
scores = grid[rows, cols]
for trial, score in zip(trials[:4], scores):
    print(f"{trial.enroll_id} vs {trial.test_id}: {score:+.3f} ({trial.label})")

tar = scores[is_target]
non = scores[~is_target]
result = compute_eer(tar, non)
print(f"\nEER {result.eer:.2%} at threshold {result.threshold:.3f} "
      f"({result.n_target} target / {result.n_nontarget} nontarget trials)")

# Keeping only the K most similar non-target speakers makes the protocol
# harder: distant speakers cannot deflate the error rate.
candidates = [SpeakerEmbedding(f"non{i}", rng.standard_normal(32)) for i in range(8)]
ids = [c.id for c in candidates]
sims = cosine_matrix(enroll["spk1"].vector[None, :], np.stack([c.vector for c in candidates]))
ranked = [ids[j] for j in rank_by_similarity(sims, ids)[0]]
for k in (2, 8):
    print(f"nearest K={k}: {ranked[:k]}")

# Word error rate from a minimal edit alignment.
reference = "the cat sat on the mat".split()
hypothesis = "the cat sat on a mat mat".split()
counts = wer(reference, hypothesis)
print(
    f"\nWER {counts.rate:.2%}: {counts.substitutions} sub, "
    f"{counts.deletions} del, {counts.insertions} ins over {counts.n_ref_words} words"
)
