"""
Verification and content metrics
================================

Scores speaker-verification trials with cosine similarity, locates the
equal error rate, restricts non-targets to the nearest K speakers, and
counts word errors.
"""

import numpy as np

from voxanon import (
    EmbeddingPool,
    SpeakerEmbedding,
    Trial,
    compute_eer,
    cosine_matrix,
    rank_by_similarity,
    read_trials,
    score_trials,
    wer,
    write_trials,
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
# A trial list file reads back as columns: each trial's row in the
# enrollment pool, its column in the test pool, and a target mask.
write_trials("demo_trials.txt", trials)
rows, cols, is_target = read_trials("demo_trials.txt", list(enroll), list(test))
print(f"{len(is_target)} trials over {len(set(rows.tolist()))} enrollments "
      f"and {len(set(cols.tolist()))} test utterances")
# One cosine matrix scores every enrollment against every test utterance;
# each trial reads its cell. This is the scoring path `evaluate` takes
# (here without the nearest-K filter and the gender partitions).
scored = score_trials(
    EmbeddingPool(enroll.values()), EmbeddingPool(test.values()),
    rows, cols, is_target, k=None, by_gender=False,
)
for trial, score in zip(trials[:4], scored.scores):
    print(f"{trial.enroll_id} vs {trial.test_id}: {score:+.3f} ({trial.label})")

tar = scored.scores[scored.is_target]
non = scored.scores[~scored.is_target]
result = compute_eer(tar, non)
print(f"\nEER {result.eer:.2%} at threshold {result.threshold:.3f} "
      f"({result.n_target} target / {result.n_nontarget} nontarget trials)")

# Keeping only the K most similar non-target speakers makes the protocol
# harder: distant speakers cannot deflate the error rate. The same cosine
# ranks one query against a whole pool, which holds its vectors as one matrix.
candidates = EmbeddingPool(SpeakerEmbedding(f"non{i}", rng.standard_normal(32)) for i in range(8))
sims = cosine_matrix(enroll["spk1"].vector[None, :], candidates)
ranked = [candidates.ids[j] for j in rank_by_similarity(sims, candidates.ids)[0]]
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
