"""
Pseudo speakers from an embedding pool
======================================

Builds a small speaker-embedding pool and composes anonymous pseudo
speakers with ``apply_spec`` under the three selection strategies:
random, range, and nearest.
"""

import numpy as np

from voxanon import (
    AnonymizationSpec,
    SpeakerEmbedding,
    apply_spec,
    make_random_pool,
)

# A pool standing in for a collection of external speakers' embeddings.
pool = make_random_pool(size=200, dim=64, seed=7)
print(f"pool: {len(pool)} speakers, dim {pool.dim}")

# The speaker we want to hide.
rng = np.random.default_rng(0)
original = SpeakerEmbedding("alice", rng.standard_normal(64))

# Strategy 1: random selection. The seed fully determines the draw, so a
# pseudo speaker can be reproduced from its provenance alone.
pseudo = apply_spec(pool, AnonymizationSpec("random", n_select=20, seed=123), original)
print("\nrandom selection (m=20, seed=123)")
print("  first ids:", ", ".join(pseudo.selected_ids[:5]), "...")
print(f"  dissimilarity vs alice: {pseudo.measured_dissimilarity:.3f}")

# Strategy 2: range selection. Pick everyone whose similarity to alice
# falls in a window, so the distance of the pseudo speaker is steerable.
for target_similarity in (0.2, 0.0, -0.2):
    spec = AnonymizationSpec("range", target_similarity=target_similarity, half_width=0.1)
    result = apply_spec(pool, spec, original)
    print(
        f"range s={target_similarity:+.1f}: {len(result.selected_ids):3d} candidates, "
        f"measured dissimilarity {result.measured_dissimilarity:.3f}"
    )

# Strategy 3: nearest selection keeps the pseudo speaker voice-adjacent.
for m in (5, 50):
    result = apply_spec(pool, AnonymizationSpec("nearest", n_select=m), original)
    print(f"nearest m={m:3d}: similarity to alice {result.similarity:+.3f}")

# Every strategy reports its selection, and the embedding is always the
# plain mean of the selected pool entries, so results are auditable.
