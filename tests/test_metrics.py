import numpy as np
import pytest

from voxanon import (
    EmbeddingPool,
    SpeakerEmbedding,
    Trial,
    compute_eer,
    cosine_matrix,
    nearest_k_mask,
    rank_by_similarity,
    read_trials,
    score_trials,
    trial_indices,
    wer,
    write_trials,
)
from voxanon.errors import DataError

from _oracles import cosine_fsum, edit_distance, eer_midpoint_sweep
from conftest import random_embedding


def _score(enroll, test, trials):
    # Trial scores the way `evaluate` gets them: one cosine matrix, one
    # (row, column) cell per trial.
    scored = score_trials(
        EmbeddingPool(enroll.values()), EmbeddingPool(test.values()),
        *trial_indices(trials, list(enroll), list(test)), None, False,
    )
    return list(zip(trials, scored.scores.tolist()))


class TestScoreTrials:
    def test_identical_embedding_scores_one(self):
        v = SpeakerEmbedding("v", [0.2, 0.5, -0.1])
        scored = _score({"v": v}, {"v": v}, [Trial("v", "v", "target")])
        assert abs(scored[0][1] - 1.0) < 1e-12

    def test_grid_matches_direct_oracle(self, rng):
        enroll = {f"e{i}": random_embedding(rng, 8, f"e{i}") for i in range(5)}
        test = {f"t{j}": random_embedding(rng, 8, f"t{j}") for j in range(5)}
        trials = [
            Trial(f"e{i}", f"t{j}", "target" if i == j else "nontarget")
            for i in range(5)
            for j in range(5)
        ]
        scored = _score(enroll, test, trials)
        assert [t for t, _ in scored] == trials  # order preserved
        for trial, score in scored:
            expected = cosine_fsum(
                enroll[trial.enroll_id].vector, test[trial.test_id].vector
            )
            assert abs(score - expected) < 1e-12

    def test_unresolvable_id_named(self, rng):
        enroll = {"e": random_embedding(rng, 4, "e")}
        test = {"t": random_embedding(rng, 4, "t")}
        with pytest.raises(DataError, match="ghost"):
            _score(enroll, test, [Trial("ghost", "t", "target")])
        with pytest.raises(DataError, match="phantom"):
            _score(enroll, test, [Trial("e", "phantom", "target")])

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            Trial("a", "b", "impostor")


class TestComputeEer:
    def test_perfect_separation(self):
        result = compute_eer([0.9, 0.8], [0.1, 0.2])
        assert result.eer == 0.0
        assert result.n_target == 2 and result.n_nontarget == 2

    def test_perfect_inversion(self):
        assert compute_eer([0.1], [0.9]).eer == 1.0

    def test_interleaved_thirds(self):
        result = compute_eer([0.8, 0.6, 0.4], [0.7, 0.5, 0.3])
        assert abs(result.eer - 1.0 / 3.0) < 1e-12
        # FRR and FAR at the reported threshold bracket the EER.
        frr = np.mean(np.array([0.8, 0.6, 0.4]) < result.threshold)
        far = np.mean(np.array([0.7, 0.5, 0.3]) >= result.threshold)
        assert min(frr, far) <= result.eer + 1e-12
        assert max(frr, far) >= result.eer - 1e-12

    def test_empty_lists_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compute_eer([], [0.5])
        with pytest.raises(ValueError, match="empty"):
            compute_eer([0.5], [])

    def test_matches_midpoint_sweep_oracle(self):
        rng = np.random.default_rng(99)
        for trial in range(300):
            n_tar = int(rng.integers(1, 80))
            n_non = int(rng.integers(1, 80))
            tar = rng.normal(0.6, 0.4, n_tar)
            non = rng.normal(0.0, 0.4, n_non)
            if rng.random() < 0.3:
                tar = np.round(tar, 1)  # force ties
                non = np.round(non, 1)
            got = compute_eer(tar, non)
            expected = eer_midpoint_sweep(tar, non)
            assert abs(got.eer - expected) <= 1e-9, trial

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        tar = rng.normal(1.0, 0.5, 40)
        non = rng.normal(0.0, 0.5, 60)
        base = compute_eer(tar, non).eer
        for transform in (np.exp, np.tanh, lambda x: 3.0 * x + 7.0):
            assert abs(compute_eer(transform(tar), transform(non)).eer - base) < 1e-9

    def test_bracket_invariant_random(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            tar = rng.normal(0.5, 0.5, int(rng.integers(1, 50)))
            non = rng.normal(0.0, 0.5, int(rng.integers(1, 50)))
            result = compute_eer(tar, non)
            frr = float(np.mean(tar < result.threshold))
            far = float(np.mean(non >= result.threshold))
            assert min(frr, far) <= result.eer + 1e-12
            assert max(frr, far) >= result.eer - 1e-12


def _nearest(target, others, k):
    # The engine's nearest-K non-target mask for one enrollee, as ids in
    # rank order.
    ids = [o.id for o in others]
    sims = cosine_matrix(target.vector[None, :], np.stack([o.vector for o in others]))
    mask = nearest_k_mask(sims, [target.id], ids, k)[0]
    ranked = [ids[j] for j in rank_by_similarity(sims, ids)[0]]
    assert {i for i, keep in zip(ids, mask) if keep} == set(ranked[:k])
    return ranked[:k]


class TestNearestNontargetSubset:
    def test_all_returns_every_id(self, rng):
        target = random_embedding(rng, 6, "t")
        others = [random_embedding(rng, 6, f"n{i}") for i in range(7)]
        subset = _nearest(target, others, len(others))
        assert sorted(subset) == sorted(o.id for o in others)

    def test_analytic_nearest(self):
        target = SpeakerEmbedding("t", [1.0, 0.0])
        others = [
            SpeakerEmbedding("deg10", [np.cos(np.radians(10)), np.sin(np.radians(10))]),
            SpeakerEmbedding("deg45", [np.cos(np.radians(45)), np.sin(np.radians(45))]),
            SpeakerEmbedding("deg170", [np.cos(np.radians(170)), np.sin(np.radians(170))]),
        ]
        assert _nearest(target, others, 1) == ["deg10"]
        assert _nearest(target, others, 2) == ["deg10", "deg45"]

    def test_k_too_large(self, rng):
        target = random_embedding(rng, 4, "t")
        others = [random_embedding(rng, 4, "n0")]
        with pytest.raises(ValueError, match="exceeds"):
            _nearest(target, others, 2)

    def test_tie_break_by_id(self):
        target = SpeakerEmbedding("t", [1.0, 0.0])
        others = [
            SpeakerEmbedding("zz", [2.0, 0.0]),
            SpeakerEmbedding("aa", [3.0, 0.0]),
        ]
        assert _nearest(target, others, 1) == ["aa"]


class TestWer:
    def test_identical(self):
        result = wer("the cat sat".split(), "the cat sat".split())
        assert result.rate == 0.0
        assert result.n_errors == 0

    def test_single_substitution(self):
        result = wer("a b c".split(), "a x c".split())
        assert (result.substitutions, result.deletions, result.insertions) == (1, 0, 0)
        assert abs(result.rate - 1.0 / 3.0) < 1e-15

    def test_empty_hypothesis_is_all_deletions(self):
        result = wer("a b c d".split(), [])
        assert (result.substitutions, result.deletions, result.insertions) == (0, 4, 0)
        assert result.rate == 1.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            wer([], "a".split())

    def test_rate_can_exceed_one(self):
        assert wer(["a"], "x y z".split()).rate > 1.0

    def test_matches_dp_oracle(self):
        rng = np.random.default_rng(31)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(500):
            n = int(rng.integers(1, 13))
            m = int(rng.integers(0, 13))
            ref = [alphabet[i] for i in rng.integers(0, 4, n)]
            hyp = [alphabet[i] for i in rng.integers(0, 4, m)]
            result = wer(ref, hyp)
            assert result.n_errors == edit_distance(ref, hyp)
            assert result.rate == result.n_errors / n

    def test_role_swap_exchanges_deletions_and_insertions(self):
        rng = np.random.default_rng(32)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(500):
            n = int(rng.integers(1, 13))
            m = int(rng.integers(1, 13))
            ref = [alphabet[i] for i in rng.integers(0, 4, n)]
            hyp = [alphabet[i] for i in rng.integers(0, 4, m)]
            fwd = wer(ref, hyp)
            rev = wer(hyp, ref)
            assert fwd.n_errors == rev.n_errors
            assert fwd.substitutions == rev.substitutions
            assert fwd.deletions == rev.insertions
            assert fwd.insertions == rev.deletions


class TestTrialFiles:
    def test_roundtrip(self, tmp_path):
        trials = [
            Trial("spk1", "spk1_u01", "target"),
            Trial("spk1", "spk2_u03", "nontarget"),
        ]
        path = tmp_path / "trials.txt"
        write_trials(path, trials)
        assert read_trials(path) == trials

    @pytest.mark.parametrize("text, message", [
        ("e t tar\n\nghost t non\n", "line 3: trial references unknown enrollment id 'ghost'"),
        ("e t tar\ne phantom non\n", "line 2: trial references unknown test id 'phantom'"),
    ])
    def test_unknown_id_names_line(self, tmp_path, text, message):
        path = tmp_path / "trials.txt"
        path.write_text(text)
        with pytest.raises(DataError) as caught:
            trial_indices(read_trials(path), ["e"], ["t"])
        assert str(caught.value) == message

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b maybe\n")
        with pytest.raises(DataError, match="line 1"):
            read_trials(path)
