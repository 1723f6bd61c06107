from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
    wer,
    write_trials,
)
from voxanon.errors import DataError

from _oracles import (
    cosine_fsum,
    edit_distance,
    eer_midpoint_sweep,
    eer_threshold_sweep,
    read_trial_objects,
    trial_object_indices,
)
from conftest import random_embedding


def _score(tmp_path, enroll, test, trials):
    # Trial scores the way `evaluate` gets them: a trial list file read into
    # pool rows and columns, one cosine matrix, one (row, column) cell per trial.
    write_trials(tmp_path / "trials.txt", trials)
    scored = score_trials(
        EmbeddingPool(enroll.values()), EmbeddingPool(test.values()),
        *read_trials(tmp_path / "trials.txt", list(enroll), list(test)), None, False,
    )
    return list(zip(trials, scored.scores.tolist()))


class TestScoreTrials:
    def test_identical_embedding_scores_one(self, tmp_path):
        v = SpeakerEmbedding("v", [0.2, 0.5, -0.1])
        scored = _score(tmp_path, {"v": v}, {"v": v}, [Trial("v", "v", "target")])
        assert abs(scored[0][1] - 1.0) < 1e-12

    def test_grid_matches_direct_oracle(self, tmp_path, rng):
        enroll = {f"e{i}": random_embedding(rng, 8, f"e{i}") for i in range(5)}
        test = {f"t{j}": random_embedding(rng, 8, f"t{j}") for j in range(5)}
        trials = [
            Trial(f"e{i}", f"t{j}", "target" if i == j else "nontarget")
            for i in range(5)
            for j in range(5)
        ]
        scored = _score(tmp_path, enroll, test, trials)
        assert [t for t, _ in scored] == trials  # order preserved
        for trial, score in scored:
            expected = cosine_fsum(
                enroll[trial.enroll_id].vector, test[trial.test_id].vector
            )
            assert abs(score - expected) < 1e-12

    def test_unresolvable_id_named(self, tmp_path, rng):
        enroll = {"e": random_embedding(rng, 4, "e")}
        test = {"t": random_embedding(rng, 4, "t")}
        with pytest.raises(DataError, match="ghost"):
            _score(tmp_path, enroll, test, [Trial("ghost", "t", "target")])
        with pytest.raises(DataError, match="phantom"):
            _score(tmp_path, enroll, test, [Trial("e", "phantom", "target")])

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            Trial("a", "b", "impostor")


def _bits(result):
    # (eer, threshold, n_target, n_nontarget) with the floats as exact bits.
    eer, threshold, n_target, n_nontarget = result
    return eer.hex(), threshold.hex(), n_target, n_nontarget


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

    # Quarter steps on a small range: most scores tie, within a side and
    # across sides. No score is -0.0, whose place among equal scores in the
    # sweep's sort, and so the sign of a zero threshold, is not pinned.
    _tied_scores = st.lists(st.integers(-8, 8).map(lambda v: v / 4.0), min_size=1, max_size=40)

    @settings(max_examples=400, deadline=None)
    @given(tar=_tied_scores, non=_tied_scores)
    @example(tar=[0.5], non=[0.5])
    @example(tar=[0.25], non=[-0.75])
    @example(tar=[-0.75], non=[0.25])
    @example(tar=[1.0] * 7, non=[1.0] * 3)
    @example(tar=[0.5] * 4, non=[0.25])
    @example(tar=[0.25], non=[0.5] * 4)
    @example(tar=[2.0, 2.0], non=[1e6])
    @example(tar=[-3.0, 4.5], non=[0.0] * 5)
    def test_equals_full_threshold_sweep_bit_for_bit(self, tar, non):
        assert _bits(astuple(compute_eer(tar, non))) == _bits(eer_threshold_sweep(tar, non))

    def test_equals_full_threshold_sweep_on_cosine_scores(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            tar = np.clip(rng.normal(0.4, 0.3, int(rng.integers(1, 3000))), -1.0, 1.0)
            non = np.clip(rng.normal(0.0, 0.3, int(rng.integers(1, 3000))), -1.0, 1.0)
            assert _bits(astuple(compute_eer(tar, non))) == _bits(eer_threshold_sweep(tar, non))

    def test_non_finite_scores_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                compute_eer([0.5, bad, 0.1], [0.2])
            with pytest.raises(ValueError, match="finite"):
                compute_eer([0.5], [bad, 0.2])

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


# Trial list files for the parser parity test: repeated ids, blank lines,
# CRLF and Unicode whitespace (of which VT and U+2028 also end a line), and now
# and then an unknown id or a malformed line.
_ENROLL_IDS = ["p01", "p02", "p03", "\xe9"]
_TEST_IDS = ["p01_001", "p01_002", "p02_001", "p03_001", "\xe9_1"]
_SPACE = st.sampled_from([" ", "  ", "\t", "\xa0", "\u3000"] * 4 + ["\x0b", "\u2028"])
_TRIAL_LINE = st.builds(
    lambda lead, e, s1, t, s2, tag, trail: lead + e + s1 + t + s2 + tag + trail,
    st.sampled_from(["", "", " ", "\u3000"]), st.sampled_from(_ENROLL_IDS * 6 + ["ghost"]),
    _SPACE, st.sampled_from(_TEST_IDS * 5 + ["phantom"]), _SPACE,
    st.sampled_from(["tar", "non"] * 5 + ["maybe"]), st.sampled_from(["", "", " ", "\t"]),
)
_BLANK_LINE = st.sampled_from(["", " ", "\t\u3000", "\xa0"] * 3 + ["a b"])
_TRIAL_TEXT = st.lists(
    st.tuples(st.one_of(_TRIAL_LINE, _BLANK_LINE), st.sampled_from(["\n", "\r\n", "\r", "\x85"])),
    max_size=10,
).map(lambda lines: "".join(text + end for text, end in lines))


def _indices_or_error(read, path, enroll_ids, test_ids):
    try:
        return tuple((a.dtype.kind, a.tolist()) for a in read(path, enroll_ids, test_ids))
    except DataError as exc:
        return str(exc)


def _object_indices(path, enroll_ids, test_ids):
    # The object parser, then the index step, whose error names the file as
    # `evaluate` named it when reading and indexing were two steps.
    trials = read_trial_objects(path)
    try:
        return trial_object_indices(trials, enroll_ids, test_ids)
    except DataError as exc:
        raise DataError(f"{path}, {exc}") from None


class TestTrialFiles:
    def test_roundtrip(self, tmp_path):
        trials = [
            Trial("spk1", "spk1_u01", "target"),
            Trial("spk1", "spk2_u03", "nontarget"),
            Trial("spk2", "spk1_u01", "nontarget"),
        ]
        path = tmp_path / "trials.txt"
        write_trials(path, trials)
        # The pools hold the ids in another order than the file.
        rows, cols, is_target = read_trials(path, ["spk2", "spk1"], ["spk2_u03", "spk1_u01"])
        assert rows.tolist() == [1, 1, 0] and cols.tolist() == [1, 0, 1]
        assert is_target.tolist() == [True, False, False]

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.builds(
        Trial,
        st.text(st.characters(codec="utf-8").filter(lambda c: not c.isspace()),
                min_size=1, max_size=4),
        st.sampled_from(_TEST_IDS),
        st.sampled_from(["target", "nontarget"]),
    ), min_size=1, max_size=10))
    def test_write_read_round_trip(self, tmp_path, trials):
        path = tmp_path / "trials.txt"
        write_trials(path, trials)
        enroll_ids = sorted({t.enroll_id for t in trials})
        test_ids = sorted({t.test_id for t in trials})
        decoded = [
            Trial(enroll_ids[e], test_ids[t], "target" if tar else "nontarget")
            for e, t, tar in zip(*read_trials(path, enroll_ids, test_ids))
        ]
        assert decoded == trials

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_TRIAL_TEXT, st.permutations(_ENROLL_IDS), st.permutations(_TEST_IDS),
           st.sampled_from([0, 0, 0, 1]), st.sampled_from([0, 0, 0, 1]))
    def test_columns_match_object_parser(
        self, tmp_path, text, enroll_ids, test_ids, enroll_drop, test_drop
    ):
        # Pools hold the ids in another order than the file, and may leave
        # one out, so that some trials name an unknown id.
        enroll_ids, test_ids = enroll_ids[enroll_drop:], test_ids[test_drop:]
        path = tmp_path / "trials.txt"
        path.write_bytes(text.encode("utf-8"))
        pools = (path, enroll_ids, test_ids)
        got = _indices_or_error(read_trials, *pools)
        assert got == _indices_or_error(_object_indices, *pools)

    @pytest.mark.parametrize("text, message", [
        ("e t tar\n\nghost t non\n", "line 3: trial references unknown enrollment id 'ghost'"),
        ("e t tar\ne phantom non\n", "line 2: trial references unknown test id 'phantom'"),
    ])
    def test_unknown_id_names_line(self, tmp_path, text, message):
        path = tmp_path / "trials.txt"
        path.write_text(text)
        with pytest.raises(DataError) as caught:
            read_trials(path, ["e"], ["t"])
        assert str(caught.value) == f"{path}, {message}"

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("a b maybe\n")
        with pytest.raises(DataError, match="line 1"):
            read_trials(path, ["a"], ["b"])
