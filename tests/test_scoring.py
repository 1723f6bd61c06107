"""The shared trial-scoring engine against the pair-by-pair reference paths.

Fixtures carry exact score ties (duplicate and power-of-two rescaled
speakers), a speaker without a gender and an enrollment set that is a
strict subset of the test speakers.
"""

import json

import numpy as np
import pytest

from voxanon import (
    AnonymizationSpec,
    EmbeddingPool,
    EvalSpeaker,
    SpeakerEmbedding,
    Trial,
    make_cluster_speakers,
    make_random_pool,
    run_anonymization_benchmark,
    save_pool,
    score_trials,
    write_trials,
)
from voxanon.benchmark import draw_pseudo_speakers, protocol_trials
from voxanon.cli import main, speaker_of
from voxanon.metrics import cosine_matrix, nearest_k_mask, partition_masks
from voxanon.seeding import derive_seed

from _oracles import benchmark_eers, evaluate_eers, mean_of
from conftest import grid_pools


def _copy_speaker(source, new_id, scale, gender):
    tests = tuple(
        SpeakerEmbedding(f"{new_id}_u{j:03d}", scale * utt.vector, gender)
        for j, utt in enumerate(source.tests)
    )
    enroll = SpeakerEmbedding(new_id, mean_of(tests).vector, gender)
    return EvalSpeaker(new_id, enroll, tests)


@pytest.fixture(scope="module")
def speakers():
    base = make_cluster_speakers(9, 4, 12, 0.3, seed=31)
    # spk009 duplicates spk002 and spk010 is spk002 scaled by 2: cosine
    # scores against all three tie exactly. spk004 has no gender.
    base[4] = _copy_speaker(base[4], "spk004", 1.0, None)
    return base + [
        _copy_speaker(base[2], "spk009", 1.0, "male"),
        _copy_speaker(base[2], "spk010", 2.0, "female"),
    ]


N_SPEAKERS = 11
K_VALUES = [None, 1, 3, N_SPEAKERS - 1]


def _assert_same_eer(got, expected):
    assert got.eer == expected.eer
    assert (got.n_target, got.n_nontarget) == (expected.n_target, expected.n_nontarget)
    assert abs(got.threshold - expected.threshold) <= 1e-12


def _full_grid_trials(enroll, test):
    return [
        Trial(e, t, "target" if speaker_of(t) == e else "nontarget")
        for e in enroll
        for t in test
    ]


def _run_evaluate(tmp_path, enroll, test, trials, k):
    """Partition name -> EER record of an `evaluate` run with gender partitions."""
    save_pool(tmp_path / "enroll.jsonl", EmbeddingPool(enroll.values()))
    save_pool(tmp_path / "test.jsonl", EmbeddingPool(test.values()))
    write_trials(tmp_path / "trials.txt", trials)
    k_text = "all" if k is None else k
    (tmp_path / "eval.ini").write_text(f"[evaluate]\nk = {k_text}\ngender_partition = true\n")
    out = tmp_path / "out"
    rc = main([
        "evaluate", "--config", str(tmp_path / "eval.ini"), "--out-dir", str(out),
        "--enroll", str(tmp_path / "enroll.jsonl"), "--test", str(tmp_path / "test.jsonl"),
        "--trials", str(tmp_path / "trials.txt"),
    ])
    assert rc == 0
    records = [
        json.loads(line) for line in (out / "evaluation_report.jsonl").read_text().splitlines()
    ]
    return {r["partition"]: r for r in records if r.get("kind") == "eer"}


@pytest.mark.parametrize("k", K_VALUES)
@pytest.mark.parametrize("enrolled", ["all", "subset"])
def test_evaluate_matches_pairwise_reference(speakers, tmp_path, k, enrolled):
    chosen = speakers if enrolled == "all" else speakers[1::3]
    enroll = {s.id: s.enroll for s in chosen}
    test = {utt.id: utt for s in speakers for utt in s.tests}
    trials = _full_grid_trials(enroll, test)
    got = _run_evaluate(tmp_path, enroll, test, trials, k)
    expected = evaluate_eers(enroll, test, trials, k, gender_partition=True)
    assert list(got) == list(expected)
    for name, result in expected.items():
        r = got[name]
        assert r["eer"] == result.eer
        assert (r["n_target"], r["n_nontarget"]) == (result.n_target, result.n_nontarget)
        assert abs(r["threshold"] - result.threshold) <= 1e-12


@pytest.mark.parametrize("k", K_VALUES)
@pytest.mark.parametrize("strategy", [None, "random", "nearest"])
def test_benchmark_matches_pairwise_reference(speakers, k, strategy):
    pool = make_random_pool(40, 12, seed=32)
    spec = {
        None: None,
        "random": AnonymizationSpec("random", n_select=5, seed=33),
        "nearest": AnonymizationSpec("nearest", n_select=3),
    }[strategy]
    enroll, test = grid_pools(speakers)
    trials = protocol_trials(enroll, test, k, True)
    draws = None if spec is None else draw_pseudo_speakers(enroll, pool, spec, 2)
    result = run_anonymization_benchmark(trials, draws)
    expected = benchmark_eers(speakers, pool, spec, k, 2, True)
    # The reference has no result where a partition lacks target or
    # non-target trials; the engine leaves such a partition out.
    present = [name for name, (before, _) in expected.items() if before is not None]
    assert list(result.before) == present
    for name in result.before:
        before, after = expected[name]
        _assert_same_eer(result.before[name], before)
        if spec is None:
            assert result.after[name] == (result.before[name],)
        else:
            assert len(result.after[name]) == len(after)
            for got, want in zip(result.after[name], after):
                _assert_same_eer(got, want)


@pytest.mark.parametrize("k", [None, 1, 3, 5])
def test_simulate_baseline_equals_evaluate_bit_for_bit(tmp_path, k):
    # evaluate's pools come from the generator call and sub-seed simulate
    # uses, so both commands score the same speakers and trials.
    seed = 5
    speakers = make_cluster_speakers(8, 4, 12, 0.3, seed=derive_seed(seed, "speakers"))
    enroll = {s.id: s.enroll for s in speakers}
    test = {utt.id: utt for s in speakers for utt in s.tests}
    got = _run_evaluate(tmp_path, enroll, test, _full_grid_trials(enroll, test), k)

    k_text = "all" if k is None else k
    (tmp_path / "sim.ini").write_text(
        f"[run]\nseed = {seed}\n[evaluate]\ngender_partition = true\n"
        "[simulate]\nn_speakers = 8\nutterances_per_speaker = 4\ndim = 12\n"
        "cluster_std = 0.3\npool_size = 20\nstrategies = nearest\nm_grid = 3\n"
        f"k_grid = {k_text}\nrepetitions = 1\ninclude_baseline = true\n"
    )
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", str(tmp_path / "sim.ini"), "--out-dir", str(sim_out)]) == 0
    rows = [json.loads(line) for line in (sim_out / "benchmark_report.jsonl").read_text().splitlines()]
    baseline = {r["partition"]: r for r in rows if r.get("condition") == "none"}

    before = protocol_trials(*grid_pools(speakers), k, True).before
    assert list(got) == list(baseline) == list(before) == ["pooled", "female", "male"]
    for name, result in before.items():
        r = got[name]
        assert (r["eer"], r["threshold"]) == (result.eer, result.threshold)
        assert (r["n_target"], r["n_nontarget"]) == (result.n_target, result.n_nontarget)
        assert baseline[name]["k"] == k_text
        assert baseline[name]["eer_before"] == baseline[name]["eer_after"] == r["eer"]


class TestEngine:
    def test_cosine_matrix_against_pairs(self, speakers):
        a = np.stack([s.enroll.vector for s in speakers])
        b = np.stack([u.vector for u in speakers[0].tests])
        grid = cosine_matrix(a, b)
        assert grid.shape == (len(speakers), len(speakers[0].tests))
        for i, s in enumerate(speakers):
            for j, u in enumerate(speakers[0].tests):
                ref = float(np.dot(s.enroll.vector, u.vector)) / (
                    np.linalg.norm(s.enroll.vector) * np.linalg.norm(u.vector)
                )
                assert abs(grid[i, j] - ref) < 1e-12
        assert np.all(np.abs(cosine_matrix(a, a)) <= 1.0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine_matrix(a, b[:, :-1])

    def test_nearest_k_mask_ties_by_id_and_skips_own_id(self):
        sims = np.array([[0.5, 0.9, 0.9, 0.1], [0.2, 0.2, 0.2, 0.9]])
        ids = ["c", "b", "a", "d"]
        mask = nearest_k_mask(sims, ["a", "z"], ids, 2)
        # Row "a" excludes column "a"; "b" (0.9) then "c" (0.5).
        assert mask[0].tolist() == [True, True, False, False]
        # Row "z": "d" (0.9), then the lowest id of the 0.2 tie.
        assert mask[1].tolist() == [False, False, True, True]

    def test_nearest_k_mask_all_others_and_limits(self):
        sims = np.zeros((1, 3))
        assert nearest_k_mask(sims, ["b"], ["a", "b", "c"], None).tolist() == [[True, False, True]]
        with pytest.raises(ValueError, match="exceeds"):
            nearest_k_mask(sims, ["b"], ["a", "b", "c"], 3)
        with pytest.raises(ValueError, match="no non-target"):
            nearest_k_mask(np.zeros((1, 1)), ["a"], ["a"], None)

    def test_score_trials_keeps_targets_and_nearest_speakers(self, speakers):
        enroll = EmbeddingPool(s.enroll for s in speakers)
        test = EmbeddingPool(utt for s in speakers for utt in s.tests)
        rows, cols = np.divmod(np.arange(len(enroll) * len(test)), len(test))
        is_target = np.array([speaker_of(test.ids[c]) == enroll.ids[r] for r, c in zip(rows, cols)])
        full = score_trials(enroll, test, rows, cols, is_target, None, False)
        assert len(full) == rows.size
        assert np.array_equal(full.scores, cosine_matrix(enroll.vectors, test.vectors).ravel())
        nearest = score_trials(enroll, test, rows, cols, is_target, 1, False)
        assert np.array_equal(nearest.rows[nearest.is_target], rows[is_target])
        for i, enroll_id in enumerate(enroll.ids):
            non = nearest.cols[(nearest.rows == i) & ~nearest.is_target]
            chosen = {speaker_of(test.ids[c]) for c in non}
            assert len(chosen) == 1 and len(non) == 4
            if enroll_id == "spk002":
                # spk009 and spk010 tie exactly with spk002; the lower id wins.
                assert chosen == {"spk009"}
        assert len(nearest) == is_target.sum() + len(enroll) * 4

    def test_partition_with_an_empty_side_is_left_out(self):
        rows = np.array([0, 0, 1, 1])
        cols = np.array([0, 1, 1, 2])
        is_target = np.array([True, False, True, False])
        # The female enrollee's only non-target trial is against a male
        # column, so "female" has no non-target side.
        parts = partition_masks(
            rows, cols, is_target, ["female", "male"], ["female", "male", "male"], True
        )
        assert [name for name, _, _ in parts] == ["pooled", "male"]
        _, tar, non = parts[1]
        assert tar.tolist() == [False, False, True, False]
        assert non.tolist() == [False, False, False, True]
