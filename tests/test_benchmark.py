import json

import numpy as np
import pytest

import voxanon.benchmark as benchmark
from voxanon import (
    AnonymizationSpec,
    EvalSpeaker,
    apply_spec,
    cosine_matrix,
    make_cluster_speakers,
    make_random_pool,
    run_anonymization_benchmark,
)
from voxanon.embeddings import SpeakerEmbedding

from _oracles import cosine, mean_of
from conftest import grid_pools, make_similarity_ladder_pool


@pytest.fixture(scope="module")
def speakers():
    return make_cluster_speakers(10, 6, 32, 0.05, seed=100)


@pytest.fixture(scope="module")
def pool():
    return make_random_pool(80, 32, seed=101)


def run_condition(speakers, pool, spec, nearest_k=None, repetitions=1, gender_partition=False):
    enroll, test = grid_pools(speakers)
    trials = benchmark.protocol_trials(enroll, test, nearest_k, gender_partition)
    if spec is None:
        return run_anonymization_benchmark(trials)
    return run_anonymization_benchmark(
        trials, benchmark.draw_pseudo_speakers(enroll, pool, spec, repetitions)
    )


class TestSyntheticGenerators:
    def test_cluster_enroll_is_mean_of_tests(self, speakers):
        for speaker in speakers:
            expected = mean_of(speaker.tests)
            assert np.array_equal(speaker.enroll.vector, expected.vector)

    def test_cluster_genders_alternate(self, speakers):
        genders = [s.enroll.gender for s in speakers]
        assert set(genders) == {"female", "male"}

    def test_random_pool_unit_norm(self, pool):
        norms = np.linalg.norm(pool.vectors, axis=1)
        assert np.allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_ladder_pool_covers_range(self):
        original = SpeakerEmbedding("o", [0.6, 0.8, 0.0])
        ladder = make_similarity_ladder_pool(original, 50, 0.0, 0.95)
        sims = cosine_matrix(original.vector[None, :], ladder)[0]
        assert abs(sims.min() - 0.0) < 1e-9
        assert abs(sims.max() - 0.95) < 1e-9
        assert np.all(np.diff(np.sort(sims)) > 0)

    def test_ladder_pool_bad_range(self):
        original = SpeakerEmbedding("o", [1.0, 0.0])
        with pytest.raises(ValueError):
            make_similarity_ladder_pool(original, 10, 0.9, 0.2)


class TestProtocol:
    def test_validation(self, speakers, pool):
        spec = AnonymizationSpec("nearest", n_select=5)
        enroll, test = grid_pools(speakers)
        with pytest.raises(ValueError, match="repetitions"):
            benchmark.draw_pseudo_speakers(enroll, pool, spec, 0)
        with pytest.raises(ValueError, match="k must be at least 1"):
            benchmark.protocol_trials(enroll, test, 0, False)

    def test_one_speaker_rejected(self, speakers):
        with pytest.raises(ValueError, match="at least two speakers"):
            benchmark.protocol_trials(*grid_pools(speakers[:1]), None, False)

    def test_utterance_ids_must_name_the_speaker(self, speakers):
        # Nearest-K groups test utterances into speakers by their ids.
        speaker = speakers[0]
        with pytest.raises(ValueError, match="does not name speaker 'other'"):
            EvalSpeaker("other", speaker.enroll, speaker.tests)


class TestBenchmark:
    def test_identity_condition_before_equals_after(self, speakers):
        result = run_condition(speakers, None, None)
        assert result.label == "none"
        for name, before in result.before.items():
            assert before.eer == result.mean_after(name)

    def test_report_is_deterministic(self, speakers, pool):
        spec = AnonymizationSpec("random", n_select=8, seed=2024)
        a = run_condition(speakers, pool, spec, repetitions=3, gender_partition=True)
        b = run_condition(speakers, pool, spec, repetitions=3, gender_partition=True)
        assert benchmark.report_records([a], {})[1:] == benchmark.report_records([b], {})[1:]
        assert list(benchmark.report_provenance([a])) == list(benchmark.report_provenance([b]))

    def test_anonymization_raises_eer_on_separable_clusters(self, speakers, pool):
        spec = AnonymizationSpec("random", n_select=10, seed=7)
        result = run_condition(speakers, pool, spec, repetitions=3)
        assert result.before["pooled"].eer <= 0.05
        assert result.mean_after("pooled") > result.before["pooled"].eer

    def test_provenance_recomputes_to_reported_range(self, speakers, pool):
        spec = AnonymizationSpec("random", n_select=6, seed=55)
        result = run_condition(speakers, pool, spec, repetitions=4)
        by_id = {s.id: s for s in speakers}
        recomputed = []
        for _, speaker_id, drawn in result.draws.events():
            pseudo = mean_of([pool.get(i) for i in sorted(drawn.selected_ids)])
            value = 1.0 - cosine(by_id[speaker_id].enroll, pseudo)
            assert value == drawn.measured_dissimilarity
            recomputed.append(value)
        assert result.dissimilarity_range == (min(recomputed), max(recomputed))

    def test_nearest_k_all_equals_unfiltered(self, speakers, pool):
        spec = AnonymizationSpec("nearest", n_select=5)
        unfiltered = run_condition(speakers, pool, spec, nearest_k=None)
        k_all = run_condition(speakers, pool, spec, nearest_k=len(speakers) - 1)
        assert unfiltered.before["pooled"].eer == k_all.before["pooled"].eer
        assert unfiltered.mean_after("pooled") == k_all.mean_after("pooled")

    def test_nearest_k_restricts_nontargets(self, speakers, pool):
        spec = AnonymizationSpec("nearest", n_select=5)
        result = run_condition(speakers, pool, spec, nearest_k=2)
        per_target_nontarget_utts = 2 * 6  # K speakers x utterances each
        expected = len(speakers) * per_target_nontarget_utts
        assert result.before["pooled"].n_nontarget == expected

    def test_gender_partitions_present(self, speakers, pool):
        spec = AnonymizationSpec("random", n_select=4, seed=3)
        result = run_condition(speakers, pool, spec, repetitions=2, gender_partition=True)
        names = list(result.before)
        assert names == ["pooled", "female", "male"]

    def test_seed_isolation_per_speaker(self, speakers, pool):
        # Dropping one speaker must not change the draws of the others.
        spec = AnonymizationSpec("random", n_select=6, seed=99)
        full = benchmark.draw_pseudo_speakers(grid_pools(speakers)[0], pool, spec, 2)
        reduced = benchmark.draw_pseudo_speakers(grid_pools(speakers[:-1])[0], pool, spec, 2)
        full_events = {
            (rep, speaker_id): pseudo.selected_ids for rep, speaker_id, pseudo in full.events()
        }
        for rep, speaker_id, pseudo in reduced.events():
            assert full_events[(rep, speaker_id)] == pseudo.selected_ids

    def test_record_fields(self, speakers, pool):
        spec = AnonymizationSpec("random", n_select=4, seed=1)
        result = run_condition(speakers, pool, spec, repetitions=2)
        record = benchmark.report_records([result], {})[1]
        for key in ("condition", "k", "m", "s", "eer_before", "eer_after",
                    "dis_min", "dis_max", "seeds"):
            assert key in record
        assert record["k"] == "all"
        assert len(record["seeds"]) == 2

    def test_range_strategy_in_benchmark(self, speakers):
        # A ladder pool around the first speaker gives every target a
        # nonempty window only if it covers each one's geometry, so build
        # windows wide enough to hold candidates for all targets.
        pool = make_random_pool(400, 32, seed=9)
        spec = AnonymizationSpec("range", target_similarity=0.0, half_width=0.3)
        result = run_condition(speakers, pool, spec)
        assert result.mean_after("pooled") > result.before["pooled"].eer
        low, high = result.dissimilarity_range
        assert 0.0 <= low <= high <= 2.0

    @pytest.mark.parametrize("spec", [
        AnonymizationSpec("random", n_select=5, seed=9),
        AnonymizationSpec("nearest", n_select=5),
        AnonymizationSpec("range", target_similarity=0.0, half_width=0.3),
    ], ids=lambda spec: spec.strategy)
    def test_deterministic_strategies_draw_once(self, speakers, pool, monkeypatch, spec):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return apply_spec(*args, **kwargs)

        monkeypatch.setattr(benchmark, "apply_spec", counted)
        reps = 3
        result = run_condition(speakers, pool, spec, repetitions=reps)
        draws = reps if spec.strategy == "random" else 1
        assert len(calls) == draws * len(speakers)
        events = list(result.draws.events())
        assert [rep for rep, _, _ in events] == [
            rep for rep in range(reps) for _ in speakers
        ]
        for _, _, pseudo in events:
            assert (pseudo.spec.seed is None) == (spec.strategy != "random")


class TestSharedGridWork:
    def test_simulate_draws_and_scores_once_for_the_k_grid(self, tmp_path, monkeypatch):
        from voxanon.cli import main

        counts = {"apply_spec": 0, "compute_eer": 0}

        def counted(name):
            inner = getattr(benchmark, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(benchmark, name, counted(name))
        n, reps, ks, parts = 6, 2, 2, 3
        path = tmp_path / "sim.ini"
        path.write_text(
            "[run]\nseed = 4\n"
            f"[simulate]\nn_speakers = {n}\nutterances_per_speaker = 3\ndim = 16\n"
            f"pool_size = 30\nstrategies = random, nearest\nm_grid = 3\nrepetitions = {reps}\n"
            "k_grid = all, 2\n"
        )
        assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 0
        # random draws per repetition, nearest once; neither per K.
        assert counts["apply_spec"] == reps * n + n
        # Per K: the "before" EERs once, then each distinct draw once: every
        # random repetition, and nearest's one draw shared by its repetitions.
        assert counts["compute_eer"] == ks * (parts + reps * parts + parts)


class TestSimulateFiles:
    def test_provenance_and_repetition_layout(self, tmp_path):
        from voxanon.cli import main

        n, reps = 6, 2
        path = tmp_path / "sim.ini"
        path.write_text(
            "[run]\nseed = 4\n"
            f"[simulate]\nn_speakers = {n}\nutterances_per_speaker = 3\ndim = 16\n"
            f"pool_size = 30\nstrategies = random, nearest\nm_grid = 3\nrepetitions = {reps}\n"
            "k_grid = all, 2\n"
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0

        def rows(name):
            return [json.loads(line) for line in (out / name).read_text().splitlines()]

        provenance = rows("benchmark_provenance.jsonl")
        labels = ["random(m=3)", "nearest(m=3)"]
        assert [(r["condition"], r["k"], r["repetition"], r["speaker_id"]) for r in provenance] == [
            (label, k, rep, f"spk{i:03d}")
            for k in (None, 2) for label in labels for rep in range(reps) for i in range(n)
        ]
        for row in provenance:
            assert set(row) == {
                "condition", "k", "repetition", "speaker_id", "seed", "selected_ids", "dissimilarity",
            }
        by_key = {(r["condition"], r["k"], r["repetition"], r["speaker_id"]): r for r in provenance}
        for k in (None, 2):
            for i in range(n):
                first, second = (by_key[("nearest(m=3)", k, rep, f"spk{i:03d}")] for rep in (0, 1))
                assert first["seed"] is None and second["seed"] is None
                assert first["selected_ids"] == second["selected_ids"]
                first, second = (by_key[("random(m=3)", k, rep, f"spk{i:03d}")] for rep in (0, 1))
                assert None not in (first["seed"], second["seed"])
                assert first["seed"] != second["seed"]

        report = rows("benchmark_report.jsonl")[1:]
        assert {r["condition"] for r in report} == {"none", *labels}
        for row in report:
            # The identity condition has one "after", its "before".
            expected = 1 if row["condition"] == "none" else reps
            assert len(row["eer_after_reps"]) == expected
            assert (row["seeds"] == []) == (row["condition"] != "random(m=3)")
            if row["condition"] == "random(m=3)":
                assert len(row["seeds"]) == reps
