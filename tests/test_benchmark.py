import numpy as np
import pytest

import voxanon.benchmark as benchmark
from voxanon import (
    AnonymizationSpec,
    EvalProtocol,
    apply_spec,
    cosine_similarity,
    dissimilarity,
    make_cluster_speakers,
    make_random_pool,
    make_similarity_ladder_pool,
    mean_embedding,
    pool_similarities,
    run_anonymization_benchmark,
)
from voxanon.embeddings import SpeakerEmbedding


@pytest.fixture(scope="module")
def speakers():
    return make_cluster_speakers(10, 6, 32, 0.05, seed=100)


@pytest.fixture(scope="module")
def pool():
    return make_random_pool(80, 32, seed=101)


class TestSyntheticGenerators:
    def test_cluster_enroll_is_mean_of_tests(self, speakers):
        for speaker in speakers:
            expected = mean_embedding(speaker.tests, new_id="m")
            assert np.array_equal(speaker.enroll.vector, expected.vector)

    def test_cluster_genders_alternate(self, speakers):
        genders = [s.gender for s in speakers]
        assert set(genders) == {"female", "male"}

    def test_random_pool_unit_norm(self, pool):
        norms = np.linalg.norm(pool.vectors, axis=1)
        assert np.allclose(norms, 1.0, rtol=0, atol=1e-12)

    def test_ladder_pool_covers_range(self):
        original = SpeakerEmbedding("o", [0.6, 0.8, 0.0])
        ladder = make_similarity_ladder_pool(original, 50, 0.0, 0.95)
        sims = pool_similarities(ladder, original)
        assert abs(sims.min() - 0.0) < 1e-9
        assert abs(sims.max() - 0.95) < 1e-9
        assert np.all(np.diff(np.sort(sims)) > 0)

    def test_ladder_pool_bad_range(self):
        original = SpeakerEmbedding("o", [1.0, 0.0])
        with pytest.raises(ValueError):
            make_similarity_ladder_pool(original, 10, 0.9, 0.2)


class TestProtocol:
    def test_validation(self):
        with pytest.raises(ValueError, match="repetitions"):
            EvalProtocol(repetitions=0)
        with pytest.raises(ValueError, match="nearest_k"):
            EvalProtocol(nearest_k=0)


class TestBenchmark:
    def test_identity_condition_before_equals_after(self, speakers):
        result = run_anonymization_benchmark(
            speakers, speakers, None, None, EvalProtocol()
        )
        assert result.label == "none"
        for part in result.partitions:
            assert part.before.eer == part.mean_after

    def test_report_is_deterministic(self, speakers, pool):
        spec = AnonymizationSpec("random", n_select=8, seed=2024)
        protocol = EvalProtocol(repetitions=3, gender_partition=True)
        a = run_anonymization_benchmark(speakers, speakers, pool, spec, protocol)
        b = run_anonymization_benchmark(speakers, speakers, pool, spec, protocol)
        assert a.to_records() == b.to_records()
        assert a.events == b.events

    def test_anonymization_raises_eer_on_separable_clusters(self, speakers, pool):
        spec = AnonymizationSpec("random", n_select=10, seed=7)
        protocol = EvalProtocol(repetitions=3)
        result = run_anonymization_benchmark(speakers, speakers, pool, spec, protocol)
        assert result.pooled.before.eer <= 0.05
        assert result.pooled.mean_after > result.pooled.before.eer

    def test_provenance_recomputes_to_reported_range(self, speakers, pool):
        spec = AnonymizationSpec("random", n_select=6, seed=55)
        protocol = EvalProtocol(repetitions=4)
        result = run_anonymization_benchmark(speakers, speakers, pool, spec, protocol)
        by_id = {s.id: s for s in speakers}
        recomputed = []
        for event in result.events:
            pseudo = mean_embedding([pool.get(i) for i in sorted(event.selected_ids)])
            value = dissimilarity(by_id[event.speaker_id].enroll, pseudo)
            assert value == event.dissimilarity
            recomputed.append(value)
        assert result.dissimilarity_range == (min(recomputed), max(recomputed))

    def test_nearest_k_all_equals_unfiltered(self, speakers, pool):
        spec = AnonymizationSpec("nearest", n_select=5)
        unfiltered = run_anonymization_benchmark(
            speakers, speakers, pool, spec, EvalProtocol(nearest_k=None)
        )
        k_all = run_anonymization_benchmark(
            speakers, speakers, pool, spec, EvalProtocol(nearest_k=len(speakers) - 1)
        )
        assert unfiltered.pooled.before.eer == k_all.pooled.before.eer
        assert unfiltered.pooled.mean_after == k_all.pooled.mean_after

    def test_nearest_k_restricts_nontargets(self, speakers, pool):
        spec = AnonymizationSpec("nearest", n_select=5)
        result = run_anonymization_benchmark(
            speakers, speakers, pool, spec, EvalProtocol(nearest_k=2)
        )
        per_target_nontarget_utts = 2 * 6  # K speakers x utterances each
        expected = len(speakers) * per_target_nontarget_utts
        assert result.pooled.before.n_nontarget == expected

    def test_gender_partitions_present(self, speakers, pool):
        spec = AnonymizationSpec("random", n_select=4, seed=3)
        result = run_anonymization_benchmark(
            speakers, speakers, pool, spec,
            EvalProtocol(repetitions=2, gender_partition=True),
        )
        names = [p.partition for p in result.partitions]
        assert names == ["pooled", "female", "male"]

    def test_seed_isolation_per_speaker(self, speakers, pool):
        # Dropping one speaker must not change the draws of the others.
        spec = AnonymizationSpec("random", n_select=6, seed=99)
        protocol = EvalProtocol(repetitions=2)
        full = run_anonymization_benchmark(speakers, speakers, pool, spec, protocol)
        reduced = run_anonymization_benchmark(
            speakers[:-1], speakers, pool, spec, protocol
        )
        full_events = {
            (e.repetition, e.speaker_id): e.selected_ids for e in full.events
        }
        for event in reduced.events:
            assert full_events[(event.repetition, event.speaker_id)] == event.selected_ids

    def test_record_fields(self, speakers, pool):
        spec = AnonymizationSpec("random", n_select=4, seed=1)
        result = run_anonymization_benchmark(
            speakers, speakers, pool, spec, EvalProtocol(repetitions=2)
        )
        record = result.to_records()[0]
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
        result = run_anonymization_benchmark(
            speakers, speakers, pool, spec, EvalProtocol(repetitions=1)
        )
        assert result.pooled.mean_after > result.pooled.before.eer
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
        result = run_anonymization_benchmark(
            speakers, speakers, pool, spec, EvalProtocol(repetitions=reps)
        )
        draws = reps if spec.strategy == "random" else 1
        assert len(calls) == draws * len(speakers)
        assert [e.repetition for e in result.events] == [
            rep for rep in range(reps) for _ in speakers
        ]
        for event in result.events:
            assert (event.seed is None) == (spec.strategy != "random")


class TestSharedGridWork:
    SPECS = [
        AnonymizationSpec("random", n_select=5, seed=9),
        AnonymizationSpec("nearest", n_select=5),
        AnonymizationSpec("range", target_similarity=0.0, half_width=0.3),
    ]

    @pytest.mark.parametrize("nearest_k", [None, 2])
    def test_shared_trials_and_draws_match_a_lone_condition(self, speakers, pool, nearest_k):
        protocol = EvalProtocol(nearest_k=nearest_k, repetitions=2, gender_partition=True)
        trials = benchmark.protocol_trials(speakers, speakers, protocol)
        for spec in self.SPECS:
            draws = benchmark.draw_pseudo_speakers(speakers, pool, spec, protocol.repetitions)
            shared = run_anonymization_benchmark(
                speakers, speakers, pool, spec, protocol, trials=trials, draws=draws
            )
            alone = run_anonymization_benchmark(speakers, speakers, pool, spec, protocol)
            assert shared.to_records() == alone.to_records()
            assert shared.events == alone.events

    def test_mismatched_draws_rejected(self, speakers, pool):
        draws = benchmark.draw_pseudo_speakers(speakers, pool, self.SPECS[1], 2)
        for spec, reps in ((self.SPECS[1], 3), (AnonymizationSpec("nearest", n_select=4), 2)):
            with pytest.raises(ValueError, match="do not match"):
                run_anonymization_benchmark(
                    speakers, speakers, pool, spec, EvalProtocol(repetitions=reps), draws=draws
                )

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
        # Per K: the "before" EERs once, then every repetition of both specs.
        assert counts["compute_eer"] == ks * (parts + 2 * reps * parts)
