import numpy as np
import pytest

from voxanon import (
    AnonymizationSpec,
    EmbeddingPool,
    SpeakerEmbedding,
    apply_spec,
    cosine_matrix,
    derive_seed,
)
from voxanon.anonymize import SELECTION_ALGORITHM, _sample_without_replacement

from _oracles import _sample_without_replacement as oracle_sample
from _oracles import cosine, mean_of, select_pseudo_speaker
from conftest import make_similarity_ladder_pool, random_embedding


def _pool(rng, size, dim=8):
    return EmbeddingPool([random_embedding(rng, dim, f"p{i:03d}") for i in range(size)])


def _random(pool, n_select, seed):
    # The draw does not depend on the original speaker, only its similarity does.
    original = SpeakerEmbedding("orig", np.ones(pool.dim))
    return apply_spec(pool, AnonymizationSpec("random", n_select=n_select, seed=seed), original)


def _range(pool, original, target_similarity, half_width):
    spec = AnonymizationSpec(
        "range", target_similarity=target_similarity, half_width=half_width
    )
    return apply_spec(pool, spec, original)


def _nearest(pool, original, n_select):
    return apply_spec(pool, AnonymizationSpec("nearest", n_select=n_select), original)


class TestSpecValidation:
    def test_random_requires_count_and_seed(self):
        with pytest.raises(ValueError, match="n_select"):
            AnonymizationSpec("random", seed=1)
        with pytest.raises(ValueError, match="seed"):
            AnonymizationSpec("random", n_select=3)

    def test_range_requires_window(self):
        with pytest.raises(ValueError, match="target_similarity"):
            AnonymizationSpec("range", half_width=0.1)
        with pytest.raises(ValueError, match="half_width"):
            AnonymizationSpec("range", target_similarity=0.5)
        with pytest.raises(ValueError, match="half_width"):
            AnonymizationSpec("range", target_similarity=0.5, half_width=0.0)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            AnonymizationSpec("mystery", n_select=1)


# Every parameter of each strategy set, to see which ones ``of`` keeps.
_EVERY = dict(n_select=5, target_similarity=0.3, half_width=0.125, seed=7)


class TestSpecPolicy:
    def test_of_keeps_only_what_the_strategy_reads(self):
        assert AnonymizationSpec.of("random", **_EVERY) == AnonymizationSpec(
            "random", n_select=5, seed=7
        )
        assert AnonymizationSpec.of("nearest", **_EVERY) == AnonymizationSpec("nearest", n_select=5)
        assert AnonymizationSpec.of("range", **_EVERY) == AnonymizationSpec(
            "range", target_similarity=0.3, half_width=0.125
        )

    def test_of_checks_what_it_keeps(self):
        with pytest.raises(ValueError, match="n_select"):
            AnonymizationSpec.of("nearest", n_select=0, target_similarity=0.3, half_width=0.1)
        with pytest.raises(ValueError, match="seed"):
            AnonymizationSpec.of("random", n_select=3)
        with pytest.raises(ValueError, match="unknown strategy"):
            AnonymizationSpec.of("mystery", **_EVERY)

    def test_derived_seeds(self):
        spec = AnonymizationSpec.of("random", **_EVERY)
        assert spec.derived("anon:p01") == AnonymizationSpec(
            "random", n_select=5, seed=derive_seed(7, "anon:p01")
        )
        assert spec.derived("rep:2").derived("spk003").seed == derive_seed(
            derive_seed(7, "rep:2"), "spk003"
        )

    @pytest.mark.parametrize("strategy", ["nearest", "range"])
    def test_unseeded_spec_derives_to_itself(self, strategy):
        spec = AnonymizationSpec.of(strategy, **_EVERY)
        assert spec.derived("anon:p01") is spec and spec.derived("rep:0") is spec

    @pytest.mark.parametrize("strategy, label, record", [
        ("random", "random(m=5)",
         dict(strategy="random", m=5, s=None, eps=None, seed=7, algorithm=SELECTION_ALGORITHM)),
        ("nearest", "nearest(m=5)",
         dict(strategy="nearest", m=5, s=None, eps=None, seed=None, algorithm=None)),
        ("range", "range(s=0.3,eps=0.125)",
         dict(strategy="range", m=None, s=0.3, eps=0.125, seed=None, algorithm=None)),
    ])
    def test_label_and_record(self, strategy, label, record):
        spec = AnonymizationSpec.of(strategy, **_EVERY)
        assert spec.label == label
        assert spec.record() == record and list(spec.record()) == list(record)
        assert SELECTION_ALGORITHM == "pcg64-fisher-yates-v1"


class TestRandomSelection:
    def test_full_selection_equals_pool_mean_for_any_seed(self, rng):
        pool = _pool(rng, 9)
        pool_mean = mean_of(list(pool)).vector
        for seed in (0, 1, 987654321):
            result = _random(pool, len(pool), seed)
            assert np.array_equal(result.vector, pool_mean)
            assert sorted(result.selected_ids) == sorted(pool.ids)

    def test_single_selection_is_a_pool_member(self, rng):
        pool = _pool(rng, 7)
        result = _random(pool, 1, seed=5)
        member = pool.get(result.selected_ids[0])
        assert np.array_equal(result.vector, member.vector)

    def test_seed_determinism(self, rng):
        pool = _pool(rng, 20)
        a = _random(pool, 6, seed=123)
        b = _random(pool, 6, seed=123)
        assert a.selected_ids == b.selected_ids
        assert np.array_equal(a.vector, b.vector)
        c = _random(pool, 6, seed=124)
        assert a.selected_ids != c.selected_ids

    def test_embedding_recomputable_from_selection(self, rng):
        pool = _pool(rng, 25)
        for seed in range(20):
            result = _random(pool, 10, seed=seed)
            recomputed = mean_of([pool.get(i) for i in result.selected_ids])
            assert np.allclose(
                result.vector, recomputed.vector, rtol=0, atol=1e-12
            )

    def test_marginal_selection_is_uniform(self, rng):
        # Chi-square over the per-entry selection counts across many seeds.
        pool = _pool(rng, 8, dim=4)
        n_seeds, k = 10_000, 3
        counts = {identifier: 0 for identifier in pool.ids}
        for seed in range(n_seeds):
            for identifier in _random(pool, k, seed=seed).selected_ids:
                counts[identifier] += 1
        expected = n_seeds * k / len(pool)
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        # 7 degrees of freedom; > 40 would be a one-in-a-billion event.
        assert chi2 < 40.0, counts

    def test_count_exceeds_pool(self, rng):
        with pytest.raises(ValueError, match="exceeds pool size"):
            _random(_pool(rng, 3), 4, seed=0)


class TestRangeSelection:
    def test_selects_only_matching_angle(self):
        angles = {"deg0": 0.0, "deg60": 60.0, "deg90": 90.0, "deg180": 180.0}
        entries = [
            SpeakerEmbedding(name, [np.cos(np.radians(a)), np.sin(np.radians(a))])
            for name, a in angles.items()
        ]
        pool = EmbeddingPool(entries)
        original = SpeakerEmbedding("orig", [1.0, 0.0])
        result = _range(pool, original, 0.5, 0.01)
        assert result.selected_ids == ("deg60",)
        assert abs(result.measured_dissimilarity - 0.5) < 1e-9

    def test_wide_window_equals_pool_mean(self, rng):
        pool = _pool(rng, 12)
        original = random_embedding(rng, 8, "orig")
        result = _range(pool, original, 0.0, 2.5)
        assert np.array_equal(
            result.vector, mean_of(list(pool)).vector
        )

    def test_empty_window_reports_closest(self):
        pool = EmbeddingPool(
            [
                SpeakerEmbedding("close", [0.8, 0.6]),  # cos = 0.8
                SpeakerEmbedding("far", [0.0, 1.0]),
            ]
        )
        original = SpeakerEmbedding("orig", [1.0, 0.0])
        with pytest.raises(ValueError) as err:
            _range(pool, original, 0.99, 0.001)
        message = str(err.value)
        assert "0.8" in message and "widen" in message

    def test_every_selected_candidate_in_window(self, rng):
        for trial in range(20):
            pool = _pool(rng, 40, dim=6)
            original = random_embedding(rng, 6, f"orig{trial}")
            s = float(rng.uniform(-0.5, 0.5))
            eps = float(rng.uniform(0.2, 0.6))
            try:
                result = _range(pool, original, s, eps)
            except ValueError:
                continue
            for identifier in result.selected_ids:
                sim = cosine(original, pool.get(identifier))
                assert s - eps <= sim <= s + eps

    def test_monotone_dissimilarity_on_dense_pool(self):
        original = SpeakerEmbedding("orig", [1.0, 0.0])
        pool = make_similarity_ladder_pool(original, 400, 0.0, 0.95)
        measured = []
        for s in (0.9, 0.8, 0.6, 0.4):
            result = _range(pool, original, s, 0.05)
            measured.append(result.measured_dissimilarity)
        assert all(measured[i] <= measured[i + 1] for i in range(len(measured) - 1))


class TestNearestSelection:
    def test_single_is_nearest_member(self, rng):
        pool = _pool(rng, 15)
        original = random_embedding(rng, 8, "orig")
        result = _nearest(pool, original, 1)
        sims = [cosine(original, entry) for entry in pool]
        assert result.selected_ids[0] == pool.ids[int(np.argmax(sims))]

    def test_matches_bruteforce_average(self, rng):
        pool = _pool(rng, 50)
        original = random_embedding(rng, 8, "orig")
        result = _nearest(pool, original, 10)
        ranked = sorted(
            pool.ids,
            key=lambda i: (-cosine(original, pool.get(i)), i),
        )[:10]
        assert sorted(result.selected_ids) == sorted(ranked)
        expected = mean_of([pool.get(i) for i in sorted(ranked)])
        assert np.allclose(result.vector, expected.vector, rtol=0, atol=1e-12)

    def test_full_selection_equals_pool_mean(self, rng):
        pool = _pool(rng, 11)
        original = random_embedding(rng, 8, "orig")
        result = _nearest(pool, original, len(pool))
        assert np.array_equal(
            result.vector, mean_of(list(pool)).vector
        )

    def test_strategies_agree_on_full_selection(self, rng):
        pool = _pool(rng, 9)
        original = random_embedding(rng, 8, "orig")
        pool_mean = mean_of(list(pool)).vector
        nearest = _nearest(pool, original, len(pool))
        random = _random(pool, len(pool), seed=777)
        assert np.array_equal(nearest.vector, pool_mean)
        assert np.array_equal(random.vector, pool_mean)

    def test_count_exceeds_pool(self, rng):
        with pytest.raises(ValueError, match="exceeds pool size"):
            _nearest(_pool(rng, 4), random_embedding(rng, 8, "o"), 5)


class TestApplySpec:
    def test_dispatch(self, rng):
        pool = _pool(rng, 10)
        original = random_embedding(rng, 8, "orig")
        random_result = apply_spec(
            pool, AnonymizationSpec("random", n_select=3, seed=1), original
        )
        assert random_result.spec.strategy == "random"
        assert random_result.measured_dissimilarity is not None
        nearest_result = apply_spec(
            pool, AnonymizationSpec("nearest", n_select=3), original
        )
        assert len(nearest_result.selected_ids) == 3

    def test_original_required_for_nearest(self, rng):
        pool = _pool(rng, 10)
        with pytest.raises(TypeError, match="original"):
            apply_spec(pool, AnonymizationSpec("nearest", n_select=3))

    def test_similarity_and_dissimilarity_agree(self, rng):
        pool = _pool(rng, 10)
        original = random_embedding(rng, 8, "orig")
        for spec in (
            AnonymizationSpec("random", n_select=4, seed=2),
            AnonymizationSpec("nearest", n_select=4),
            AnonymizationSpec("range", target_similarity=0.0, half_width=1.5),
        ):
            result = apply_spec(pool, spec, original)
            assert result.spec is spec
            assert result.similarity == cosine(original, result)
            assert result.measured_dissimilarity == 1.0 - cosine(original, result)

    @pytest.mark.parametrize("spec", [
        AnonymizationSpec("random", n_select=4, seed=2),
        AnonymizationSpec("nearest", n_select=4),
        AnonymizationSpec("range", target_similarity=0.0, half_width=1.5),
    ], ids=["random", "nearest", "range"])
    def test_vector_is_read_only(self, rng, spec):
        result = apply_spec(_pool(rng, 10), spec, random_embedding(rng, 8, "orig"))
        assert not result.vector.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            result.vector[0] = 0.0


def _tied_pool(rng, size, dim=6):
    # Random entries plus two exact ties of the first one: a duplicate and
    # a 2x-scaled copy, whose similarities to any query equal its own.
    entries = [random_embedding(rng, dim, f"p{i:03d}") for i in range(size - 2)]
    first = entries[0].vector
    entries.insert(size // 2, SpeakerEmbedding("dup", first))
    entries.append(SpeakerEmbedding("double", 2.0 * first))
    return EmbeddingPool(entries)


def _outcome(select, pool, spec, original):
    try:
        selected, pseudo, measured = select(pool, spec, original)
    except ValueError as exc:
        return type(exc), str(exc)
    return selected, pseudo.vector, measured


class TestAgainstStrategyBodies:
    """`apply_spec` against the separate strategy bodies it replaced."""

    def _check(self, pool, spec, original):
        def new(pool, spec, original):
            result = apply_spec(pool, spec, original)
            return result.selected_ids, result, result.measured_dissimilarity

        got = _outcome(new, pool, spec, original)
        want = _outcome(select_pseudo_speaker, pool, spec, original)
        if isinstance(want[0], type):
            assert got[0] is want[0], (spec, got, want)
            phrase = "widen" if spec.strategy == "range" else "exceeds pool size"
            assert phrase in got[1] and phrase in want[1]
            return False
        assert got[0] == want[0], spec
        assert np.array_equal(got[1], want[1]), spec
        assert got[2] == want[2], spec
        return True

    def test_counted_strategies(self):
        rng = np.random.default_rng(2024)
        for trial in range(12):
            pool = _tied_pool(rng, int(rng.integers(5, 30)))
            original = random_embedding(rng, pool.dim, f"orig{trial}")
            for n in (1, len(pool) // 2, len(pool), len(pool) + 1):
                fits = n <= len(pool)
                assert self._check(pool, AnonymizationSpec("nearest", n_select=n), original) == fits
                for seed in (0, 7, 2**40 + trial):
                    spec = AnonymizationSpec("random", n_select=n, seed=seed)
                    assert self._check(pool, spec, original) == fits

    def test_nearest_keeps_rank_order_with_ties(self):
        rng = np.random.default_rng(5)
        pool = _tied_pool(rng, 9)
        original = pool.get("p000")
        result = apply_spec(pool, AnonymizationSpec("nearest", n_select=3), original)
        assert result.selected_ids == ("double", "dup", "p000")
        assert self._check(pool, AnonymizationSpec("nearest", n_select=3), original)

    def test_range_windows(self):
        rng = np.random.default_rng(99)
        for trial in range(12):
            pool = _tied_pool(rng, int(rng.integers(5, 30)))
            original = random_embedding(rng, pool.dim, f"orig{trial}")
            sims = np.sort(cosine_matrix(original.vector[None, :], pool)[0])
            gaps = np.diff(sims)
            lone = int(np.argmax(np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))))
            widest = int(np.argmax(gaps))
            windows = {
                "full": (0.0, 1.5),
                "single": (float(sims[lone]), 1e-12),
                "empty": (float(sims[widest] + sims[widest + 1]) / 2, float(gaps[widest]) / 4),
            }
            for name, (s, eps) in windows.items():
                spec = AnonymizationSpec("range", target_similarity=s, half_width=eps)
                assert self._check(pool, spec, original) == (name != "empty"), name
                if name != "empty":
                    count = len(apply_spec(pool, spec, original).selected_ids)
                    assert count == {"full": len(pool), "single": 1}[name]


class TestSampleWithoutReplacement:
    # The one-call draw against the scalar loop, one `rng.integers(i, n)` per slot.

    @pytest.mark.parametrize("n", [1, 2, 7, 250, 2**31, 2**32 - 1, 2**32, 2**32 + 3, 2**33, 2**62])
    def test_one_call_draw_equals_scalar_loop(self, n):
        rng = np.random.default_rng(n % 1009)
        for _ in range(20):
            seed = int(rng.integers(0, 2**63))
            for k in sorted({1, min(n, 250), int(rng.integers(1, min(n, 250) + 1))}):
                assert _sample_without_replacement(n, k, seed) == oracle_sample(n, k, seed)
