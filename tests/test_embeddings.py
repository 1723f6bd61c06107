import numpy as np
import pytest

from voxanon import (
    AnonymizationSpec,
    EmbeddingPool,
    SpeakerEmbedding,
    apply_spec,
    cosine_similarity,
    dissimilarity,
    load_pool,
    mean_embedding,
    pool_similarities,
    rank_by_similarity,
    save_pool,
)
from voxanon.errors import DataError

from _oracles import cosine_fsum
from conftest import random_embedding


class TestCosineSimilarity:
    def test_self_similarity_is_one(self, rng):
        for i in range(50):
            e = random_embedding(rng, int(rng.integers(1, 40)), f"v{i}")
            assert abs(cosine_similarity(e, e) - 1.0) < 1e-12

    def test_orthogonal(self):
        a = SpeakerEmbedding("a", [1.0, 0.0])
        b = SpeakerEmbedding("b", [0.0, 1.0])
        assert cosine_similarity(a, b) == 0.0

    def test_known_value_against_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        expected = float(
            (mpmath.mpf(1)) / (mpmath.sqrt(mpmath.mpf(2)) * mpmath.mpf(1))
        )
        a = SpeakerEmbedding("a", [1.0, 1.0])
        b = SpeakerEmbedding("b", [1.0, 0.0])
        got = cosine_similarity(a, b)
        assert abs(got - expected) < 1e-12
        # Agrees with the 8-decimal reference value to rounding.
        assert round(got, 8) == 0.70710678

    def test_symmetry(self, rng):
        for i in range(100):
            a = random_embedding(rng, 16, f"a{i}")
            b = random_embedding(rng, 16, f"b{i}")
            assert cosine_similarity(a, b) == cosine_similarity(b, a)

    def test_scale_invariance(self, rng):
        for i in range(50):
            a = random_embedding(rng, 12, f"a{i}")
            c = float(rng.uniform(1e-6, 1e6))
            scaled = SpeakerEmbedding("scaled", c * a.vector)
            assert abs(cosine_similarity(a, scaled) - 1.0) < 1e-12

    def test_range(self, rng):
        for i in range(100):
            a = random_embedding(rng, 8, f"a{i}")
            b = random_embedding(rng, 8, f"b{i}")
            assert -1.0 <= cosine_similarity(a, b) <= 1.0

    def test_dimension_mismatch(self):
        a = SpeakerEmbedding("a", [1.0, 0.0])
        b = SpeakerEmbedding("b", [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine_similarity(a, b)

    def test_zero_norm_rejected_at_construction(self):
        with pytest.raises(ValueError, match="zero norm"):
            SpeakerEmbedding("z", [0.0, 0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            SpeakerEmbedding("n", [1.0, np.nan])


class TestDissimilarity:
    def test_identical(self):
        v = SpeakerEmbedding("v", [0.3, -0.2, 0.9])
        assert dissimilarity(v, v) < 1e-12

    def test_antipodal(self):
        a = SpeakerEmbedding("a", [1.0, 0.0])
        b = SpeakerEmbedding("b", [-1.0, 0.0])
        assert dissimilarity(a, b) == 2.0

    def test_orthogonal(self):
        a = SpeakerEmbedding("a", [1.0, 0.0])
        b = SpeakerEmbedding("b", [0.0, 1.0])
        assert dissimilarity(a, b) == 1.0

    def test_range(self, rng):
        for i in range(100):
            a = random_embedding(rng, 6, f"a{i}")
            b = random_embedding(rng, 6, f"b{i}")
            assert 0.0 <= dissimilarity(a, b) <= 2.0


class TestMeanEmbedding:
    def test_singleton(self):
        v = SpeakerEmbedding("v", [0.1, 0.2, 0.3])
        assert np.array_equal(mean_embedding([v]).vector, v.vector)

    def test_pair(self):
        a = SpeakerEmbedding("a", [1.0, 0.0])
        b = SpeakerEmbedding("b", [0.0, 1.0])
        assert np.array_equal(mean_embedding([a, b]).vector, [0.5, 0.5])

    def test_duplicates_exact_for_any_count(self, rng):
        # Averaging k copies of v must return v bit for bit, including
        # awkward counts like 3 and 7 where naive summation rounds.
        for k in [1, 2, 3, 5, 7, 11, 100]:
            v = random_embedding(rng, 16, "v")
            copies = [SpeakerEmbedding(f"c{i}", v.vector) for i in range(k)]
            assert np.array_equal(mean_embedding(copies).vector, v.vector), k

    def test_provenance_id(self):
        a = SpeakerEmbedding("a", [1.0])
        b = SpeakerEmbedding("b", [3.0])
        result = mean_embedding([a, b])
        assert "a" in result.id and "b" in result.id

    def test_empty_set(self):
        with pytest.raises(ValueError, match="empty"):
            mean_embedding([])

    def test_dim_mismatch(self):
        a = SpeakerEmbedding("a", [1.0, 0.0])
        b = SpeakerEmbedding("b", [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            mean_embedding([a, b])

    def test_zero_norm_mean(self):
        a = SpeakerEmbedding("a", [1.0, 0.0])
        b = SpeakerEmbedding("b", [-1.0, 0.0])
        with pytest.raises(ValueError, match="zero norm"):
            mean_embedding([a, b])


def _toy_pool():
    return EmbeddingPool(
        [
            SpeakerEmbedding("east", [1.0, 0.0]),
            SpeakerEmbedding("north", [0.0, 1.0]),
            SpeakerEmbedding("west", [-1.0, 0.0]),
        ]
    )


def _ranked(pool, query):
    # The nearest-first ranking that nearest selection takes its picks from.
    sims = pool_similarities(pool, query)
    return [(pool.ids[i], float(sims[i])) for i in rank_by_similarity(sims[None, :], pool.ids)[0]]


class TestNearestNeighbors:
    def test_single_most_similar(self):
        pool = _toy_pool()
        query = SpeakerEmbedding("q", [1.0, 0.0])
        assert _ranked(pool, query)[:1] == [("east", 1.0)]

    def test_full_pool_is_sorted_permutation(self, rng):
        entries = [random_embedding(rng, 8, f"e{i:02d}") for i in range(12)]
        pool = EmbeddingPool(entries)
        query = random_embedding(rng, 8, "q")
        ranked = _ranked(pool, query)
        assert sorted(identifier for identifier, _ in ranked) == sorted(pool.ids)
        sims = [s for _, s in ranked]
        assert all(sims[i] >= sims[i + 1] for i in range(len(sims) - 1))

    def test_matches_bruteforce_oracle(self, rng):
        entries = [random_embedding(rng, 10, f"e{i:02d}") for i in range(20)]
        pool = EmbeddingPool(entries)
        query = random_embedding(rng, 10, "q")
        expected = sorted(
            ((entry.id, cosine_fsum(query.vector, entry.vector)) for entry in entries),
            key=lambda p: (-p[1], p[0]),
        )[:5]
        got = _ranked(pool, query)[:5]
        assert [identifier for identifier, _ in got] == [e[0] for e in expected]
        for (_, s_got), (_, s_exp) in zip(got, expected):
            assert abs(s_got - s_exp) < 1e-12

    def test_ties_break_by_ascending_id(self):
        pool = EmbeddingPool(
            [
                SpeakerEmbedding("zeta", [1.0, 0.0]),
                SpeakerEmbedding("alpha", [2.0, 0.0]),
                SpeakerEmbedding("mid", [0.0, 1.0]),
            ]
        )
        query = SpeakerEmbedding("q", [1.0, 0.0])
        ranked = _ranked(pool, query)[:2]
        assert [identifier for identifier, _ in ranked] == ["alpha", "zeta"]

    def test_count_exceeds_pool(self):
        spec = AnonymizationSpec("nearest", n_select=4)
        with pytest.raises(ValueError, match="exceeds pool size"):
            apply_spec(_toy_pool(), spec, SpeakerEmbedding("q", [1.0, 0.0]))


class TestPool:
    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate id"):
            EmbeddingPool(
                [SpeakerEmbedding("a", [1.0]), SpeakerEmbedding("a", [2.0])]
            )

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            EmbeddingPool(
                [SpeakerEmbedding("a", [1.0]), SpeakerEmbedding("b", [1.0, 2.0])]
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            EmbeddingPool([])


class TestPoolIo:
    def test_roundtrip_is_identity(self, rng, tmp_path):
        entries = []
        for i in range(10):
            metadata = {"gender": "female" if i % 2 else "male", "source": f"set{i}"}
            entries.append(
                SpeakerEmbedding(f"spk{i:02d}", rng.standard_normal(32), metadata)
            )
        pool = EmbeddingPool(entries)
        path = tmp_path / "pool.jsonl"
        save_pool(path, pool)
        loaded = load_pool(path)
        assert loaded.ids == pool.ids
        assert loaded.dim == pool.dim
        for original, copy in zip(pool, loaded):
            assert np.array_equal(original.vector, copy.vector)
            assert original.metadata == copy.metadata

    def test_double_roundtrip_bytes_stable(self, rng, tmp_path):
        pool = EmbeddingPool([random_embedding(rng, 8, f"e{i}") for i in range(4)])
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        save_pool(first, pool)
        save_pool(second, load_pool(first))
        assert first.read_bytes() == second.read_bytes()

    def test_mixed_dims_error_names_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"dim": 2, "count": 2}\n'
            '{"id": "ok", "vec": [1.0, 0.0]}\n'
            '{"id": "short", "vec": [1.0]}\n'
        )
        with pytest.raises(DataError, match="short"):
            load_pool(path)

    def test_duplicate_id_error_names_id(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"dim": 1, "count": 2}\n'
            '{"id": "twin", "vec": [1.0]}\n'
            '{"id": "twin", "vec": [2.0]}\n'
        )
        with pytest.raises(DataError, match="twin"):
            load_pool(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "mangled.jsonl"
        path.write_text('{"dim": 1, "count": 1}\nnot json at all\n')
        with pytest.raises(DataError, match="line 2"):
            load_pool(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "count.jsonl"
        path.write_text('{"dim": 1, "count": 3}\n{"id": "only", "vec": [1.0]}\n')
        with pytest.raises(DataError, match="declares 3"):
            load_pool(path)
