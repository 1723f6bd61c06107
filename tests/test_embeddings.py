import numpy as np
import pytest

from voxanon import (
    AnonymizationSpec,
    EmbeddingPool,
    SpeakerEmbedding,
    apply_spec,
    centered_mean,
    cosine_matrix,
    load_pool,
    rank_by_similarity,
    save_pool,
)
from voxanon.errors import DataError

from _oracles import cosine_fsum
from conftest import random_embedding


def _cos(a, b):
    return cosine_matrix(a.vector[None, :], b.vector[None, :])[0, 0]


class TestCosineSimilarity:
    """The package's one cosine, ``cosine_matrix``, one pair at a time."""

    def test_self_similarity_is_one(self, rng):
        for i in range(50):
            e = random_embedding(rng, int(rng.integers(1, 40)), f"v{i}")
            assert abs(_cos(e, e) - 1.0) < 1e-12

    def test_orthogonal(self):
        a = SpeakerEmbedding("a", [1.0, 0.0])
        b = SpeakerEmbedding("b", [0.0, 1.0])
        assert _cos(a, b) == 0.0

    def test_known_value_against_high_precision_oracle(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        expected = float(
            (mpmath.mpf(1)) / (mpmath.sqrt(mpmath.mpf(2)) * mpmath.mpf(1))
        )
        a = SpeakerEmbedding("a", [1.0, 1.0])
        b = SpeakerEmbedding("b", [1.0, 0.0])
        got = _cos(a, b)
        assert abs(got - expected) < 1e-12
        # Agrees with the 8-decimal reference value to rounding.
        assert round(got, 8) == 0.70710678

    def test_symmetry(self, rng):
        for i in range(100):
            a = random_embedding(rng, 16, f"a{i}")
            b = random_embedding(rng, 16, f"b{i}")
            assert _cos(a, b) == _cos(b, a)

    def test_scale_invariance(self, rng):
        for i in range(50):
            a = random_embedding(rng, 12, f"a{i}")
            c = float(rng.uniform(1e-6, 1e6))
            scaled = SpeakerEmbedding("scaled", c * a.vector)
            assert abs(_cos(a, scaled) - 1.0) < 1e-12

    def test_range(self, rng):
        for i in range(100):
            a = random_embedding(rng, 8, f"a{i}")
            b = random_embedding(rng, 8, f"b{i}")
            assert -1.0 <= _cos(a, b) <= 1.0

    def test_dimension_mismatch(self):
        a = SpeakerEmbedding("a", [1.0, 0.0])
        b = SpeakerEmbedding("b", [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="dimension mismatch"):
            _cos(a, b)

    def test_zero_norm_rejected_at_construction(self):
        with pytest.raises(ValueError, match="zero norm"):
            SpeakerEmbedding("z", [0.0, 0.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            SpeakerEmbedding("n", [1.0, np.nan])

    @pytest.mark.parametrize("magnitude, problem", [(1e200, "overflows"), (1e-200, "underflows")])
    def test_norm_beyond_float64_rejected(self, magnitude, problem):
        # Finite nonzero components whose squares leave the float64 range.
        with pytest.raises(ValueError, match=f"embedding 's': vector norm {problem}"):
            SpeakerEmbedding("s", [magnitude, magnitude])

    def test_norm_at_the_float64_edges_accepted(self):
        for vector in ([1e150, 1e150], [1e-150, 1e-150]):
            assert SpeakerEmbedding("s", vector).dim == 2

    def test_pool_unit_rows_keep_the_bits(self, rng):
        # A pool's cached unit rows give the bits its plain matrix gives, on
        # either side, against a matrix or another pool.
        pool = EmbeddingPool([random_embedding(rng, 24, f"e{i:02d}") for i in range(30)])
        other = EmbeddingPool([random_embedding(rng, 24, f"o{i:02d}") for i in range(7)])
        for query in (rng.standard_normal((1, 24)), rng.standard_normal((3, 24))):
            assert np.array_equal(cosine_matrix(query, pool), cosine_matrix(query, pool.vectors))
            assert np.array_equal(cosine_matrix(pool, query), cosine_matrix(pool.vectors, query))
        assert np.array_equal(cosine_matrix(other, pool), cosine_matrix(other.vectors, pool.vectors))
        assert not pool.unit_vectors.flags.writeable


class TestMeanEmbedding:
    """The package's one mean, ``centered_mean``."""

    def test_singleton(self):
        v = np.array([[0.1, 0.2, 0.3]])
        assert np.array_equal(centered_mean(v), v[0])

    def test_pair(self):
        assert np.array_equal(centered_mean(np.array([[1.0, 0.0], [0.0, 1.0]])), [0.5, 0.5])

    def test_duplicates_exact_for_any_count(self, rng):
        # Averaging k copies of v must return v bit for bit, including
        # awkward counts like 3 and 7 where naive summation rounds.
        for k in [1, 2, 3, 5, 7, 11, 100]:
            v = random_embedding(rng, 16, "v").vector
            assert np.array_equal(centered_mean(np.tile(v, (k, 1))), v), k

    def test_zero_norm_mean(self):
        with pytest.raises(ValueError, match="zero norm"):
            centered_mean(np.array([[1.0, 0.0], [-1.0, 0.0]]))

    def test_overflowing_mean(self):
        with pytest.raises(ValueError, match="overflows"):
            centered_mean(np.array([[1e308, 1.0], [-1e308, 1.0]]))

    def test_mean_without_a_float64_norm(self):
        # Finite nonzero means whose norms leave the float64 range.
        with pytest.raises(ValueError, match="overflows"):
            centered_mean(np.array([[1e200, 1e200], [1e200, 1e200]]))
        with pytest.raises(ValueError, match="zero norm"):
            centered_mean(np.array([[1.0, 1e-200], [-1.0, 1e-200]]))


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
    sims = cosine_matrix(query.vector[None, :], pool)[0]
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
            gender = [None, "female", "male"][i % 3]
            entries.append(SpeakerEmbedding(f"spk{i:02d}", rng.standard_normal(32), gender))
        pool = EmbeddingPool(entries)
        path = tmp_path / "pool.jsonl"
        save_pool(path, pool)
        loaded = load_pool(path)
        assert loaded.ids == pool.ids
        assert loaded.dim == pool.dim
        for original, copy in zip(pool, loaded):
            assert np.array_equal(original.vector, copy.vector)
            assert original.gender == copy.gender

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

    @pytest.mark.parametrize("fields, problem", [
        ('"gender": 5, ', "gender must be a nonempty string or None, got 5"),
        ('"gender": true, ', "gender must be a nonempty string or None, got True"),
        ('"gender": "", ', "gender must be a nonempty string or None, got ''"),
        ('"gender": ["f"], ', "gender must be a nonempty string or None, got ['f']"),
        ('"gender": "f", "source": "set1", ', "unknown fields ['source']"),
    ], ids=["int", "bool", "empty", "list", "extra-field"])
    def test_record_is_id_gender_and_vec_only(self, tmp_path, fields, problem):
        path = tmp_path / "strict.jsonl"
        path.write_text(
            '{"dim": 1, "count": 2}\n'
            '{"id": "ok", "gender": null, "vec": [1.0]}\n'
            f'{{"id": "bad", {fields}"vec": [1.0]}}\n'
        )
        with pytest.raises(DataError) as info:
            load_pool(path)
        assert f"{path}, line 3" in str(info.value) and problem in str(info.value)

    def test_gender_written_only_when_set(self, tmp_path):
        path = tmp_path / "pool.jsonl"
        save_pool(path, EmbeddingPool([
            SpeakerEmbedding("a", [1.0]), SpeakerEmbedding("b", [0.5], "f"),
        ]))
        assert path.read_text() == (
            '{"dim": 1, "count": 2}\n'
            '{"id": "a", "vec": [1.0]}\n'
            '{"id": "b", "gender": "f", "vec": [0.5]}\n'
        )
