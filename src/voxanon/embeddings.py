"""Speaker embedding geometry and pool storage.

A speaker embedding is an identity label, a fixed-dimensional vector and
an optional gender tag, the one tag a pool entry needs (gender-partitioned
scoring reads it). A pool holds those three as columns, with the vectors
in one matrix. This module has the package's one cosine
(:func:`cosine_matrix`, rows against rows) and its one mean
(:func:`centered_mean`), the speaker-level means of utterance embeddings,
and a line-delimited text format for persisting pools.

Pools are expected to be small (up to roughly 10^4 entries), so all queries
are exhaustive; there is deliberately no approximate index.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, read_lines


@dataclass(frozen=True, eq=False)
class SpeakerEmbedding:
    """A fixed-dimensional speaker identity vector with an optional gender.

    The vector's float64 Euclidean norm must be positive and finite, so
    that cosine similarity against it is always defined. ``gender`` is a
    nonempty string or None; only gender partitions read it, never the
    geometry operations. These three fields are all a pool record holds
    (see :func:`save_pool`).
    """

    id: str
    vector: np.ndarray
    gender: str | None = None

    def __post_init__(self):
        _check_labels(self.id, self.gender)
        vec = np.array(self.vector, dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError(f"embedding {self.id!r}: vector must be 1-d and nonempty")
        problem = _row_problem(vec[None, :])
        if problem is not None:
            raise ValueError(f"embedding {self.id!r}: {problem[1]}")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    @property
    def dim(self) -> int:
        return int(self.vector.shape[0])


def _check_labels(entry_id, gender) -> None:
    if not entry_id:
        raise ValueError("embedding id must be a nonempty string")
    if gender is not None and not (isinstance(gender, str) and gender):
        raise ValueError(
            f"embedding {entry_id!r}: gender must be a nonempty string or None, got {gender!r}"
        )


def _row_problem(vectors: np.ndarray) -> tuple[int, str] | None:
    """The first row of ``vectors`` that cosine similarity cannot take and
    why, or None when every row's float64 norm is positive and finite."""
    with np.errstate(over="ignore"):  # an overflowing norm is rejected below
        norms = np.linalg.norm(vectors, axis=1)
    bad = ~(np.isfinite(norms) & (norms > 0))
    if not bad.any():
        return None
    row = int(bad.argmax())
    if not np.isfinite(vectors[row]).all():
        return row, "vector has non-finite components"
    if not vectors[row].any():
        return row, "vector has zero norm"
    if norms[row] == 0:
        return row, "vector norm underflows to zero in float64 (components too small)"
    return row, "vector norm overflows float64 (components too large)"


class EmbeddingPool:
    """An ordered, immutable pool held as columns: ``ids``, ``genders`` and
    one read-only (n, dim) float64 matrix ``vectors``.

    Entry order is stable and significant: save/load round-trips preserve
    it, and all averaging in this package runs in pool order so that
    results are reproducible bit for bit. No object is kept per entry;
    :meth:`get` and iteration build a :class:`SpeakerEmbedding` on demand.
    """

    def __init__(self, entries: Iterable[SpeakerEmbedding]):
        entries = list(entries)
        if not entries:
            raise ValueError("pool must contain at least one embedding")
        for entry in entries:
            if entry.dim != entries[0].dim:
                raise ValueError(
                    f"pool entry {entry.id!r} has dim {entry.dim}, expected {entries[0].dim}"
                )
        self._set_columns([e.id for e in entries], [e.gender for e in entries],
                          np.stack([e.vector for e in entries]))

    @classmethod
    def from_columns(cls, ids: Sequence[str], genders: Sequence[str | None],
                     vectors: np.ndarray) -> EmbeddingPool:
        """A pool of rows already checked as :class:`SpeakerEmbedding` checks
        one: nonempty ids and genders, vectors with positive finite norms. The
        pool takes ``vectors`` and makes it read-only."""
        pool = cls.__new__(cls)
        pool._set_columns(ids, genders, vectors)
        return pool

    def _set_columns(self, ids, genders, vectors: np.ndarray) -> None:
        self.ids, self.genders, self.vectors = tuple(ids), tuple(genders), vectors
        self.dim = int(vectors.shape[1])
        self._by_id = {entry_id: i for i, entry_id in enumerate(self.ids)}
        if len(self._by_id) != len(self.ids):
            twin = next(e for i, e in enumerate(self.ids) if self._by_id[e] != i)
            raise ValueError(f"duplicate id in pool: {twin!r}")
        vectors.setflags(write=False)

    @functools.cached_property
    def unit_vectors(self) -> np.ndarray:
        """The rows scaled to unit norm, computed once, by the expression
        :func:`cosine_matrix` applies to a matrix, so the bits agree."""
        units = _unit_rows(self.vectors)
        units.setflags(write=False)
        return units

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[SpeakerEmbedding]:
        return map(self._record, range(len(self)))

    def __contains__(self, embedding_id: str) -> bool:
        return embedding_id in self._by_id

    def get(self, embedding_id: str) -> SpeakerEmbedding:
        return self._record(self.index_of(embedding_id))

    def index_of(self, embedding_id: str) -> int:
        if embedding_id not in self._by_id:
            raise KeyError(f"no embedding with id {embedding_id!r} in pool")
        return self._by_id[embedding_id]

    def _record(self, i: int) -> SpeakerEmbedding:
        return SpeakerEmbedding(self.ids[i], self.vectors[i], self.genders[i])


def _unit_rows(rows) -> np.ndarray:
    if isinstance(rows, EmbeddingPool):
        return rows.unit_vectors
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def cosine_matrix(a, b) -> np.ndarray:
    """(n, m) cosine similarities of the rows of ``a`` (n, d) and ``b`` (m, d),
    clipped to [-1, 1] against rounding.

    This is the package's one cosine. Either side may be an
    :class:`EmbeddingPool`, whose unit rows are computed once by the same
    expression. Raises ``ValueError`` on a dimension mismatch.
    """
    a, b = _unit_rows(a), _unit_rows(b)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return np.clip(a @ b.T, -1.0, 1.0)


def centered_mean(matrix: np.ndarray) -> np.ndarray:
    """The mean of the rows of ``matrix``, in row order; raises ``ValueError``
    when its float64 norm overflows or is zero.

    This is the package's one mean. It is not re-normalized; cosine
    scoring is scale invariant, so the raw mean is safe.
    """
    # Summing deviations from the first row keeps the mean of k identical
    # vectors exactly equal to that vector, for any k.
    base = matrix[0]
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        mean = base + (matrix - base).mean(axis=0)
        norm = np.linalg.norm(mean)
    if not np.isfinite(norm):
        raise ValueError("mean embedding overflows (members too large)")
    if norm == 0:
        raise ValueError("mean embedding has zero norm (members cancel out)")
    return mean


def speaker_of(utterance_id: str) -> str:
    """Speaker grouping convention: the stem up to the first underscore."""
    return utterance_id.split("_", 1)[0]


def speaker_means(utterances: EmbeddingPool) -> EmbeddingPool:
    """One row per speaker, the mean of its utterances' rows in pool order,
    with speakers in first-seen order and no gender."""
    members: dict[str, list[int]] = {}
    for i, utt_id in enumerate(utterances.ids):
        members.setdefault(speaker_of(utt_id), []).append(i)
    means = np.stack([centered_mean(utterances.vectors[rows]) for rows in members.values()])
    return EmbeddingPool.from_columns(list(members), [None] * len(members), means)


def save_pool(path, pool: EmbeddingPool) -> None:
    """Write a pool as line-delimited JSON records.

    The first line is a header with ``dim`` and ``count``; every following
    line is one embedding with ``id``, ``gender`` where it is set, and
    ``vec``. Floats are serialized at full round-trip precision, so
    save-then-load is the identity on pools.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"dim": pool.dim, "count": len(pool)}) + "\n")
        for entry_id, gender, vec in zip(pool.ids, pool.genders, pool.vectors):
            record: dict[str, object] = {"id": entry_id}
            if gender is not None:
                record["gender"] = gender
            record["vec"] = vec.tolist()
            fh.write(json.dumps(record) + "\n")


def load_pool(path) -> EmbeddingPool:
    """Load a pool written by :func:`save_pool`.

    A record holds ``id``, ``vec`` and optionally ``gender``, nothing else.
    Malformed lines, other fields, a gender that is neither a nonempty
    string nor null, dimension inconsistencies, duplicate ids, and vectors
    without a positive finite float64 norm raise ``DataError`` naming the
    offending line or record.
    """
    path = Path(path)
    lines = read_lines(path, "pool file")
    if not lines:
        raise DataError(f"{path}: empty pool file (missing header)")

    header = _parse_record(path, 1, lines[0])
    if "dim" not in header or "count" not in header:
        raise DataError(f"{path}, line 1: header must declare 'dim' and 'count'")
    dim = header["dim"]
    count = header["count"]
    if type(dim) is not int or dim < 1:
        raise DataError(f"{path}, line 1: 'dim' must be a positive integer")
    if type(count) is not int or count < 1:
        raise DataError(f"{path}, line 1: 'count' must be a positive integer")

    # One column entry per record, and the line each record came from.
    ids: list[str] = []
    genders: list[str | None] = []
    rows: list[np.ndarray] = []
    linenos: list[int] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        record = _parse_record(path, lineno, line)
        if "id" not in record or "vec" not in record:
            raise DataError(f"{path}, line {lineno}: record must contain 'id' and 'vec'")
        extra = sorted(set(record).difference(("id", "gender", "vec")))
        if extra:
            raise DataError(f"{path}, line {lineno}: unknown fields {extra}; a record "
                            "holds 'id', an optional 'gender' and 'vec'")
        entry_id, vec, gender = record["id"], record["vec"], record.get("gender")
        if not isinstance(entry_id, str):
            raise DataError(f"{path}, line {lineno}: 'id' must be a string")
        if not isinstance(vec, list):
            raise DataError(f"{path}, line {lineno}: 'vec' must be an array")
        # json reads true/false as bools, which pass as 1/0; check only lines naming them.
        if ("true" in line or "false" in line) and any(type(v) is bool for v in vec):
            raise DataError(f"{path}, line {lineno}: 'vec' holds a boolean, not a number")
        if len(vec) != dim:
            raise DataError(
                f"{path}, line {lineno}: record {entry_id!r} has dim {len(vec)}, "
                f"header declares {dim}"
            )
        if entry_id in seen:
            raise DataError(f"{path}, line {lineno}: duplicate id {entry_id!r}")
        seen.add(entry_id)
        try:
            _check_labels(entry_id, gender)
            row = np.array(vec, dtype=np.float64)
        except (ValueError, TypeError, OverflowError) as exc:
            raise DataError(f"{path}, line {lineno}: {exc}") from exc
        if row.ndim != 1:
            raise DataError(f"{path}, line {lineno}: embedding {entry_id!r}: "
                            "vector must be 1-d and nonempty")
        ids.append(entry_id)
        genders.append(gender)
        rows.append(row)
        linenos.append(lineno)
    if len(rows) != count:
        raise DataError(
            f"{path}: header declares {count} records, file contains {len(rows)}"
        )
    vectors = np.stack(rows)
    problem = _row_problem(vectors)
    if problem is not None:
        bad, message = problem
        raise DataError(f"{path}, line {linenos[bad]}: embedding {ids[bad]!r}: {message}")
    return EmbeddingPool.from_columns(ids, genders, vectors)


def _parse_record(path, lineno: int, line: str) -> dict:
    try:
        record = json.loads(line)
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}, line {lineno}: malformed record: {exc}") from exc
    if not isinstance(record, dict):
        raise DataError(f"{path}, line {lineno}: record must be a JSON object")
    return record
