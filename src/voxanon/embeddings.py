"""Speaker embedding geometry and pool storage.

A speaker embedding is a fixed-dimensional vector with an identity label.
This module provides the similarity measures used everywhere else
(cosine similarity and its dissimilarity complement), averaging, exhaustive
nearest-neighbor queries over a pool, and a line-delimited text format for
persisting pools.

Pools are expected to be small (up to roughly 10^4 entries), so all queries
are exhaustive; there is deliberately no approximate index.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError
from .metrics import rank_by_similarity

_RESERVED_METADATA_KEYS = frozenset({"id", "vec"})


@dataclass(frozen=True, eq=False)
class SpeakerEmbedding:
    """A fixed-dimensional speaker identity vector.

    The vector must be finite with a strictly positive Euclidean norm so
    that cosine similarity against it is always defined. ``metadata``
    carries side information such as ``gender``; it is never interpreted
    by the geometry operations.
    """

    id: str
    vector: np.ndarray
    metadata: Mapping[str, object] | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("embedding id must be a nonempty string")
        vec = np.array(self.vector, dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError(f"embedding {self.id!r}: vector must be 1-d and nonempty")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"embedding {self.id!r}: vector has non-finite components")
        if not np.any(vec):
            raise ValueError(f"embedding {self.id!r}: vector has zero norm")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)
        if self.metadata is not None:
            meta = dict(self.metadata)
            bad = _RESERVED_METADATA_KEYS.intersection(meta)
            if bad:
                raise ValueError(
                    f"embedding {self.id!r}: metadata keys {sorted(bad)} are reserved"
                )
            object.__setattr__(self, "metadata", meta)

    @property
    def dim(self) -> int:
        return int(self.vector.shape[0])

    @property
    def gender(self) -> str | None:
        if self.metadata is None:
            return None
        value = self.metadata.get("gender")
        return None if value is None else str(value)


class EmbeddingPool:
    """An ordered, immutable collection of same-dimension embeddings.

    Entry order is stable and significant: save/load round-trips preserve
    it, and all averaging in this package runs in pool order so that
    results are reproducible bit for bit.
    """

    def __init__(self, entries: Iterable[SpeakerEmbedding]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("pool must contain at least one embedding")
        dim = entries[0].dim
        by_id: dict[str, int] = {}
        for i, entry in enumerate(entries):
            if entry.dim != dim:
                raise ValueError(
                    f"pool entry {entry.id!r} has dim {entry.dim}, expected {dim}"
                )
            if entry.id in by_id:
                raise ValueError(f"duplicate id in pool: {entry.id!r}")
            by_id[entry.id] = i
        matrix = np.stack([entry.vector for entry in entries])
        matrix.setflags(write=False)
        norms = np.linalg.norm(matrix, axis=1)
        norms.setflags(write=False)
        self._entries = entries
        self._dim = dim
        self._by_id = by_id
        self._matrix = matrix
        self._norms = norms

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def entries(self) -> tuple[SpeakerEmbedding, ...]:
        return self._entries

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(entry.id for entry in self._entries)

    @property
    def vectors(self) -> np.ndarray:
        """All entry vectors stacked into a read-only (n, dim) matrix."""
        return self._matrix

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[SpeakerEmbedding]:
        return iter(self._entries)

    def __contains__(self, embedding_id: str) -> bool:
        return embedding_id in self._by_id

    def get(self, embedding_id: str) -> SpeakerEmbedding:
        try:
            return self._entries[self._by_id[embedding_id]]
        except KeyError:
            raise KeyError(f"no embedding with id {embedding_id!r} in pool") from None

    def index_of(self, embedding_id: str) -> int:
        if embedding_id not in self._by_id:
            raise KeyError(f"no embedding with id {embedding_id!r} in pool")
        return self._by_id[embedding_id]


def cosine_similarity(a: SpeakerEmbedding, b: SpeakerEmbedding) -> float:
    """Cosine similarity between two embeddings, in [-1, 1].

    Symmetric in its arguments and invariant to positive rescaling of
    either vector. Raises ``ValueError`` on dimension mismatch.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    nu = float(np.linalg.norm(a.vector))
    nv = float(np.linalg.norm(b.vector))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine similarity undefined for zero-norm vector")
    value = float(np.dot(a.vector, b.vector) / (nu * nv))
    # Rounding can push |value| a few ulp past 1.
    return min(1.0, max(-1.0, value))


def dissimilarity(a: SpeakerEmbedding, b: SpeakerEmbedding) -> float:
    """One minus cosine similarity: 0 for aligned vectors, 2 for antipodal."""
    return 1.0 - cosine_similarity(a, b)


def _centered_mean(matrix: np.ndarray) -> np.ndarray:
    # Summing deviations from the first row keeps the mean of k identical
    # vectors exactly equal to that vector, for any k.
    base = matrix[0]
    return base + (matrix - base).mean(axis=0)


def mean_embedding(
    embeddings: Sequence[SpeakerEmbedding], new_id: str | None = None
) -> SpeakerEmbedding:
    """Componentwise arithmetic mean of a nonempty set of embeddings.

    The result is not re-normalized; cosine scoring is scale invariant so
    the raw mean is safe. The new id records which members were averaged
    unless ``new_id`` overrides it.
    """
    embeddings = list(embeddings)
    if not embeddings:
        raise ValueError("cannot average an empty set of embeddings")
    dim = embeddings[0].dim
    for e in embeddings:
        if e.dim != dim:
            raise ValueError(
                f"dimension mismatch while averaging: {e.id!r} has dim {e.dim}, expected {dim}"
            )
    mean = _centered_mean(np.stack([e.vector for e in embeddings]))
    if not np.any(mean):
        raise ValueError("mean embedding has zero norm (members cancel out)")
    if new_id is None:
        new_id = "mean(" + ",".join(e.id for e in embeddings) + ")"
    return SpeakerEmbedding(new_id, mean)


def pool_similarities(pool: EmbeddingPool, query: SpeakerEmbedding) -> np.ndarray:
    """Cosine similarity of the query against every pool entry, in pool order."""
    if query.dim != pool.dim:
        raise ValueError(f"query dim {query.dim} does not match pool dim {pool.dim}")
    q = query.vector
    qn = float(np.linalg.norm(q))
    sims = (pool.vectors @ q) / (pool._norms * qn)
    return np.clip(sims, -1.0, 1.0)


def nearest_neighbors(
    pool: EmbeddingPool,
    query: SpeakerEmbedding,
    count: int,
    order: str = "most_similar",
) -> list[tuple[str, float]]:
    """The ``count`` pool entries ranked by cosine similarity to ``query``.

    ``order`` is ``"most_similar"`` or ``"least_similar"``. Ties are broken
    by ascending id so results are deterministic.
    """
    if order not in ("most_similar", "least_similar"):
        raise ValueError(f"unknown order {order!r}")
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > len(pool):
        raise ValueError(f"count {count} exceeds pool size {len(pool)}")
    sims = pool_similarities(pool, query)
    ids = pool.ids
    key = sims if order == "most_similar" else -sims
    return [(ids[i], float(sims[i])) for i in rank_by_similarity(key[None, :], ids)[0, :count]]


def save_pool(path, pool: EmbeddingPool) -> None:
    """Write a pool as line-delimited JSON records.

    The first line is a header with ``dim`` and ``count``; every following
    line is one embedding with ``id``, optional metadata fields, and
    ``vec``. Floats are serialized at full round-trip precision, so
    save-then-load is the identity on pools.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"dim": pool.dim, "count": len(pool)}) + "\n")
        for entry in pool:
            record: dict[str, object] = {"id": entry.id}
            for key in sorted(entry.metadata or {}):
                record[key] = entry.metadata[key]
            record["vec"] = [float(x) for x in entry.vector]
            fh.write(json.dumps(record) + "\n")


def load_pool(path) -> EmbeddingPool:
    """Load a pool written by :func:`save_pool`.

    Malformed lines, dimension inconsistencies, and duplicate ids raise
    ``DataError`` naming the offending line or record.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read pool file {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty pool file (missing header)")

    header = _parse_record(path, 1, lines[0])
    if "dim" not in header or "count" not in header:
        raise DataError(f"{path}, line 1: header must declare 'dim' and 'count'")
    dim = header["dim"]
    count = header["count"]
    if not isinstance(dim, int) or dim < 1:
        raise DataError(f"{path}, line 1: 'dim' must be a positive integer")
    if not isinstance(count, int) or count < 0:
        raise DataError(f"{path}, line 1: 'count' must be a non-negative integer")

    entries: list[SpeakerEmbedding] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        record = _parse_record(path, lineno, line)
        if "id" not in record or "vec" not in record:
            raise DataError(f"{path}, line {lineno}: record must contain 'id' and 'vec'")
        entry_id = record.pop("id")
        vec = record.pop("vec")
        if not isinstance(entry_id, str):
            raise DataError(f"{path}, line {lineno}: 'id' must be a string")
        if not isinstance(vec, list):
            raise DataError(f"{path}, line {lineno}: 'vec' must be an array")
        if len(vec) != dim:
            raise DataError(
                f"{path}, line {lineno}: record {entry_id!r} has dim {len(vec)}, "
                f"header declares {dim}"
            )
        if entry_id in seen:
            raise DataError(f"{path}, line {lineno}: duplicate id {entry_id!r}")
        seen.add(entry_id)
        metadata = record or None
        try:
            entries.append(SpeakerEmbedding(entry_id, vec, metadata))
        except ValueError as exc:
            raise DataError(f"{path}, line {lineno}: {exc}") from exc
    if len(entries) != count:
        raise DataError(
            f"{path}: header declares {count} records, file contains {len(entries)}"
        )
    return EmbeddingPool(entries)


def _parse_record(path, lineno: int, line: str) -> dict:
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise DataError(f"{path}, line {lineno}: malformed record: {exc}") from exc
    if not isinstance(record, dict):
        raise DataError(f"{path}, line {lineno}: record must be a JSON object")
    return record
