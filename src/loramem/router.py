"""Module selection: oracle routing and cosine top-k over per-module
embeddings, with a Gaussian noise knob on the query to emulate imperfect
retrieval.

A module's embedding is the normalized mean of its shard's key vectors.
Noise is applied to the query, not the index: one scalar stddev reproduces
the oracle-to-practical degradation curve without an external embedding
model. Ties in cosine score break lexicographically by module id.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .matcore import Matrix, Rng, ShapeMismatchError


class RouterError(ValueError):
    pass


class DegenerateShardError(RouterError):
    """Shard keys average to (numerically) zero; no direction to index."""


class PolicyKind(str, Enum):
    ORACLE = "oracle"
    COSINE_TOP_K = "cosine"


@dataclass(frozen=True)
class RoutingPolicy:
    kind: PolicyKind = PolicyKind.COSINE_TOP_K
    k: int = 1
    noise_stddev: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise RouterError(f"k must be >= 1, got {self.k}")
        if self.noise_stddev < 0:
            raise RouterError(f"noise_stddev must be >= 0, got {self.noise_stddev}")


@dataclass(frozen=True)
class EmbeddingIndex:
    """Unit-norm vector per module id, in a fixed id order."""

    ids: tuple[str, ...]
    vectors: Matrix  # len(ids) x d_emb, rows unit norm

    @property
    def d_emb(self) -> int:
        return self.vectors.cols

    def __len__(self) -> int:
        return len(self.ids)


def build_index(shards: list[tuple[str, Matrix]]) -> EmbeddingIndex:
    """Normalized mean of each shard's key rows, one entry per module."""
    if not shards:
        raise RouterError("cannot index zero shards")
    ids, rows = [], []
    for module_id, keys in shards:
        if keys.rows == 0:
            raise RouterError(f"shard {module_id!r} is empty")
        if module_id in ids:
            raise RouterError(f"duplicate module id {module_id!r}")
        centroid = keys.data.mean(axis=0)
        norm = float(np.linalg.norm(centroid))
        if norm < 1e-12:
            raise DegenerateShardError(
                f"shard {module_id!r}: key vectors average to zero"
            )
        ids.append(module_id)
        rows.append(centroid / norm)
    return EmbeddingIndex(ids=tuple(ids), vectors=Matrix(np.stack(rows)))


def _as_vector(query, d_emb: int) -> np.ndarray:
    vec = query.data.ravel() if isinstance(query, Matrix) else \
        np.asarray(query, dtype=np.float64).ravel()
    if vec.size != d_emb:
        raise ShapeMismatchError(
            f"query has dimension {vec.size}, index expects {d_emb}"
        )
    return vec


def route(index: EmbeddingIndex, query, policy: RoutingPolicy,
          truth: str | None = None, ordinal: int = 0) -> list[tuple[str, float]]:
    """Ranked (module id, score) list.

    Oracle echoes the caller-supplied ground truth at score 1. Cosine
    perturbs the query with a Gaussian draw from the stream keyed by
    (policy.seed, ordinal), renormalizes, and ranks by cosine, breaking
    exact ties by module id.
    """
    if policy.kind == PolicyKind.ORACLE:
        if truth is None:
            raise RouterError("oracle routing needs the ground-truth id")
        return [(truth, 1.0)]
    if policy.k > len(index):
        raise RouterError(f"k={policy.k} exceeds index size {len(index)}")
    vec = _as_vector(query, index.d_emb)
    if policy.noise_stddev > 0:
        noise = Rng(policy.seed).derive("route-noise", ordinal) \
            .gaussian(index.d_emb)
        vec = vec + policy.noise_stddev * noise
    norm = float(np.linalg.norm(vec))
    if norm > 0:
        vec = vec / norm
    scores = index.vectors.data @ vec
    order = sorted(range(len(index)), key=lambda i: (-scores[i], index.ids[i]))
    return [(index.ids[i], float(scores[i])) for i in order[:policy.k]]


def routing_accuracy(index: EmbeddingIndex, queries: Matrix,
                     truths: list[str], policy: RoutingPolicy) -> float:
    """Fraction of queries whose top-1 route equals the truth label.

    Query ordinal is the row position, so a full pass is reproducible for a
    fixed policy seed.
    """
    if queries.rows == 0:
        raise RouterError("no queries")
    if queries.rows != len(truths):
        raise RouterError(f"{queries.rows} queries but {len(truths)} labels")
    hits = 0
    for i in range(queries.rows):
        ranked = route(index, queries.data[i], policy,
                       truth=truths[i], ordinal=i)
        hits += ranked[0][0] == truths[i]
    return hits / queries.rows


def save_index(index: EmbeddingIndex, path) -> None:
    import json

    blob = {
        "d_emb": index.d_emb,
        "entries": {mid: index.vectors.data[i].tolist()
                    for i, mid in enumerate(index.ids)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh)
        fh.write("\n")


def load_index(path) -> EmbeddingIndex:
    import json

    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    ids = tuple(blob["entries"])  # JSON object order is preserved
    rows = np.array([blob["entries"][mid] for mid in ids], dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != blob["d_emb"]:
        raise RouterError(f"{path}: entries disagree with d_emb")
    return EmbeddingIndex(ids=ids, vectors=Matrix(rows))
