"""Adapter composition: linear averaging, factor concatenation, sign-elected
trimmed averaging, and random drop-with-rescale preprocessing.

All methods except concatenation work on dense per-target deltas, because
trimming, sign election, and random dropping are defined entrywise and have
no exact factorized form. Concatenation stays factorized: stacking factors
along the rank axis is its definition and the densified result is exactly
the sum of the inputs.

Adapters are accumulated in a canonical order (sorted by adapter name), so
every merge is exactly permutation-equivariant in (adapter, weight) pairs,
including the random masks, which are keyed by adapter name rather than by
list position.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import adapterio
from .adapterio import Adapter, LowRankPair, MergedDelta
from .matcore import Matrix, Rng, ShapeMismatchError


class MergeError(ValueError):
    pass


class TargetMismatchError(MergeError):
    pass


class WeightError(MergeError):
    pass


class MergeMethod(str, Enum):
    LINEAR = "linear"
    CAT = "cat"
    TIES = "ties"
    DARE_LINEAR = "dare-linear"
    DARE_TIES = "dare-ties"


@dataclass(frozen=True)
class MergeSpec:
    """Method plus its knobs; weights None means uniform."""

    method: MergeMethod
    weights: tuple[float, ...] | None = None
    density: float = 1.0
    drop_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.density <= 1.0:
            raise MergeError(f"density must be in (0, 1], got {self.density}")
        if not 0.0 <= self.drop_rate < 1.0:
            raise MergeError(f"drop_rate must be in [0, 1), got {self.drop_rate}")


def _check_weights(weights, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise WeightError(f"got {w.size} weights for {n} adapters")
    if (w < 0).any():
        raise WeightError(f"weights must be non-negative, got {w.tolist()}")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise WeightError(f"weights must sum to 1, got sum {float(w.sum())!r}")
    return w


def _canonical_order(adapters, w: np.ndarray):
    """Sort (adapter, weight) pairs by adapter name, keeping the pairing."""
    order = sorted(range(len(adapters)), key=lambda i: adapters[i].name)
    return [adapters[i] for i in order], w[order]


def _shared_targets(adapters) -> list[str]:
    """Target ids common to all adapters, in the first adapter's order."""
    if not adapters:
        raise MergeError("need at least one adapter to merge")
    base = adapters[0]
    base_ids = list(base.targets.keys())
    for other in adapters[1:]:
        if set(other.targets.keys()) != set(base_ids):
            raise TargetMismatchError(
                f"adapter {other.name!r} targets {sorted(other.targets)} "
                f"!= {sorted(base_ids)} of {base.name!r}"
            )
        for tid in base_ids:
            p, q = base.targets[tid], other.targets[tid]
            if (p.d_in, p.d_out) != (q.d_in, q.d_out):
                raise ShapeMismatchError(
                    f"target {tid!r}: ({p.d_out}x{p.d_in}) in {base.name!r} vs "
                    f"({q.d_out}x{q.d_in}) in {other.name!r}"
                )
    return base_ids


def _weighted_sum(arrays: list[np.ndarray], w: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(arrays[0])
    for wi, ai in zip(w, arrays):
        acc += wi * ai
    return acc


def _merge_dense(adapters: list[Adapter], weights, combine,
                 drop_rate: float = 0.0, seed: int = 0) -> MergedDelta:
    """Densify each adapter's delta per target, optionally drop and rescale
    it, and combine the deltas in canonical order with `combine(deltas, w)`.

    Drop masks come from streams keyed by (seed, adapter name), so distinct
    adapters get independent masks and permuting the input list does not
    change any adapter's mask.
    """
    target_ids = _shared_targets(adapters)
    if weights is None:
        weights = [1.0 / len(adapters)] * len(adapters)
    w = _check_weights(weights, len(adapters))
    adapters, w = _canonical_order(adapters, w)
    if drop_rate:
        rescale = 1.0 / (1.0 - drop_rate)
        rngs = [Rng(seed).derive("dare-mask", ad.name) for ad in adapters]
    out: dict[str, LowRankPair | Matrix] = {}
    for tid in target_ids:
        deltas = [adapterio.delta(ad.targets[tid]).data for ad in adapters]
        if drop_rate:
            deltas = [d * rescale * rng.bernoulli(d.size, 1.0 - drop_rate)
                      .reshape(d.shape) for rng, d in zip(rngs, deltas)]
        out[tid] = Matrix(combine(deltas, w))
    return MergedDelta(out)


def merge_linear(adapters: list[Adapter],
                 weights: list[float] | None = None) -> MergedDelta:
    """Weighted average of dense deltas; weights sum to 1."""
    return _merge_dense(adapters, weights, _weighted_sum)


def merge_cat(adapters: list[Adapter]) -> MergedDelta:
    """Concatenate factors along the rank axis.

    Each B factor absorbs its own alpha / rank scale first; the merged pair
    takes alpha == rank, so densifying it yields exactly the sum of the
    input deltas. Ranks may differ across inputs.
    """
    target_ids = _shared_targets(adapters)
    adapters = sorted(adapters, key=lambda ad: ad.name)
    out: dict[str, LowRankPair | Matrix] = {}
    for tid in target_ids:
        pairs = [ad.targets[tid] for ad in adapters]
        a_cat = np.vstack([p.a.data for p in pairs])
        b_cat = np.hstack([(p.alpha / p.rank) * p.b.data for p in pairs])
        total_rank = sum(p.rank for p in pairs)
        out[tid] = LowRankPair(a=Matrix(a_cat), b=Matrix(b_cat),
                               alpha=float(total_rank), rank=total_rank)
    return MergedDelta(out)


def _trim_mask(dense: np.ndarray, density: float) -> np.ndarray:
    """Mask of the ceil(density * n) entries of largest |value|; at the
    cutoff magnitude, earlier row-major entries win, as in a stable sort.
    A selection finds the cutoff, entries above it are kept, and the first
    entries equal to it fill the remaining places."""
    flat = np.abs(dense).ravel()
    keep = math.ceil(density * flat.size)
    if keep >= flat.size:
        return np.ones(dense.shape, dtype=bool)
    cutoff = np.partition(flat, flat.size - keep)[flat.size - keep]
    mask = flat > cutoff
    ties = np.flatnonzero(flat == cutoff)
    mask[ties[:keep - np.count_nonzero(mask)]] = True
    return mask.reshape(dense.shape)


def _ties_combine(deltas: list[np.ndarray], w: np.ndarray,
                  density: float) -> np.ndarray:
    """Trim, elect the dominant sign, then renormalized mean of agreeing
    survivors. Dropped negative entries become -0.0, which no output byte
    shows: sums from +0.0 never end at -0.0, and the divide writes +0.0.
    Agreement reads each delta's own sign: w * delta can underflow."""
    masks = [_trim_mask(d, density) for d in deltas]
    products = [wi * (d * m) for wi, d, m in zip(w, deltas, masks)]
    elected = np.sign(sum(products))
    num, den = np.zeros_like(elected), np.zeros_like(elected)
    for wi, d, m, pi in zip(w, deltas, masks, products):
        agree = m & (np.sign(d) == elected) & (d != 0.0)
        num += pi * agree
        den += wi * agree
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def merge_ties(adapters: list[Adapter], weights: list[float] | None = None,
               density: float = 1.0) -> MergedDelta:
    """Trim each delta, elect a per-entry sign, average agreeing survivors.

    Per entry: the elected sign is the sign of the weighted sum of trimmed
    values (the direction with the greater total weighted magnitude); the
    output is the weighted mean of the surviving values that carry that
    sign, with weights renormalized over the contributing subset. Exactly
    balanced magnitudes elect sign 0 and output 0.
    """
    if not 0.0 < density <= 1.0:
        raise MergeError(f"density must be in (0, 1], got {density}")
    return _merge_dense(adapters, weights,
                        functools.partial(_ties_combine, density=density))


def merge_dare(adapters: list[Adapter], spec: MergeSpec) -> MergedDelta:
    """Randomly drop delta entries at spec.drop_rate, rescale survivors by
    1 / (1 - p), then combine with the linear or ties rule."""
    if spec.method not in (MergeMethod.DARE_LINEAR, MergeMethod.DARE_TIES):
        raise MergeError(f"merge_dare called with method {spec.method}")
    combine = _weighted_sum if spec.method == MergeMethod.DARE_LINEAR \
        else functools.partial(_ties_combine, density=spec.density)
    return _merge_dense(adapters, spec.weights or None, combine,
                        spec.drop_rate, spec.seed)


def merge(adapters: list[Adapter], spec: MergeSpec) -> MergedDelta:
    """Dispatch on spec.method."""
    if spec.method == MergeMethod.LINEAR:
        return merge_linear(adapters, spec.weights)
    if spec.method == MergeMethod.CAT:
        return merge_cat(adapters)
    if spec.method == MergeMethod.TIES:
        return merge_ties(adapters, spec.weights, spec.density)
    return merge_dare(adapters, spec)
