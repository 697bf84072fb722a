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

import contextlib
import functools
import math
import threading
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import adapterio
from .adapterio import Adapter, LowRankPair, MergedDelta
from .matcore import Matrix, NonFiniteError, Rng, ShapeMismatchError


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


def check_weights(weights, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise WeightError(f"got {w.size} weights for {n} adapters")
    if not np.isfinite(w).all():
        raise WeightError(f"weights must be finite, got {w.tolist()}")
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


class _Rows(NamedTuple):
    """Views of the workspace for one target of shape (d_out, d_in)."""

    acc: np.ndarray         # a weighted sum, then the TIES numerator
    num: np.ndarray         # the elected signs
    den: np.ndarray
    tmp: np.ndarray         # a product, or the TIES agreement as 0 or 1
    mask: np.ndarray        # bool
    flags: np.ndarray       # bool
    deltas: list[np.ndarray]    # one per adapter


class _Workspace:
    """The float64 and bool rows a dense merge works in, each a separate
    array of the largest target size seen. Rows are added when a merge
    takes more adapters, and all are replaced when a larger target comes;
    none is ever freed otherwise. The process keeps one, `_WORKSPACE`,
    across calls, so a warm merge faults in no fresh pages. It is not a
    cache: a merge writes every entry it reads, and copies its result out.
    """

    def __init__(self):
        self._size = 0
        self._floats: list[np.ndarray] = []
        self._bools: list[np.ndarray] = []

    def rows(self, k: int, shape: tuple[int, int]) -> _Rows:
        n = shape[0] * shape[1]
        if n > self._size:
            self._size, self._floats = n, []
            self._bools = [np.empty(n, dtype=bool) for _ in range(2)]
        while len(self._floats) < 4 + k:
            self._floats.append(np.empty(self._size))
        views = [row[:n].reshape(shape)
                 for row in self._floats[:4 + k] + self._bools]
        return _Rows(*views[:4], *views[-2:], views[4:-2])


_WORKSPACE = _Workspace()
_WORKSPACE_LOCK = threading.Lock()


@contextlib.contextmanager
def _workspace():
    """The shared workspace, under its lock for the whole block; while
    another merge holds it, a fresh workspace of the caller's own. A merge
    never waits for another: merges that waited, trading the interpreter
    lock back and forth, served two registry connections fewer queries per
    second than one."""
    if not _WORKSPACE_LOCK.acquire(blocking=False):
        yield _Workspace()
        return
    try:
        yield _WORKSPACE
    finally:
        _WORKSPACE_LOCK.release()


def _weighted_sum(rows: _Rows, w: np.ndarray) -> np.ndarray:
    acc, tmp = rows.acc, rows.tmp
    acc.fill(0.0)
    for wi, d in zip(w, rows.deltas):
        acc += np.multiply(d, wi, out=tmp)
    return acc


def _merge_dense(adapters: list[Adapter], weights, combine,
                 drop_rate: float = 0.0, seed: int = 0) -> MergedDelta:
    """Densify each adapter's delta per target, optionally drop and rescale
    it, and combine the deltas in canonical order with
    `combine(rows, w)`, all in a workspace.

    Drop masks come from streams keyed by (seed, adapter name), so distinct
    adapters get independent masks and permuting the input list does not
    change any adapter's mask.
    """
    target_ids = _shared_targets(adapters)
    if weights is None:
        weights = [1.0 / len(adapters)] * len(adapters)
    w = check_weights(weights, len(adapters))
    adapters, w = _canonical_order(adapters, w)
    if drop_rate:
        rescale = 1.0 / (1.0 - drop_rate)
        rngs = [Rng(seed).derive("dare-mask", ad.name) for ad in adapters]
    out: dict[str, LowRankPair | Matrix] = {}
    with _workspace() as workspace:
        for tid in target_ids:
            pairs = [ad.targets[tid] for ad in adapters]
            rows = workspace.rows(len(pairs), (pairs[0].d_out,
                                               pairs[0].d_in))
            for i, (pair, d) in enumerate(zip(pairs, rows.deltas)):
                adapterio.dense_product(pair, out=d)
                if not np.isfinite(d, out=rows.mask).all():
                    raise NonFiniteError(
                        f"adapter {adapters[i].name!r} target {tid!r}: "
                        f"delta has NaN or Inf entries")
                if drop_rate:
                    d *= rescale
                    d *= rngs[i].bernoulli(d.size, 1.0 - drop_rate,
                                           out=rows.mask)
            out[tid] = Matrix(combine(rows, w))
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


def _trim_mask(dense: np.ndarray, density: float, *, out=None, ties=None,
               mag=None, part=None) -> np.ndarray:
    """Mask of the ceil(density * n) entries of largest |value|; at the
    cutoff magnitude, earlier row-major entries win, as in a stable sort.
    A selection finds the cutoff and every entry at or above it is kept;
    when more entries equal the cutoff than places remain, the last of
    them are dropped. The keyword arguments are buffers of dense's shape to
    work in (bool for `out` and `ties`, float64 for `mag` and `part`);
    missing ones are allocated."""
    keep = math.ceil(density * dense.size)
    if out is None:
        out = np.empty(dense.shape, dtype=bool)
    if keep >= dense.size:
        out.fill(True)
        return out
    mag = np.abs(dense, out=mag)
    flat = np.abs(dense, out=part).reshape(-1)
    # magnitudes are non-negative, so their bit patterns order as their
    # values do, and a selection over int64 takes about 0.6x the time
    flat.view(np.int64).partition(dense.size - keep)
    cutoff = flat[dense.size - keep]
    extra = np.count_nonzero(np.greater_equal(mag, cutoff, out=out)) - keep
    if extra:
        tied = np.flatnonzero(np.equal(mag, cutoff, out=ties))
        np.put(out, tied[len(tied) - extra:], False)
    return out


def _ties_combine(rows: _Rows, w: np.ndarray, density: float) -> np.ndarray:
    """Trim each delta in place, elect the dominant sign, then the
    renormalized mean of agreeing survivors. A survivor agrees when its
    product with the elected sign, which is -1, 0 or 1 and so exact, is
    positive. Dropped negative entries become -0.0, which no output byte
    shows: sums from +0.0 never end at -0.0, and where no weight agrees the
    numerator is such a sum, +0.0, and the denominator, 0 there, is taken
    as 1.

    The elected signs go to another row and the divide is unmasked, because
    `np.sign` in place and `np.divide(where=)` each took several times a
    plain pass at 100x256; agreement is held as float 0 or 1, because a
    float-by-bool product took twice a float-by-float one."""
    if density < 1.0:           # at density 1 the mask keeps every entry
        for d in rows.deltas:
            d *= _trim_mask(d, density, out=rows.mask, ties=rows.flags,
                            mag=rows.num, part=rows.den)
    elected = np.sign(_weighted_sum(rows, w), out=rows.num)
    num, den, agree = rows.acc, rows.den, rows.tmp
    num.fill(0.0)
    den.fill(0.0)
    for wi, d in zip(w, rows.deltas):
        np.greater(np.multiply(d, elected, out=agree), 0.0, out=agree)
        d *= wi
        d *= agree
        num += d
        den += np.multiply(agree, wi, out=agree)
    den += np.equal(den, 0.0, out=rows.flags)
    return np.divide(num, den, out=num)


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
