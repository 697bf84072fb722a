"""Reference composition for checking registry replies.

An independent re-implementation of the dense delta and of the `linear`,
`cat`, `ties` and `dare-ties` merges, written to the same arithmetic order
as the package so results agree bit for bit. Trimmed (and dropped) deltas
depend only on (adapter, method, density, drop rate, mask seed), so they are
computed once per adapter; checking thousands of replies then costs little
more than one sign election per reply.
"""

from __future__ import annotations

import math

import numpy as np

TARGET = "memory"


def dense(pair) -> np.ndarray:
    """(alpha / rank) * b @ a."""
    return (pair.b.data @ pair.a.data) * (pair.alpha / pair.rank)


def trim(values: np.ndarray, density: float) -> np.ndarray:
    """Top ceil(density * n) entries by magnitude; ties keep the earlier
    row-major position."""
    n = values.size
    keep = math.ceil(density * n)
    if keep >= n:
        return values.copy()
    order = np.argsort(-np.abs(values.ravel()), kind="stable")
    mask = np.zeros(n, dtype=bool)
    mask[order[:keep]] = True
    return np.where(mask.reshape(values.shape), values, 0.0)


def _elect(trimmed: list[np.ndarray], w: np.ndarray) -> np.ndarray:
    total = np.zeros_like(trimmed[0])
    for wi, ti in zip(w, trimmed):
        total += wi * ti
    sign = np.sign(total)
    num = np.zeros_like(total)
    den = np.zeros_like(total)
    for wi, ti in zip(w, trimmed):
        agree = (np.sign(ti) == sign) & (ti != 0.0)
        num += np.where(agree, wi * ti, 0.0)
        den += np.where(agree, wi, 0.0)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


class Composer:
    """Dense merged delta for a set of adapters under a registry merge
    blob, with per-adapter preprocessing cached."""

    def __init__(self, adapters: dict):
        from loramem.matcore import Rng

        self._rng = Rng
        self.adapters = adapters
        self._dense: dict[str, np.ndarray] = {}
        self._prepared: dict[tuple, np.ndarray] = {}

    def dense(self, name: str) -> np.ndarray:
        hit = self._dense.get(name)
        if hit is None:
            pair = self.adapters[name].targets[TARGET]
            hit = self._dense[name] = dense(pair)
        return hit

    def _prepared_delta(self, name: str, method: str, density: float,
                        drop_rate: float, seed: int) -> np.ndarray:
        key = (name, method, density, drop_rate, seed)
        hit = self._prepared.get(key)
        if hit is None:
            values = self.dense(name)
            if method == "dare-ties" and drop_rate > 0.0:
                rng = self._rng(seed).derive("dare-mask", name)
                mask = rng.bernoulli(values.size, 1.0 - drop_rate) \
                    .reshape(values.shape)
                values = np.where(mask, values * (1.0 / (1.0 - drop_rate)),
                                  0.0)
            hit = self._prepared[key] = trim(values, density)
        return hit

    def delta(self, ids, blob: dict | None) -> np.ndarray:
        """What the registry applies for a routed id list and merge blob."""
        if len(ids) == 1:
            return self.dense(ids[0])
        blob = blob or {}
        method = blob.get("method", "ties")
        names = sorted(ids)
        w = np.asarray([1.0 / len(names)] * len(names))
        if method == "linear":
            out = np.zeros_like(self.dense(names[0]))
            for wi, name in zip(w, names):
                out += wi * self.dense(name)
            return out
        if method == "cat":
            pairs = [self.adapters[n].targets[TARGET] for n in names]
            a = np.vstack([p.a.data for p in pairs])
            b = np.hstack([(p.alpha / p.rank) * p.b.data for p in pairs])
            rank = sum(p.rank for p in pairs)
            return (b @ a) * (float(rank) / rank)
        if method in ("ties", "dare-ties"):
            args = (method, float(blob.get("density", 1.0)),
                    float(blob.get("drop_rate", 0.0)),
                    int(blob.get("seed", 0)))
            return _elect([self._prepared_delta(n, *args) for n in names], w)
        raise ValueError(f"no reference for merge method {method!r}")
