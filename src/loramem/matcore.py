"""Dense float64 matrix kernel and a counter-based seeded RNG.

All numeric state in the package flows through `Matrix` and `Rng` so that
every experiment is reproducible from its seed alone: the generator is a
splitmix64 counter stream (integer arithmetic only at the core), not a
platform RNG. Matrices are immutable row-major float64 wrappers around
numpy arrays; every public operation validates shapes and finiteness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_TWO_NEG53 = 2.0**-53
# Words per Bernoulli chunk: 64 KiB, below glibc's default 128 KiB mmap
# threshold, so each chunk's buffers come from the heap, not fresh pages.
_BERNOULLI_CHUNK = 8192


class ShapeMismatchError(ValueError):
    """Operands have incompatible shapes; message names both."""


class NonFiniteError(ValueError):
    """A public operation produced NaN or Inf entries."""


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on a uint64 array; returns z."""
    shifted = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= _MIX_A
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= _MIX_B
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def mix_int(value: int) -> int:
    """splitmix64 finalizer on a single 64-bit integer, in Python integers
    (an array call costs more than the arithmetic at this size)."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Deterministic counter-based stream (splitmix64).

    Output k of the stream is mix(key + (k+1) * golden), so draws are a pure
    function of (seed, absolute counter) and chunking uint64 draws does not
    change the stream. Gaussian variates are Box-Muller pairs on top of the
    integer stream; their values depend on the sizes of successive calls,
    which is fine because callers always draw whole blocks.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._key = np.uint64(mix_int(self.seed ^ 0x6A09E667F3BCC909))
        self._counter = 0

    def uint64(self, n: int) -> np.ndarray:
        z = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        z *= _GOLDEN
        z += self._key
        return _mix64(z)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        return (self.uint64(n) >> np.uint64(11)).astype(np.float64) * _TWO_NEG53

    def gaussian(self, n: int) -> np.ndarray:
        """n standard normal doubles via Box-Muller."""
        m = (n + 1) // 2
        bits = self.uint64(2 * m)
        # u1 in (0, 1] keeps the log finite; u2 in [0, 1).
        u1 = ((bits[:m] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _TWO_NEG53
        u2 = (bits[m:] >> np.uint64(11)).astype(np.float64) * _TWO_NEG53
        radius = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        out = np.empty(2 * m, dtype=np.float64)
        out[0::2] = radius * np.cos(theta)
        out[1::2] = radius * np.sin(theta)
        return out[:n]

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n ints uniform in [0, bound)."""
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        return np.minimum(
            (self.uniform(n) * bound).astype(np.int64), bound - 1
        )

    def bernoulli(self, n: int, p_true: float, *,
                  out: np.ndarray | None = None) -> np.ndarray:
        """n booleans, each True with probability p_true; written into
        `out`, a C-contiguous bool array of size n, when one is given.

        They equal `uniform(n) < p_true`, compared in integers: a uniform
        is (word >> 11) * 2**-53, and for an integer j, j < p * 2**53
        exactly when j < ceil(p * 2**53), a product float64 holds exactly.
        The words are drawn in chunks small enough to be reused heap memory
        rather than fresh pages; the stream is counter-based, so chunking
        does not change them.
        """
        if not p_true > 0.0:                    # NaN compares False too
            threshold = np.uint64(0)
        else:
            threshold = np.uint64(math.ceil(min(p_true, 1.0) * 2.0**53))
        flat = np.empty(n, dtype=bool) if out is None else out.reshape(n)
        for start in range(0, n, _BERNOULLI_CHUNK):
            words = self.uint64(min(_BERNOULLI_CHUNK, n - start))
            words >>= np.uint64(11)
            np.less(words, threshold, out=flat[start:start + words.size])
        return flat if out is None else out

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n) (argsort of an iid draw)."""
        return np.argsort(self.uint64(n), kind="stable")

    def derive(self, *parts: int | str) -> "Rng":
        """Independent substream keyed by the given parts.

        Strings hash through their UTF-8 bytes so derive("w0") is stable
        across runs and platforms.
        """
        h = self.seed
        for part in parts:
            if isinstance(part, str):
                value = 0xCBF29CE484222325
                for byte in part.encode("utf-8"):
                    value = ((value ^ byte) * 0x100000001B3) & _MASK64
                part = value
            h = mix_int(h ^ mix_int((int(part) & _MASK64) + 0x9E3779B97F4A7C15))
        return Rng(h)


@dataclass(frozen=True, eq=False)
class Matrix:
    """Immutable 2-D row-major float64 matrix.

    The backing array is copied on construction and marked read-only, so a
    Matrix can be shared freely across threads. Construction rejects
    non-finite entries, which makes finiteness an invariant of every public
    operation in this module.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise ShapeMismatchError(f"matrix must be 2-D, got ndim={arr.ndim}")
        if not np.isfinite(arr).all():
            raise NonFiniteError("matrix contains NaN or Inf entries")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and np.array_equal(self.data, other.data)

    def __repr__(self) -> str:
        return f"Matrix({self.rows}x{self.cols})"

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(np.zeros((rows, cols)))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(np.eye(n))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Standard matrix product; shapes must chain."""
    if a.cols != b.rows:
        raise ShapeMismatchError(
            f"matmul shape mismatch: ({a.rows}x{a.cols}) x ({b.rows}x{b.cols})"
        )
    # overflow surfaces as NonFiniteError from the constructor, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return Matrix(a.data @ b.data)


def fill_gaussian(rng: Rng, rows: int, cols: int, stddev: float) -> Matrix:
    """rows x cols matrix of N(0, stddev^2) draws from the given stream."""
    if stddev < 0:
        raise ValueError(f"stddev must be >= 0, got {stddev}")
    return Matrix(rng.gaussian(rows * cols).reshape(rows, cols) * stddev)

