"""Adapter data model and the bit-exact LMEM on-disk container.

A LowRankPair holds one factorized delta: dense form (alpha / rank) * b @ a
with a mapping the input side (rank x d_in) and b mapping to the output side
(d_out x rank). An Adapter is a named, ordered collection of such pairs.

LMEM layout, all integers little-endian:

    magic "LMEM" (4 bytes)
    format version, uint32
    header length,  uint64
    header JSON (UTF-8): {name, metadata, payload_bytes, targets: [...]}
    payload: raw float32 values, row-major, A then B per target in header
    order; offsets in the header are byte offsets into the payload

Factorized target records carry {id, d_out, d_in, rank, alpha, a_offset,
b_offset}; dense extension records carry {id, d_out, d_in, kind: "dense",
w_offset}, so the header flags which storage a merged delta used. Values are
quantized to 32-bit on save and widened back to 64-bit on load, and a second
round-trip is bit-exact.
"""

from __future__ import annotations

import json
import struct
import sys
from dataclasses import dataclass, field
from typing import NoReturn

import numpy as np

from . import matcore
from .matcore import Matrix

MAGIC = b"LMEM"
FORMAT_VERSION = 1
_PREAMBLE = struct.Struct("<4sIQ")


class FormatError(ValueError):
    """Base class for LMEM container violations."""


class BadMagicError(FormatError):
    pass


class VersionMismatchError(FormatError):
    pass


class TruncatedPayloadError(FormatError):
    pass


class HeaderPayloadMismatchError(FormatError):
    pass


@dataclass(frozen=True)
class LowRankPair:
    """One factorized low-rank delta with its scaling.

    a: rank x d_in, b: d_out x rank, dense delta = (alpha / rank) * b @ a.
    """

    a: Matrix
    b: Matrix
    alpha: float
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.a.rows != self.rank or self.b.cols != self.rank:
            raise matcore.ShapeMismatchError(
                f"factor ranks disagree: a is {self.a.rows}x{self.a.cols}, "
                f"b is {self.b.rows}x{self.b.cols}, declared rank {self.rank}"
            )

    @property
    def d_in(self) -> int:
        return self.a.cols

    @property
    def d_out(self) -> int:
        return self.b.rows


def dense_product(pair: LowRankPair, out: np.ndarray | None = None) -> np.ndarray:
    """(alpha / rank) * b @ a as a float64 array of shape (d_out, d_in),
    written into `out` when one is given. Overflow gives Inf entries, not a
    warning, and the caller checks for them."""
    with np.errstate(over="ignore", invalid="ignore"):
        dense = np.matmul(pair.b.data, pair.a.data, out=out)
        dense *= pair.alpha / pair.rank
    return dense


def delta(pair: LowRankPair) -> Matrix:
    """Densify a pair: (alpha / rank) * b @ a, shape (d_out, d_in)."""
    # overflow surfaces as NonFiniteError from the constructor
    return Matrix(dense_product(pair))


@dataclass
class Adapter:
    """Named set of low-rank deltas keyed by target id, plus text metadata.

    Target iteration order is serialization order.
    """

    name: str
    targets: dict[str, LowRankPair]
    metadata: dict[str, str] = field(default_factory=dict)


@dataclass
class MergedDelta:
    """Merge result: per target either a factorized pair or a dense matrix."""

    targets: dict[str, LowRankPair | Matrix]

    def densify(self, target_id: str) -> Matrix:
        entry = self.targets[target_id]
        return delta(entry) if isinstance(entry, LowRankPair) else entry


def count_params(adapter: Adapter) -> int:
    """Trainable parameter count: sum of rank * (d_in + d_out) over targets."""
    return sum(p.rank * (p.d_in + p.d_out) for p in adapter.targets.values())


def _f32_bytes(m: Matrix) -> bytes:
    return m.data.astype("<f4").tobytes()


def _read_f32(payload: bytes, offset: int, rows: int, cols: int, what: str) -> Matrix:
    nbytes = rows * cols * 4
    if offset < 0 or offset + nbytes > len(payload):
        raise TruncatedPayloadError(
            f"{what}: payload range [{offset}, {offset + nbytes}) exceeds "
            f"payload of {len(payload)} bytes"
        )
    arr = np.frombuffer(payload, dtype="<f4", count=rows * cols, offset=offset)
    if not np.isfinite(arr).all():
        raise FormatError(f"{what}: NaN or Inf entries")
    return Matrix(arr.astype(np.float64).reshape(rows, cols))


def factorize_dense(dense: Matrix) -> LowRankPair:
    """Exact thin factorization of a dense delta at rank min(d_in, d_out).

    Pads the narrow side with an identity factor and sets alpha == rank so
    the pair's own scale is exactly 1.
    """
    d_out, d_in = dense.rows, dense.cols
    r = min(d_in, d_out)
    if d_in <= d_out:
        a, b = Matrix.identity(r), dense
    else:
        a, b = dense, Matrix.identity(r)
    return LowRankPair(a=a, b=b, alpha=float(r), rank=r)


def save_merged(name: str, merged: MergedDelta, path,
                metadata: dict[str, str] | None = None,
                storage: str = "factorized") -> None:
    """Write a merge result; dense targets stored per `storage`.

    storage="factorized" rewrites dense targets as exact thin pairs;
    storage="dense" emits dense extension records. The header records the
    choice per target.
    """
    if storage not in ("factorized", "dense"):
        raise ValueError(f"unknown storage {storage!r}")
    records, chunks, offset = [], [], 0
    for tid, entry in merged.targets.items():
        if isinstance(entry, Matrix) and storage == "dense":
            w_bytes = _f32_bytes(entry)
            records.append({
                "id": tid,
                "d_out": entry.rows,
                "d_in": entry.cols,
                "kind": "dense",
                "w_offset": offset,
            })
            chunks.append(w_bytes)
            offset += len(w_bytes)
            continue
        pair = entry if isinstance(entry, LowRankPair) else factorize_dense(entry)
        a_bytes, b_bytes = _f32_bytes(pair.a), _f32_bytes(pair.b)
        records.append({
            "id": tid,
            "d_out": pair.d_out,
            "d_in": pair.d_in,
            "rank": pair.rank,
            "alpha": pair.alpha,
            "a_offset": offset,
            "b_offset": offset + len(a_bytes),
        })
        chunks.extend((a_bytes, b_bytes))
        offset += len(a_bytes) + len(b_bytes)
    payload = b"".join(chunks)
    header = {
        "name": name,
        "metadata": dict(metadata or {}),
        "payload_bytes": len(payload),
        "targets": records,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(header_bytes)))
        fh.write(header_bytes)
        fh.write(payload)


def save(adapter: Adapter, path) -> None:
    """Write an adapter as an all-factorized LMEM container."""
    save_merged(adapter.name, MergedDelta(adapter.targets), path,
                metadata=adapter.metadata)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_header(header, path) -> None:
    """Raise FormatError unless the header follows the container schema,
    so readers can index every record field without further checks."""
    def fail(problem: str) -> NoReturn:
        raise FormatError(f"{path}: {problem}")

    if not isinstance(header, dict) or \
            not {"name", "metadata", "targets"} <= header.keys():
        fail("header must be a JSON object with name, metadata and targets")
    metadata, targets = header["metadata"], header["targets"]
    if not isinstance(header["name"], str):
        fail("name must be a string")
    if not isinstance(metadata, dict) or \
            not all(isinstance(v, str) for v in metadata.values()):
        fail("metadata must be an object of strings")
    if header.get("payload_bytes") is not None and \
            not _is_count(header["payload_bytes"]):
        fail("payload_bytes must be a non-negative integer")
    if not isinstance(targets, list) or \
            not all(isinstance(rec, dict) for rec in targets):
        fail("targets must be a list of objects")
    seen = set()
    for n, rec in enumerate(targets):
        tid = rec.get("id")
        if not isinstance(tid, str):
            fail(f"target {n}: id must be a string")
        if tid in seen:
            fail(f"duplicate target id {tid!r}")
        seen.add(tid)
        if rec.get("kind", "dense") != "dense":
            fail(f"target {tid!r}: unknown kind {rec['kind']!r}")
        dense = "kind" in rec
        for key in ("d_out", "d_in", "w_offset") if dense else \
                ("d_out", "d_in", "rank", "a_offset", "b_offset"):
            if not _is_count(rec.get(key)):
                fail(f"target {tid!r}: {key} must be a non-negative integer")
        alpha = rec.get("alpha")
        if not dense and (rec["rank"] < 1 or isinstance(alpha, bool)
                          or not isinstance(alpha, (int, float))
                          or not 0.0 < alpha <= sys.float_info.max):
            fail(f"target {tid!r}: needs rank >= 1 and a finite alpha > 0")


def _parse_preamble(blob: bytes, path) -> tuple[dict, bytes]:
    if len(blob) < _PREAMBLE.size:
        raise TruncatedPayloadError(f"{path}: file shorter than fixed preamble")
    magic, version, header_len = _PREAMBLE.unpack_from(blob)
    if magic != MAGIC:
        raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise VersionMismatchError(
            f"{path}: format version {version}, expected {FORMAT_VERSION}"
        )
    header_end = _PREAMBLE.size + header_len
    if len(blob) < header_end:
        raise TruncatedPayloadError(
            f"{path}: header declares {header_len} bytes but file ends early"
        )
    try:
        header = json.loads(blob[_PREAMBLE.size:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: malformed header JSON: {exc}") from exc
    _check_header(header, path)
    payload = blob[header_end:]
    declared = header.get("payload_bytes")
    if declared is not None:
        if len(payload) < declared:
            raise TruncatedPayloadError(
                f"{path}: header declares {declared} payload bytes, "
                f"found {len(payload)}"
            )
        if len(payload) > declared:
            raise HeaderPayloadMismatchError(
                f"{path}: header declares {declared} payload bytes, "
                f"found {len(payload)} (trailing data)"
            )
    return header, payload


def inspect_header(path) -> dict:
    """Header JSON plus the format version, for `adapter inspect`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header, _ = _parse_preamble(blob, path)
    return {"format_version": FORMAT_VERSION, **header}


@dataclass
class Container:
    name: str
    metadata: dict[str, str]
    targets: dict[str, LowRankPair | Matrix]


def load_container(path) -> Container:
    """Read any LMEM file, factorized or dense targets."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header, payload = _parse_preamble(blob, path)
    targets: dict[str, LowRankPair | Matrix] = {}
    for rec in header["targets"]:
        tid = rec["id"]
        if rec.get("kind") == "dense":
            targets[tid] = _read_f32(
                payload, rec["w_offset"], rec["d_out"], rec["d_in"],
                f"{path} target {tid!r} dense weights")
        else:
            a = _read_f32(payload, rec["a_offset"], rec["rank"], rec["d_in"],
                          f"{path} target {tid!r} factor A")
            b = _read_f32(payload, rec["b_offset"], rec["d_out"], rec["rank"],
                          f"{path} target {tid!r} factor B")
            targets[tid] = LowRankPair(a=a, b=b, alpha=float(rec["alpha"]),
                                       rank=int(rec["rank"]))
    return Container(name=header["name"], metadata=dict(header["metadata"]),
                     targets=targets)


def load(path) -> Adapter:
    """Read an all-factorized LMEM file as an Adapter."""
    container = load_container(path)
    pairs = {}
    for tid, entry in container.targets.items():
        if not isinstance(entry, LowRankPair):
            raise FormatError(
                f"{path}: target {tid!r} is a dense record; "
                "use load_container for merge outputs"
            )
        pairs[tid] = entry
    return Adapter(name=container.name, targets=pairs,
                   metadata=container.metadata)
