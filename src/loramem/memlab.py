"""Desk-scale key-value memory lab.

A frozen random base map (d_out x d_in) plus a trainable factorized delta is
trained by plain mini-batch gradient descent to recall name -> phone-number
associations. Names are encoded as deterministic hash-seeded unit vectors;
the value head is 10 independent digit positions of 10 classes each
(d_out = 100), so recall is scored by strict exact match on the full number
string and the trainable parameter count is independent of the load.

The tokenizer is whitespace split: the slicing protocol only needs a
monotone token count, so subword tokenization is deliberately out of scope.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import numbers
import re
from dataclasses import dataclass, replace

import numpy as np

from . import adapterio, matcore
from .adapterio import LowRankPair
from .matcore import Matrix, Rng

D_IN_DEFAULT = 256
D_OUT = 100  # 10 digit positions x 10 classes
N_POSITIONS = 10
BASE_STDDEV = 0.01

NUMBER_RE = re.compile(r"^\d{3}-\d{3}-\d{4}$")
_LINE_RE = re.compile(
    r"^Question: What is the phone number of (.+)\? "
    r"Answer: (\d{3}-\d{3}-\d{4})$"
)

FIRST_NAMES = [
    "Alice", "Amara", "Andre", "Anita", "Anton", "Astrid", "Bella", "Benny",
    "Bianca", "Boris", "Bruno", "Carla", "Casey", "Cedric", "Chloe", "Clara",
    "Cyrus", "Daria", "Dexter", "Diana", "Dmitri", "Edith", "Elena", "Elias",
    "Emile", "Erika", "Felix", "Fiona", "Franz", "Greta", "Gustav", "Hannah",
    "Harvey", "Hector", "Helga", "Hugo", "Ilona", "Ingrid", "Ivan", "Jasper",
    "Jolene", "Jonas", "Kasia", "Keith", "Klara", "Lars", "Leona", "Lidia",
    "Lorenz", "Lucia", "Magnus", "Maren", "Marta", "Mateo", "Milena", "Nadia",
    "Nestor", "Nikolai", "Nora", "Olga", "Oskar", "Paula", "Petra", "Quincy",
    "Rafael", "Regina", "Rosa", "Ruben", "Sandra", "Selma", "Stefan", "Tamara",
    "Teodor", "Tilda", "Ulrich", "Vera", "Viktor", "Wanda", "Yusuf", "Zelda",
]
LAST_NAMES = [
    "Abbott", "Acker", "Adler", "Ahlberg", "Albrecht", "Almeida", "Alvarez",
    "Andersen", "Antonov", "Arnold", "Baker", "Baldwin", "Barros", "Becker",
    "Bergman", "Blanco", "Bogdanov", "Brandt", "Bruhn", "Calder", "Camara",
    "Carver", "Castillo", "Chandler", "Clarke", "Colombo", "Conrad", "Cramer",
    "Dalton", "Danner", "Deckard", "Dietrich", "Dragan", "Duarte", "Eberhart",
    "Eklund", "Engel", "Espinoza", "Falk", "Farrell", "Fischer", "Fontaine",
    "Forsythe", "Fuentes", "Gallo", "Garner", "Gibson", "Gruber", "Hale",
    "Halvorsen", "Hammond", "Hartmann", "Hawkins", "Heller", "Hoffman",
    "Holst", "Horvat", "Ibanez", "Ingram", "Ivanov", "Jansen", "Jarvis",
    "Kaminski", "Keller", "Kovacs", "Kramer", "Kruger", "Lambert", "Landry",
    "Larsen", "Lehmann", "Lindgren", "Lorenzo", "Lukas", "Madsen", "Marchetti",
    "Marek", "Mercer", "Meyer", "Moreau", "Navarro", "Nielsen", "Novak",
    "Oberon", "Olsen", "Orlov", "Pavlov", "Pearce", "Petrov", "Pineda",
    "Quinn", "Rasmussen", "Reyes", "Richter", "Rojas", "Romano", "Rossi",
    "Sandoval", "Schafer", "Schmidt", "Seidel", "Sokolov", "Sorensen",
    "Stein", "Strand", "Tanner", "Thorne", "Toledo", "Ulrich", "Vargas",
    "Vasquez", "Vogel", "Voss", "Wagner", "Weber", "Wendel", "Winter",
    "Wolfe", "Yates", "Zeller", "Zimmer",
]


class KeyCollisionError(RuntimeError):
    """Two distinct names hashed to the same key stream."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; .step is the offending step index and .index
    the dataset's position in a stacked run (0 for a single dataset)."""

    def __init__(self, step: int, message: str | None = None,
                 index: int = 0):
        super().__init__(message or f"non-finite loss at step {step}")
        self.step = step
        self.index = index


@dataclass(frozen=True)
class PhonebookRecord:
    name: str
    number: str

    def __post_init__(self):
        if not NUMBER_RE.match(self.number):
            raise ValueError(f"number {self.number!r} not in XXX-XXX-XXXX form")


def gen_phonebook(n_pairs: int, seed: int) -> list[PhonebookRecord]:
    """Deterministic fictional name/number pairs with unique names.

    Names are a seeded shuffle of the first x last name grid, so a given
    seed yields prefix-consistent lists across sizes.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    capacity = len(FIRST_NAMES) * len(LAST_NAMES)
    if n_pairs > capacity:
        raise ValueError(f"n_pairs {n_pairs} exceeds the {capacity} unique names")
    rng = Rng(seed).derive("phonebook")
    order = rng.permutation(capacity)[:n_pairs]
    digits = rng.integers(10 * n_pairs, 10).reshape(n_pairs, 10)
    records = []
    for combo, digit_row in zip(order, digits):
        first = FIRST_NAMES[int(combo) // len(LAST_NAMES)]
        last = LAST_NAMES[int(combo) % len(LAST_NAMES)]
        d = "".join(str(int(x)) for x in digit_row)
        records.append(PhonebookRecord(
            name=f"{first} {last}",
            number=f"{d[0:3]}-{d[3:6]}-{d[6:10]}",
        ))
    return records


def format_record(record: PhonebookRecord) -> str:
    return (f"Question: What is the phone number of {record.name}? "
            f"Answer: {record.number}")


def count_tokens(text: str) -> int:
    """Whitespace token count."""
    return len(text.split())


def name_digest(name: str) -> int:
    """Stable 64-bit digest of a name (key stream seed)."""
    raw = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(raw, "little")


def encode_key(name: str, d_in: int = D_IN_DEFAULT) -> np.ndarray:
    """Deterministic unit-norm encoding of a name, from its hash alone."""
    rng = Rng(name_digest(name)).derive("key-encoding")
    vec = rng.gaussian(d_in)
    return vec / np.linalg.norm(vec)


@dataclass
class KvDataset:
    """Records plus their encodings and digit labels.

    keys: n x d_in unit-norm rows; labels: n x 10 digit classes;
    token_count: whitespace tokens over all formatted records.
    """

    records: list[PhonebookRecord]
    keys: Matrix
    labels: np.ndarray
    token_count: int

    def __len__(self) -> int:
        return len(self.records)

    @property
    def d_in(self) -> int:
        return self.keys.cols

    def subset(self, indices) -> "KvDataset":
        indices = list(indices)
        records = [self.records[i] for i in indices]
        keys = Matrix(self.keys.data[indices])
        labels = self.labels[indices]
        tokens = sum(count_tokens(format_record(r)) for r in records)
        return KvDataset(records, keys, labels, tokens)


def _labels_of(record: PhonebookRecord) -> list[int]:
    return [int(c) for c in record.number.replace("-", "")]


def make_dataset(records: list[PhonebookRecord],
                 d_in: int = D_IN_DEFAULT) -> KvDataset:
    """Encode records; checks for hash collisions between distinct names."""
    seen: dict[int, str] = {}
    for r in records:
        digest = name_digest(r.name)
        if seen.get(digest, r.name) != r.name:
            raise KeyCollisionError(
                f"names {seen[digest]!r} and {r.name!r} share a key digest"
            )
        seen[digest] = r.name
    keys = np.stack([encode_key(r.name, d_in) for r in records]) if records \
        else np.zeros((0, d_in))
    labels = np.array([_labels_of(r) for r in records], dtype=np.int64) \
        if records else np.zeros((0, N_POSITIONS), dtype=np.int64)
    tokens = sum(count_tokens(format_record(r)) for r in records)
    return KvDataset(list(records), Matrix(keys), labels, tokens)


def slice_by_budget(records: list[PhonebookRecord], budget: int,
                    d_in: int = D_IN_DEFAULT) -> KvDataset:
    """Take records in order until the running token total first exceeds
    the budget; the record that crosses the budget is included.

    Slices taken from one source at growing budgets are prefix-nested.
    """
    if not records:
        raise ValueError("no records to slice")
    first_tokens = count_tokens(format_record(records[0]))
    if budget < first_tokens:
        raise ValueError(
            f"budget {budget} is smaller than the first record "
            f"({first_tokens} tokens)"
        )
    taken, total = [], 0
    for record in records:
        taken.append(record)
        total += count_tokens(format_record(record))
        if total > budget:
            break
    return make_dataset(taken, d_in)


@dataclass(frozen=True)
class TrainConfig:
    rank: int = 8
    alpha: float = 8.0
    learning_rate: float = 0.5
    steps: int = 1500
    batch_size: int = 8
    seed: int = 0
    init_stddev: float = 0.02

    def __post_init__(self):
        for name in ("rank", "steps", "batch_size", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or \
                    not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("alpha", "learning_rate", "init_stddev"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
        if self.rank < 1 or self.steps < 1 or self.batch_size < 1:
            raise ValueError("rank, steps and batch_size must be positive")
        if self.alpha <= 0 or self.learning_rate < 0 or self.init_stddev < 0:
            raise ValueError("alpha must be positive; rates must be >= 0")

    def with_rank(self, rank: int) -> "TrainConfig":
        """Rank variant keeping alpha == rank, the sweep convention."""
        return replace(self, rank=rank, alpha=float(rank))


@dataclass
class MemoryModel:
    """Frozen base map plus the trainable pair; w0 never changes."""

    w0: Matrix
    pair: LowRankPair
    d_in: int = D_IN_DEFAULT

    def __post_init__(self):
        expected = (D_OUT, self.d_in)
        if self.w0.shape != expected or \
                (self.pair.d_out, self.pair.d_in) != expected:
            raise matcore.ShapeMismatchError(
                f"w0 is {self.w0.rows}x{self.w0.cols} and the pair's delta "
                f"{self.pair.d_out}x{self.pair.d_in}, "
                f"expected {D_OUT}x{self.d_in}"
            )

    @property
    def d_out(self) -> int:
        return D_OUT

    def weight(self) -> Matrix:
        return Matrix(self.w0.data + adapterio.delta(self.pair).data)


def frozen_base(seed: int, d_in: int = D_IN_DEFAULT) -> Matrix:
    """The frozen random base map for a seed: small-magnitude Gaussian, so
    untrained logits are non-degenerate but carry no prior associations."""
    return matcore.fill_gaussian(Rng(seed).derive("w0"), D_OUT, d_in,
                                 BASE_STDDEV)


# Offset of each digit position's 10-way block within a row of logits.
_POSITION_OFFSETS = np.arange(N_POSITIONS) * 10
# Words per array of a batch-schedule chunk: 64 KiB, the Rng.bernoulli rule,
# so each chunk's arrays are reused heap memory rather than fresh pages.
_SCHEDULE_CHUNK = matcore._BERNOULLI_CHUNK


class _StepBuffers:
    """The arrays of one forward/backward step over leading shape lead
    (a stack of problems, or none) with m records at the given rank."""

    def __init__(self, lead: tuple, m: int, rank: int, d_in: int):
        self.p = np.empty((*lead, m, rank))     # keys @ a.T, then g @ b
        self.z = np.empty((*lead, m, D_OUT))
        self.exp = np.empty((*lead, m, N_POSITIONS, 10))
        self.top = np.empty((*lead, m, N_POSITIONS, 1))
        self.total = np.empty((*lead, m, N_POSITIONS, 1))
        self.nll = np.empty((*lead, m, N_POSITIONS))
        self.grad_a = np.empty((*lead, rank, d_in))
        self.grad_b = np.empty((*lead, D_OUT, rank))


def _forward_grads(base_logits: np.ndarray, keys: np.ndarray,
                   picks: np.ndarray, a: np.ndarray, b: np.ndarray,
                   s: float, buffers: _StepBuffers | None = None,
                   loss: np.ndarray | None = None):
    """Loss (sum over records) and exact grads wrt a and b.

    Takes one problem, shaped (m, ·), or a stack of S problems of equal
    shape, shaped (S, m, ·); a stacked loss is one sum per slice, and each
    slice's bytes equal those of the problem alone. picks holds the flat
    index into the (…, m, D_OUT) logits of each record's label logit at
    each position (see _label_picks). Loss per record is the sum over the
    10 digit positions of the softmax cross-entropy on that position's
    10-way block.

    The step works in `buffers` and writes the loss into `loss` when they
    are given, so a training loop reuses one set of arrays; the grads
    returned are the buffers' arrays. Overflow means the run is diverging,
    which the caller reads from the loss, so the caller silences numpy's
    over and invalid warnings.
    """
    if buffers is None:
        buffers = _StepBuffers(keys.shape[:-2], keys.shape[-2], a.shape[-2],
                               keys.shape[-1])
    p, z, exp = buffers.p, buffers.z, buffers.exp
    top, total, nll = buffers.top, buffers.total, buffers.nll
    np.matmul(keys, a.swapaxes(-1, -2), out=p)           # (…, m, r)
    np.matmul(p, b.swapaxes(-1, -2), out=z)              # (…, m, 100)
    z *= s
    z += base_logits
    blocks = z.reshape(exp.shape)
    np.maximum.reduce(blocks, axis=-1, keepdims=True, out=top)
    np.subtract(blocks, top, out=exp)
    np.exp(exp, out=exp)
    np.add.reduce(exp, axis=-1, keepdims=True, out=total)
    np.divide(exp, total, out=exp)                       # the softmax
    np.log(total, out=total)
    total += top
    # picks are in range; a mode other than "raise" writes out unbuffered
    np.take(z, picks, out=nll, mode="clip")
    np.subtract(total[..., 0], nll, out=nll)
    loss = np.add.reduce(nll, axis=(-2, -1), out=loss)
    exp.reshape(-1)[picks] -= 1.0
    g = exp.reshape(z.shape)
    np.matmul(g.swapaxes(-1, -2), p, out=buffers.grad_b)  # (…, 100, r)
    buffers.grad_b *= s
    np.matmul(g, b, out=p)
    np.matmul(p.swapaxes(-1, -2), keys, out=buffers.grad_a)  # (…, r, d_in)
    buffers.grad_a *= s
    return loss, buffers.grad_a, buffers.grad_b


def _label_picks(labels: np.ndarray) -> np.ndarray:
    """Flat indices of the label logits for labels shaped (…, m, 10):
    row offset + 10·position + label."""
    rows = np.arange(labels.size // N_POSITIONS) * D_OUT
    return rows.reshape(*labels.shape[:-1], 1) + _POSITION_OFFSETS + labels


def _batch_schedule(rng: Rng, n: int, m: int, steps: int, width: int):
    """The mini-batch of every step as (k, m) arrays whose rows are
    successive rng.permutation(n)[:m]. The stream is counter-based, so one
    draw of k·n words equals k draws of n. A chunk of k steps keeps its
    arrays, and the caller's `width` words per step, within
    _SCHEDULE_CHUNK words, or takes one step."""
    chunk = max(1, _SCHEDULE_CHUNK // max(n, width))
    for start in range(0, steps, chunk):
        k = min(chunk, steps - start)
        # permutation's own rule, row-wise; the copy frees the rest
        yield np.argsort(rng.uint64(k * n).reshape(k, n), axis=1,
                         kind="stable")[:, :m].copy()


def _minibatches(base_logits: np.ndarray, keys: np.ndarray,
                 label_cols: np.ndarray, row_offsets: np.ndarray, rng: Rng,
                 steps: int):
    """Each step's (base logits, keys, label picks), the first two gathered
    into one pair of arrays that every step reuses."""
    count, n, d_in = keys.shape
    m = row_offsets.shape[1]
    batch_logits = np.empty((count, m, D_OUT))
    batch_keys = np.empty((count, m, d_in))
    for batches in _batch_schedule(rng, n, m, steps,
                                   count * m * N_POSITIONS):
        # the label picks of every step in the chunk, step-major
        picks = np.add(label_cols[:, batches].swapaxes(0, 1), row_offsets,
                       order="C")
        for idx, step_picks in zip(batches, picks):
            np.take(base_logits, idx, axis=1, out=batch_logits, mode="clip")
            np.take(keys, idx, axis=1, out=batch_keys, mode="clip")
            yield batch_logits, batch_keys, step_picks


def loss_and_grads(w0: Matrix, pair: LowRankPair, dataset: KvDataset):
    """Full-dataset loss (sum over records) and gradients, as arrays."""
    keys = dataset.keys.data
    base_logits = keys @ w0.data.T
    with np.errstate(over="ignore", invalid="ignore"):
        loss, grad_a, grad_b = _forward_grads(
            base_logits, keys, _label_picks(dataset.labels), pair.a.data,
            pair.b.data, pair.alpha / pair.rank)
    return float(loss), grad_a, grad_b


@dataclass
class TrainResult:
    pair: LowRankPair
    losses: list[float]
    model: MemoryModel


def train(dataset: KvDataset, config: TrainConfig) -> TrainResult:
    """Mini-batch gradient descent on the factors only; w0 stays frozen.

    Factor init is the standard low-rank recipe: a is Gaussian at
    init_stddev, b starts at zero, so the delta is zero before training.
    Per-step losses are the batch mean per-record loss, measured before the
    update. Fully deterministic per (seed, config, dataset).
    """
    return train_stacked([dataset], config)[0]


def train_stacked(datasets: list[KvDataset],
                  config: TrainConfig) -> list[TrainResult]:
    """Train one pair per dataset under one config, as a single stacked
    problem; every result is byte-identical to train(dataset, config).

    The datasets must have the same length and d_in. They share the frozen
    base, the factor init and, in mini-batch mode, the batch drawn at each
    step, since all of these depend only on the seed and the length. A
    slice whose loss turns non-finite keeps stepping without touching the
    others; after the last step, TrainingDiverged names the lowest-index
    diverged dataset (as .index) and its first non-finite step.
    """
    if not datasets:
        raise ValueError("no datasets to train")
    n, d_in = len(datasets[0]), datasets[0].d_in
    if any(len(ds) != n or ds.d_in != d_in for ds in datasets):
        raise ValueError("stacked datasets must share length and d_in")
    if n == 0:
        raise ValueError("cannot train on an empty dataset")
    count = len(datasets)
    w0 = frozen_base(config.seed, d_in)
    a = np.repeat(Rng(config.seed).derive("init").gaussian(
        config.rank * d_in).reshape(1, config.rank, d_in)
        * config.init_stddev, count, axis=0)
    b = np.zeros((count, D_OUT, config.rank))
    s = config.alpha / config.rank
    # one dataset's keys are read in place; a stack of them is one copy
    keys = datasets[0].keys.data[None] if count == 1 else \
        np.stack([ds.keys.data for ds in datasets])
    base_logits = np.empty((count, n, D_OUT))
    for k, out in zip(keys, base_logits):
        np.matmul(k, w0.data.T, out=out)
    # the flat label index of _label_picks, less the row offset, which
    # depends on the batch
    label_cols = np.stack([ds.labels for ds in datasets]) + _POSITION_OFFSETS
    full_batch = config.batch_size >= n
    m = n if full_batch else config.batch_size
    row_offsets = (np.arange(count * m) * D_OUT).reshape(count, m, 1)
    if full_batch:
        batches = itertools.repeat((base_logits, keys,
                                    label_cols + row_offsets))
    else:
        batches = _minibatches(base_logits, keys, label_cols, row_offsets,
                               Rng(config.seed).derive("batches"),
                               config.steps)
    rate = config.learning_rate / m
    buffers = _StepBuffers((count,), m, config.rank, d_in)
    losses = np.empty((config.steps, count))
    # a diverged slice keeps stepping on non-finite values; silence numpy
    with np.errstate(over="ignore", invalid="ignore"):
        for loss, (batch_logits, batch_keys, picks) in zip(losses, batches):
            _, grad_a, grad_b = _forward_grads(
                batch_logits, batch_keys, picks, a, b, s, buffers, loss)
            grad_a *= rate
            a -= grad_a
            grad_b *= rate
            b -= grad_b
    losses /= m
    finite = np.isfinite(losses)
    if not finite.all():
        index = int(np.argmin(finite.all(axis=0)))
        step = int(np.argmin(finite[:, index]))
        raise TrainingDiverged(step, index=index)
    results = []
    for i in range(count):
        pair = LowRankPair(a=Matrix(a[i]), b=Matrix(b[i]),
                           alpha=config.alpha, rank=config.rank)
        results.append(TrainResult(
            pair=pair, losses=losses[:, i].tolist(),
            model=MemoryModel(w0=w0, pair=pair, d_in=d_in)))
    return results


def exact_match(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Strict exact match per record: every digit position must argmax to
    its label, with no tie (a tie counts as incorrect). logits is
    (..., D_OUT), labels (..., N_POSITIONS)."""
    blocks = logits.reshape(*logits.shape[:-1], N_POSITIONS, 10)
    top = blocks.max(axis=-1)
    unambiguous = ((blocks == top[..., None]).sum(axis=-1) == 1).all(axis=-1)
    return (blocks.argmax(axis=-1) == labels).all(axis=-1) & unambiguous


def evaluate(model: MemoryModel, dataset: KvDataset) -> float:
    """Strict exact-match rate over the dataset."""
    if len(dataset) == 0:
        return 0.0
    logits = dataset.keys.data @ model.weight().data.T
    return float(exact_match(logits, dataset.labels).mean())


def save_dataset(dataset: KvDataset, path, seed: int | None = None) -> None:
    """UTF-8 question/answer lines plus a JSON sidecar at <path>.json."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        for record in dataset.records:
            fh.write(format_record(record) + "\n")
    sidecar = {
        "seed": seed,
        "token_count": dataset.token_count,
        "n_records": len(dataset),
    }
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


def load_records(path) -> list[PhonebookRecord]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            m = _LINE_RE.match(line)
            if not m:
                raise ValueError(f"{path}:{lineno}: unparseable record line")
            records.append(PhonebookRecord(name=m.group(1), number=m.group(2)))
    return records


def load_dataset(path, d_in: int = D_IN_DEFAULT) -> KvDataset:
    return make_dataset(load_records(path), d_in)
