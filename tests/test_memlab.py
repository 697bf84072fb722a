import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loramem import analysis, memlab
from loramem.adapterio import LowRankPair
from loramem.matcore import Matrix, Rng
from loramem.memlab import (
    KeyCollisionError, MemoryModel, PhonebookRecord, TrainConfig,
    TrainingDiverged, encode_key, evaluate, exact_match, frozen_base,
    gen_phonebook, loss_and_grads, make_dataset, slice_by_budget, train,
    train_stacked,
)
from loramem.multimem import ShardError, ShardPlan, partition, \
    shard_datasets, train_shards

NUMBER_RE = re.compile(r"^\d{3}-\d{3}-\d{4}$")


@pytest.fixture(scope="module")
def records():
    return gen_phonebook(300, seed=17)


def small_config(**kw) -> TrainConfig:
    base = dict(rank=8, alpha=8.0, learning_rate=0.5, steps=400,
                batch_size=8, seed=5, init_stddev=0.02)
    base.update(kw)
    return TrainConfig(**base)


# --- generation -------------------------------------------------------------


def test_numbers_match_format(records):
    assert all(NUMBER_RE.match(r.number) for r in records)


def test_generation_deterministic():
    assert gen_phonebook(50, seed=3) == gen_phonebook(50, seed=3)
    assert gen_phonebook(50, seed=3) != gen_phonebook(50, seed=4)


def test_names_unique_at_scale():
    names = [r.name for r in gen_phonebook(1000, seed=1)]
    assert len(set(names)) == 1000


def test_generation_bounds():
    with pytest.raises(ValueError):
        gen_phonebook(0, seed=1)
    with pytest.raises(ValueError):
        gen_phonebook(10**9, seed=1)


def test_record_validates_number():
    with pytest.raises(ValueError):
        PhonebookRecord(name="A B", number="12-345-6789")


# --- slicing ----------------------------------------------------------------


def test_slices_are_prefix_nested(records):
    small = slice_by_budget(records, 500)
    large = slice_by_budget(records, 1500)
    assert len(small) < len(large)
    assert large.records[:len(small)] == small.records


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=20, max_value=1200),
       st.integers(min_value=20, max_value=1200))
def test_slice_prefix_property(b1, b2):
    records = gen_phonebook(200, seed=23)
    lo, hi = sorted((b1, b2))
    small = slice_by_budget(records, lo)
    large = slice_by_budget(records, hi)
    assert large.records[:len(small)] == small.records


def test_slice_stops_at_first_excess(records):
    ds = slice_by_budget(records, 100)
    per = [memlab.count_tokens(memlab.format_record(r)) for r in ds.records]
    assert sum(per) > 100                  # final record crossed the budget
    assert sum(per[:-1]) <= 100            # without it we were at or under


def test_slice_exact_boundary_continues(records):
    three = sum(memlab.count_tokens(memlab.format_record(r))
                for r in records[:3])
    ds = slice_by_budget(records, three)
    assert len(ds) >= 3


def test_slice_budget_too_small(records):
    with pytest.raises(ValueError, match="budget"):
        slice_by_budget(records, 3)


def test_token_count_matches_recount_oracle(records):
    ds = slice_by_budget(records, 700)
    recount = sum(len(memlab.format_record(r).split()) for r in ds.records)
    assert ds.token_count == recount


# --- keys -------------------------------------------------------------------


def test_keys_unit_norm_and_deterministic(records):
    ds = make_dataset(records[:20])
    np.testing.assert_allclose(np.linalg.norm(ds.keys.data, axis=1), 1.0,
                               atol=1e-12)
    again = make_dataset(records[:20])
    assert ds.keys == again.keys
    assert np.array_equal(encode_key("Alice Abbott"), encode_key("Alice Abbott"))
    assert not np.array_equal(encode_key("Alice Abbott"), encode_key("Vera Voss"))


def test_labels_are_number_digits(records):
    ds = make_dataset(records[:5])
    for row, rec in zip(ds.labels, ds.records):
        assert "".join(str(d) for d in row) == rec.number.replace("-", "")


# --- training and evaluation ------------------------------------------------


def test_untrained_pair_scores_zero():
    # chance on any record is ~1e-10, so 1000 records score exactly zero
    ds = make_dataset(gen_phonebook(1000, seed=31))
    pair = LowRankPair(a=Matrix(np.ones((4, ds.d_in))),
                       b=Matrix(np.zeros((memlab.D_OUT, 4))), alpha=4.0,
                       rank=4)
    model = MemoryModel(w0=frozen_base(9, ds.d_in), pair=pair, d_in=ds.d_in)
    assert evaluate(model, ds) == 0.0


def test_single_record_memorized_perfectly(records):
    ds = make_dataset(records[:1])
    result = train(ds, small_config(steps=600))
    assert evaluate(result.model, ds) == 1.0


def test_zero_learning_rate_keeps_factors_and_loss_flat(records):
    ds = make_dataset(records[:10])
    cfg = small_config(learning_rate=0.0, steps=50, batch_size=16)
    result = train(ds, cfg)
    rng_a = (Rng(cfg.seed).derive("init").gaussian(cfg.rank * ds.d_in)
             .reshape(cfg.rank, ds.d_in) * cfg.init_stddev)
    assert np.array_equal(result.pair.a.data, rng_a)
    assert np.array_equal(result.pair.b.data,
                          np.zeros((memlab.D_OUT, cfg.rank)))
    assert len(set(result.losses)) == 1


def test_gradients_match_central_finite_differences(records):
    ds = make_dataset(records[:3], d_in=24)
    rng = Rng(77)
    pair = LowRankPair(
        a=Matrix(rng.gaussian(2 * 24).reshape(2, 24) * 0.3),
        b=Matrix(rng.gaussian(memlab.D_OUT * 2).reshape(memlab.D_OUT, 2) * 0.3),
        alpha=2.0, rank=2)
    w0 = frozen_base(1, 24)
    loss, grad_a, grad_b = loss_and_grads(w0, pair, ds)
    eps = 1e-5

    def loss_at(a, b):
        p = LowRankPair(a=Matrix(a), b=Matrix(b), alpha=2.0, rank=2)
        return loss_and_grads(w0, p, ds)[0]

    for target, grad in (("a", grad_a), ("b", grad_b)):
        base = pair.a.data.copy() if target == "a" else pair.b.data.copy()
        it = np.nditer(base, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            plus, minus = base.copy(), base.copy()
            plus[idx] += eps
            minus[idx] -= eps
            if target == "a":
                fd = (loss_at(plus, pair.b.data) - loss_at(minus, pair.b.data)) / (2 * eps)
            else:
                fd = (loss_at(pair.a.data, plus) - loss_at(pair.a.data, minus)) / (2 * eps)
            denom = max(abs(fd), abs(grad[idx]), 1e-8)
            assert abs(fd - grad[idx]) / denom < 1e-4
            it.iternext()


def test_em_matches_string_comparison_oracle(records):
    ds = make_dataset(records[:50])
    result = train(ds, small_config(rank=16, alpha=16.0, steps=900))
    em = evaluate(result.model, ds)
    logits = ds.keys.data @ result.model.weight().data.T
    oracle_hits = 0
    for row, rec in zip(logits.tolist(), ds.records):
        blocks = [row[p:p + 10] for p in range(0, len(row), 10)]
        if any(block.count(max(block)) > 1 for block in blocks):
            continue  # a tie in any block counts as wrong
        d = "".join(str(block.index(max(block))) for block in blocks)
        oracle_hits += f"{d[0:3]}-{d[3:6]}-{d[6:10]}" == rec.number
    assert em == pytest.approx(oracle_hits / len(ds))
    assert em > 0.9  # the instance is comfortably memorizable


def test_exact_match_on_hand_built_logits():
    labels = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3])
    right = np.zeros(100)
    right[np.arange(10) * 10 + labels] = 1.0
    one_wrong = right.copy()
    one_wrong[40 + 5], one_wrong[40 + 7] = 0.0, 1.0
    one_tie = right.copy()
    one_tie[70 + 8] = 1.0  # position 7 now has two maxima
    got = exact_match(np.stack([right, one_wrong, one_tie]), labels)
    assert got.tolist() == [True, False, False]


def test_loss_trace_non_increasing_full_batch(records):
    ds = make_dataset(records[:10])
    cfg = small_config(learning_rate=1e-3, steps=300, batch_size=10)
    result = train(ds, cfg)
    assert all(np.isfinite(result.losses))
    assert all(b <= a + 1e-12 for a, b in zip(result.losses,
                                              result.losses[1:]))


def test_training_bit_reproducible(records):
    ds = make_dataset(records[:30])
    cfg = small_config(steps=200)
    r1, r2 = train(ds, cfg), train(ds, cfg)
    assert r1.pair.a == r2.pair.a
    assert r1.pair.b == r2.pair.b
    assert r1.losses == r2.losses


def test_divergence_reports_step_index(records):
    ds = make_dataset(records[:20])
    cfg = small_config(learning_rate=50.0, steps=4000)
    with pytest.raises(TrainingDiverged) as exc_info:
        train(ds, cfg)
    assert exc_info.value.step >= 0


def test_w0_is_frozen_by_training(records):
    ds = make_dataset(records[:10])
    cfg = small_config(steps=100)
    result = train(ds, cfg)
    assert result.model.w0 == frozen_base(cfg.seed, ds.d_in)


# --- stacked training against the per-dataset oracle ------------------------


def _oracle_forward_grads(base_logits, keys, labels, a, b, s):
    """The 2-D forward/backward step as it stood before stacking, kept
    verbatim as the byte-level reference."""
    m = keys.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        p = keys @ a.T                       # m x r
        z = base_logits + s * (p @ b.T)      # m x 100
        blocks = z.reshape(m, memlab.N_POSITIONS, 10)
        shifted = blocks - blocks.max(axis=2, keepdims=True)
        exp = np.exp(shifted)
        logsumexp = np.log(exp.sum(axis=2)) + blocks.max(axis=2)
        picked = np.take_along_axis(blocks, labels[:, :, None], axis=2)[:, :, 0]
        loss = float((logsumexp - picked).sum())
        soft = exp / exp.sum(axis=2, keepdims=True)
        np.put_along_axis(
            soft, labels[:, :, None],
            np.take_along_axis(soft, labels[:, :, None], axis=2) - 1.0, axis=2)
        g = soft.reshape(m, memlab.D_OUT)
        grad_b = s * (g.T @ p)               # 100 x r
        grad_a = s * ((g @ b).T @ keys)      # r x d_in
    return loss, grad_a, grad_b


def _oracle_train(dataset, config):
    """The sequential trainer over the oracle step: (a, b, losses), or the
    first non-finite step as an int."""
    n, d_in = len(dataset), dataset.d_in
    w0 = frozen_base(config.seed, d_in)
    a = (Rng(config.seed).derive("init").gaussian(config.rank * d_in)
         .reshape(config.rank, d_in) * config.init_stddev)
    b = np.zeros((memlab.D_OUT, config.rank))
    s = config.alpha / config.rank
    keys, labels = dataset.keys.data, dataset.labels
    base_logits = keys @ w0.data.T
    batch_rng = Rng(config.seed).derive("batches")
    losses = []
    for step in range(config.steps):
        if config.batch_size >= n:
            idx, m = slice(None), n
        else:
            idx = batch_rng.permutation(n)[:config.batch_size]
            m = config.batch_size
        loss, grad_a, grad_b = _oracle_forward_grads(
            base_logits[idx], keys[idx], labels[idx], a, b, s)
        if not np.isfinite(loss):
            return step
        losses.append(loss / m)
        a -= (config.learning_rate / m) * grad_a
        b -= (config.learning_rate / m) * grad_b
    return a, b, losses


def _bytes(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(count=st.integers(1, 4), m=st.integers(1, 20), rank=st.integers(1, 8),
       d_in=st.integers(1, 24), seed=st.integers(0, 2**32 - 1),
       logits=st.sampled_from(["gaussian", "tied", "near-overflow"]))
def test_forward_grads_bytes_match_oracle(count, m, rank, d_in, seed,
                                          logits):
    gen = np.random.default_rng(seed)
    shape = (count, m, memlab.D_OUT)
    if logits == "gaussian":
        base = gen.normal(size=shape)
    elif logits == "tied":
        # few distinct values per block, so block maxima tie
        base = gen.integers(-2, 3, size=shape).astype(np.float64)
    else:
        # exp of the raw logits would overflow; only the shifted ones fit
        base = 705.0 + gen.normal(scale=3.0, size=shape)
    keys = gen.normal(size=(count, m, d_in))
    labels = gen.integers(0, 10, size=(count, m, memlab.N_POSITIONS))
    a = gen.normal(scale=0.3, size=(count, rank, d_in))
    b = gen.normal(scale=0.3, size=(count, memlab.D_OUT, rank))
    if logits == "tied":
        b[0] = 0.0                      # z equals the tied base exactly
    s = float(gen.uniform(0.25, 4.0))
    stacked = memlab._forward_grads(base, keys, memlab._label_picks(labels),
                                    a, b, s)
    for i in range(count):
        want = _oracle_forward_grads(base[i], keys[i], labels[i], a[i], b[i],
                                     s)
        alone = memlab._forward_grads(base[i], keys[i],
                                      memlab._label_picks(labels[i]),
                                      a[i], b[i], s)
        for got in (alone, tuple(x[i] for x in stacked)):
            assert [_bytes(x) for x in got] == [_bytes(x) for x in want]


def _shards(count: int, budget: int, seed: int = 29):
    dataset = slice_by_budget(gen_phonebook(150, seed=seed), budget)
    return shard_datasets(dataset, partition(dataset, count))


@pytest.mark.parametrize("batch_size", [8, 4])
def test_train_stacked_bytes_match_per_dataset_training(batch_size):
    datasets = _shards(6, 500)               # 46 records: sizes 8 and 7
    datasets = [d for d in datasets if len(d) == len(datasets[-1])]
    assert len(datasets) > 1
    cfg = small_config(steps=120, batch_size=batch_size)
    stacked = train_stacked(datasets, cfg)
    for got, dataset in zip(stacked, datasets, strict=True):
        alone = train(dataset, cfg)
        a, b, losses = _oracle_train(dataset, cfg)
        for want_a, want_b, want_losses in (
                (alone.pair.a.data, alone.pair.b.data, alone.losses),
                (a, b, losses)):
            assert _bytes(got.pair.a.data) == _bytes(want_a)
            assert _bytes(got.pair.b.data) == _bytes(want_b)
            assert _bytes(got.losses) == _bytes(want_losses)
        assert got.model.w0 == alone.model.w0


# A learning rate at which every shard diverges at some step near 240 (full
# batch) or 230 (batch 4), so a step budget inside that window leaves some
# shards diverged and the others finite. The sequential loop names the
# lowest-index diverged shard, which here is not the one that diverges first,
# and finite shards sit below it, so a diverged slice that leaked into its
# neighbours would change the answer.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("batch_size,steps", [(8, 245), (4, 234)])
def test_stacked_divergence_names_the_sequential_shard_and_step(batch_size,
                                                               steps):
    datasets = _shards(8, 700, seed=9)
    cfg = small_config(learning_rate=5.0, steps=steps, batch_size=batch_size,
                       seed=3)
    outcomes = [_oracle_train(d, cfg) for d in datasets]
    diverged = [i for i, o in enumerate(outcomes) if isinstance(o, int)]
    first = diverged[0]
    assert first > 0 and len(diverged) < len(datasets)
    assert min(outcomes[i] for i in diverged) < outcomes[first]
    with pytest.raises(TrainingDiverged) as exc_info:
        train_stacked(datasets, cfg)
    assert (exc_info.value.index, exc_info.value.step) == \
        (first, outcomes[first])
    dataset = slice_by_budget(gen_phonebook(150, seed=9), 700)
    with pytest.raises(ShardError,
                       match=f"shard {first} diverged at step "
                             f"{outcomes[first]}$"):
        train_shards(dataset, partition(dataset, 8), cfg)


@pytest.mark.filterwarnings("error")
def test_overflowing_update_raises_divergence_without_warnings():
    # At this rate the update itself overflows, before any loss is non-finite
    datasets = _shards(8, 700, seed=9)
    cfg = small_config(learning_rate=1e300, steps=20, batch_size=8, seed=3)
    with np.errstate(over="ignore", invalid="ignore"):
        want = _oracle_train(datasets[0], cfg)
    with pytest.raises(TrainingDiverged) as exc_info:
        train_stacked(datasets, cfg)
    assert (exc_info.value.index, exc_info.value.step) == (0, want)


@pytest.mark.filterwarnings("error")
def test_divergence_across_size_groups_names_the_lowest_shard():
    # Shard sizes 7, 9, 7, 9, 8, 8, 8, 8: three stacks, the 9-record one in
    # mini-batch mode. Shard 2 (first stack) diverges first, but shard 1
    # (second stack) is the lowest index that diverges at all.
    dataset = slice_by_budget(gen_phonebook(150, seed=9), 700)
    sizes = [7, 9, 7, 9, 8, 8, 8, 8]
    plan = ShardPlan(len(sizes), tuple(
        shard for shard, size in enumerate(sizes) for _ in range(size)))
    cfg = small_config(learning_rate=5.0, steps=275, batch_size=8, seed=3)
    outcomes = [_oracle_train(d, cfg) for d in shard_datasets(dataset, plan)]
    diverged = [i for i, o in enumerate(outcomes) if isinstance(o, int)]
    assert diverged[:2] == [1, 2] and outcomes[2] < outcomes[1]
    with pytest.raises(ShardError,
                       match=f"shard 1 diverged at step {outcomes[1]}$"):
        train_shards(dataset, plan, cfg)


def test_shards_of_unequal_size_match_the_oracle():
    dataset = slice_by_budget(gen_phonebook(150, seed=29), 500)
    plan = partition(dataset, 5)
    assert len({len(d) for d in shard_datasets(dataset, plan)}) == 2
    cfg = small_config(steps=60, batch_size=8)
    adapters = train_shards(dataset, plan, cfg)
    for adapter, shard in zip(adapters, shard_datasets(dataset, plan),
                              strict=True):
        a, b, _ = _oracle_train(shard, cfg)
        pair = adapter.targets["memory"]
        assert _bytes(pair.a.data) == _bytes(a)
        assert _bytes(pair.b.data) == _bytes(b)


# --- the batch schedule, drawn in chunks ------------------------------------


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 9000), count=st.integers(1, 4),
       seed=st.integers(0, 2**64 - 1), data=st.data())
def test_chunked_schedule_equals_per_step_draws(n, count, seed, data):
    m = data.draw(st.integers(1, min(n - 1, 16)), label="m")
    width = count * m * memlab.N_POSITIONS   # as train_stacked passes it
    chunk = max(1, memlab._SCHEDULE_CHUNK // max(n, width))
    # a last chunk shorter than the others, unless every chunk is one step
    steps = data.draw(st.integers(0, 2), label="whole") * chunk + \
        (data.draw(st.integers(1, chunk - 1), label="rest") if chunk > 1
         else 1)
    chunks = list(memlab._batch_schedule(Rng(seed).derive("batches"), n, m,
                                         steps, width))
    rng = Rng(seed).derive("batches")
    want = [rng.permutation(n)[:m] for _ in range(steps)]
    got = [row for rows in chunks for row in rows]
    assert len(got) == steps
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # each chunk's words and sort fit in _SCHEDULE_CHUNK words, or it is
    # a single step; n > 8192 gives single steps
    assert all(len(rows) * max(n, width) <= memlab._SCHEDULE_CHUNK or
               len(rows) == 1 for rows in chunks)
    if n > memlab._SCHEDULE_CHUNK:
        assert len(chunks) == steps


def test_training_peak_memory_within_a_schedule_chunk_of_per_step_draws():
    # The largest default load (564 records), mini-batch, at a rank whose
    # peak falls inside the training loop rather than in the draw of the
    # frozen base. The oracle draws each step's batch alone and makes fresh
    # arrays every step; train may add one chunk of the batch schedule.
    import tracemalloc

    base = TrainConfig()
    dataset = slice_by_budget(analysis._source_records(base, 6200), 6200)
    assert len(dataset) > base.batch_size
    cfg = TrainConfig(rank=32, alpha=32.0, steps=100, seed=101)
    peaks = []
    for run in (_oracle_train, train):
        tracemalloc.start()
        try:
            run(dataset, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    per_step, chunked = peaks
    assert chunked <= per_step + memlab._SCHEDULE_CHUNK * 8


def test_train_stacked_rejects_empty_and_unequal_inputs(records):
    with pytest.raises(ValueError, match="no datasets"):
        train_stacked([], small_config())
    with pytest.raises(ValueError, match="length"):
        train_stacked([make_dataset(records[:5]), make_dataset(records[:6])],
                      small_config())
    with pytest.raises(ValueError, match="empty"):
        train(make_dataset([]), small_config())


@pytest.mark.parametrize("field", ["alpha", "learning_rate", "init_stddev"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_scalars(field, value):
    with pytest.raises(ValueError, match=field):
        small_config(**{field: value})


@pytest.mark.parametrize("field", ["rank", "steps", "batch_size", "seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "8", np.float64(4.0)])
def test_config_rejects_non_integer_sizes(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        small_config(**{field: value})


def test_config_accepts_numpy_integer_sizes():
    cfg = small_config(rank=np.int64(4), steps=np.int32(5))
    assert (cfg.rank, cfg.steps) == (4, 5)


# --- persistence ------------------------------------------------------------


def test_dataset_save_load_round_trip(tmp_path, records):
    ds = slice_by_budget(records, 300)
    path = tmp_path / "pb.txt"
    memlab.save_dataset(ds, path, seed=17)
    loaded = memlab.load_dataset(path)
    assert loaded.records == ds.records
    assert loaded.token_count == ds.token_count
    assert loaded.keys == ds.keys
    sidecar = (tmp_path / "pb.txt.json").read_text()
    assert '"seed": 17' in sidecar


def test_load_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("Question: what? Answer: nope\n")
    with pytest.raises(ValueError, match="unparseable"):
        memlab.load_records(path)


def test_key_collision_detection(monkeypatch):
    # distinct names never collide in practice; the guard exists for the
    # astronomically unlikely digest collision and is exercised by forcing one
    r1 = PhonebookRecord(name="First Person", number="123-456-7890")
    r2 = PhonebookRecord(name="Other Person", number="222-333-4444")
    monkeypatch.setattr(memlab, "name_digest", lambda name: 42)
    with pytest.raises(KeyCollisionError):
        make_dataset([r1, r2])
