import numpy as np
import pytest

from loramem import router
from loramem.matcore import Matrix, Rng, ShapeMismatchError
from loramem.router import (
    DegenerateShardError, PolicyKind, RouterError,
    RoutingPolicy, build_index, route, routing_accuracy,
)

D = 32


def index_row(index, module_id: str) -> np.ndarray:
    return index.vectors.data[index.ids.index(module_id)]


def unit(vec) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    return vec / np.linalg.norm(vec)


def basis_shards(n_shards: int, keys_per_shard: int, spread: float,
                 d: int = D, seed: int = 0):
    """Clusters around orthogonal basis directions; centroid separation is
    sqrt(2), intra-shard spread is controlled by `spread`."""
    rng = Rng(seed)
    shards, queries, truths = [], [], []
    for s in range(n_shards):
        center = np.zeros(d)
        center[s] = 1.0
        rows = []
        for _ in range(keys_per_shard):
            rows.append(unit(center + spread * rng.gaussian(d)))
        shards.append((f"m{s}", Matrix(np.stack(rows))))
        queries.extend(rows)
        truths.extend([f"m{s}"] * keys_per_shard)
    return shards, Matrix(np.stack(queries)), truths


def test_build_index_single_key_is_that_vector():
    v = unit(Rng(1).gaussian(D))
    index = build_index([("solo", Matrix(v.reshape(1, -1)))])
    np.testing.assert_allclose(index_row(index, "solo"), v, atol=1e-12)


def test_build_index_rejects_opposite_keys():
    v = unit(Rng(2).gaussian(D))
    keys = Matrix(np.stack([v, -v]))
    with pytest.raises(DegenerateShardError):
        build_index([("bad", keys)])


def test_build_index_matches_mean_oracle():
    rng = Rng(3)
    keys = np.stack([unit(rng.gaussian(D)) for _ in range(5)])
    index = build_index([("m", Matrix(keys))])
    manual = np.zeros(D)
    for row in keys:
        manual += row
    manual /= 5
    manual /= np.linalg.norm(manual)
    np.testing.assert_allclose(index_row(index, "m"), manual, atol=1e-12)


def test_build_index_rejects_empty_and_duplicates():
    v = Matrix(unit(Rng(4).gaussian(D)).reshape(1, -1))
    with pytest.raises(RouterError):
        build_index([])
    with pytest.raises(RouterError):
        build_index([("m", Matrix(np.zeros((0, D))))])
    with pytest.raises(RouterError):
        build_index([("m", v), ("m", v)])


def test_route_self_similarity():
    shards, _, _ = basis_shards(4, 3, 0.05)
    index = build_index(shards)
    policy = RoutingPolicy(kind=PolicyKind.COSINE_TOP_K, k=1)
    entry = index_row(index, "m2")
    ranked = route(index, entry, policy)
    assert ranked[0][0] == "m2"
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-9)


def test_route_orthogonal_distractors_score_zero():
    e0, e1 = np.zeros(D), np.zeros(D)
    e0[0] = 1.0
    e1[1] = 1.0
    index = build_index([("a", Matrix(e0.reshape(1, -1))),
                         ("b", Matrix(e1.reshape(1, -1)))])
    ranked = route(index, e0,
                   RoutingPolicy(kind=PolicyKind.COSINE_TOP_K, k=2))
    assert ranked[0] == ("a", pytest.approx(1.0))
    assert ranked[1][0] == "b"
    assert ranked[1][1] == pytest.approx(0.0, abs=1e-12)


def test_route_oracle_echoes_truth():
    shards, _, _ = basis_shards(3, 2, 0.05)
    index = build_index(shards)
    policy = RoutingPolicy(kind=PolicyKind.ORACLE)
    assert route(index, index_row(index, "m0"), policy,
                 truth="m1") == [("m1", 1.0)]
    with pytest.raises(RouterError):
        route(index, index_row(index, "m0"), policy)


def test_route_dimension_mismatch():
    shards, _, _ = basis_shards(2, 2, 0.05)
    index = build_index(shards)
    with pytest.raises(ShapeMismatchError):
        route(index, np.zeros(D + 1),
              RoutingPolicy(kind=PolicyKind.COSINE_TOP_K))


def test_route_k_equal_to_index_size_is_permutation():
    shards, _, _ = basis_shards(5, 2, 0.1)
    index = build_index(shards)
    ranked = route(index, unit(Rng(9).gaussian(D)),
                   RoutingPolicy(kind=PolicyKind.COSINE_TOP_K, k=5))
    assert sorted(mid for mid, _ in ranked) == sorted(index.ids)


def test_route_k_exceeding_index_rejected():
    shards, _, _ = basis_shards(2, 2, 0.05)
    index = build_index(shards)
    with pytest.raises(RouterError):
        route(index, np.zeros(D),
              RoutingPolicy(kind=PolicyKind.COSINE_TOP_K, k=3))


def test_route_ties_break_lexicographically():
    e = np.zeros(D)
    e[0] = 1.0
    dup = Matrix(e.reshape(1, -1))
    index = build_index([("zeta", dup), ("alpha", dup)])
    ranked = route(index, e, RoutingPolicy(kind=PolicyKind.COSINE_TOP_K, k=2))
    assert [mid for mid, _ in ranked] == ["alpha", "zeta"]


def test_noiseless_accuracy_on_well_separated_shards():
    # centroid separation sqrt(2) >= 4x the intra-shard spread
    shards, queries, truths = basis_shards(8, 5, 0.05, seed=11)
    index = build_index(shards)
    # 1000 queries by tiling the cluster members
    reps = 1000 // queries.rows + 1
    tiled = Matrix(np.tile(queries.data, (reps, 1))[:1000])
    labels = (truths * reps)[:1000]
    policy = RoutingPolicy(kind=PolicyKind.COSINE_TOP_K, k=1)
    assert routing_accuracy(index, tiled, labels, policy) == 1.0


def test_oracle_accuracy_is_one():
    shards, queries, truths = basis_shards(4, 3, 0.2, seed=29)
    index = build_index(shards)
    policy = RoutingPolicy(kind=PolicyKind.ORACLE)
    assert routing_accuracy(index, queries, truths, policy) == 1.0


def test_extreme_noise_approaches_chance():
    shards, queries, truths = basis_shards(8, 4, 0.05, seed=13)
    index = build_index(shards)
    reps = 10_000 // queries.rows + 1
    tiled = Matrix(np.tile(queries.data, (reps, 1))[:10_000])
    labels = (truths * reps)[:10_000]
    policy = RoutingPolicy(kind=PolicyKind.COSINE_TOP_K, k=1,
                           noise_stddev=100.0, seed=5)
    acc = routing_accuracy(index, tiled, labels, policy)
    assert abs(acc - 1 / 8) <= 0.05


def test_accuracy_non_increasing_in_noise():
    shards, queries, truths = basis_shards(8, 4, 0.05, seed=17)
    index = build_index(shards)
    reps = 3
    tiled = Matrix(np.tile(queries.data, (reps, 1)))
    labels = truths * reps
    for seed in (1, 2, 3):
        accs = []
        for eta in (0.0, 0.5, 1.0, 2.0):
            policy = RoutingPolicy(kind=PolicyKind.COSINE_TOP_K, k=1,
                                   noise_stddev=eta, seed=seed)
            accs.append(routing_accuracy(index, tiled, labels, policy))
        assert all(b <= a + 0.02 for a, b in zip(accs, accs[1:]))


def test_routing_deterministic_per_seed_and_ordinal():
    shards, queries, truths = basis_shards(4, 3, 0.1, seed=19)
    index = build_index(shards)
    policy = RoutingPolicy(kind=PolicyKind.COSINE_TOP_K, k=2,
                           noise_stddev=0.7, seed=42)
    r1 = route(index, queries.data[0], policy, ordinal=5)
    r2 = route(index, queries.data[0], policy, ordinal=5)
    r3 = route(index, queries.data[0], policy, ordinal=6)
    assert r1 == r2
    assert r1 != r3  # different per-call stream


def test_scores_invariant_to_stored_vector_scale():
    rng = Rng(21)
    keys = np.stack([unit(rng.gaussian(D)) for _ in range(4)])
    index_a = build_index([("m", Matrix(keys))])
    # power-of-two scaling is an exponent shift, so normalization cancels it
    # bit for bit; arbitrary positive scales cancel to rounding error
    index_b = build_index([("m", Matrix(keys * 8.0))])
    assert index_a.vectors == index_b.vectors
    index_c = build_index([("m", Matrix(keys * 7.5))])
    np.testing.assert_allclose(index_c.vectors.data, index_a.vectors.data,
                               atol=1e-15)


def test_index_json_round_trip(tmp_path):
    shards, _, _ = basis_shards(3, 4, 0.1, seed=23)
    index = build_index(shards)
    path = tmp_path / "idx.json"
    router.save_index(index, path)
    loaded = router.load_index(path)
    assert loaded.ids == index.ids
    assert loaded.vectors == index.vectors
    blob = path.read_text()
    assert '"d_emb"' in blob and '"entries"' in blob


def test_routing_accuracy_validations():
    shards, queries, truths = basis_shards(2, 2, 0.05)
    index = build_index(shards)
    policy = RoutingPolicy(kind=PolicyKind.COSINE_TOP_K)
    with pytest.raises(RouterError):
        routing_accuracy(index, Matrix(np.zeros((0, D))), [], policy)
    with pytest.raises(RouterError):
        routing_accuracy(index, queries, truths[:-1], policy)
