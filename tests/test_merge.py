import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loramem import merge as merge_mod
from loramem.adapterio import Adapter, LowRankPair, delta
from loramem.matcore import Matrix, NonFiniteError, Rng
from loramem.merge import (
    MergeError, MergeMethod, MergeSpec, TargetMismatchError, WeightError,
    merge,
)


def rand_adapter(seed, name, rank=2, d_in=4, d_out=3, targets=("t0",)) -> Adapter:
    rng = Rng(seed)
    pairs = {}
    for tid in targets:
        sub = rng.derive(tid)
        pairs[tid] = LowRankPair(
            a=Matrix(sub.gaussian(rank * d_in).reshape(rank, d_in)),
            b=Matrix(sub.gaussian(d_out * rank).reshape(d_out, rank)),
            alpha=float(rank), rank=rank)
    return Adapter(name=name, targets=pairs)


def value_adapter(name: str, values) -> Adapter:
    """Adapter whose single dense delta is exactly `values` (1 x n)."""
    row = np.asarray(values, dtype=np.float64).reshape(1, -1)
    pair = LowRankPair(a=Matrix(row), b=Matrix(np.array([[1.0]])),
                       alpha=1.0, rank=1)
    return Adapter(name=name, targets={"t0": pair})


def dense_of(merged, tid="t0") -> np.ndarray:
    return merged.densify(tid).data


# --- linear -----------------------------------------------------------------


def test_linear_identical_adapters_uniform():
    ads = [rand_adapter(1, f"a{i}") for i in range(3)]
    for ad in ads[1:]:
        ad.targets = ads[0].targets
    out = merge(ads, MergeSpec(MergeMethod.LINEAR, weights=(1 / 3,) * 3))
    np.testing.assert_allclose(dense_of(out),
                               delta(ads[0].targets["t0"]).data, atol=1e-12)


def test_linear_degenerate_weights_pick_first():
    ads = [rand_adapter(i, f"a{i}") for i in range(3)]
    out = merge(ads, MergeSpec(MergeMethod.LINEAR, weights=(1.0, 0.0, 0.0)))
    np.testing.assert_array_equal(dense_of(out), delta(ads[0].targets["t0"]).data)


def test_linear_scalar_weighted_mean():
    ads = [value_adapter("x", [2.0]), value_adapter("y", [4.0])]
    out = merge(ads, MergeSpec(MergeMethod.LINEAR, weights=(0.25, 0.75)))
    assert dense_of(out)[0, 0] == 3.5


def test_linear_weight_validation():
    ads = [rand_adapter(i, f"a{i}") for i in range(2)]
    with pytest.raises(WeightError):
        merge(ads, MergeSpec(MergeMethod.LINEAR, weights=(0.5, 0.6)))
    with pytest.raises(WeightError):
        merge(ads, MergeSpec(MergeMethod.LINEAR, weights=(1.5, -0.5)))
    with pytest.raises(WeightError):
        merge(ads, MergeSpec(MergeMethod.LINEAR, weights=(1.0,)))


def test_linear_target_set_mismatch():
    a = rand_adapter(1, "a", targets=("t0",))
    b = rand_adapter(2, "b", targets=("t1",))
    with pytest.raises(TargetMismatchError):
        merge([a, b], MergeSpec(MergeMethod.LINEAR, weights=(0.5, 0.5)))


def test_linear_homogeneity_power_of_two_exact():
    # scaling inputs by a power of two scales the output exactly
    ads = [rand_adapter(i, f"a{i}") for i in range(3)]
    scaled = []
    for ad in ads:
        pair = ad.targets["t0"]
        scaled.append(Adapter(name=ad.name, targets={"t0": LowRankPair(
            a=pair.a, b=Matrix(pair.b.data * 4.0), alpha=pair.alpha,
            rank=pair.rank)}))
    spec = MergeSpec(MergeMethod.LINEAR, weights=(0.2, 0.3, 0.5))
    assert np.array_equal(dense_of(merge(scaled, spec)),
                          dense_of(merge(ads, spec)) * 4.0)


def test_linear_brute_force_oracle():
    rng = Rng(33)
    ads = [rand_adapter(100 + i, f"a{i}", rank=2, d_in=5, d_out=4)
           for i in range(4)]
    w = [0.1, 0.2, 0.3, 0.4]
    out = dense_of(merge(ads, MergeSpec(MergeMethod.LINEAR, weights=tuple(w))))
    expected = np.zeros((4, 5))
    for i in range(4):
        for j in range(5):
            acc = 0.0
            for wi, ad in zip(w, ads):
                acc += wi * delta(ad.targets["t0"]).data[i, j]
            expected[i, j] = acc
    np.testing.assert_allclose(out, expected, atol=1e-12)


# --- cat --------------------------------------------------------------------


def test_cat_rank_sums():
    ads = [rand_adapter(i, f"a{i}", rank=2) for i in range(3)]
    out = merge(ads, MergeSpec(MergeMethod.CAT))
    pair = out.targets["t0"]
    assert isinstance(pair, LowRankPair)
    assert pair.rank == 6
    assert pair.alpha == 6.0


def test_cat_single_adapter_identity():
    ad = rand_adapter(5, "solo")
    out = merge([ad], MergeSpec(MergeMethod.CAT))
    np.testing.assert_allclose(dense_of(out), delta(ad.targets["t0"]).data,
                               atol=1e-12)


def test_cat_densifies_to_dense_sum():
    ads = [rand_adapter(10, "a", rank=2), rand_adapter(11, "b", rank=3)]
    out = merge(ads, MergeSpec(MergeMethod.CAT))
    expected = delta(ads[0].targets["t0"]).data + delta(ads[1].targets["t0"]).data
    np.testing.assert_allclose(dense_of(out), expected, atol=1e-12)


def test_cat_mismatched_dims_error():
    a = rand_adapter(1, "a", d_in=4)
    b = rand_adapter(2, "b", d_in=5)
    with pytest.raises(Exception):
        merge([a, b], MergeSpec(MergeMethod.CAT))


# --- ties -------------------------------------------------------------------


def ties_reference(deltas, weights, density):
    """Literal three-step reference: trim, elect sign, disjoint mean."""
    n = deltas[0].size
    keep = math.ceil(density * n)
    trimmed = []
    for d in deltas:
        flat = d.ravel()
        order = sorted(range(n), key=lambda i: (-abs(flat[i]), i))
        kept = set(order[:keep])
        trimmed.append(np.array([flat[i] if i in kept else 0.0
                                 for i in range(n)]).reshape(d.shape))
    out = np.zeros_like(deltas[0])
    it = np.nditer(out, flags=["multi_index"])
    while not it.finished:
        pos = it.multi_index
        total = sum(w * t[pos] for w, t in zip(weights, trimmed))
        sign = np.sign(total)
        if sign != 0:
            num = sum(w * t[pos] for w, t in zip(weights, trimmed)
                      if np.sign(t[pos]) == sign)
            den = sum(w for w, t in zip(weights, trimmed)
                      if np.sign(t[pos]) == sign and t[pos] != 0)
            out[pos] = num / den
        it.iternext()
    return out


def test_ties_identical_adapters_full_density():
    ads = [rand_adapter(2, f"a{i}") for i in range(3)]
    for ad in ads[1:]:
        ad.targets = ads[0].targets
    out = merge(ads, MergeSpec(MergeMethod.TIES, weights=(1 / 3,) * 3))
    np.testing.assert_allclose(dense_of(out),
                               delta(ads[0].targets["t0"]).data, atol=1e-12)


def test_ties_hand_trace_sign_election():
    ads = [value_adapter("p", [3.0]), value_adapter("n", [-1.0])]
    out = merge(ads, MergeSpec(MergeMethod.TIES, weights=(0.5, 0.5)))
    assert dense_of(out)[0, 0] == 3.0


def test_ties_single_adapter_topk_trim():
    ad = value_adapter("solo", [3.0, 0.1])
    out = merge([ad], MergeSpec(MergeMethod.TIES, weights=(1.0,), density=0.5))
    np.testing.assert_array_equal(dense_of(out), [[3.0, 0.0]])


def test_ties_density_one_single_adapter_is_identity():
    ad = rand_adapter(7, "solo")
    out = merge([ad], MergeSpec(MergeMethod.TIES, weights=(1.0,)))
    assert np.array_equal(dense_of(out), delta(ad.targets["t0"]).data)


def test_ties_exact_balance_elects_zero():
    ads = [value_adapter("p", [2.0]), value_adapter("n", [-2.0])]
    out = merge(ads, MergeSpec(MergeMethod.TIES, weights=(0.5, 0.5)))
    assert dense_of(out)[0, 0] == 0.0


def test_ties_density_validation():
    ads = [value_adapter("a", [1.0])]
    with pytest.raises(MergeError):
        merge(ads, MergeSpec(MergeMethod.TIES, weights=(1.0,), density=0.0))
    with pytest.raises(MergeError):
        merge(ads, MergeSpec(MergeMethod.TIES, weights=(1.0,), density=1.1))


def test_ties_exhaustive_two_adapter_reference():
    # all two-adapter sign patterns on 4-entry targets, several densities
    values = [-2.0, -1.0, 0.0, 1.0, 3.0]
    grids = list(itertools.product(values, repeat=4))[::7]  # stride the space
    weights = [0.5, 0.5]
    for left in grids:
        for right in grids[::5]:
            ads = [value_adapter("L", left), value_adapter("R", right)]
            deltas = [np.array([left]), np.array([right])]
            for density in (0.25, 0.5, 1.0):
                got = dense_of(merge(ads, MergeSpec(
                    MergeMethod.TIES, weights=tuple(weights),
                    density=density)))
                want = ties_reference(deltas, weights, density)
                np.testing.assert_allclose(got, want, atol=1e-12)


# --- exactness against a sort-and-select oracle -----------------------------


def select_trim(dense, density):
    """Reference trim: the first ceil(density * n) positions of a stable
    descending argsort of |value|, applied with a select."""
    keep = math.ceil(density * dense.size)
    order = np.argsort(-np.abs(dense.ravel()), kind="stable")
    mask = np.zeros(dense.size, dtype=bool)
    mask[order[:keep]] = True
    mask = mask.reshape(dense.shape)
    return mask, np.where(mask, dense, 0.0)


def select_ties(deltas, w, density):
    """Reference TIES with selects, accumulated in the same order."""
    trimmed = [select_trim(d, density)[1] for d in deltas]
    total = np.zeros_like(trimmed[0])
    for wi, ti in zip(w, trimmed):
        total += wi * ti
    elected = np.sign(total)
    num = np.zeros_like(elected)
    den = np.zeros_like(elected)
    for wi, ti in zip(w, trimmed):
        agree = (np.sign(ti) == elected) & (ti != 0.0)
        num += np.where(agree, wi * ti, 0.0)
        den += np.where(agree, wi, 0.0)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def edge_values(seed, kind, shape):
    """Seeded values with heavy magnitude ties, sign-only entries, an
    all-zero block, entries near 1e-200 (products of three underflow), or
    plain Gaussians."""
    x = Rng(seed).gaussian(shape[0] * shape[1]).reshape(shape)
    return {"ties": np.round(x, 1), "signs": np.sign(x),
            "zeros": np.zeros(shape), "tiny": x * 1e-200, "gauss": x}[kind]


def dense_adapter(name, dense) -> Adapter:
    rows = dense.shape[0]
    pair = LowRankPair(a=Matrix(dense), b=Matrix(np.eye(rows)),
                       alpha=float(rows), rank=rows)
    return Adapter(name=name, targets={"t0": pair})


EDGE_KINDS = ("ties", "signs", "zeros", "tiny", "gauss")
EDGE_SHAPES = ((1, 1), (7, 13), (12, 40))
EDGE_DENSITIES = (0.01, 0.05, 0.3, 0.5, 0.77, 1.0)


@pytest.mark.parametrize("shape", EDGE_SHAPES)
@pytest.mark.parametrize("kind", EDGE_KINDS)
def test_trim_mask_matches_stable_argsort(kind, shape):
    for seed in range(4):
        dense = edge_values(seed, kind, shape)
        for density in EDGE_DENSITIES:
            want, _ = select_trim(dense, density)
            np.testing.assert_array_equal(
                merge_mod._trim_mask(dense, density), want)


@pytest.mark.parametrize("shape", EDGE_SHAPES)
@pytest.mark.parametrize("kinds", [
    ("ties", "ties", "ties"), ("signs", "signs", "signs"),
    ("tiny", "tiny", "tiny"), ("zeros", "zeros", "gauss"),
    ("tiny", "gauss", "zeros"), ("ties", "signs", "zeros"),
])
def test_ties_bytes_match_select_oracle(kinds, shape):
    # weights include a zero weight; adapters given out of name order
    values = [edge_values(10 + i, kind, shape) for i, kind in enumerate(kinds)]
    ads = [dense_adapter(name, v) for name, v in zip("cab", values)]
    deltas = [delta(ad.targets["t0"]).data for ad in sorted(ads, key=lambda a: a.name)]
    for weights in ([1 / 3] * 3, [0.5, 0.3, 0.2], [0.0, 0.5, 0.5]):
        w = np.array(weights)[[1, 2, 0]]  # weights of a, b, c
        for density in EDGE_DENSITIES:
            got = dense_of(merge(ads, MergeSpec(
                MergeMethod.TIES, weights=tuple(weights), density=density)))
            assert got.tobytes() == select_ties(deltas, w, density).tobytes()


@pytest.mark.parametrize("method", [MergeMethod.DARE_LINEAR,
                                    MergeMethod.DARE_TIES])
def test_dare_bytes_match_select_oracle(method):
    values = [edge_values(20 + i, kind, (7, 13))
              for i, kind in enumerate(("ties", "tiny", "gauss"))]
    ads = [dense_adapter(name, v) for name, v in zip("abc", values)]
    spec = MergeSpec(method=method, weights=(0.0, 0.6, 0.4), density=0.3,
                     drop_rate=0.4, seed=3)
    dropped = []
    for ad in ads:
        d = delta(ad.targets["t0"]).data
        keep = Rng(3).derive("dare-mask", ad.name).bernoulli(d.size, 0.6)
        dropped.append(np.where(keep.reshape(d.shape), d * (1 / 0.6), 0.0))
    w = np.array(spec.weights)
    if method == MergeMethod.DARE_TIES:
        want = select_ties(dropped, w, 0.3)
    else:
        want = np.zeros_like(dropped[0])
        for wi, di in zip(w, dropped):
            want += wi * di
    assert dense_of(merge(ads, spec)).tobytes() == want.tobytes()


# --- dare -------------------------------------------------------------------


def test_dare_p_zero_equals_linear_and_ties():
    ads = [rand_adapter(20 + i, f"a{i}") for i in range(3)]
    for variant, plain in (
            (MergeMethod.DARE_LINEAR,
             merge(ads, MergeSpec(MergeMethod.LINEAR))),
            (MergeMethod.DARE_TIES,
             merge(ads, MergeSpec(MergeMethod.TIES, density=0.6)))):
        spec = MergeSpec(method=variant, drop_rate=0.0, density=0.6, seed=1)
        out = merge(ads, spec)
        np.testing.assert_array_equal(dense_of(out), dense_of(plain))


def test_dare_survivors_scaled_by_two_at_half_drop():
    ad = value_adapter("v", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    spec = MergeSpec(method=MergeMethod.DARE_LINEAR, drop_rate=0.5, seed=3)
    out = dense_of(merge([ad], spec))
    original = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    for got, orig in zip(out.ravel(), original):
        assert got == 0.0 or got == 2.0 * orig


def test_dare_monte_carlo_unbiased():
    ad = value_adapter("v", [1.0])
    total = 0.0
    n = 10_000
    for seed in range(n):
        spec = MergeSpec(method=MergeMethod.DARE_LINEAR, drop_rate=0.5,
                         seed=seed)
        total += dense_of(merge([ad], spec))[0, 0]
    assert abs(total / n - 1.0) <= 0.05


def test_dare_deterministic_and_name_keyed_masks():
    ads = [rand_adapter(30, "x"), rand_adapter(31, "y")]
    spec = MergeSpec(method=MergeMethod.DARE_LINEAR, drop_rate=0.4, seed=9)
    out1 = dense_of(merge(ads, spec))
    out2 = dense_of(merge(ads, spec))
    np.testing.assert_array_equal(out1, out2)
    # masks differ between differently named adapters
    solo_x = dense_of(merge([ads[0]], MergeSpec(
        method=MergeMethod.DARE_LINEAR, drop_rate=0.4, seed=9)))
    solo_y = dense_of(merge([ads[1]], MergeSpec(
        method=MergeMethod.DARE_LINEAR, drop_rate=0.4, seed=9)))
    assert ((solo_x == 0) != (solo_y == 0)).any()


def test_dare_rejects_p_one():
    with pytest.raises(MergeError):
        MergeSpec(method=MergeMethod.DARE_LINEAR, drop_rate=1.0)


# --- cross-cutting ----------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31),
       st.permutations([0, 1, 2]))
def test_merges_permutation_equivariant(seed, perm):
    ads = [rand_adapter(seed + i, f"name{i}") for i in range(3)]
    weights = [0.2, 0.3, 0.5]
    shuffled = [ads[i] for i in perm]
    w_shuffled = [weights[i] for i in perm]
    for spec in (
        MergeSpec(method=MergeMethod.LINEAR, weights=tuple(weights)),
        MergeSpec(method=MergeMethod.TIES, weights=tuple(weights), density=0.5),
        MergeSpec(method=MergeMethod.CAT),
        MergeSpec(method=MergeMethod.DARE_LINEAR, weights=tuple(weights),
                  drop_rate=0.3, seed=5),
        MergeSpec(method=MergeMethod.DARE_TIES, weights=tuple(weights),
                  drop_rate=0.3, density=0.5, seed=5),
    ):
        spec_shuffled = merge_mod.MergeSpec(
            method=spec.method, weights=tuple(w_shuffled),
            density=spec.density, drop_rate=spec.drop_rate, seed=spec.seed) \
            if spec.weights else spec
        base = merge(ads, spec)
        other = merge(shuffled, spec_shuffled)
        np.testing.assert_array_equal(dense_of(base), dense_of(other))


def test_merge_dispatcher_routes_all_methods():
    ads = [rand_adapter(40 + i, f"a{i}") for i in range(2)]
    for method in MergeMethod:
        out = merge(ads, MergeSpec(method=method, density=0.5, drop_rate=0.2))
        assert "t0" in out.targets


def test_merge_needs_at_least_one_adapter():
    with pytest.raises(MergeError):
        merge([], MergeSpec(MergeMethod.LINEAR))


@pytest.mark.parametrize("weights", [(), (1.0,), (0.5, 0.5)])
def test_cat_refuses_any_weights(weights):
    ads = [rand_adapter(i, f"a{i}") for i in range(2)]
    with pytest.raises(WeightError, match="weights do not apply to cat"):
        merge(ads, MergeSpec(MergeMethod.CAT, weights=weights))


@pytest.mark.parametrize("method", [m for m in MergeMethod
                                    if m != MergeMethod.CAT])
def test_empty_weights_are_refused_not_read_as_uniform(method):
    ads = [rand_adapter(i, f"a{i}") for i in range(2)]
    with pytest.raises(WeightError, match="got 0 weights for 2 adapters"):
        merge(ads, MergeSpec(method, weights=(), drop_rate=0.3))


# --- shared workspace -------------------------------------------------------


def workspace_specs():
    """Every method at k = 1..4, weighted (but cat) and uniform, on two
    shapes, so the
    workspace grows, shrinks its views and switches shapes between merges."""
    small = [rand_adapter(60 + i, f"s{i}", rank=3, d_in=30, d_out=20)
             for i in range(4)]
    large = [rand_adapter(70 + i, f"l{i}", rank=2, d_in=64, d_out=24,
                          targets=("t0", "t1")) for i in range(4)]
    cases = []
    for k in (1, 2, 3, 4):
        weights = tuple(float(x) for x in np.arange(1, k + 1) / (k * (k + 1) / 2))
        for method in MergeMethod:
            for pool in (small, large):
                cases.append((pool[:k], MergeSpec(
                    method=method,
                    weights=weights if k % 2 and method != MergeMethod.CAT
                    else None,
                    density=0.4, drop_rate=0.3, seed=k)))
    return cases


def merged_bytes(adapters, spec) -> bytes:
    out = merge(adapters, spec)
    return b"".join(out.densify(tid).data.tobytes() for tid in sorted(out.targets))


def run_threads(target, count, timeout=60.0):
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=target, args=(i,))
                   for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout)
    finally:
        sys.setswitchinterval(old)
    assert not any(thread.is_alive() for thread in threads)


def test_concurrent_merges_equal_serial_bytes():
    cases = workspace_specs()
    serial = [merged_bytes(ads, spec) for ads, spec in cases]
    got: dict[int, list[bytes]] = {}

    def work(tid):
        order = Rng(tid).integers(50, len(cases))
        got[tid] = [(i, merged_bytes(*cases[i])) for i in order]

    run_threads(work, 4)
    assert sorted(got) == [0, 1, 2, 3]
    for results in got.values():
        assert len(results) == 50
        for i, data in results:
            assert data == serial[i], cases[i][1]


def overflowing_adapter(name, d_in=30, d_out=20) -> Adapter:
    # entries of 1e200 are finite, their products are not
    pair = LowRankPair(a=Matrix(np.full((3, d_in), 1e200)),
                       b=Matrix(np.full((d_out, 3), 1e200)),
                       alpha=3.0, rank=3)
    return Adapter(name=name, targets={"t0": pair})


def test_failed_merges_leave_the_workspace_usable():
    after = [(ads, spec) for ads, spec in workspace_specs()
             if len(ads) == 4 and spec.method in (MergeMethod.TIES,
                                                  MergeMethod.DARE_TIES)]
    want = [merged_bytes(*case) for case in after]
    ads = after[0][0]                                 # four small adapters
    failing = [
        (NonFiniteError, ads[:2] + [overflowing_adapter("s9")], MergeSpec(
            method=MergeMethod.TIES, density=0.4)),
        (NonFiniteError, [overflowing_adapter("a0")] + ads[1:], MergeSpec(
            method=MergeMethod.DARE_TIES, density=0.4, drop_rate=0.3)),
        (WeightError, ads, MergeSpec(method=MergeMethod.TIES,
                                     weights=(0.5, 0.5), density=0.4)),
    ]
    for error, inputs, bad in failing:
        with pytest.raises(error):
            merge(inputs, bad)
        assert not merge_mod._WORKSPACE_LOCK.locked()
    got = []
    run_threads(lambda _: got.extend(merged_bytes(*case) for case in after),
                1)
    assert got == want
