import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loramem import adapterio, matcore
from loramem.adapterio import (
    Adapter, BadMagicError, HeaderPayloadMismatchError, LowRankPair,
    MergedDelta, TruncatedPayloadError, VersionMismatchError, count_params,
    delta, load, load_container, save, save_merged,
)
from loramem.matcore import Matrix, Rng


def rand_pair(rng: Rng, rank=3, d_in=6, d_out=4, alpha=2.0) -> LowRankPair:
    a = Matrix(rng.gaussian(rank * d_in).reshape(rank, d_in))
    b = Matrix(rng.gaussian(d_out * rank).reshape(d_out, rank))
    return LowRankPair(a=a, b=b, alpha=alpha, rank=rank)


def rand_adapter(seed: int, n_targets=2, name="ad") -> Adapter:
    rng = Rng(seed)
    targets = {f"t{i}": rand_pair(rng.derive(i)) for i in range(n_targets)}
    return Adapter(name=name, targets=targets,
                   metadata={"seed": str(seed), "note": "test"})


def test_delta_zero_b():
    pair = LowRankPair(a=Matrix(np.ones((2, 3))), b=Matrix.zeros(4, 2),
                       alpha=1.0, rank=2)
    assert delta(pair) == Matrix.zeros(4, 3)


def test_delta_rank_one_outer_product():
    pair = LowRankPair(a=Matrix(np.array([[3.0, 1.0]])),
                       b=Matrix(np.array([[2.0], [0.0]])),
                       alpha=1.0, rank=1)
    assert delta(pair) == Matrix(np.array([[6.0, 2.0], [0.0, 0.0]]))


def test_delta_against_composition_oracle():
    pair = rand_pair(Rng(12))
    expected = (pair.alpha / pair.rank) * (pair.b.data @ pair.a.data)
    np.testing.assert_allclose(delta(pair).data, expected, atol=1e-12)


def test_delta_linear_in_b():
    rng = Rng(5)
    a = Matrix(rng.gaussian(12).reshape(3, 4))
    b1 = Matrix(rng.gaussian(6).reshape(2, 3))
    b2 = Matrix(rng.gaussian(6).reshape(2, 3))
    both = LowRankPair(a=a, b=Matrix(b1.data + b2.data), alpha=1.5, rank=3)
    split = (delta(LowRankPair(a=a, b=b1, alpha=1.5, rank=3)).data
             + delta(LowRankPair(a=a, b=b2, alpha=1.5, rank=3)).data)
    np.testing.assert_allclose(delta(both).data, split, atol=1e-12)


def test_rank_doubling_with_zero_padding_halves_delta_exactly():
    rng = Rng(8)
    pair = rand_pair(rng, rank=2, alpha=1.0)
    padded = LowRankPair(
        a=Matrix(np.vstack([pair.a.data, np.zeros_like(pair.a.data)])),
        b=Matrix(np.hstack([pair.b.data, np.zeros_like(pair.b.data)])),
        alpha=1.0, rank=4)
    assert np.array_equal(delta(padded).data, delta(pair).data * 0.5)


def test_pair_validates_shapes_and_scalars():
    a, b = Matrix.zeros(2, 3), Matrix.zeros(4, 2)
    with pytest.raises(matcore.ShapeMismatchError):
        LowRankPair(a=a, b=Matrix.zeros(4, 3), alpha=1.0, rank=2)
    with pytest.raises(ValueError):
        LowRankPair(a=a, b=b, alpha=0.0, rank=2)
    with pytest.raises(ValueError):
        LowRankPair(a=a, b=b, alpha=1.0, rank=0)


def test_count_params_single_target():
    rng = Rng(1)
    pair = rand_pair(rng, rank=4, d_in=256, d_out=100)
    ad = Adapter(name="x", targets={"t": pair})
    assert count_params(ad) == 1424


def test_count_params_empty_and_additive():
    assert count_params(Adapter(name="e", targets={})) == 0
    rng = Rng(2)
    p = rand_pair(rng)
    single = Adapter(name="s", targets={"a": p})
    double = Adapter(name="d", targets={"a": p, "b": p})
    assert count_params(double) == 2 * count_params(single)


def test_round_trip_equals_quantized_values(tmp_path):
    ad = rand_adapter(3)
    path = tmp_path / "ad.lmem"
    save(ad, path)
    loaded = load(path)
    assert loaded.name == ad.name
    assert loaded.metadata == ad.metadata
    assert list(loaded.targets) == list(ad.targets)
    for tid, pair in ad.targets.items():
        got = loaded.targets[tid]
        assert got.rank == pair.rank
        assert got.alpha == pair.alpha
        # quantize-then-widen is the stored value
        np.testing.assert_array_equal(
            got.a.data, pair.a.data.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(
            got.b.data, pair.b.data.astype(np.float32).astype(np.float64))


def test_second_round_trip_bit_exact(tmp_path):
    ad = rand_adapter(4)
    p1, p2 = tmp_path / "a1.lmem", tmp_path / "a2.lmem"
    save(ad, p1)
    save(load(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**62))
def test_round_trip_property(tmp_path_factory, seed):
    ad = rand_adapter(seed, n_targets=1 + seed % 3)
    path = tmp_path_factory.mktemp("rt") / "x.lmem"
    save(ad, path)
    loaded = load(path)
    for tid in ad.targets:
        np.testing.assert_array_equal(
            loaded.targets[tid].a.data,
            ad.targets[tid].a.data.astype(np.float32).astype(np.float64))


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.lmem"
    ad = rand_adapter(5)
    save(ad, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        load(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "v.lmem"
    save(rand_adapter(6), path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        load(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "t.lmem"
    save(rand_adapter(7), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-20])
    with pytest.raises(TruncatedPayloadError):
        load(path)


def test_offset_past_eof_is_truncation(tmp_path):
    path = tmp_path / "o.lmem"
    save(rand_adapter(8, n_targets=1), path)
    blob = path.read_bytes()
    header_len = struct.unpack_from("<Q", blob, 8)[0]
    header = json.loads(blob[16:16 + header_len])
    header["targets"][0]["b_offset"] = 10**9
    # keep the declared payload honest so the offset check fires
    new_header = json.dumps(header, separators=(",", ":")).encode()
    patched = blob[:8] + struct.pack("<Q", len(new_header)) + new_header \
        + blob[16 + header_len:]
    path.write_bytes(patched)
    with pytest.raises(TruncatedPayloadError):
        load(path)


def test_malformed_header_json(tmp_path):
    path = tmp_path / "j.lmem"
    save(rand_adapter(15, n_targets=1), path)
    blob = bytearray(path.read_bytes())
    blob[16] = ord("!")  # corrupt the first header byte
    path.write_bytes(bytes(blob))
    with pytest.raises(adapterio.FormatError, match="malformed header"):
        load(path)


def write_raw_header(path, header) -> None:
    """An LMEM file with a valid preamble, the given JSON header and no
    payload."""
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(struct.pack("<4sIQ", b"LMEM", 1, len(raw)) + raw)


@pytest.mark.parametrize("header", [
    [1, 2],
    "name",
    {"metadata": {}, "targets": []},
    {"name": "x", "targets": []},
    {"name": "x", "metadata": {}},
])
def test_header_must_be_object_with_required_keys(tmp_path, header):
    path = tmp_path / "h.lmem"
    write_raw_header(path, header)
    with pytest.raises(adapterio.FormatError, match="header must be"):
        load(path)
    with pytest.raises(adapterio.FormatError, match="header must be"):
        adapterio.inspect_header(path)


def _target(h):
    return h["targets"][0]


@pytest.mark.parametrize("mutate", [
    lambda h: h.update(targets=[{"id": "t"}]),
    lambda h: h.update(targets=5),
    lambda h: h.update(targets=[5]),
    lambda h: h.update(metadata=5),
    lambda h: h.update(metadata={"seed": 1}),
    lambda h: h.update(name=5),
    lambda h: h.update(payload_bytes="0"),
    lambda h: _target(h).pop("id"),
    lambda h: _target(h).update(id=7),
    lambda h: _target(h).pop("a_offset"),
    lambda h: _target(h).update(d_in=-1),
    lambda h: _target(h).update(d_out="3"),
    lambda h: _target(h).update(rank=1.5),
    lambda h: _target(h).update(rank=True),
    lambda h: _target(h).update(rank=0),
    lambda h: _target(h).update(alpha="1"),
    lambda h: _target(h).update(alpha=-1.0),
    lambda h: _target(h).update(alpha=float("nan")),
    lambda h: _target(h).update(kind="sparse"),
    lambda h: _target(h).update(kind="dense"),
    lambda h: h["targets"].append(dict(_target(h))),
], ids=["target-without-fields", "targets-int", "target-int",
        "metadata-int", "metadata-value-int", "name-int",
        "payload-bytes-str", "id-missing", "id-int", "offset-missing",
        "negative-dim", "dim-str", "rank-float", "rank-bool", "rank-zero",
        "alpha-str", "alpha-negative", "alpha-nan", "unknown-kind",
        "dense-without-offset", "duplicate-id"])
def test_malformed_header_fields_raise_format_error(tmp_path, mutate):
    path = tmp_path / "m.lmem"
    save(rand_adapter(4, n_targets=2), path)
    blob = path.read_bytes()
    header = adapterio.inspect_header(path)
    header.pop("format_version")
    mutate(header)
    raw = json.dumps(header).encode("utf-8")
    header_len = struct.unpack_from("<Q", blob, 8)[0]
    path.write_bytes(struct.pack("<4sIQ", b"LMEM", 1, len(raw)) + raw
                     + blob[16 + header_len:])
    for reader in (load, adapterio.inspect_header):
        with pytest.raises(adapterio.FormatError) as info:
            reader(path)
        assert info.type is adapterio.FormatError


def test_header_payload_length_disagreement(tmp_path):
    path = tmp_path / "d.lmem"
    save(rand_adapter(9), path)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(HeaderPayloadMismatchError):
        load(path)


def test_inspect_header(tmp_path):
    ad = rand_adapter(10)
    path = tmp_path / "i.lmem"
    save(ad, path)
    header = adapterio.inspect_header(path)
    assert header["name"] == "ad"
    assert header["format_version"] == adapterio.FORMAT_VERSION
    assert [t["id"] for t in header["targets"]] == list(ad.targets)


def test_save_merged_dense_round_trip(tmp_path):
    dense = Matrix(Rng(11).gaussian(12).reshape(3, 4))
    merged = MergedDelta(targets={"t0": dense})
    path = tmp_path / "m.lmem"
    save_merged("merged", merged, path, storage="dense")
    header = adapterio.inspect_header(path)
    assert header["targets"][0]["kind"] == "dense"
    container = load_container(path)
    got = container.targets["t0"]
    assert isinstance(got, Matrix)
    np.testing.assert_array_equal(
        got.data, dense.data.astype(np.float32).astype(np.float64))
    with pytest.raises(adapterio.FormatError, match="dense"):
        load(path)


def test_save_merged_factorized_round_trip(tmp_path):
    dense = Matrix(Rng(12).gaussian(12).reshape(3, 4))
    merged = MergedDelta(targets={"t0": dense})
    path = tmp_path / "f.lmem"
    save_merged("merged", merged, path, storage="factorized")
    header = adapterio.inspect_header(path)
    assert "kind" not in header["targets"][0]
    loaded = load(path)  # all-pair container loads as an adapter
    np.testing.assert_allclose(
        delta(loaded.targets["t0"]).data,
        dense.data.astype(np.float32).astype(np.float64), atol=1e-6)


def test_factorize_dense_is_exact_both_orientations():
    wide = Matrix(Rng(13).gaussian(6).reshape(2, 3))   # d_out < d_in
    tall = Matrix(Rng(14).gaussian(6).reshape(3, 2))   # d_out > d_in
    for dense in (wide, tall):
        pair = adapterio.factorize_dense(dense)
        assert delta(pair) == dense
