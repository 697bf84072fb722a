import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from loramem import matcore
from loramem.matcore import Matrix, NonFiniteError, Rng, ShapeMismatchError


def rand_matrix(rng: Rng, rows: int, cols: int) -> Matrix:
    return Matrix(rng.gaussian(rows * cols).reshape(rows, cols))


def naive_matmul(a: Matrix, b: Matrix) -> np.ndarray:
    out = np.zeros((a.rows, b.cols))
    for i in range(a.rows):
        for j in range(b.cols):
            acc = 0.0
            for k in range(a.cols):
                acc += a.data[i, k] * b.data[k, j]
            out[i, j] = acc
    return out


def test_matmul_identity():
    m = rand_matrix(Rng(0), 3, 3)
    assert matcore.matmul(Matrix.identity(3), m) == m


def test_matmul_scalar():
    out = matcore.matmul(Matrix(np.array([[2.0]])), Matrix(np.array([[3.0]])))
    assert out.data[0, 0] == 6.0


def test_matmul_against_triple_loop_oracle():
    rng = Rng(7)
    a, b = rand_matrix(rng, 4, 5), rand_matrix(rng, 5, 3)
    np.testing.assert_allclose(matcore.matmul(a, b).data, naive_matmul(a, b),
                               atol=1e-12)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeMismatchError, match=r"\(2x3\) x \(4x2\)"):
        matcore.matmul(Matrix.zeros(2, 3), Matrix.zeros(4, 2))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**62))
def test_matmul_associative(seed):
    rng = Rng(seed)
    a, b, c = rand_matrix(rng, 3, 4), rand_matrix(rng, 4, 2), rand_matrix(rng, 2, 5)
    left = matcore.matmul(matcore.matmul(a, b), c).data
    right = matcore.matmul(a, matcore.matmul(b, c)).data
    np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-9)


def test_fill_gaussian_deterministic_per_seed():
    a = matcore.fill_gaussian(Rng(5), 6, 7, 0.3)
    b = matcore.fill_gaussian(Rng(5), 6, 7, 0.3)
    assert a == b  # bit identical
    c = matcore.fill_gaussian(Rng(6), 6, 7, 0.3)
    assert (a.data != c.data).any()


def test_fill_gaussian_rejects_negative_stddev():
    with pytest.raises(ValueError, match="stddev"):
        matcore.fill_gaussian(Rng(0), 2, 2, -1.0)


def test_matrix_rejects_non_finite():
    with pytest.raises(NonFiniteError):
        Matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(NonFiniteError):
        Matrix(np.array([[np.inf], [0.0]]))


def test_matmul_overflow_is_rejected_not_propagated():
    big = Matrix(np.full((1, 1), 1e308))
    ten = Matrix(np.full((1, 1), 10.0))
    with pytest.raises(NonFiniteError):
        matcore.matmul(big, ten)


def test_matrix_rejects_non_2d():
    with pytest.raises(ShapeMismatchError):
        Matrix(np.zeros(4))


def test_matrix_is_immutable():
    m = Matrix.zeros(2, 2)
    with pytest.raises(ValueError):
        m.data[0, 0] = 1.0


def test_rng_streams_counter_based():
    r = Rng(99)
    chunked = np.concatenate([r.uint64(3), r.uint64(5)])
    whole = Rng(99).uint64(8)
    assert np.array_equal(chunked, whole)


def test_rng_derive_independent_streams():
    base = Rng(4)
    a = base.derive("alpha").gaussian(50)
    b = base.derive("beta").gaussian(50)
    assert not np.array_equal(a, b)
    # deriving is stateless with respect to the parent
    assert np.array_equal(a, Rng(4).derive("alpha").gaussian(50))


def test_rng_uniform_range():
    u = Rng(11).uniform(10000)
    assert (u >= 0).all() and (u < 1).all()


def test_rng_permutation_is_permutation():
    p = Rng(3).permutation(100)
    assert sorted(p.tolist()) == list(range(100))


BERNOULLI_PS = (0.0, 2.0**-53, 0.3, 0.5, 0.7, 1.0 - 2.0**-53, 1.0)


@pytest.mark.parametrize("p", BERNOULLI_PS)
def test_rng_bernoulli_equals_uniform_threshold(p):
    # 20000 draws span more than one of bernoulli's chunks
    got = Rng(21).bernoulli(20000, p)
    assert got.dtype == bool
    assert np.array_equal(got, Rng(21).uniform(20000) < p)


@pytest.mark.parametrize("p", BERNOULLI_PS)
def test_rng_bernoulli_out_and_counter(p):
    drawn, reference = Rng(8), Rng(8)
    out = np.empty((25, 800), dtype=bool)
    assert drawn.bernoulli(out.size, p, out=out) is out
    assert np.array_equal(out.ravel(), reference.uniform(out.size) < p)
    # both streams have now used out.size words
    assert np.array_equal(drawn.uint64(5), reference.uint64(5))
