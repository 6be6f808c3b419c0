"""Sparse matrix wrapper: construction invariants and kernel correctness."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import sparse as sp

from geograph.errors import NumericError, ShapeError
from geograph.sparse import SparseMatrix, hstack


def test_from_triplets_sums_duplicates():
    s = SparseMatrix.from_triplets(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
    assert s.to_dense().tolist() == [[0.0, 5.0], [1.0, 0.0]]
    assert s.nnz == 2


def test_no_explicit_zeros_stored():
    s = SparseMatrix.from_triplets(2, 2, [0, 0, 1], [0, 1, 1], [0.0, 1.0, -1.0])
    assert s.nnz == 2
    # duplicates that cancel must also disappear
    c = SparseMatrix.from_triplets(1, 1, [0, 0], [0, 0], [2.0, -2.0])
    assert c.nnz == 0


def test_column_indices_sorted_within_rows():
    s = SparseMatrix.from_triplets(1, 5, [0, 0, 0], [4, 0, 2], [1.0, 2.0, 3.0])
    assert s.csr.indices.tolist() == [0, 2, 4]


def test_nonfinite_values_rejected():
    with pytest.raises(NumericError):
        SparseMatrix.from_triplets(1, 1, [0], [0], [np.nan])
    with pytest.raises(NumericError):
        SparseMatrix.from_dense(np.array([[np.inf]]))


def test_matmul_dense_matches_dense_product(rng):
    a = rng.random((7, 5)) * (rng.random((7, 5)) < 0.4)
    x = rng.standard_normal((5, 3))
    s = SparseMatrix.from_dense(a)
    np.testing.assert_allclose(s.matmul_dense(x), a @ x, rtol=0, atol=1e-14)


def test_matmul_dense_shape_checks(rng):
    s = SparseMatrix.from_dense(np.eye(3))
    with pytest.raises(ShapeError):
        s.matmul_dense(np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        s.matmul_dense(np.zeros(3))


def test_float32_twin_is_built_once_and_shares_the_indices(rng):
    dense = rng.random((5, 4)) * (rng.random((5, 4)) < 0.5)
    s = SparseMatrix.from_dense(dense)
    assert s.dtype == np.float64 and s.astype(np.float64) is s
    twin = s.astype(np.float32)
    assert twin.dtype == np.float32 and s.astype(np.float32) is twin
    assert twin.astype(np.float32) is twin
    assert np.shares_memory(twin.csr.indices, s.csr.indices)
    assert np.shares_memory(twin.csr.indptr, s.csr.indptr)
    np.testing.assert_array_equal(twin.to_dense(), dense.astype(np.float32))
    # A product follows the wider dtype of its two operands.
    w = rng.random((4, 3))
    assert (twin @ w.astype(np.float32)).dtype == np.float32
    assert (s @ w.astype(np.float32)).dtype == np.float64


def test_dense_product_is_kept_read_only_per_operand(rng):
    a = SparseMatrix.from_dense(rng.random((6, 6)) * (rng.random((6, 6)) < 0.5))
    x = SparseMatrix.from_dense(rng.random((6, 4)) * (rng.random((6, 4)) < 0.5))
    product = a.dense_product(x)
    assert not product.flags.writeable
    with pytest.raises(ValueError):
        product[0, 0] = 1.0
    assert product.tobytes() == (a @ x.to_dense()).tobytes()
    assert a.dense_product(x) is product
    # Another operand, equal or not, gets its own product, which replaces the kept one.
    other = SparseMatrix(x.csr.copy())
    second = a.dense_product(other)
    assert second is not product and second.tobytes() == product.tobytes()
    assert a.dense_product(other) is second
    assert a.dense_product(x) is not product


def test_transpose(rng):
    a = rng.random((4, 6)) * (rng.random((4, 6)) < 0.5)
    s = SparseMatrix.from_dense(a)
    np.testing.assert_array_equal(s.transpose().to_dense(), a.T)


def test_hstack_concatenates_columns(rng):
    a = rng.random((3, 2))
    b = rng.random((3, 4))
    stacked = hstack([SparseMatrix.from_dense(a), SparseMatrix.from_dense(b)])
    np.testing.assert_array_equal(stacked.to_dense(), np.hstack([a, b]))


def test_hstack_row_mismatch():
    with pytest.raises(ShapeError):
        hstack([SparseMatrix.from_dense(np.eye(2)), SparseMatrix.from_dense(np.eye(3))])


@given(
    st.lists(
        st.tuples(
            st.integers(0, 5), st.integers(0, 5),
            st.floats(-10, 10, allow_nan=False),
        ),
        max_size=30,
    )
)
def test_triplet_construction_matches_manual_accumulation(trips):
    dense = np.zeros((6, 6))
    for r, c, v in trips:
        dense[r, c] += v
    s = SparseMatrix.from_triplets(
        6, 6, [t[0] for t in trips], [t[1] for t in trips], [t[2] for t in trips]
    )
    np.testing.assert_allclose(s.to_dense(), dense, rtol=0, atol=1e-12)


def _messy(rng, n_rows, n_cols):
    """A matrix built from unsorted triplets with duplicates, explicit zeros
    and duplicates that cancel."""
    rows = rng.integers(0, n_rows, 60)
    cols = rng.integers(0, n_cols, 60)
    values = rng.standard_normal(60)
    values[::7] = 0.0
    rows = np.concatenate([rows, rows[:20], rows[20:25]])
    cols = np.concatenate([cols, cols[:20], cols[20:25]])
    values = np.concatenate([values, values[:20], -values[20:25]])
    return SparseMatrix.from_triplets(n_rows, n_cols, rows, cols, values)


def _assert_canonical(s):
    csr = s.csr
    assert csr.has_canonical_format
    for r in range(csr.shape[0]):
        assert np.all(np.diff(csr.indices[csr.indptr[r]:csr.indptr[r + 1]]) > 0)
    assert np.all(csr.data != 0.0) and csr.data.dtype == np.float64
    fresh = sp.csr_matrix((csr.data.copy(), csr.indices.copy(), csr.indptr.copy()), shape=csr.shape)
    fresh.has_sorted_indices = False
    fresh.has_canonical_format = False
    fresh.sum_duplicates()
    fresh.eliminate_zeros()
    for name in ("indptr", "indices", "data"):
        assert getattr(csr, name).tobytes() == getattr(fresh, name).tobytes(), name


def test_derived_matrices_come_out_canonical(rng):
    """Row selection, ``transpose`` and ``hstack`` wrap scipy's results without
    re-canonicalizing them; this holds only while scipy returns them
    canonical, bit for bit equal to a canonicalized copy."""
    a = _messy(rng, 30, 20)
    b = _messy(rng, 30, 9)
    _assert_canonical(a)
    _assert_canonical(a[np.array([3, 0, 17, 17, 29, 5])])
    _assert_canonical(a.transpose())
    _assert_canonical(a[np.arange(0, 30, 2)].transpose())
    dense = rng.standard_normal((30, 4)) * (rng.random((30, 4)) < 0.5)
    _assert_canonical(hstack([a, b, SparseMatrix.from_dense(dense)]))
