"""Compressed-row sparse matrices.

Thin wrapper over scipy's CSR type. Every matrix holds sorted column indices
within each row, no duplicate entries, no explicitly stored zeros, and only
finite values. ``from_triplets``, through which ``from_dense`` also builds, is
where raw values enter and establishes all of that: it sums duplicates, drops
zeros, sorts each row and rejects non-finite values. The constructor stores
its argument without copying or checking it, so ``take_rows``, ``transpose``
and ``hstack`` rely on scipy returning canonical results for canonical inputs
(a test pins this).

Construction holds float64 values; ``astype(np.float32)`` gives a float32 twin,
built once and kept. A product is in the wider of its operands' dtypes.

A matrix reads as a numpy array does: ``s @ dense``, ``s.T`` and ``s[rows]``
are ``matmul_dense``, ``transpose()`` and ``take_rows``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse as _sp

from .errors import NumericError, ShapeError


class SparseMatrix:
    """Immutable CSR matrix. Build through the classmethod constructors."""

    __slots__ = ("_csr", "_transpose", "_symmetric", "_cast")

    def __init__(self, csr: _sp.csr_matrix):
        """Wrap ``csr``, a CSR matrix that already holds the invariants."""
        self._csr = csr
        self._transpose: SparseMatrix | None = None
        self._symmetric = False
        self._cast: SparseMatrix | None = None

    @classmethod
    def from_triplets(
        cls,
        n_rows: int,
        n_cols: int,
        rows: Sequence[int],
        cols: Sequence[int],
        values: Sequence[float],
    ) -> "SparseMatrix":
        """Build from (row, col, value) triplets; duplicates are summed."""
        mat = _sp.coo_matrix(
            (np.asarray(values, dtype=np.float64), (rows, cols)),
            shape=(n_rows, n_cols),
        ).tocsr()
        mat.sum_duplicates()
        mat.eliminate_zeros()
        mat.sort_indices()
        if mat.nnz and not np.isfinite(mat.data).all():
            raise NumericError("sparse matrix holds non-finite values")
        return cls(mat)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseMatrix":
        coo = _sp.coo_matrix(np.asarray(dense, dtype=np.float64))
        return cls.from_triplets(*coo.shape, coo.row, coo.col, coo.data)

    @property
    def csr(self) -> _sp.csr_matrix:
        """Underlying scipy matrix. Treat as read-only."""
        return self._csr

    @property
    def shape(self) -> tuple[int, int]:
        return self._csr.shape

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    @property
    def dtype(self) -> np.dtype:
        return self._csr.dtype

    def astype(self, dtype) -> "SparseMatrix":
        """This matrix with ``dtype`` values: itself when it holds them, else a
        copy of its class, built once and kept, that shares its index arrays."""
        if self.dtype == dtype:
            return self
        if self._cast is None or self._cast.dtype != dtype:
            csr = self._csr
            self._cast = type(self)(_sp.csr_matrix(
                (csr.data.astype(dtype), csr.indices, csr.indptr), shape=csr.shape))
        return self._cast

    def matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        """Sparse @ dense product: a dense (self.shape[0], dense.shape[1]) array."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeError(f"expected a 2-d dense operand, got ndim={dense.ndim}")
        if self.shape[1] != dense.shape[0]:
            raise ShapeError(f"sparse {self.shape} @ dense {dense.shape}: inner dims differ")
        out = self._csr @ dense
        return np.asarray(out)

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        # Looked up at call time, so a replaced ``matmul_dense`` runs here too.
        return self.matmul_dense(dense)

    def take_rows(self, idx: np.ndarray) -> "SparseMatrix":
        """The rows ``idx``, in that order, as a (len(idx), cols) matrix.

        Each kept row holds the same entries in the same order, so a product
        with it sums the same terms as the full product's row.
        """
        return SparseMatrix(self._csr[np.asarray(idx, dtype=np.intp)])

    def __getitem__(self, idx: np.ndarray) -> "SparseMatrix":
        return self.take_rows(idx)

    def transpose(self) -> "SparseMatrix":
        """The transpose, built once; a matrix equal to its own transpose entry
        for entry, such as a normalized undirected adjacency, is returned as is."""
        if self._symmetric:
            return self
        if self._transpose is None:
            t = self._csr.T.tocsr()
            if (t.shape == self.shape and np.array_equal(t.indptr, self._csr.indptr)
                    and np.array_equal(t.indices, self._csr.indices)
                    and np.array_equal(t.data, self._csr.data)):
                self._symmetric = True
                return self
            self._transpose = SparseMatrix(t)
        return self._transpose

    @property
    def T(self) -> "SparseMatrix":
        return self.transpose()

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def __repr__(self) -> str:
        return f"SparseMatrix({self.shape[0]}x{self.shape[1]}, nnz={self.nnz})"


def hstack(blocks: Sequence[SparseMatrix]) -> SparseMatrix:
    """Concatenate matrices with equal row counts side by side."""
    if len({b.shape[0] for b in blocks}) != 1:
        raise ShapeError("hstack needs one or more blocks with equal row counts")
    return SparseMatrix(_sp.hstack([b.csr for b in blocks], format="csr"))
