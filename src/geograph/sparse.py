"""Compressed-row sparse matrices.

Thin wrapper over scipy's CSR type that pins down the invariants the rest of
the package relies on: float64 values, sorted column indices within each row,
duplicate entries summed at build time, no explicitly stored zeros, and all
stored values finite.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np
from scipy import sparse as _sp

from .errors import NumericError, ShapeError


class SparseMatrix:
    """Immutable CSR matrix. Build through the classmethod constructors."""

    __slots__ = ("_csr", "_transpose")

    def __init__(self, csr):
        mat = _sp.csr_matrix(csr, dtype=np.float64, copy=True)
        mat.sum_duplicates()
        mat.eliminate_zeros()
        mat.sort_indices()
        if mat.nnz and not np.isfinite(mat.data).all():
            raise NumericError("sparse matrix holds non-finite values")
        self._csr = mat
        self._transpose: SparseMatrix | None = None

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
        coo = _sp.coo_matrix(
            (np.asarray(values, dtype=np.float64), (rows, cols)),
            shape=(n_rows, n_cols),
        )
        return cls(coo.tocsr())

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SparseMatrix":
        return cls(_sp.csr_matrix(np.asarray(dense, dtype=np.float64)))

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(_sp.identity(n, dtype=np.float64, format="csr"))

    @property
    def csr(self) -> _sp.csr_matrix:
        """Underlying scipy matrix. Treat as read-only."""
        return self._csr

    @property
    def shape(self) -> tuple[int, int]:
        return self._csr.shape

    @property
    def rows(self) -> int:
        return self._csr.shape[0]

    @property
    def cols(self) -> int:
        return self._csr.shape[1]

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    def matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        """Sparse @ dense product. Output is a dense (rows, dense.cols) array."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ShapeError(f"expected a 2-d dense operand, got ndim={dense.ndim}")
        if self.cols != dense.shape[0]:
            raise ShapeError(
                f"sparse ({self.rows}x{self.cols}) @ dense {dense.shape}: inner dims differ"
            )
        out = self._csr @ dense
        return np.asarray(out)

    def take_rows(self, idx: np.ndarray) -> "SparseMatrix":
        """The rows ``idx``, in that order, as a (len(idx), cols) matrix.

        Each kept row holds the same entries in the same order, so a product
        with it sums the same terms as the full product's row.
        """
        return SparseMatrix(self._csr[np.asarray(idx, dtype=np.intp)])

    def transpose(self) -> "SparseMatrix":
        if self._transpose is None:
            self._transpose = SparseMatrix(self._csr.T.tocsr())
        return self._transpose

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def row_sums(self) -> np.ndarray:
        return np.asarray(self._csr.sum(axis=1)).ravel()

    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()

    def triplets(self) -> Iterator[tuple[int, int, float]]:
        """Yield stored (row, col, value) entries in row-major order."""
        coo = self._csr.tocoo()
        for r, c, v in zip(coo.row, coo.col, coo.data):
            yield int(r), int(c), float(v)

    def equals(self, other: "SparseMatrix") -> bool:
        """Exact structural and value equality."""
        a, b = self._csr, other._csr
        return (
            a.shape == b.shape
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data)
        )

    def __repr__(self) -> str:
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def hstack(blocks: Sequence[SparseMatrix]) -> SparseMatrix:
    """Concatenate matrices with equal row counts side by side."""
    if not blocks:
        raise ShapeError("hstack of zero blocks")
    n_rows = blocks[0].rows
    for b in blocks[1:]:
        if b.rows != n_rows:
            raise ShapeError("hstack blocks disagree on row count")
    return SparseMatrix(_sp.hstack([b.csr for b in blocks], format="csr"))


def spmm(s: SparseMatrix, dense: np.ndarray) -> np.ndarray:
    """Exact sparse-dense product; shape (s.rows, dense.cols)."""
    return s.matmul_dense(dense)
