"""Matrix types and deterministic linear-algebra kernels.

Every other module builds on the two storage types here: ``LabelMatrix``
(sparse, row-major, non-negative — holds the instance/label indicator data)
and ``DenseMatrix`` (dense float64 — holds factors, latent codes, and
reconstructions).

Determinism contract: every dense product goes through ``_mm``, whose
result depends only on the operand values and shapes, never on their memory
layout or on thread settings, so it is bitwise reproducible across runs on
the same build. Dense solves go through ``_cholesky_solve`` and
``_back_substitute``, which are built on ``_mm``; no LAPACK call is made.
Sparse products go through scipy's sequential CSR kernels, which do not
depend on thread settings either.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import NonNegativityError, ShapeMismatchError, XlcError


class RngSeed:
    """A 64-bit unsigned seed. Same seed => bitwise-identical random streams."""

    __slots__ = ("seed",)

    def __init__(self, seed: RngSeed | int):
        seed = seed.seed if isinstance(seed, RngSeed) else int(seed)
        if not 0 <= seed < 2**64:
            raise XlcError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed

    def __repr__(self):
        return f"RngSeed({self.seed})"

    def __eq__(self, other):
        return isinstance(other, RngSeed) and other.seed == self.seed

    def __hash__(self):
        return hash(self.seed)


def make_rng(seed) -> np.random.Generator:
    """PCG64 generator from an RngSeed or a plain int, which must be a valid
    RngSeed."""
    return np.random.Generator(np.random.PCG64(RngSeed(seed).seed))


def _lock(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class DenseMatrix:
    """Dense row-major float64 matrix with finite entries, immutable after
    construction.

    Attributes
    ----------
    values : ndarray, shape (rows, cols)
        Read-only C-contiguous float64 array.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        a = np.ascontiguousarray(values, dtype=np.float64)
        if a.ndim != 2:
            raise ShapeMismatchError(f"DenseMatrix needs a 2-D array, got ndim={a.ndim}")
        if not np.all(np.isfinite(a)):
            raise XlcError("DenseMatrix entries must be finite")
        self.values = _lock(a)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def __repr__(self):
        return f"DenseMatrix({self.rows}x{self.cols})"


class LabelMatrix:
    """Sparse non-negative n x p matrix of instance -> label values.

    Entries are held row-major as parallel (row, col, value) arrays. All
    (row, col) pairs are unique and in bounds; values are finite and > 0
    (zero-valued entries are dropped at construction so the stored entry
    set is canonical). ``label_names``, when given, must have length p.
    """

    __slots__ = ("n_rows", "n_labels", "entry_rows", "entry_cols", "entry_vals",
                 "label_names")

    def __init__(self, n_rows: int, n_labels: int, entries, label_names=None):
        entries = list(entries)
        self._set(n_rows, n_labels,
                  np.array([e[0] for e in entries], dtype=np.int64),
                  np.array([e[1] for e in entries], dtype=np.int64),
                  np.array([e[2] for e in entries], dtype=np.float64),
                  label_names)

    @classmethod
    def from_coo(cls, n_rows: int, n_labels: int, rows, cols, vals,
                 label_names=None) -> "LabelMatrix":
        """Build from parallel row-index, column-index and value arrays,
        with the same checks and canonical form as the entry constructor."""
        rows, cols = np.asarray(rows), np.asarray(cols)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.ndim == cols.ndim == vals.ndim == 1
                and rows.shape == cols.shape == vals.shape):
            raise ShapeMismatchError(
                f"row, col and value arrays must be 1-D of one length, got "
                f"shapes {rows.shape}, {cols.shape}, {vals.shape}")
        if rows.size and not (np.issubdtype(rows.dtype, np.integer)
                              and np.issubdtype(cols.dtype, np.integer)):
            raise XlcError("row and col indices must be integers")
        self = cls.__new__(cls)
        self._set(n_rows, n_labels, rows.astype(np.int64), cols.astype(np.int64),
                  vals, label_names)
        return self

    def _set(self, n_rows, n_labels, rows, cols, vals, label_names) -> None:
        """Check int64/float64 COO arrays, drop zeros, sort row-major, store."""
        if n_rows < 0 or n_labels < 0:
            raise XlcError(f"negative dimensions {n_rows}x{n_labels}")
        if not np.all(np.isfinite(vals)):
            raise XlcError("LabelMatrix values must be finite")
        if vals.size and vals.min() < 0.0:
            raise NonNegativityError(
                f"LabelMatrix values must be >= 0, min is {vals.min()}")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_labels:
                raise XlcError(
                    f"entry index out of bounds for {n_rows}x{n_labels} matrix")
        keep = vals > 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size > 1:
            dup = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if dup.any():
                i = int(np.argmax(dup))
                raise XlcError(
                    f"duplicate entry at (row={rows[i]}, col={cols[i]})")
        if label_names is not None:
            label_names = tuple(str(s) for s in label_names)
            if len(label_names) != n_labels:
                raise XlcError(
                    f"label_names has length {len(label_names)}, expected {n_labels}")
        self.n_rows = int(n_rows)
        self.n_labels = int(n_labels)
        self.entry_rows = _lock(rows)
        self.entry_cols = _lock(cols)
        self.entry_vals = _lock(vals)
        self.label_names = label_names

    @property
    def entries(self):
        """Row-major list of (row, col, value) triples."""
        return [(int(r), int(c), float(v)) for r, c, v in
                zip(self.entry_rows, self.entry_cols, self.entry_vals)]

    @property
    def nnz(self) -> int:
        return int(self.entry_vals.size)

    def to_csr(self) -> sp.csr_matrix:
        m = sp.csr_matrix(
            (self.entry_vals, (self.entry_rows, self.entry_cols)),
            shape=(self.n_rows, self.n_labels))
        m.sort_indices()
        return m

    @classmethod
    def from_dense_array(cls, a, label_names=None) -> "LabelMatrix":
        a = np.asarray(a, dtype=np.float64)
        r, c = np.nonzero(a)
        return cls.from_coo(a.shape[0], a.shape[1], r, c, a[r, c],
                            label_names=label_names)

    def __repr__(self):
        return f"LabelMatrix({self.n_rows}x{self.n_labels}, nnz={self.nnz})"


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deterministic dense product of two float64 2-D arrays.

    The result depends only on the values and shapes of a and b, never on
    their memory layout or on thread settings. einsum without optimization
    runs single-threaded and never calls BLAS, but it picks its summation
    kernel from the operand strides, so both operands are made C-contiguous
    first. Callers may pass views such as ``a.T``; one that reuses an
    operand across many calls makes it contiguous once itself.
    """
    return np.einsum("ij,jk->ik", np.ascontiguousarray(a),
                     np.ascontiguousarray(b), optimize=False)


def _back_substitute(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve U X = B for an upper-triangular n x n U with a nonzero
    diagonal and an n x m B, one row at a time from the bottom, each row's
    dot products through _mm."""
    n = u.shape[0]
    u = np.ascontiguousarray(u)
    x = np.empty((n, b.shape[1]))
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - _mm(u[i:i + 1, i + 1:], x[i + 1:])[0]) / u[i, i]
    return x


def _cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B for a symmetric positive-definite n x n A and an n x m B.

    Factors A = U^T U, row j of U from rows 0..j-1 through one _mm, then
    solves U^T Y = B and U X = Y with _back_substitute (the lower solve runs
    it on the row- and column-reversed U^T). No LAPACK or BLAS call takes
    part, so X obeys the determinism contract. Raises XlcError when a pivot
    is not positive, i.e. A is singular or indefinite to working precision.
    """
    n = a.shape[0]
    u = np.zeros((n, n))
    for j in range(n):
        row = a[j, j:] - _mm(u[:j, j:j + 1].T, u[:j, j:])[0]
        if not row[0] > 0.0:
            raise XlcError(f"matrix is not positive definite: pivot {j} is {row[0]}")
        u[j, j:] = row / np.sqrt(row[0])
    y = _back_substitute(u.T[::-1, ::-1], b[::-1])[::-1]
    return _back_substitute(u, y)


# The low-rank residual is summed, and the CLI serves predictions, over row
# blocks of at most this many dense entries, so their memory is bounded; the
# residual's summation order then depends on p only. The split residual
# gathers its on-support dot products in chunks of the same many values.
_BLOCK_ENTRIES = 1 << 16

# The split residual runs only on V at most 1/_SPLIT_DENSITY dense. On one
# x86-64 Xeon thread (numpy 2.4; 2000 x 700 at k = 8 and 32, 3200 x 5000 at
# k = 32) it took 0.10-0.14 of the direct sum's time at 1% density,
# 0.53-0.65 at 1/16, 0.77-0.95 at 10% and 1.16-1.68 at 20%.
_SPLIT_DENSITY = 16


def _gamma(m: int) -> float:
    """Higham's gamma_m = m u / (1 - m u), u = 2^-53: a float64 sum of m + 1
    non-negative terms, in any order, is off by at most gamma_m times the
    exact sum (Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 3.1)."""
    mu = m * 2.0 ** -53
    return mu / (1.0 - mu)


def _lowrank_sq_error(vs: sp.csr_matrix, a: np.ndarray, b: np.ndarray,
                      grams=None) -> float:
    """||V - A B||_F^2 for CSR V (n x p, no duplicate entries), A (n x k)
    and B (k x p); V is never densified.

    When A and B are both >= 0, every entry of A B is >= 0 and the error
    splits over V's stored entries S into

        on  = sum_S (v_ij - (A B)_ij)^2,
        off = sum_{not S} (A B)_ij^2 = T - sum_S (A B)_ij^2,
        T   = tr((A^T A)(B B^T)) = ||A B||_F^2,

    which costs O(nnz k + (n + p) k^2). ``grams``, when given, is
    (A^T A, B B^T) exactly as _mm computes them, so a caller that already
    has them saves their O((n + p) k^2). The dot products (A B)_ij on S are
    gathered in chunks of at most _BLOCK_ENTRIES values, so memory stays
    bounded.

    Certificate. Every sum in the split form has non-negative terms, so
    its rounding error, beyond that of the products (A B)_ij which the
    direct sum shares, is at most gamma_M (on + T) with
    M = n + p + k^2 + 2k + c + 3 and c the depth of the chunked sums
    (chunk length plus chunk count); T enters because off = T - sum_S (A B)^2
    cancels when off is small against T. The direct sum
    ||V_b - A_b B||^2 over row blocks V_b of at most _BLOCK_ENTRIES dense
    entries is off by at most gamma_D (on + off), D = block entries + block
    count + 3. The split result is kept when

        on + T <= max(gamma_D / gamma_M, 2) (on + off),

    that is, when its bound is at most the direct sum's own, or at most
    2 gamma_M (on + off), the bound of two sums of M terms, where that is
    larger (at p >= 2^16, D < M). For a model whose residual is about
    orthogonal to A B, T is the part of ||V||^2 it explains, so the split
    form runs while the model explains at most about max(1 - M / D, 1/2)
    of ||V||^2: 0.83 at serve-xml's NMF shape, where D / M = 5.75. A
    closer fit, as near exact reconstruction, takes the direct sum, and so
    do signed factors and V denser than 1/_SPLIT_DENSITY, where the direct
    sum is the faster one. The path and the bits depend only on (V, A, B).
    """
    n, p = vs.shape
    k = a.shape[1]
    if (vs.nnz * _SPLIT_DENSITY > n * p
            or a.min(initial=0.0) < 0.0 or b.min(initial=0.0) < 0.0):
        return _direct_sq_error(vs, a, b)
    step = _BLOCK_ENTRIES // max(k, 1)
    on = on_support_sq = 0.0
    for lo in range(0, vs.nnz, step):
        hi = min(lo + step, vs.nnz)
        rows = np.searchsorted(vs.indptr, np.arange(lo, hi), side="right") - 1
        ab = np.einsum("ij,ij->i", np.ascontiguousarray(a[rows]),
                       np.ascontiguousarray(b.T[vs.indices[lo:hi]]), optimize=False)
        r = vs.data[lo:hi] - ab
        on += float(np.einsum("i,i->", r, r, optimize=False))
        on_support_sq += float(np.einsum("i,i->", ab, ab, optimize=False))
    g, c = grams if grams is not None else (_mm(a.T, a), _mm(b, b.T))
    trace = float(np.einsum("ij,ij->", g, c, optimize=False))
    total = on + (trace - on_support_sq)
    block_rows = max(1, _BLOCK_ENTRIES // p)
    split_depth = n + p + k * k + 2 * k + min(step, vs.nnz) + -(-vs.nnz // step) + 3
    direct_depth = min(n, block_rows) * p + -(-n // block_rows) + 3
    if on + trace <= max(_gamma(direct_depth) / _gamma(split_depth), 2.0) * total:
        return total
    return _direct_sq_error(vs, a, b)


def _direct_sq_error(vs: sp.csr_matrix, a: np.ndarray, b: np.ndarray) -> float:
    """||V - A B||_F^2 summed directly as sum ||V_b - A_b B||^2 over row
    blocks V_b of at most _BLOCK_ENTRIES dense entries: O(n p k)."""
    n, p = vs.shape
    rows = max(1, _BLOCK_ENTRIES // p)
    b = np.ascontiguousarray(b)         # reused by every block: copy it once
    total = 0.0
    for lo in range(0, n, rows):
        r = vs[lo:lo + rows].toarray() - _mm(a[lo:lo + rows], b)
        total += float(np.einsum("ij,ij->", r, r, optimize=False))
    return total
