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
Sparse products go through scipy's sequential CSR kernels, built by
``_csr``, which do not depend on thread settings either: each output entry
is one running sum whose terms are added in the order of the operand's
stored indices. ``_centered_normal_equations`` builds the ridge normal
equations either from those products over a feature block's nonzeros,
with every sum running over rows in ascending order, or through ``_mm``,
so its result depends only on the values and shapes too.
"""

from __future__ import annotations

import numpy as np

from .errors import (ConfigError, NonNegativityError, ShapeMismatchError, _array, _indices,
                     _instance, _integer)


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator from a seed in [0, 2**64 - 1]. Equal seeds give
    bitwise-identical random streams."""
    return np.random.Generator(np.random.PCG64(_integer("seed", seed, 0, 2**64 - 1)))


def _lock(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _frozen(name: str, value, *shapes: tuple, nonneg: bool = False) -> np.ndarray:
    """_array(name, value, *shapes, nonneg=nonneg), read-only. When that is
    value itself, it is copied first if writeable, so a caller's array is
    never locked; a producer that locks its fresh array hands it over
    without a copy."""
    a = _array(name, value, *shapes, nonneg=nonneg)
    return _lock(a.copy() if a is value and a.flags.writeable else a)


class _ReadOnly:
    """Base of a class whose attributes are set once, in __init__, by _set
    or object.__setattr__: assigning or deleting one afterwards raises
    AttributeError naming it.
    A subclass's __reduce__ rebuilds a copy or an unpickled object through
    __init__ and its checks."""

    __slots__ = ()

    def _set(self, **attrs) -> None:
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")


def _csr(data, indices, indptr, shape):
    """scipy.sparse CSR matrix from its three arrays, whose column indices
    must already be sorted and unique within each row; xlc imports scipy
    here and nowhere else."""
    import scipy.sparse as sp
    return sp.csr_matrix((data, indices, indptr), shape=shape)


class DenseMatrix(_ReadOnly):
    """Dense row-major float64 matrix with finite entries, immutable after
    construction: neither values nor its entries can be reassigned.

    Attributes
    ----------
    values : ndarray, shape (rows, cols)
        Read-only C-contiguous float64 array: the argument itself when it
        already was one, else the matrix's own copy.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        object.__setattr__(self, "values", _frozen("values", values, (None, None)))

    def __reduce__(self):
        return type(self), (self.values,)

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
    set is canonical).
    """

    __slots__ = ("n_rows", "n_labels", "entry_rows", "entry_cols", "entry_vals")

    def __init__(self, n_rows: int, n_labels: int, entries):
        entries = list(entries)
        for e in entries:
            if not (isinstance(e, (tuple, list)) and len(e) == 3):
                raise ConfigError(f"entries must be (row, col, value) triples, got {e!r}")
        self._set(n_rows, n_labels, [e[0] for e in entries], [e[1] for e in entries],
                  [e[2] for e in entries])

    @classmethod
    def from_coo(cls, n_rows: int, n_labels: int, rows, cols, vals) -> "LabelMatrix":
        """Build from parallel row-index, column-index and value arrays,
        with the same checks and canonical form as the entry constructor.
        The matrix stores its own copies; the caller's arrays stay as they
        are."""
        self = cls.__new__(cls)
        self._set(n_rows, n_labels, rows, cols, vals)
        return self

    def _set(self, n_rows, n_labels, rows, cols, vals) -> None:
        """Check the COO columns (values >= 0, and rows and cols in bounds,
        all 1-D of one length), drop zeros, sort row-major, and store one
        fresh copy of each as int64, int64 and float64."""
        n_rows = _integer("n_rows", n_rows, 0)
        n_labels = _integer("n_labels", n_labels, 0)
        vals = _array("vals", vals, (None,), nonneg=True)
        rows = _indices("rows", rows, vals.shape, n_rows)
        cols = _indices("cols", cols, vals.shape, n_labels)
        keep = vals > 0.0
        step = np.diff(rows)
        if not np.all((step > 0) | ((step == 0) & (np.diff(cols) >= 0))):
            # lexsort is stable, so entries already in row-major order skip it
            order = np.lexsort((cols, rows))
            keep = order[keep[order]]
        del step                            # as large as rows: free it first
        # indexing by a mask or by indices copies: the only copy made
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        if rows.size > 1:
            dup = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if dup.any():
                i = int(np.argmax(dup))
                raise ConfigError(f"duplicate entry at (row={rows[i]}, col={cols[i]})")
        self.n_rows = n_rows
        self.n_labels = n_labels
        self.entry_rows = _lock(rows)
        self.entry_cols = _lock(cols)
        self.entry_vals = _lock(vals)

    @property
    def entries(self):
        """Row-major list of (row, col, value) triples."""
        return [(int(r), int(c), float(v)) for r, c, v in
                zip(self.entry_rows, self.entry_cols, self.entry_vals)]

    @property
    def nnz(self) -> int:
        return int(self.entry_vals.size)

    def to_csr(self):
        """scipy.sparse CSR form. Its data array is the matrix's own
        read-only value array, not a copy."""
        # the entries are row-major and unique, so they are already canonical CSR
        indptr = np.searchsorted(self.entry_rows, np.arange(self.n_rows + 1))
        return _csr(self.entry_vals, self.entry_cols, indptr,
                    (self.n_rows, self.n_labels))

    @classmethod
    def from_dense_array(cls, a) -> "LabelMatrix":
        a = _array("a", a, (None, None), nonneg=True)
        return cls.from_coo(a.shape[0], a.shape[1], *_nonzeros(a))

    def __repr__(self):
        return f"LabelMatrix({self.n_rows}x{self.n_labels}, nnz={self.nnz})"


def _check_labels(v, p: int | None = None) -> LabelMatrix:
    """v, checked to be a LabelMatrix, and one with p labels when p is
    given; every function that takes a label matrix checks it here."""
    _instance("v", v, LabelMatrix)
    if p is not None and v.n_labels != p:
        raise ShapeMismatchError(
            f"input has {v.n_labels} labels, encoder expects {p}")
    return v


# The most columns of b that _mm runs transposed. That form took 0.2-1.0 of
# the direct time at 2-16 columns and 200-3379 rows of a, but 1.2-1.7x from
# 5000 rows and 64 columns of a on, 0.6-1.2x at 32+ columns of b, and 2.9x
# with fewer rows in b than columns (4096 x 4 x 16; one x86-64 thread).
_NARROW = 16


def _mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deterministic dense product of two float64 2-D arrays.

    The result depends only on the values and shapes of a and b, never on
    their memory layout or on thread settings. einsum without optimization
    runs single-threaded and never calls BLAS, but it picks its summation
    kernel from the operand strides, so both operands are made C-contiguous
    first. Callers may pass views such as ``a.T``; one that reuses an
    operand across many calls makes it contiguous once itself.

    When b has at least 2 columns, each entry is one running sum from +0
    over ascending j, so dropping columns of a that are +-0 in every row
    (with the matching rows of a finite b) leaves the result bitwise the
    same, and when a has at least 2 rows einsum(b.T, a.T).T gives the same
    bits, each entry the same running sum of products that commute; where
    that is faster (see _NARROW) _mm returns its transposed view. A
    1-column b takes a dot kernel that splits the sum into lanes, whose
    bits depend on the inner length, so it always runs as einsum(a, b).
    """
    n, k = b.shape
    if a.shape[0] > k >= 2 and k <= n and k <= _NARROW:
        return np.einsum("ij,jk->ik", np.ascontiguousarray(b.T),
                         np.ascontiguousarray(a.T), optimize=False).T
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


# _cholesky_solve takes the row sums of this many factor rows at once from
# the rows above them. At d = 300 and 8 right-hand sides (one x86-64 Xeon
# thread, numpy 2.4, medians of 150 interleaved runs) panels of 16, 32 and
# 64 rows took 0.76, 0.77 and 0.80 of the time of a row-by-row factor
# followed by a separate lower solve; at d = 32, 0.72-0.73 with any of them.
_PANEL = 32


def _cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B for a symmetric positive-definite n x n A and an n x m B.

    Factors the augmented block [A | B] row by row into [U | Y], with
    A = U^T U and U^T Y = B, so the lower solve comes out of the same loop,
    then solves U X = Y with _back_substitute. Row j of [U | Y] is
    [A | B]_j minus the sum over rows i < j of u_ij [U | Y]_i, divided by
    the square root of its pivot. The rows are taken in panels of _PANEL:
    one _mm gives each panel row its sum over all rows above the panel,
    and one more per row adds the rows of its own panel. No LAPACK or BLAS
    call takes part, so X obeys the determinism contract. Raises
    NonNegativityError when a pivot is not positive, i.e. A is singular or
    indefinite to working precision.
    """
    n = a.shape[0]
    aug = np.concatenate((a, b), axis=1)
    uy = np.zeros(aug.shape)
    for lo in range(0, n, _PANEL):
        hi = min(lo + _PANEL, n)
        above = aug[lo:hi, lo:] - _mm(uy[:lo, lo:hi].T, uy[:lo, lo:])
        for j in range(lo, hi):
            row = above[j - lo, j - lo:] - _mm(uy[lo:j, j:j + 1].T, uy[lo:j, j:])[0]
            if not row[0] > 0.0:
                raise NonNegativityError(f"matrix is not positive definite: pivot {j} is {row[0]}")
            uy[j, j:] = row / np.sqrt(row[0])
    return _back_substitute(uy[:, :n], uy[:, n:])


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


def _lowrank_sq_error(vs, a: np.ndarray, b: np.ndarray, grams=None) -> float:
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


def _direct_sq_error(vs, a: np.ndarray, b: np.ndarray) -> float:
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


def _nonzeros(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals) of the nonzeros of a C-contiguous 2-D x in
    row-major order, from one O(x.size) scan."""
    flat = np.flatnonzero(x != 0.0)
    rows, cols = np.divmod(flat, max(x.shape[1], 1))
    return rows, cols, x.ravel()[flat]


# The ridge fit sums its normal equations over X's nonzeros only when the
# pair count sum_i nnz_i (nnz_i + 1) / 2, times this factor, is below the
# dense products' n d^2. On one x86-64 Xeon thread (numpy 2.4, scipy 1.17;
# 3379 x 32, 2000 x 100, 3200 x 300 and 1200 x 400 blocks, 8 targets, both
# forms timed with the nonzero scan) scipy's sparse products took 0.06-0.37
# of the dense time where n d^2 / pairs was 49-2515, 0.54-0.88 at 21-31,
# 0.67-1.0 at 15-19, 1.0-1.3 at 12-14 and 4.6 at 2.
_PAIR_COST = 16


def _centered_normal_equations(x: np.ndarray, wc: np.ndarray):
    """(mean, Xc^T Xc, Xc^T Wc) for the column means of a C-contiguous
    n x d X, its centered copy Xc = X - 1 mean^T and an n x k Wc.

    X is scanned for its nonzeros once, and mean is their column sums,
    each added in ascending row order, over n (x.mean(axis=0) bit for bit
    when d >= 2 and no column is all -0.0; numpy sums a lone column
    pairwise). The products come from one of two forms. The support form,
    _support_normal_equations, sums them over those nonzeros in
    O(pairs + nnz k + d^2), where pairs counts the pairs j <= k of
    nonzeros that share a row. The dense form gives them through _mm from
    the centered copy in O(n d^2 + n d k).

    Gate and certificate, both checked before any product: the support
    form runs only when _PAIR_COST times the pair count is below n d^2,
    and only when its rounding bound is no worse than the dense product's.
    Entry (j, k) of X^T X is one sequential sum of at most m rounded
    products, m the largest |S_j|, S_j the rows where x_ij != 0; then
    n mean_j mean_k is formed, in two roundings, and taken off, in one.
    With M = m + 2 its error is at most

        gamma_M (sum_i |x_ij x_ik| + n |mean_j mean_k|) <= gamma_M sqrt(A_j A_k),
        A_j = sum_i x_ij^2 + n mean_j^2,

    by Cauchy-Schwarz. The dense sum over n rows of Xc is off by at most
    gamma_n sum_i |xc_ij xc_ik| <= gamma_n sqrt(C_j C_k), C_j = sum_i xc_ij^2.
    The support form is kept when, for every feature j,

        A_j <= f C_j,   f = max(gamma_n / gamma_M, 2),

    so that its bound is at most the dense product's own, or at most
    2 gamma_M sqrt(C_j C_k), that of sums of M terms, where that is
    larger. C_j is summed without cancellation, as
    sum_{S_j} (x_ij - mean_j)^2 + (n - |S_j|) mean_j^2, in O(nnz). Since
    A_j = C_j + 2 n mean_j^2 for the exact mean, the test fails where a
    feature's mean is large against its spread, as for a constant column
    or for 1e6 plus small noise, and those take the dense products. On the
    right-hand side, X^T Wc has the same depth and bound with
    ||Wc_k||^2 for A_k; s = 1^T Wc is the residue of centering Wc, off by
    at most gamma_n sum_i |Wc_ik|, so mean_j s_k is off by at most
    gamma_n sqrt(n mean_j^2 ||Wc_k||^2), under the certificate
    sqrt((f - 1) / 2) times the dense bound gamma_n sqrt(C_j ||Wc_k||^2).
    Either form's result depends only on the values and shapes of X and Wc.
    """
    n, d = x.shape
    rows, cols, vals = nonzeros = _nonzeros(x)
    mean = np.bincount(cols, weights=vals, minlength=d) / max(n, 1)
    counts = np.bincount(rows, minlength=n)
    if int(np.sum(counts * (counts + 1) // 2)) * _PAIR_COST < n * d * d:
        col_counts = np.bincount(cols, minlength=d)
        depth = int(col_counts.max(initial=0)) + 2
        dev = vals - mean[cols]
        centered = (np.bincount(cols, weights=dev * dev, minlength=d)
                    + (n - col_counts) * (mean * mean))
        if np.all(np.bincount(cols, weights=vals * vals, minlength=d) + n * (mean * mean)
                  <= max(_gamma(n) / _gamma(depth), 2.0) * centered):
            return (mean, *_support_normal_equations(nonzeros, mean, wc))
    xc = x - mean
    return mean, _mm(xc.T, xc), _mm(xc.T, wc)


def _support_normal_equations(nonzeros, mean: np.ndarray, wc: np.ndarray):
    """(Xc^T Xc, Xc^T Wc) for Xc = X - 1 mean^T, summed over the nonzeros
    of the n x d X, given as _nonzeros(X); Wc is n x k and mean has
    length d.

    With s = 1^T Wc,

        Xc^T Xc = X^T X - n mean mean^T,   Xc^T Wc = X^T Wc - mean s^T.

    X's nonzeros become a CSR matrix; X^T X is scipy's sequential sparse
    product of its transpose with it, and X^T Wc the sparse-dense one. The
    transpose holds each column's rows in ascending order, so entry (j, k)
    of X^T X is one running sum of x_ij x_ik over the rows where both are
    nonzero, and entry (j, c) of X^T Wc one of x_ij Wc_ic over the rows
    where x_ij != 0, both in ascending row order; s is one _mm. So the
    result depends only on the values and shapes of X, mean and Wc, and
    X^T X is exactly symmetric.
    """
    rows, cols, vals = nonzeros
    n, d = wc.shape[0], mean.size
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    xs = _csr(vals, cols, indptr, (n, d))
    xt = xs.T.tocsr()                       # each column's rows, ascending
    gram = (xt @ xs).toarray() - n * np.multiply.outer(mean, mean)
    col_sums = _mm(np.ones((1, n)), wc)[0]
    return gram, xt @ wc - np.multiply.outer(mean, col_sums)
