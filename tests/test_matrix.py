"""Core matrix types and kernels: frozen oracles plus algebraic properties."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import random_label_matrix
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xlc.matrix
from xlc import (
    AeTrainConfig,
    ConfigError,
    DenseMatrix,
    LabelMatrix,
    LimeConfig,
    NmfConfig,
    NonNegativityError,
    ShapeMismatchError,
    XlcError,
    make_rng,
)
from xlc.matrix import (
    _BLOCK_ENTRIES,
    _cholesky_solve,
    _lowrank_sq_error,
    _mm,
    _support_normal_equations,
)


# ---------------------------------------------------------------- matmul


def test_matmul_hand_oracle():
    a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert _mm(a, b).tolist() == [[2.0, 0.0], [0.0, 1.0]]


def test_matmul_identity_is_noop():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 5))
    np.testing.assert_array_equal(_mm(a, np.eye(5)), a)


def test_matmul_zero_factor():
    assert not _mm(np.zeros((3, 2)), np.ones((2, 4))).any()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matmul_associativity(seed):
    # ||(AB)C - A(BC)|| <= 1e-9 * (1 + ||A|| ||B|| ||C||)
    rng = np.random.default_rng(seed)
    n, m, k, q = rng.integers(1, 7, size=4)
    a = rng.normal(size=(n, m))
    b = rng.normal(size=(m, k))
    c = rng.normal(size=(k, q))
    left = _mm(_mm(a, b), c)
    right = _mm(a, _mm(b, c))
    bound = 1e-9 * (
        1.0
        + np.linalg.norm(a)
        * np.linalg.norm(b)
        * np.linalg.norm(c)
    )
    assert np.linalg.norm(left - right) <= bound


def _layouts(a):
    """The values of a as C-ordered, Fortran-ordered, transposed-view and
    strided-slice arrays."""
    n, m = a.shape
    strided = np.zeros((2 * n, 3 * m))
    strided[::2, ::3] = a
    return (a, np.asfortranarray(a), np.ascontiguousarray(a.T).T, strided[::2, ::3])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40),
       st.integers(1, 40))
def test_matmul_bits_do_not_depend_on_operand_layout(seed, n, m, q):
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(n, m)), rng.normal(size=(m, q))
    want = _mm(a, b)
    for a2 in _layouts(a):
        for b2 in _layouts(b):
            np.testing.assert_array_equal(_mm(a2, b2), want)


def _spread(rng, shape):
    """Random values of either sign spanning about 1e-8 to 1e8, with a
    tenth of them +0 or -0."""
    v = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)
    zero = rng.random(shape) < 0.1
    v[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    return v


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 1000), st.integers(1, 64),
       st.integers(2, 32), st.floats(0.0, 1.0))
def test_matmul_bits_do_not_depend_on_columns_of_a_that_are_zero(seed, r, n, k, keep):
    # explain_prediction predicts LIME's samples on the explained row's
    # active columns only and relies on this: with k >= 2 each entry sums
    # from +0 in ascending column order, so a +-0 term changes no bit
    rng = np.random.default_rng(seed)
    c = np.flatnonzero(rng.random(n) < keep)
    if c.size == 0:
        c = np.array([rng.integers(n)])
    a, b = _spread(rng, (r, n)), _spread(rng, (n, k))
    dropped = np.setdiff1d(np.arange(n), c)
    a[:, dropped] = rng.choice([0.0, -0.0], size=(r, dropped.size))
    full, part = _mm(a, b), _mm(a[:, c], b[c])
    assert np.array_equal(full.view(np.uint64), part.view(np.uint64))


# ---------------------------------------------------------------- solves


def test_cholesky_solve_hand_oracle():
    # A = U^T U with U = [[2, 1], [0, sqrt(2)]]; every step is exact
    a = np.array([[4.0, 2.0], [2.0, 3.0]])
    assert _cholesky_solve(a, np.array([[2.0], [1.0]])).tolist() == [[0.5], [0.0]]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 5),
       st.sampled_from([0.0, 1e-3, 1.0]))
def test_cholesky_solve_matches_lapack_on_spd_systems(seed, n, m, lam):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n + 3, n))
    a = g.T @ g + lam * np.eye(n)
    b = rng.normal(size=(n, m))
    want = np.linalg.solve(a, b)
    got = _cholesky_solve(a, b)
    # both solvers are backward stable: forward error within n eps cond(A)
    bound = 10 * n * np.finfo(np.float64).eps * np.linalg.cond(a)
    assert np.abs(got - want).max() <= bound * np.abs(want).max()
    assert np.abs(a @ got - b).max() <= 1e-12 * np.abs(a).max() * np.abs(got).max() * n


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.data())
def test_cholesky_solve_rejects_singular_and_indefinite(seed, n, data):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n + 3, n))
    a = g.T @ g + np.eye(n)
    # a zero row and column (a feature that centers to zero) gives an
    # exactly-zero pivot; a negated diagonal entry a negative one
    j = data.draw(st.integers(0, n - 1))
    zeroed = a.copy()
    zeroed[j, :] = zeroed[:, j] = 0.0
    negated = a.copy()
    negated[j, j] = -negated[j, j]
    for bad in (zeroed, negated):
        with pytest.raises(XlcError, match="not positive definite"):
            _cholesky_solve(bad, np.ones((n, 2)))
    with pytest.raises(XlcError):
        _cholesky_solve(np.ones((2, 2)), np.ones((2, 1)))


# ---------------------------------------------------------------- low-rank residual


def _sq_norm(dense):
    # ||V||^2 as the residual of V against a zero rank-1 product
    n, p = dense.shape
    return _lowrank_sq_error(sp.csr_matrix(dense), np.zeros((n, 1)), np.zeros((1, p)))


def test_frobenius_hand_oracles():
    assert _sq_norm(np.array([[3.0, 4.0]])) == 25.0
    assert _sq_norm(np.eye(3)) == 3.0
    assert _sq_norm(np.zeros((2, 5))) == 0.0


def test_frobenius_matches_numpy():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 4))
    assert _sq_norm(a) == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-12)


@st.composite
def _lowrank_cases(draw):
    # p is either small (many rows per block, n often not a multiple of
    # them) or above _BLOCK_ENTRIES (one row per block)
    p = draw(st.sampled_from([1, 7, 700, _BLOCK_ENTRIES + 3]))
    n_max = 4 if p > _BLOCK_ENTRIES else 3 * (_BLOCK_ENTRIES // p) + 5
    n = draw(st.integers(0, n_max))
    k = draw(st.integers(1, 4))
    density = draw(st.sampled_from([0.0, 0.01, 0.3]))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, p, k, density, seed


@settings(max_examples=40, deadline=None)
@given(_lowrank_cases())
@example((0, 7, 2, 0.3, 1))
@example((50, 700, 2, 0.0, 2))                    # all-zero V
@example((200, 700, 3, 0.3, 3))                   # 93-row blocks, last one partial
@example((3, _BLOCK_ENTRIES + 3, 2, 0.01, 4))     # one row per block
def test_lowrank_sq_error_matches_dense_oracle(case):
    n, p, k, density, seed = case
    rng = np.random.default_rng(seed)
    r, c = np.nonzero(rng.random((n, p)) < density)
    v = LabelMatrix.from_coo(n, p, r, c, rng.integers(1, 4, size=r.size))
    a = rng.normal(size=(n, k))
    b = np.ascontiguousarray(rng.normal(size=(k, p)))
    dense = v.to_csr().toarray()
    want = float(np.sum((dense - a @ b) ** 2))
    got = _lowrank_sq_error(v.to_csr(), a, b)
    assert got == pytest.approx(want, rel=1e-11, abs=1e-300)
    if density == 0.0:
        # all-zero V: the residual is ||A B||^2
        assert got == pytest.approx(float(np.sum((a @ b) ** 2)), rel=1e-11)


@st.composite
def _nonneg_cases(draw):
    # "xml": p >> k, V at most 1% dense, every (A B)_ij below 1/4 against
    # entries >= 1, so ||A B||^2 < ||V - A B||^2 and the split form must run.
    # "planted": V = A B on disjoint label blocks with A scaled by 1 + delta,
    # so the fit is near exact, the off-support mass cancels and the direct
    # sum must run.
    regime = draw(st.sampled_from(["xml", "planted"]))
    p = draw(st.sampled_from([300, 2000, 5000]))
    n = draw(st.integers(1, 120))
    k = draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.001, 0.01]))
    delta = draw(st.sampled_from([0.0, 1e-12, 1e-6]))
    seed = draw(st.integers(0, 2**32 - 1))
    return regime, n, p, k, density, delta, seed


def _nonneg_case(regime, n, p, k, density, delta, seed):
    rng = np.random.default_rng(seed)
    if regime == "xml":
        r, c = np.nonzero(rng.random((n, p)) < density)
        v = LabelMatrix.from_coo(n, p, r, c, rng.integers(1, 4, size=r.size))
        half_root = 0.5 / np.sqrt(k)
        return v, rng.random((n, k)) * half_root, rng.random((k, p)) * half_root
    block = max(1, min(p // k, round(density * p)))
    b = np.zeros((k, p))
    cols = rng.permutation(p)[:k * block].reshape(k, block)
    b[np.arange(k)[:, None], cols] = rng.uniform(0.5, 1.5, size=(k, block))
    a = np.zeros((n, k))
    a[np.arange(n), rng.integers(0, k, size=n)] = 1.0
    v = LabelMatrix.from_dense_array(a @ b)
    return v, a * (1.0 + delta), b


@settings(max_examples=40, deadline=None)
@given(_nonneg_cases())
@example(("xml", 3, _BLOCK_ENTRIES + 3, 4, 0.01, 0.0, 5))   # one row per direct block
@example(("xml", 120, 5000, 40, 0.01, 0.0, 6))              # several gathered chunks
@example(("planted", 100, 2000, 8, 0.01, 0.0, 7))           # exact fit
@example(("planted", 100, 300, 3, 0.01, 1e-12, 8))
def test_nonnegative_lowrank_sq_error_matches_dense_oracle_on_both_paths(case):
    regime = case[0]
    v, a, b = _nonneg_case(*case)
    vs = v.to_csr()
    want = float(np.sum((vs.toarray() - a @ b) ** 2))
    with mock.patch.object(xlc.matrix, "_direct_sq_error",
                           wraps=xlc.matrix._direct_sq_error) as direct:
        got = _lowrank_sq_error(vs, a, b)
        with_grams = _lowrank_sq_error(vs, a, b, grams=(_mm(a.T, a), _mm(b, b.T)))
    assert direct.call_count == (0 if regime == "xml" else 2)
    assert got == pytest.approx(want, rel=1e-11, abs=1e-300)
    assert with_grams == got


@pytest.mark.parametrize("explained, split", [(0.7, True), (0.85, True), (0.97, False)])
def test_split_form_covers_models_that_explain_most_of_v(explained, split):
    # V = A B on disjoint label blocks plus unit noise labels off them, so A B
    # explains `explained` of ||V||^2. At this shape D / M is 12 to 15, so
    # the split form holds to about 1 - M / D >= 0.92 explained, past the
    # half that T <= on + off alone allows
    n, p, k, block = 100, 2000, 8, 20
    rng = np.random.default_rng(23)
    b = np.zeros((k, p))
    cols = rng.permutation(p)[:k * block].reshape(k, block)
    b[np.arange(k)[:, None], cols] = rng.uniform(0.5, 1.5, size=(k, block))
    a = np.zeros((n, k))
    a[np.arange(n), rng.integers(0, k, size=n)] = 1.0
    planted = a @ b
    free = np.flatnonzero(planted == 0.0)
    n_noise = round(float(np.sum(planted ** 2)) * (1.0 - explained) / explained)
    dense = planted.copy()
    dense.flat[rng.choice(free, size=n_noise, replace=False)] = 1.0
    vs = LabelMatrix.from_dense_array(dense).to_csr()
    want = float(np.sum((dense - planted) ** 2))
    assert 1.0 - want / float(np.sum(dense ** 2)) == pytest.approx(explained, abs=1e-3)
    with mock.patch.object(xlc.matrix, "_direct_sq_error",
                           wraps=xlc.matrix._direct_sq_error) as direct:
        got = _lowrank_sq_error(vs, a, b)
    assert direct.call_count == (0 if split else 1)
    assert got == pytest.approx(want, rel=1e-11)


def test_split_residual_allocates_a_few_blocks():
    # dense, this V would take 458 MiB; the split form holds two gathered
    # chunks of _BLOCK_ENTRIES values plus a few chunk-long index vectors
    n, p, k, nnz = 20000, 3000, 8, 60000
    rng = np.random.default_rng(31)
    vs = sp.csr_matrix((np.ones(nnz), (rng.integers(0, n, nnz), rng.integers(0, p, nnz))),
                       shape=(n, p))
    vs.sum_duplicates()
    a, b = rng.random((n, k)) * 0.1, rng.random((k, p)) * 0.1
    with mock.patch.object(xlc.matrix, "_direct_sq_error") as direct:
        tracemalloc.start()
        try:
            _lowrank_sq_error(vs, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert direct.call_count == 0
    assert peak <= 3 * _BLOCK_ENTRIES * 8


# ---------------------------------------------------------------- ridge normal equations


@st.composite
def _feature_cases(draw):
    # d = 400 puts a fully dense row past 2^16 pairs; 300 rows of 30
    # nonzeros sum hundreds of rows into each Gram entry
    d = draw(st.sampled_from([0, 1, 7, 40, 400]))
    n = draw(st.integers(1, 300 if d <= 40 else 40))
    k = draw(st.integers(1, 4))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    signed = draw(st.booleans())
    empty = draw(st.sampled_from([0.0, 0.3]))       # share of all-zero rows and columns
    seed = draw(st.integers(0, 2**32 - 1))
    return n, d, k, density, signed, empty, seed


def _features(n, d, k, density, signed, empty, seed):
    rng = np.random.default_rng(seed)
    x = np.round(rng.uniform(0.1, 2.0, size=(n, d)), 3)
    if signed:
        x *= rng.choice([-1.0, 1.0], size=(n, d))
    x[rng.random((n, d)) >= density] = 0.0
    x[rng.random(n) < empty] = 0.0
    x[:, rng.random(d) < empty] = 0.0
    w = rng.uniform(0.0, 2.0, size=(n, k))
    return x, w - w.mean(axis=0)


@settings(max_examples=60, deadline=None)
@given(_feature_cases())
@example((1, 7, 2, 0.3, False, 0.0, 1))          # one row
@example((5, 0, 2, 1.0, False, 0.0, 2))          # no features
@example((3, 400, 2, 1.0, True, 0.0, 3))         # rows of 80200 pairs each
@example((300, 40, 3, 1.0, True, 0.3, 4))        # 300 x 820 pairs
def test_support_normal_equations_match_the_dense_oracle(case):
    # within the Cauchy-Schwarz bound of both sums: gamma (sqrt(A_j A_k)),
    # A_j = sum_i x_ij^2 + n mean_j^2, and sqrt(A_j ||wc_k||^2) on the right
    x, wc = _features(*case)
    n = x.shape[0]
    mean = x.mean(axis=0)
    xc = x - mean
    gram, rhs = _support_normal_equations(x, mean, wc, certify=False)
    assert np.array_equal(gram, gram.T)
    a = np.sum(x * x, axis=0) + n * mean * mean
    np.testing.assert_array_less(np.abs(gram - _mm(xc.T, xc)),
                                 1e-13 * np.sqrt(np.outer(a, a)) + 1e-300)
    np.testing.assert_array_less(np.abs(rhs - _mm(xc.T, wc)),
                                 1e-13 * np.sqrt(np.outer(a, np.sum(wc * wc, axis=0)))
                                 + 1e-300)


def _row_ordered_normal_equations(x, mean, wc):
    """The support form's (Gram, RHS) by a plain loop: x_ij x_ik and
    x_ij Wc_ic added into zeroed sums over the rows in ascending order,
    then centered as the support form centers them."""
    n, d = x.shape
    gram = [[0.0] * d for _ in range(d)]
    rhs = [[0.0] * wc.shape[1] for _ in range(d)]
    for row, targets in zip(x.tolist(), wc.tolist()):
        nonzero = [(j, v) for j, v in enumerate(row) if v != 0.0]
        for j, v in nonzero:
            for k, u in nonzero:
                gram[j][k] += v * u
            for c, t in enumerate(targets):
                rhs[j][c] += v * t
    col_sums = _mm(np.ones((1, n)), wc)[0]
    return (np.array(gram).reshape(d, d) - n * np.multiply.outer(mean, mean),
            np.array(rhs).reshape(d, wc.shape[1]) - np.multiply.outer(mean, col_sums))


@pytest.mark.parametrize("case, dense_row", [
    ((1, 7, 2, 0.3, False, 0.0, 1), None),       # one row
    ((5, 0, 2, 1.0, False, 0.0, 2), None),       # no features
    ((40, 12, 3, 0.3, True, 0.3, 5), None),      # empty rows and columns
    ((300, 40, 3, 1.0, True, 0.3, 4), None),     # 246k pairs
    ((12, 400, 2, 0.3, True, 0.0, 6), 5),        # a row of 80200 pairs among sparse ones
])
def test_support_normal_equations_are_the_row_ordered_sums_bitwise(case, dense_row):
    x, wc = _features(*case)
    if dense_row is not None:
        x[dense_row] = np.round(np.random.default_rng(7).uniform(0.1, 2.0, x.shape[1]), 3)
    mean = x.mean(axis=0)
    gram, rhs = _support_normal_equations(x, mean, wc, certify=False)
    want_gram, want_rhs = _row_ordered_normal_equations(x, mean, wc)
    assert gram.tobytes() == want_gram.tobytes()
    assert rhs.tobytes() == want_rhs.tobytes()


@pytest.mark.parametrize("per_row, support", [(10, True), (11, False)])
def test_support_form_runs_below_sixteen_times_the_pair_count(per_row, support):
    # n d^2 = 200 * 32^2: 10 signed nonzeros per row make 55 pairs a row,
    # n d^2 / pairs = 18.6, and take the support form; 11 make 66, 15.5,
    # and take the dense products, where those are the faster ones
    n, d = 200, 32
    rng = np.random.default_rng(5)
    x = np.zeros((n, d))
    for row in x:
        row[rng.choice(d, per_row, replace=False)] = rng.uniform(-1.0, 1.0, per_row)
    normal = _support_normal_equations(x, x.mean(axis=0), np.zeros((n, 1)))
    assert (normal is not None) == support


def test_support_normal_equations_hold_a_few_blocks_of_pairs():
    # 573k pairs, whose index and weight vectors would take 22.9 MB at
    # once; the sparse products never form them, so the peak (4.4 MB) is
    # the O(nnz) entry arrays, the n x d mask and the d x d product
    n, d = 4000, 200
    rng = np.random.default_rng(37)
    x = np.round(rng.uniform(0.1, 2.0, size=(n, d)), 3)
    x[rng.random((n, d)) >= 0.08] = 0.0
    mean, wc = x.mean(axis=0), np.zeros((n, 1))
    nnz = np.count_nonzero(x)
    tracemalloc.start()
    try:
        assert _support_normal_equations(x, mean, wc) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= n * d + 10 * 8 * nnz + 6 * 8 * _BLOCK_ENTRIES + 3 * 8 * d * d


# ---------------------------------------------------------------- sparse conversions


def test_dense_to_sparse_rejects_true_negatives():
    with pytest.raises(NonNegativityError):
        LabelMatrix.from_dense_array([[-0.1, 0.5]])


def test_sparse_to_dense_hand_oracle():
    v = LabelMatrix(1, 3, [(0, 2, 1.0)])
    assert v.to_csr().toarray().tolist() == [[0.0, 0.0, 1.0]]


def test_sparse_round_trip_exact():
    rng = np.random.default_rng(7)
    dense = rng.uniform(size=(8, 6))
    dense[dense < 0.6] = 0.0
    v = LabelMatrix.from_dense_array(dense)
    np.testing.assert_array_equal(v.to_csr().toarray(), dense)
    # the canonical entry set survives a second round trip bitwise
    w = LabelMatrix.from_dense_array(v.to_csr().toarray())
    for got, want in ((w.entry_rows, v.entry_rows), (w.entry_cols, v.entry_cols),
                      (w.entry_vals, v.entry_vals)):
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------- LabelMatrix


def test_label_matrix_sorts_and_drops_zeros():
    v = LabelMatrix(3, 4, [(2, 1, 1.0), (0, 3, 2.0), (1, 0, 0.0)])
    assert v.entries == [(0, 3, 2.0), (2, 1, 1.0)]
    assert v.nnz == 2
    # the array constructor canonicalizes to the same arrays
    a = LabelMatrix.from_coo(3, 4, np.array([2, 0, 1]), np.array([1, 3, 0]),
                             np.array([1.0, 2.0, 0.0]))
    for got, want in ((a.entry_rows, v.entry_rows), (a.entry_cols, v.entry_cols),
                      (a.entry_vals, v.entry_vals)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_label_matrix_rejects_duplicates():
    with pytest.raises(XlcError):
        LabelMatrix(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])
    with pytest.raises(XlcError):
        LabelMatrix.from_coo(2, 2, [0, 0], [0, 0], [1.0, 2.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 30), st.booleans())
def test_label_matrix_skips_the_sort_only_where_it_does_nothing(seed, nnz, dup):
    # entries already in row-major order skip lexsort; in that order or
    # any other, the stored arrays are a stable lexsort of the kept entries,
    # and a repeated (row, col) fails with the same message every time
    rng = np.random.default_rng(seed)
    keys = np.sort(rng.choice(30, size=nnz, replace=False))
    if dup and nnz:
        keys = np.sort(np.append(keys, rng.choice(keys)))
    rows, cols = keys // 5, keys % 5
    vals = rng.choice([0.0, 0.5, 1.0], size=keys.size)
    keep = vals > 0.0
    order = np.lexsort((cols[keep], rows[keep]))
    want = (rows[keep][order], cols[keep][order], vals[keep][order])
    repeated = np.unique(keys[keep]).size < keep.sum()
    errors = []
    for row_major, perm in ((True, np.arange(keys.size)),
                            (False, np.lexsort((-cols, rows))),   # cols descending
                            (False, rng.permutation(keys.size))):
        with mock.patch.object(xlc.matrix.np, "lexsort", wraps=np.lexsort) as sort:
            try:
                v = LabelMatrix.from_coo(6, 5, rows[perm], cols[perm], vals[perm])
            except XlcError as exc:
                errors.append(str(exc))
                continue
        if row_major:
            assert sort.call_count == 0
        for got, ref in zip((v.entry_rows, v.entry_cols, v.entry_vals), want):
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)
    assert len(errors) == (3 if repeated else 0)
    assert len(set(errors)) <= 1 and all("duplicate entry" in e for e in errors)


@pytest.mark.parametrize("entry", [(-1, 0, 1.0), (2, 0, 1.0), (0, 2, 1.0)])
def test_label_matrix_rejects_out_of_bounds(entry):
    with pytest.raises(XlcError):
        LabelMatrix(2, 2, [entry])
    with pytest.raises(XlcError):
        LabelMatrix.from_coo(2, 2, [entry[0]], [entry[1]], [entry[2]])


def test_label_matrix_rejects_negative_and_non_finite():
    with pytest.raises(NonNegativityError):
        LabelMatrix(2, 2, [(0, 0, -1.0)])
    with pytest.raises(XlcError):
        LabelMatrix(2, 2, [(0, 0, float("nan"))])
    with pytest.raises(NonNegativityError):
        LabelMatrix.from_coo(2, 2, [0], [0], [-1.0])
    with pytest.raises(XlcError):
        LabelMatrix.from_coo(2, 2, [0], [0], [float("nan")])
    # indices must be integer arrays of matching 1-D shape
    with pytest.raises(XlcError):
        LabelMatrix.from_coo(2, 2, [0.5], [0], [1.0])
    with pytest.raises(ShapeMismatchError):
        LabelMatrix.from_coo(2, 2, [0, 1], [0], [1.0, 1.0])


def test_label_matrix_csr_matches_dense():
    v, dense = random_label_matrix(7, 5, seed=2)
    np.testing.assert_array_equal(np.asarray(v.to_csr().todense()), dense)


# ---------------------------------------------------------------- rng


def test_rng_seed_rejects_negative():
    # make_rng and every config check a seed as an int in [0, 2**64 - 1]
    takes_seed = (make_rng, lambda s: AeTrainConfig((2,), seed=s),
                  lambda s: NmfConfig(k=1, seed=s), lambda s: LimeConfig(seed=s))
    for take in takes_seed:
        for bad in (-1, 2**64, 2.5):
            with pytest.raises(ConfigError, match="^seed must be "):
                take(bad)
        take(2**64 - 1)


def test_make_rng_streams_are_bitwise_reproducible():
    a = make_rng(42).uniform(size=100)
    b = make_rng(42).uniform(size=100)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(make_rng(np.uint64(42)).uniform(size=100), a)
    c = make_rng(43).uniform(size=100)
    assert (a != c).any()


def test_config_seeds_are_plain_ints_giving_equal_streams():
    # numpy integers are taken and held as the Python int; a config's seed
    # and the same int give bit-identical streams
    for seed in (5, np.int64(5), np.uint64(5)):
        cfgs = (AeTrainConfig((2,), seed=seed), NmfConfig(k=1, seed=seed), LimeConfig(seed=seed))
        for cfg in cfgs:
            assert type(cfg.seed) is int and cfg.seed == 5
            np.testing.assert_array_equal(make_rng(cfg.seed).uniform(size=100),
                                          make_rng(5).uniform(size=100))


def test_dense_matrix_rejects_non_finite():
    with pytest.raises(XlcError):
        DenseMatrix([[1.0, float("inf")]])
