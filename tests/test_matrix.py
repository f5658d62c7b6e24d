"""Core matrix types and kernels: frozen oracles plus algebraic properties."""

import numpy as np
import pytest
from conftest import random_label_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from xlc import (
    DenseMatrix,
    LabelMatrix,
    NonNegativityError,
    RngSeed,
    ShapeMismatchError,
    XlcError,
    dense_to_sparse,
    frobenius_norm_sq,
    make_rng,
    matmul,
    project_nonneg,
    sparse_to_dense,
)


# ---------------------------------------------------------------- matmul


def test_matmul_hand_oracle():
    a = DenseMatrix([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    b = DenseMatrix([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    out = matmul(a, b)
    assert out.values.tolist() == [[2.0, 0.0], [0.0, 1.0]]


def test_matmul_identity_is_noop():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 5))
    out = matmul(DenseMatrix(a), DenseMatrix(np.eye(5)))
    np.testing.assert_array_equal(out.values, a)


def test_matmul_zero_factor():
    a = DenseMatrix(np.zeros((3, 2)))
    b = DenseMatrix(np.ones((2, 4)))
    assert not matmul(a, b).values.any()


def test_matmul_shape_mismatch_names_both_shapes():
    a = DenseMatrix(np.ones((2, 3)))
    b = DenseMatrix(np.ones((4, 2)))
    with pytest.raises(ShapeMismatchError) as exc:
        matmul(a, b)
    msg = str(exc.value)
    assert "2x3" in msg and "4x2" in msg


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matmul_associativity(seed):
    # ||(AB)C - A(BC)|| <= 1e-9 * (1 + ||A|| ||B|| ||C||)
    rng = np.random.default_rng(seed)
    n, m, k, q = rng.integers(1, 7, size=4)
    a = DenseMatrix(rng.normal(size=(n, m)))
    b = DenseMatrix(rng.normal(size=(m, k)))
    c = DenseMatrix(rng.normal(size=(k, q)))
    left = matmul(matmul(a, b), c).values
    right = matmul(a, matmul(b, c)).values
    bound = 1e-9 * (
        1.0
        + np.linalg.norm(a.values)
        * np.linalg.norm(b.values)
        * np.linalg.norm(c.values)
    )
    assert np.linalg.norm(left - right) <= bound


# ---------------------------------------------------------------- frobenius


def test_frobenius_hand_oracles():
    assert frobenius_norm_sq(DenseMatrix([[3.0, 4.0]])) == 25.0
    assert frobenius_norm_sq(DenseMatrix(np.eye(3))) == 3.0
    assert frobenius_norm_sq(DenseMatrix(np.zeros((2, 5)))) == 0.0


def test_frobenius_matches_numpy():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 4))
    got = frobenius_norm_sq(DenseMatrix(a))
    assert got == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-12)


# ---------------------------------------------------------------- projection


def test_project_nonneg_clamps_only_negatives():
    a = DenseMatrix([[-1.0, 0.5], [0.0, -2.0]])
    out = project_nonneg(a)
    assert out.values.tolist() == [[0.0, 0.5], [0.0, 0.0]]
    # input untouched
    assert a.values.tolist() == [[-1.0, 0.5], [0.0, -2.0]]


def test_project_nonneg_idempotent_and_contractive():
    rng = np.random.default_rng(5)
    a = DenseMatrix(rng.normal(size=(5, 5)))
    once = project_nonneg(a)
    twice = project_nonneg(once)
    np.testing.assert_array_equal(once.values, twice.values)
    assert frobenius_norm_sq(once) <= frobenius_norm_sq(a)


# ---------------------------------------------------------------- sparse conversions


def test_dense_to_sparse_drops_below_tolerance():
    v = dense_to_sparse(DenseMatrix([[1e-9, 0.5]]), tol=1e-8)
    assert v.entries == [(0, 1, 0.5)]


def test_dense_to_sparse_rejects_true_negatives():
    with pytest.raises(NonNegativityError):
        dense_to_sparse(DenseMatrix([[-0.1, 0.5]]), tol=1e-8)


def test_dense_to_sparse_negative_within_tol_is_dropped():
    # entries in (-tol, 0) are treated as numerical noise, not violations
    v = dense_to_sparse(DenseMatrix([[-1e-9, 0.5]]), tol=1e-8)
    assert v.entries == [(0, 1, 0.5)]


def test_sparse_to_dense_hand_oracle():
    v = LabelMatrix(1, 3, [(0, 2, 1.0)])
    assert sparse_to_dense(v).values.tolist() == [[0.0, 0.0, 1.0]]


def test_sparse_round_trip_exact():
    rng = np.random.default_rng(7)
    dense = rng.uniform(size=(8, 6))
    dense[dense < 0.6] = 0.0
    v = dense_to_sparse(DenseMatrix(dense), tol=0.0)
    np.testing.assert_array_equal(sparse_to_dense(v).values, dense)


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


def test_label_matrix_rejects_wrong_name_count():
    with pytest.raises(XlcError):
        LabelMatrix(1, 3, [(0, 0, 1.0)], label_names=["a", "b"])


def test_label_matrix_csr_matches_dense():
    v, dense = random_label_matrix(7, 5, seed=2)
    np.testing.assert_array_equal(np.asarray(v.to_csr().todense()), dense)


# ---------------------------------------------------------------- rng


def test_rng_seed_rejects_negative():
    with pytest.raises(XlcError):
        RngSeed(-1)


def test_make_rng_streams_are_bitwise_reproducible():
    a = make_rng(RngSeed(42)).uniform(size=100)
    b = make_rng(42).uniform(size=100)
    np.testing.assert_array_equal(a, b)
    c = make_rng(43).uniform(size=100)
    assert (a != c).any()


def test_dense_matrix_rejects_non_finite():
    with pytest.raises(XlcError):
        DenseMatrix([[1.0, float("inf")]])
