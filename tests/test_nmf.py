"""Multiplicative-update NMF: recovery oracles, monotone trace, objective."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import random_label_matrix, svd_floor

import xlc.matrix
from xlc import (
    ConfigError,
    DenseMatrix,
    LabelMatrix,
    NmfConfig,
    NmfFactors,
    ShapeMismatchError,
    XlcError,
    nmf_factorize,
    nmf_objective,
)


def test_rank1_planted_recovery():
    # V = u v^T is exactly rank 1, so k=1 must reach relative error < 1e-6.
    u = np.array([[1.0], [2.0]])
    vt = np.array([[3.0, 0.0, 1.0]])
    dense = u @ vt
    v = LabelMatrix.from_dense_array(dense)
    f = nmf_factorize(v, NmfConfig(k=1, seed=0))
    rel = np.linalg.norm(dense - f.w.values @ f.h.values) / np.linalg.norm(dense)
    assert rel < 1e-6
    assert len(f.objective_trace) <= 5001


def test_rank4_diagonal_recovery():
    # A square identity with k = dim is out of range (k must be < min(n, p)),
    # so the exact-recovery case uses diag(1,1,1,1,0) at k=4 instead.
    dense = np.diag([1.0, 1.0, 1.0, 1.0, 0.0])
    v = LabelMatrix.from_dense_array(dense)
    f = nmf_factorize(v, NmfConfig(k=4, seed=0))
    rel = np.linalg.norm(dense - f.w.values @ f.h.values) / np.linalg.norm(dense)
    assert rel < 1e-3


def test_trace_non_increasing_random_instances():
    for seed in range(5):
        v, _ = random_label_matrix(12, 9, seed=seed)
        f = nmf_factorize(v, NmfConfig(k=3, seed=seed))
        trace = np.asarray(f.objective_trace)
        assert (np.diff(trace) <= 1e-12).all()


def test_factors_non_negative():
    v, _ = random_label_matrix(10, 8, seed=4)
    f = nmf_factorize(v, NmfConfig(k=3, seed=1))
    assert f.w.values.min() >= 0.0
    assert f.h.values.min() >= 0.0


def test_final_objective_respects_svd_floor():
    v, dense = random_label_matrix(15, 10, seed=9)
    f = nmf_factorize(v, NmfConfig(k=4, seed=2))
    # objective is half the squared error
    assert f.objective_trace[-1] >= 0.5 * svd_floor(dense, 4) - 1e-9


def test_determinism_bitwise():
    v, _ = random_label_matrix(10, 7, seed=3)
    f1 = nmf_factorize(v, NmfConfig(k=2, seed=5))
    f2 = nmf_factorize(v, NmfConfig(k=2, seed=5))
    np.testing.assert_array_equal(f1.w.values, f2.w.values)
    np.testing.assert_array_equal(f1.h.values, f2.h.values)
    assert f1.objective_trace == f2.objective_trace


@pytest.mark.parametrize("k", [0, -1, 7, 10])
def test_k_out_of_range_rejected(k):
    v, _ = random_label_matrix(8, 7, seed=0)
    with pytest.raises(ConfigError):
        nmf_factorize(v, NmfConfig(k=k, seed=0))


def test_objective_matches_dense_brute_force():
    v, dense = random_label_matrix(6, 5, seed=8)
    f = nmf_factorize(v, NmfConfig(k=2, seed=8, max_iters=20))
    expected = 0.5 * np.linalg.norm(dense - f.w.values @ f.h.values) ** 2
    assert nmf_objective(v, f) == pytest.approx(expected, abs=1e-12)
    # the loop records the same objective, summed in the same order
    assert nmf_objective(v, f) == f.objective_trace[-1]


@pytest.mark.parametrize("n, p, k, iters", [(60, 40, 3, 4000), (200, 150, 5, 3000),
                                             (40, 30, 29, 3000)])
def test_long_runs_stay_monotone_through_the_split_objective(n, p, k, iters):
    # 5% dense V takes the split objective while the fit is loose; at k=29
    # the fit turns near exact and the objective falls back to the direct
    # sum. NmfFactors rejects any step that rises by more than 1e-12.
    v, _ = random_label_matrix(n, p, seed=n, density=0.05)
    with mock.patch.object(xlc.matrix, "_direct_sq_error",
                           wraps=xlc.matrix._direct_sq_error) as direct:
        f = nmf_factorize(v, NmfConfig(k=k, max_iters=iters, rel_tol=0.0, seed=n))
    assert (direct.call_count > 0) == (k == 29)
    assert nmf_objective(v, f) == f.objective_trace[-1]


def test_factorize_never_allocates_a_dense_label_matrix():
    # one dense copy of V at this shape is n x p x 8 bytes = 18.3 MiB; the
    # traced peak of the factorization and the objective stays far below it
    n, p = 3000, 800
    rng = np.random.default_rng(23)
    r, c = np.nonzero(rng.random((n, p)) < 0.01)
    v = LabelMatrix.from_coo(n, p, r, c, np.ones(r.size))
    tracemalloc.start()
    try:
        f = nmf_factorize(v, NmfConfig(k=8, max_iters=3, rel_tol=0.0, seed=23))
        nmf_objective(v, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(f.objective_trace) == 3
    assert peak < n * p * 8 // 4


def test_objective_zero_w_is_half_norm():
    v, dense = random_label_matrix(6, 5, seed=1)
    f = NmfFactors(
        w=DenseMatrix(np.zeros((6, 2))),
        h=DenseMatrix(np.ones((2, 5))),
        objective_trace=[0.5 * np.linalg.norm(dense) ** 2],
    )
    assert nmf_objective(v, f) == pytest.approx(
        0.5 * np.linalg.norm(dense) ** 2, rel=1e-12
    )


def test_objective_exact_factors_is_zero():
    w = np.array([[1.0], [2.0]])
    h = np.array([[3.0, 0.0, 1.0]])
    v = LabelMatrix.from_dense_array(w @ h)
    f = NmfFactors(w=DenseMatrix(w), h=DenseMatrix(h), objective_trace=[0.0])
    assert nmf_objective(v, f) == 0.0


def test_objective_shape_mismatch():
    v, _ = random_label_matrix(6, 5, seed=1)
    f = NmfFactors(
        w=DenseMatrix(np.ones((4, 2))),
        h=DenseMatrix(np.ones((2, 5))),
        objective_trace=[1.0],
    )
    with pytest.raises(ShapeMismatchError):
        nmf_objective(v, f)


def test_factors_reject_increasing_trace():
    with pytest.raises(XlcError):
        NmfFactors(
            w=DenseMatrix(np.ones((2, 1))),
            h=DenseMatrix(np.ones((1, 2))),
            objective_trace=[1.0, 2.0],
        )


def test_factors_reject_negative_entries():
    with pytest.raises(XlcError):
        NmfFactors(
            w=DenseMatrix([[-1.0], [1.0]]),
            h=DenseMatrix(np.ones((1, 2))),
            objective_trace=[1.0],
        )
