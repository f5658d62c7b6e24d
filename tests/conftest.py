"""Shared builders for planted test matrices.

The rank-4 planted matrix is used by both the autoencoder tests and the
acceptance gate, so it lives here with its construction frozen: changing the
generator seed or the block layout would silently move the SVD floor that
several tolerances were calibrated against.
"""

from unittest import mock

import numpy as np
import pytest

import xlc.matrix
from xlc import LabelMatrix


def planted_rank4_dense(n_rows: int = 60, n_labels: int = 30) -> np.ndarray:
    """Return V = B @ C: 4 disjoint row-blocks times 4 disjoint-support rows.

    B is a 60x4 block indicator (15 rows per block).  C is 4x30 with disjoint
    column support (sizes 8, 8, 7, 7) and uniform(0.5, 1.5) entries.  The
    product has exact rank 4 in float arithmetic, so the rank-4 SVD floor of
    this matrix is numerically zero.
    """
    blocks = 4
    rows_per = n_rows // blocks
    b = np.zeros((n_rows, blocks))
    b[np.arange(n_rows), np.repeat(np.arange(blocks), rows_per)] = 1.0
    rng = np.random.default_rng(1)
    sizes = [8, 8, 7, 7]
    c = np.zeros((blocks, n_labels))
    start = 0
    for i, size in enumerate(sizes):
        c[i, start : start + size] = rng.uniform(0.5, 1.5, size=size)
        start += size
    return b @ c


def svd_floor(dense: np.ndarray, k: int) -> float:
    """Independent Eckart-Young oracle: squared error of the best rank-k fit."""
    s = np.linalg.svd(dense, compute_uv=False)
    return float(np.sum(s[k:] ** 2))


@pytest.fixture
def planted_v() -> tuple[LabelMatrix, np.ndarray]:
    dense = planted_rank4_dense()
    return LabelMatrix.from_dense_array(dense), dense


def random_label_matrix(
    n: int, p: int, seed: int, density: float = 0.5
) -> tuple[LabelMatrix, np.ndarray]:
    """Random non-negative matrix with at least one nonzero, plus its dense form."""
    rng = np.random.default_rng(seed)
    dense = rng.uniform(0.0, 1.0, size=(n, p))
    dense[rng.uniform(size=(n, p)) > density] = 0.0
    if not dense.any():
        dense[0, 0] = 1.0
    return LabelMatrix.from_dense_array(dense), dense


def centered_normal_equations(x: np.ndarray, wc: np.ndarray):
    """(matrix._centered_normal_equations(x, wc), whether it took the
    support form, summing over x's nonzeros, rather than the dense one)."""
    with mock.patch.object(xlc.matrix, "_support_normal_equations",
                           wraps=xlc.matrix._support_normal_equations) as support:
        normal = xlc.matrix._centered_normal_equations(x, wc)
    return normal, support.called
