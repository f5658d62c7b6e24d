"""Shallow non-negative factorization V ~ W @ H by multiplicative updates.

Serves three roles: a baseline compressor, a sanity oracle for the deep
model (its objective can never beat the rank-k SVD floor), and an optional
greedy initializer for the encoder stack.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NonNegativityError, ShapeMismatchError, _instance, _integer, _real
from .matrix import DenseMatrix, LabelMatrix, _check_labels, _lowrank_sq_error, _mm, make_rng

_EPSILON = 1e-12        # keeps the multiplicative-update denominators > 0
# Near convergence a Lee-Seung step can rise by a few ulps of the objective
# (at most 1.3 ulps of the first entry over 400 seeded 40x30 runs), and a
# switch between _lowrank_sq_error's split and direct forms moved it by up
# to 23 ulps. NmfFactors lets a step rise by this many ulps of the first entry.
_TRACE_SLACK_ULPS = 64


class NmfConfig:
    """Settings for one factorization run.

    k must satisfy 1 <= k < min(n, p); rel_tol must be finite and >= 0.
    """

    __slots__ = ("k", "max_iters", "rel_tol", "seed")

    def __init__(self, k: int, max_iters: int = 5000, rel_tol: float = 1e-6,
                 seed: int = 0):
        self.k = _integer("k", k, 1)
        self.max_iters = _integer("max_iters", max_iters, 1)
        self.rel_tol = _real("rel_tol", rel_tol, 0.0)
        self.seed = _integer("seed", seed, 0, 2**64 - 1)


class NmfFactors:
    """Result of a factorization: non-negative W (n x k) and H (k x p),
    plus the objective value recorded after every iteration. The trace
    must be non-increasing up to a slack per step of _TRACE_SLACK_ULPS ulps
    of its first entry, and never less than 1e-12."""

    __slots__ = ("w", "h", "k", "objective_trace")

    def __init__(self, w: DenseMatrix, h: DenseMatrix, objective_trace):
        if _instance("w", w, DenseMatrix).cols != _instance("h", h, DenseMatrix).rows:
            raise ShapeMismatchError(
                f"W is {w.rows}x{w.cols} but H is {h.rows}x{h.cols}")
        if w.values.min(initial=0.0) < 0 or h.values.min(initial=0.0) < 0:
            raise NonNegativityError("NMF factors must be entrywise >= 0")
        trace = tuple(_real("trace entry", x, 0.0) for x in objective_trace)
        first = trace[0] if trace else 0.0
        slack = max(1e-12, _TRACE_SLACK_ULPS * np.finfo(np.float64).eps * first)
        for i in range(len(trace) - 1):
            if trace[i + 1] > trace[i] + slack:
                raise ConfigError(
                    f"objective trace increases at step {i + 1}: "
                    f"{trace[i]:.6g} -> {trace[i + 1]:.6g}")
        self.w = w
        self.h = h
        self.k = w.cols
        self.objective_trace = trace


def nmf_objective(v: LabelMatrix, f: NmfFactors) -> float:
    """0.5 * ||V - WH||_F^2."""
    _check_labels(v)
    _instance("f", f, NmfFactors)
    if f.w.rows != v.n_rows or f.h.cols != v.n_labels:
        raise ShapeMismatchError(
            f"factors give {f.w.rows}x{f.h.cols}, V is {v.n_rows}x{v.n_labels}")
    return 0.5 * _lowrank_sq_error(v.to_csr(), f.w.values, f.h.values)


def nmf_factorize(v: LabelMatrix, cfg: NmfConfig) -> NmfFactors:
    """Factorize V ~ W @ H with Lee-Seung multiplicative updates on the
    halved squared Frobenius loss.

    Each iteration updates H then W; both half-steps are monotone, so the
    recorded objective trace is non-increasing. Initial factors are drawn
    uniform(0.1, 1.0) scaled by sqrt(mean(V)/k) from the seed (W first,
    then H), which keeps every entry strictly positive so the
    multiplicative updates never lock at zero.

    Stops when the relative objective change drops below cfg.rel_tol or
    after cfg.max_iters iterations. V stays in CSR form: the updates use
    sparse products, and the objective is _lowrank_sq_error's split form
    in O(nnz k + (n + p) k^2), or its direct O(n p k) blocked sum once W H
    explains more of ||V||^2 than the split form's rounding bound allows
    (or V is more than 1/16 dense), exactly as nmf_objective computes it.
    The split form reuses the step's W^T W and H H^T.
    """
    n, p = _check_labels(v).n_rows, v.n_labels
    if _instance("cfg", cfg, NmfConfig).k >= min(n, p):
        raise ConfigError(f"k={cfg.k} must be < min(n, p) = {min(n, p)}")

    vs = v.to_csr()
    mean_v = float(vs.sum()) / max(n * p, 1)
    scale = np.sqrt(mean_v / cfg.k) if mean_v > 0 else 1.0
    rng = make_rng(cfg.seed)
    w = rng.uniform(0.1, 1.0, size=(n, cfg.k)) * scale
    h = rng.uniform(0.1, 1.0, size=(cfg.k, p)) * scale

    trace = []
    prev = None
    wtw = _mm(w.T, w)
    for _ in range(cfg.max_iters):
        # H <- H * (W^T V) / (W^T W H + eps)
        wtv = np.asarray((vs.T @ w).T)          # (k, p), sequential CSC kernel
        h *= wtv / (_mm(wtw, h) + _EPSILON)
        # W <- W * (V H^T) / (W H H^T + eps)
        vht = np.asarray(vs @ h.T)              # (n, k)
        hht = _mm(h, h.T)
        w *= vht / (_mm(w, hht) + _EPSILON)
        wtw = _mm(w.T, w)                       # serves the objective and the next H step

        obj = 0.5 * _lowrank_sq_error(vs, w, h, grams=(wtw, hht))
        trace.append(obj)
        if prev is not None and abs(prev - obj) <= cfg.rel_tol * max(prev, 1e-300):
            break
        prev = obj

    return NmfFactors(DenseMatrix(w), DenseMatrix(h), trace)
