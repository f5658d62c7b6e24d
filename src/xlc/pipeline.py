"""Feature-to-latent regression, ranked decoding, and ranking metrics.

Step two of the pipeline: a ridge regressor maps pre-extracted feature
vectors to the non-negative latent codes produced by the autoencoder,
predictions are decoded back to full-length label score vectors, and
rankings are scored with precision@k / nDCG@k.

Serving works on one feature vector or on an r x d block of them. A block
is regressed and decoded in one product each: decoding costs O(k_L p) per
row through the stack's cached collapsed chain E^T. Ranking the top n of a
row then costs O(p) to pick the candidates (every label scoring at least
the row's n-th largest score) plus a sort of only those candidates, in
the same (descending score, ascending index) order as rank_labels.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .autoencoder import EncoderStack, decode
from .errors import (ConfigError, NonNegativityError, ShapeMismatchError, _array, _choice,
                     _instance, _integer, _real)
from .matrix import DenseMatrix, _cholesky_solve, _lock, _mm, _support_normal_equations, make_rng


class FeatureMatrix(DenseMatrix):
    """Dense n x d block of pre-extracted feature rows."""

    @property
    def n_features(self) -> int:
        return self.cols


class RegressorModel:
    """Fitted feature-to-latent map: ridge-linear, X Theta + intercept.

    The parameters are exactly theta (d x k) and intercept (length k), both
    finite; they are immutable after fitting. Predictions pass through an
    identity output head.
    """

    KINDS = ("ridge-linear",)

    __slots__ = ("kind", "input_dim", "output_dim", "params")

    def __init__(self, kind: str, input_dim: int, output_dim: int, params):
        self.kind = _choice("kind", kind, self.KINDS)
        self.input_dim = _integer("input_dim", input_dim, 1)
        self.output_dim = _integer("output_dim", output_dim, 1)
        if sorted(params) != ["intercept", "theta"]:
            raise ConfigError(f"{kind} parameters must be intercept and theta, "
                              f"got {sorted(params)}")
        theta = _lock(_array("theta", params["theta"], (self.input_dim, self.output_dim)))
        b = _lock(_array("intercept", params["intercept"], (self.output_dim,)))
        self.params = {"theta": theta, "intercept": b}

    def raw_outputs(self, rows: np.ndarray) -> np.ndarray:
        """Identity-head outputs for a dense row block, no clamping."""
        return _mm(rows, self.params["theta"]) + self.params["intercept"]

    def __repr__(self):
        return (f"RegressorModel(kind={self.kind!r}, "
                f"d={self.input_dim}, k={self.output_dim})")


class RankedPrediction:
    """Decoded label scores plus the top-N ranking.

    top_n holds (label_index, score) pairs in descending score order,
    ties broken by ascending label index; its length is min(N, p).
    """

    __slots__ = ("scores", "top_n")

    def __init__(self, scores: np.ndarray, n: int):
        self.scores = scores = _lock(_array("scores", scores, (None,), nonneg=True))
        self.top_n = _top_n(scores.reshape(1, -1), _integer("n", n, 1))[0]

    @classmethod
    def _rows(cls, scores: np.ndarray, n: int) -> list["RankedPrediction"]:
        """One prediction per row of an r x p score block, each holding a
        read-only row view of the block. The block comes from decode, so it
        is finite and >= 0, and n >= 1."""
        scores.setflags(write=False)
        preds = []
        for row, top in zip(scores, _top_n(scores, n)):
            pred = cls.__new__(cls)
            pred.scores, pred.top_n = row, top
            preds.append(pred)
        return preds


def _top_n(scores: np.ndarray, n: int) -> list[tuple]:
    """rank_labels(row)[:n] as (label, score) pairs, for each row of an
    r x p score block.

    np.partition finds each row's n-th largest score in O(p). Every label
    scoring at least that much is a candidate, so all ties at the cutoff
    are kept; candidates come in ascending label order, so rank_labels
    over their scores breaks ties by ascending label index, and only the
    candidates are sorted.
    """
    r, p = scores.shape
    n = min(n, p)
    if n == 0:
        return [()] * r
    cutoff = np.partition(scores, p - n, axis=1)[:, p - n:p - n + 1]
    flat = np.flatnonzero(scores >= cutoff)
    ends = np.searchsorted(flat, np.arange(1, r + 1) * p).tolist()
    out = []
    lo = 0
    for i, (row, hi) in enumerate(zip(scores, ends)):
        cand = flat[lo:hi] - i * p
        s = row[cand]
        best = rank_labels(s)[:n]
        out.append(tuple(zip(cand[best].tolist(), s[best].tolist())))
        lo = hi
    return out


def rank_labels(scores: np.ndarray) -> np.ndarray:
    """Total order over labels: descending score, ascending index on ties."""
    idx = np.arange(scores.size)
    return np.lexsort((idx, -scores))


def fit_regressor(x: FeatureMatrix, w: DenseMatrix, kind: str = "ridge-linear",
                  hyperparams=None) -> RegressorModel:
    """Fit the ridge-linear feature-to-latent regressor.

    It solves min ||X Theta - W||_F^2 + lam ||Theta||_F^2 in closed form
    on column-centered data, so the intercept absorbs the column means and
    is not penalized. Its normal equations come from one of two paths. For
    sparse features, _support_normal_equations sums them over X's nonzeros
    in O(pairs of nonzeros sharing a row), without forming the centered
    copy; it runs when that pair count is well below n d^2 and its
    rounding certificate holds, that is, when no feature's mean is large
    against its spread. Otherwise the centered copy Xc = X - mean gives
    Xc^T Xc and Xc^T Wc through _mm in O(n d^2). Both paths then take the
    same Cholesky solve.

    kind must be "ridge-linear"; the one hyperparameter is lam (optional,
    default 1e-3).
    """
    kind = _choice("kind", kind, RegressorModel.KINDS)
    hp = {} if hyperparams is None else dict(_instance("hyperparams", hyperparams, Mapping))
    if _instance("x", x, DenseMatrix).rows != _instance("w", w, DenseMatrix).rows:
        raise ShapeMismatchError(
            f"feature rows {x.rows} != latent rows {w.rows}")
    if w.values.size and w.values.min() < 0:
        raise NonNegativityError("latent targets have a negative entry")
    lam = _real("lam", hp.pop("lam", 1e-3), 0.0)
    if hp:
        raise ConfigError(f"unknown hyperparameters for {kind}: {sorted(hp)}")
    xv, wv = x.values, w.values
    d, k = x.cols, w.cols
    x_mean = xv.mean(axis=0) if x.rows else np.zeros(d)
    w_mean = wv.mean(axis=0) if x.rows else np.zeros(k)
    wc = wv - w_mean
    normal = _support_normal_equations(xv, x_mean, wc)
    if normal is None:
        xc = xv - x_mean
        gram, rhs = _mm(xc.T, xc), _mm(xc.T, wc)
    else:
        gram, rhs = normal
    gram = gram + lam * np.eye(d)
    try:
        theta = _cholesky_solve(gram, rhs)
    except NonNegativityError as exc:
        raise ConfigError(
            f"normal equations are singular with lam={lam}; "
            f"use a positive lam") from exc
    intercept = w_mean - _mm(x_mean.reshape(1, -1), theta)[0]
    return RegressorModel(kind, d, k, {"theta": theta, "intercept": intercept})


def predict_latent(x, m: RegressorModel) -> np.ndarray:
    """Latent prediction, clamped at zero: a length-k vector for one
    feature vector, or an r x k block for an r x d block of them.

    The identity head can emit negatives; the clamp keeps the decoder
    input inside the non-negative latent domain. Rows are independent: a
    row of a block gives bitwise the same result as that row alone.
    """
    d = _instance("m", m, RegressorModel).input_dim
    a = _array("x", x, (d,), (None, d))
    if a.ndim == 1:
        return np.maximum(m.raw_outputs(a.reshape(1, -1))[0], 0.0)
    return np.maximum(m.raw_outputs(a), 0.0)


def _check_latent_dim(m: RegressorModel, stack: EncoderStack) -> None:
    """Raise ShapeMismatchError unless the regressor's outputs are the
    stack's latent codes, after checking the types of both."""
    _instance("m", m, RegressorModel)
    _instance("stack", stack, EncoderStack)
    if m.output_dim != stack.latent_dim:
        raise ShapeMismatchError(
            f"regressor outputs {m.output_dim} dims but decoder expects "
            f"{stack.latent_dim}")


def predict_labels(x, m: RegressorModel, stack: EncoderStack,
                   n: int = 25) -> RankedPrediction | list[RankedPrediction]:
    """Decode the predicted latent code to a ranked label list.

    x is one feature vector, giving one RankedPrediction, or an r x d
    block, giving a list of r of them that hold row views of one decoded
    r x p block; each equals the prediction for its row alone, bitwise.
    """
    n = _integer("n", n, 1)
    _check_latent_dim(m, stack)
    latent = predict_latent(x, m)
    preds = RankedPrediction._rows(decode(np.atleast_2d(latent), stack).values, n)
    return preds if latent.ndim == 2 else preds[0]


def _metrics_at_k(ranked, base, keys, counts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """P@k and nDCG@k of each row of an r x m block of ranked labels.

    Row i ranks ranked[i], best first, at least min(k, p) labels. Its truth
    is the counts[i] labels j with base[i] + j in keys: sorted unique
    row * p + label keys, as in a LabelMatrix. Sums run in rank order, as
    the metrics define them; nDCG@k is 0 for empty truth."""
    cand = base[:, None] + ranked[:, :k]
    hit = np.searchsorted(keys, cand, side="right") > np.searchsorted(keys, cand)
    ideal_ranks = np.minimum(counts, k)
    disc = 1.0 / np.log2(np.arange(2, max(hit.shape[1], ideal_ranks.max(initial=0)) + 2))
    dcg = np.zeros(len(hit))
    for i in range(hit.shape[1]):
        dcg += hit[:, i] * disc[i]
    ideal = np.concatenate(([0.0], np.cumsum(disc)))[ideal_ranks]
    ndcg = np.divide(dcg, ideal, out=np.zeros_like(dcg), where=ideal > 0)
    return hit.sum(axis=1) / k, ndcg


def _row_metrics(pred: RankedPrediction, truth, k: int) -> tuple[float, float | None]:
    """(P@k, nDCG@k) of one prediction; nDCG@k is None for empty truth."""
    _instance("pred", pred, RankedPrediction)
    k = _integer("k", k, 1)
    # a label outside [0, p) counts but never hits
    truth = {_integer("truth label", t, None) for t in truth}
    keys = np.array(sorted(t for t in truth if 0 <= t < pred.scores.size), dtype=np.int64)
    ranked = np.array([[j for j, _ in _top_n(pred.scores.reshape(1, -1), k)[0]]])
    prec, ndcg = _metrics_at_k(ranked, np.zeros(1, int), keys, np.array([len(truth)]), k)
    return float(prec[0]), float(ndcg[0]) if truth else None


def precision_at_k(pred: RankedPrediction, truth, k: int) -> float:
    """|top-k predicted labels intersected with truth| / k."""
    return _row_metrics(pred, truth, k)[0]


def ndcg_at_k(pred: RankedPrediction, truth, k: int) -> float:
    """Normalized discounted cumulative gain with binary gains.

    DCG sums 1/log2(i+2) over ranks i < k whose label is in truth; the
    ideal DCG places min(k, |truth|) hits first.
    """
    ndcg = _row_metrics(pred, truth, k)[1]
    if ndcg is None:
        raise ConfigError("ndcg needs a non-empty truth set")
    return ndcg


def split_rows(n_rows: int, test_frac: float = 0.2,
               seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic train/test row split by seeded shuffle.

    Returns (train_idx, test_idx), each sorted ascending. The test side
    gets floor(n_rows * test_frac) rows.
    """
    test_frac = _real("test_frac", test_frac, 0.0, above=True, below=1.0)
    n_rows = _integer("n_rows", n_rows, 2)
    rng = make_rng(seed)
    perm = rng.permutation(n_rows)
    n_test = int(n_rows * test_frac)
    if n_test < 1 or n_test >= n_rows:
        raise ConfigError(
            f"test_frac {test_frac} leaves an empty split for {n_rows} rows")
    return np.sort(perm[n_test:]), np.sort(perm[:n_test])
