"""Feature-to-latent regression, ranked decoding, and ranking metrics."""

from unittest import mock

import numpy as np
import pytest
from conftest import centered_normal_equations, planted_rank4_dense
from hypothesis import given, settings
from hypothesis import strategies as st

import xlc.pipeline
from xlc import (
    AeTrainConfig,
    ConfigError,
    DenseMatrix,
    EncoderStack,
    FeatureMatrix,
    LabelMatrix,
    RankedPrediction,
    RegressorModel,
    ShapeMismatchError,
    XlcError,
    encode,
    fit_regressor,
    ndcg_at_k,
    precision_at_k,
    predict_labels,
    predict_latent,
    rank_labels,
    split_rows,
    train_autoencoder,
)
from xlc.matrix import _centered_normal_equations, _cholesky_solve, _mm
from xlc.pipeline import _metrics_at_k, _top_n


def _random_latents(n, k, seed):
    return DenseMatrix(np.random.default_rng(seed).uniform(0.0, 2.0, size=(n, k)))


# ---------------------------------------------------------------- ridge


def test_ridge_identity_mapping():
    w = _random_latents(30, 4, seed=0)
    x = FeatureMatrix(w.values.copy())
    m = fit_regressor(x, w, hyperparams={"lam": 1e-8})
    pred = m.raw_outputs(x.values)
    rel = np.linalg.norm(pred - w.values) / np.linalg.norm(w.values)
    assert rel < 1e-6


def test_ridge_recovers_planted_linear_map():
    rng = np.random.default_rng(5)
    w = _random_latents(80, 3, seed=5)
    a = rng.uniform(0.5, 1.5, size=(3, 6))  # invertible in the least-squares sense
    x = FeatureMatrix(w.values @ a)
    m = fit_regressor(FeatureMatrix(w.values @ a), w, hyperparams={"lam": 1e-8})
    pred = m.raw_outputs(x.values)
    rel = np.linalg.norm(pred - w.values) / np.linalg.norm(w.values)
    assert rel < 1e-4


def test_ridge_zero_features_predicts_column_means():
    w = _random_latents(12, 3, seed=9)
    x = FeatureMatrix(np.zeros((12, 4)))
    m = fit_regressor(x, w)
    pred = m.raw_outputs(np.zeros((1, 4)))
    np.testing.assert_allclose(pred[0], w.values.mean(axis=0), rtol=1e-12)


def test_ridge_centered_stationarity():
    # gradient of the centered objective at the solution:
    # Xc^T (Xc Theta - Wc) + lam Theta == 0
    w = _random_latents(40, 3, seed=13)
    rng = np.random.default_rng(13)
    x = FeatureMatrix(rng.normal(size=(40, 7)))
    lam = 1e-3
    m = fit_regressor(x, w, hyperparams={"lam": lam})
    theta = m.params["theta"]
    xc = x.values - x.values.mean(axis=0)
    wc = w.values - w.values.mean(axis=0)
    g = xc.T @ (xc @ theta - wc) + lam * theta
    scale = np.linalg.norm(xc.T @ wc) + 1.0
    assert np.linalg.norm(g) < 1e-8 * scale


def test_ridge_singular_without_penalty():
    # a constant column centers to exactly zero, so with lam=0 the normal
    # equations have an exactly-zero pivot
    base = np.random.default_rng(3).normal(size=(10, 2))
    x = FeatureMatrix(np.hstack([base, np.ones((10, 1))]))
    w = _random_latents(10, 2, seed=3)
    with pytest.raises(XlcError):
        fit_regressor(x, w, hyperparams={"lam": 0.0})


def _dense_ridge(x, w, lam):
    """The ridge fit through the centered copy of x, as fit_regressor takes
    it on its dense path."""
    x_mean, w_mean = x.mean(axis=0), w.mean(axis=0)
    xc, wc = x - x_mean, w - w_mean
    theta = _cholesky_solve(_mm(xc.T, xc) + lam * np.eye(x.shape[1]), _mm(xc.T, wc))
    return theta, w_mean - _mm(x_mean.reshape(1, -1), theta)[0]


def _ridge_features(case, n, d, seed):
    rng = np.random.default_rng(seed)
    if case == "counts":
        # train-sparse's shape: small counts, 35% dense at d = 32
        x = rng.integers(1, 6, size=(n, d)).astype(float)
        x[rng.random((n, d)) >= 0.35] = 0.0
        return x
    x = np.round(rng.uniform(0.5, 1.5, size=(n, d)), 4)
    x[rng.random((n, d)) >= 0.025] = 0.0
    if case == "constant":
        x[:, 3] = 2.5
    elif case == "offset":
        x[:, 3] = 1e6 + rng.normal(scale=1e-3, size=n)
    return x


@pytest.mark.parametrize("case, d", [("counts", 32), ("constant", 300), ("offset", 300)])
def test_ridge_dense_path_is_bitwise_the_centered_copy_formula(case, d):
    # denser features fail the cost gate; a constant column and a column of
    # 1e6 plus small noise fail the certificate in an otherwise sparse block.
    # Each takes the dense products, bit for bit.
    x = _ridge_features(case, 400, d, seed=17)
    w = _random_latents(400, 4, seed=17).values
    assert not centered_normal_equations(x, w - w.mean(axis=0))[1]
    m = fit_regressor(FeatureMatrix(x), DenseMatrix(w), hyperparams={"lam": 1e-3})
    theta, intercept = _dense_ridge(x, w, 1e-3)
    assert np.array_equal(m.params["theta"], theta)
    assert np.array_equal(m.params["intercept"], intercept)


def test_ridge_on_sparse_features_takes_the_support_path():
    x = _ridge_features("sparse", 3200, 300, seed=19)
    w = _random_latents(3200, 8, seed=19).values
    assert centered_normal_equations(x, w - w.mean(axis=0))[1]
    m = fit_regressor(FeatureMatrix(x), DenseMatrix(w), hyperparams={"lam": 1e-3})
    theta, intercept = _dense_ridge(x, w, 1e-3)
    scale = np.abs(theta).max()
    assert np.abs(m.params["theta"] - theta).max() <= 1e-11 * scale
    assert np.abs(m.params["intercept"] - intercept).max() <= 1e-11 * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(2, 40), st.floats(0.0, 1.0))
def test_ridge_means_from_the_nonzero_scan_are_numpys_bit_for_bit(seed, n, d, zeros):
    # fit_regressor's normal equations scan X for its nonzeros once and
    # sum each column's in ascending row order; with d >= 2 numpy's column
    # mean adds the rows in that order too, and a +0 term changes no bit
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, d))
    x[rng.random((n, d)) < zeros] = 0.0
    means = []

    def normal_equations(*args):
        normal = _centered_normal_equations(*args)
        means.append(normal[0])
        return normal

    with mock.patch.object(xlc.pipeline, "_centered_normal_equations", normal_equations):
        fit_regressor(FeatureMatrix(x), _random_latents(n, 2, seed), hyperparams={"lam": 1.0})
    assert [m.tobytes() for m in means] == [x.mean(axis=0).tobytes()]


def test_regressor_copies_a_writeable_argument_and_keeps_a_locked_one():
    theta, intercept = np.ones((3, 2)), np.zeros(2)
    m = RegressorModel("ridge-linear", 3, 2, {"theta": theta, "intercept": intercept})
    assert theta.flags.writeable and intercept.flags.writeable
    theta[0, 0] = intercept[1] = 7.0
    assert m.params["theta"][0, 0] == 1.0 and m.params["intercept"][1] == 0.0
    # fit_regressor locks its fresh solution and hands it over uncopied
    theta.setflags(write=False)
    m = RegressorModel("ridge-linear", 3, 2, {"theta": theta, "intercept": intercept})
    assert m.params["theta"] is theta
    assert not m.params["intercept"].flags.writeable


def test_fit_regressor_input_validation():
    w = _random_latents(5, 2, seed=0)
    with pytest.raises(ShapeMismatchError):
        fit_regressor(FeatureMatrix(np.ones((4, 3))), w)
    with pytest.raises(XlcError):
        fit_regressor(FeatureMatrix(np.ones((5, 3))), DenseMatrix(-np.ones((5, 2))))
    with pytest.raises(ConfigError):
        fit_regressor(FeatureMatrix(np.ones((5, 3))), w, kind="forest")
    with pytest.raises(ConfigError):
        fit_regressor(FeatureMatrix(np.ones((5, 3))), w, hyperparams={"depth": 3})


# ---------------------------------------------------------------- predict


def _const_model(raw_row):
    raw = np.asarray(raw_row, dtype=float)
    k = raw.size
    return RegressorModel(
        kind="ridge-linear", input_dim=2, output_dim=k,
        params={"theta": np.zeros((2, k)), "intercept": raw.copy()},
    )


def test_predict_latent_zero_model_gives_zero():
    m = _const_model([0.0, 0.0])
    np.testing.assert_array_equal(predict_latent(np.ones(2), m), np.zeros(2))


def test_predict_latent_clamps_negative_raw_outputs():
    m = _const_model([-0.2, 0.5])
    np.testing.assert_array_equal(predict_latent(np.zeros(2), m), [0.0, 0.5])
    np.testing.assert_array_equal(predict_latent(np.zeros((3, 2)), m), [[0.0, 0.5]] * 3)


def test_predict_latent_dimension_mismatch():
    m = _const_model([0.0, 0.0])
    with pytest.raises(ShapeMismatchError):
        predict_latent(np.ones(3), m)
    with pytest.raises(ShapeMismatchError):
        predict_latent(np.ones((4, 3)), m)
    with pytest.raises(ShapeMismatchError):
        predict_latent(np.ones((1, 4, 2)), m)


@pytest.mark.parametrize("name, bad", [("theta", np.inf), ("theta", -np.inf),
                                       ("theta", np.nan), ("intercept", np.nan),
                                       ("intercept", np.inf)])
def test_regressor_refuses_non_finite_parameters(name, bad):
    # an infinite theta used to be accepted and give a silent NaN:
    # 0 * inf in the product
    params = {"theta": np.ones((2, 2)), "intercept": np.ones(2)}
    params[name] = params[name].copy()
    params[name].flat[1] = bad
    with pytest.raises(ConfigError, match=f"^{name} must be finite, got a non-finite entry "
                                          f"in shape"):
        RegressorModel("ridge-linear", 2, 2, params)


def test_predict_labels_zero_latent_tie_break():
    stack = EncoderStack([DenseMatrix(np.ones((4, 2)))])
    m = _const_model([0.0, 0.0])
    pred = predict_labels(np.zeros(2), m, stack, n=3)
    assert [i for i, _ in pred.top_n] == [0, 1, 2]
    assert all(s == 0.0 for _, s in pred.top_n)


def test_predict_labels_top_n_is_capped_at_p():
    stack = EncoderStack([DenseMatrix(np.ones((4, 2)))])
    m = _const_model([1.0, 0.5])
    pred = predict_labels(np.zeros(2), m, stack, n=25)
    assert len(pred.top_n) == 4
    scores = [s for _, s in pred.top_n]
    assert scores == sorted(scores, reverse=True)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_partial_ranking_equals_full_ranking_on_tie_heavy_blocks(data):
    r = data.draw(st.integers(1, 5), label="rows")
    p = data.draw(st.integers(1, 12), label="labels")
    cells = st.lists(st.integers(0, 3), min_size=r * p, max_size=r * p)
    scores = np.array(data.draw(cells), dtype=np.float64).reshape(r, p)
    zero = data.draw(st.lists(st.booleans(), min_size=r, max_size=r))
    scores[np.array(zero)] = 0.0
    n = data.draw(st.integers(1, p + 1), label="n")
    for row, top in zip(scores, _top_n(scores, n)):
        order = rank_labels(row)[:n]
        assert top == tuple((int(j), float(row[j])) for j in order)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_block_ranking_equals_rank_labels_of_each_row(data):
    # _top_n ranks a whole block in one sort: rows of 1 to 100 whose scores
    # tie among a few values, -0.0, 0.0 and 5e-324 among them, or are mostly
    # distinct, all-equal rows, n from 1 to past p, and strided 1 x p views
    # of a layer's column. Chunks of 2 to 5 labels give p several chunks and
    # a partial last one, so the chunk-maxima bound is taken for the n at or
    # below its gate and the full partition above.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    chunk = data.draw(st.integers(2, 5), label="chunk")
    values = data.draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0, 3.0, 1e300]),
                                min_size=1, max_size=4, unique=True), label="values")
    values = np.concatenate((values, rng.random(data.draw(st.integers(0, 60), label="distinct"))))
    p = data.draw(st.integers(1, 90), label="labels")
    gated = max(1, -(-p // chunk) // xlc.pipeline._GATE)    # the largest n with the bound
    n = data.draw(st.sampled_from([1, gated, gated + 1]) | st.integers(1, p + 3), label="n")
    if data.draw(st.booleans(), label="column view"):
        layer = rng.choice(values, size=(p, 3))
        scores = layer[None, :, data.draw(st.integers(0, 2), label="unit")]
    else:
        scores = rng.choice(values, size=(data.draw(st.integers(1, 100), label="rows"), p))
        # a run of the top score across a chunk boundary, and rows of one value
        lo = data.draw(st.integers(0, p - 1), label="run start")
        scores[:, lo:lo + data.draw(st.integers(1, 2 * chunk), label="run")] = max(values)
        scores[rng.random(len(scores)) < 0.2] = rng.choice(values)
    with mock.patch.object(xlc.pipeline, "_CHUNK", chunk):
        got = _top_n(scores, n)
    assert len(got) == len(scores)
    for row, top in zip(scores, got):
        # repr tells -0.0 from 0.0: each score is the row's own entry
        assert repr(top) == repr(tuple((int(j), float(row[j])) for j in rank_labels(row)[:n]))


def test_block_ranking_calls_rank_labels_once():
    # one sort ranks every row, one-row blocks included: the traced
    # benchmark counts these calls
    rng = np.random.default_rng(23)
    for scores in (np.round(rng.random((40, 30)), 1), np.round(rng.random((1, 30)), 1),
                   rng.random((1, 5000))):
        with mock.patch.object(xlc.pipeline, "rank_labels", wraps=rank_labels) as spy:
            top = _top_n(scores, 5)
        assert spy.call_count == 1
        assert len(top) == len(scores) and all(len(t) == 5 for t in top)


def test_block_ranking_never_partitions_whole_rows_past_the_gate():
    # 5000 labels make 40 chunks of _CHUNK: at n = 5 the cutoff comes from
    # the 13 x 40 chunk maxima, and no 13 x 5000 copy is partitioned
    scores = np.random.default_rng(71).random((13, 5000))
    with mock.patch.object(xlc.pipeline.np, "partition", wraps=np.partition) as spy:
        top = _top_n(scores, 5)
    assert [call.args[0].shape for call in spy.call_args_list] == [(13, 40)]
    assert top == [tuple((int(j), float(row[j])) for j in rank_labels(row)[:5])
                   for row in scores]


def test_block_predict_labels_equals_per_row_bitwise():
    rng = np.random.default_rng(5)
    stack = EncoderStack([DenseMatrix(rng.uniform(size=(40, 6))),
                          DenseMatrix(rng.uniform(size=(6, 3)))])
    # negative intercepts clamp some latent units to zero, so rows tie too
    m = RegressorModel("ridge-linear", 4, 3,
                       {"theta": rng.normal(size=(4, 3)),
                        "intercept": np.array([-0.5, 0.1, -2.0])})
    x = rng.normal(size=(9, 4))
    x[2] = 0.0
    single = [predict_labels(row, m, stack, n=7) for row in x]
    for cut in (1, 4, 8):
        block = (predict_labels(x[:cut], m, stack, n=7)
                 + predict_labels(x[cut:], m, stack, n=7))
        assert len(block) == len(single)
        for b, s in zip(block, single):
            assert b.scores.tobytes() == s.scores.tobytes()
            assert b.top_n == s.top_n
            assert not b.scores.flags.writeable


def test_a_one_unit_model_predicts_a_row_alone_as_in_a_block():
    # _mm runs every one-column product directly, whose lanes sum each row
    # alike: a lone row of a k = 1 model gets the bits that row gets in any
    # block (running the block transposed would break this)
    rng = np.random.default_rng(8)
    d = 60
    m = RegressorModel("ridge-linear", d, 1,
                       {"theta": rng.normal(size=(d, 1)), "intercept": np.array([3.0])})
    x = rng.normal(size=(40, d))
    block = predict_latent(x, m)
    for i, row in enumerate(x):
        assert predict_latent(row, m).tobytes() == block[i].tobytes()
        assert predict_latent(x[i:i + 1], m).tobytes() == block[i:i + 1].tobytes()
        assert predict_latent(x[i:i + 2], m)[0].tobytes() == block[i].tobytes()


def test_ranking_invariant_under_positive_scaling():
    rng = np.random.default_rng(31)
    scores = rng.uniform(size=50)
    np.testing.assert_array_equal(rank_labels(scores), rank_labels(3.7 * scores))


def test_rank_labels_breaks_ties_by_ascending_index():
    order = rank_labels(np.array([0.5, 0.9, 0.5, 0.9]))
    assert order.tolist() == [1, 3, 0, 2]
    # a list used to end in a raw TypeError; test_autoencoder.py's _ARRAYS
    # table checks that a NaN or a 2-D array is refused by name
    assert rank_labels([0.5, 0.9, 0.5, 0.9]).tolist() == [1, 3, 0, 2]


# ---------------------------------------------------------------- metrics


def _pred_from_ranking(ranking, p):
    # scores consistent with the requested ranking
    scores = np.zeros(p)
    for pos, label in enumerate(ranking):
        scores[label] = float(len(ranking) - pos)
    return RankedPrediction(scores, n=p)


def test_metrics_rank_past_top_n_when_k_exceeds_it():
    full = _pred_from_ranking([3, 2, 1, 0], p=4)
    short = RankedPrediction(full.scores, n=1)
    for k in (1, 2, 3, 4, 6):
        assert precision_at_k(short, {1, 3}, k) == precision_at_k(full, {1, 3}, k)
        assert ndcg_at_k(short, {0, 2}, k) == ndcg_at_k(full, {0, 2}, k)


def _reference_metrics(scores, truth: set, k: int):
    """P@k and nDCG@k (None for empty truth) from their definitions: the
    first k labels of rank_labels, hits / k, and each DCG summed one rank
    at a time in rank order."""
    top = rank_labels(scores)[:k].tolist()
    dcg = ideal = 0.0
    for i, j in enumerate(top):
        if j in truth:
            dcg += 1.0 / np.log2(i + 2)
    for i in range(min(k, len(truth))):
        ideal += 1.0 / np.log2(i + 2)
    return sum(j in truth for j in top) / k, dcg / ideal if truth else None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_metrics_kernel_equals_definitions_bitwise_on_tie_heavy_blocks(data):
    r = data.draw(st.integers(1, 6), label="rows")
    p = data.draw(st.integers(1, 10), label="labels")
    cells = st.lists(st.integers(0, 3), min_size=r * p, max_size=r * p)
    scores = np.array(data.draw(cells), dtype=np.float64).reshape(r, p)
    # truth sets of every size, the empty one included
    v = LabelMatrix.from_dense_array(np.array(data.draw(cells)).reshape(r, p) == 0)
    k = data.draw(st.integers(1, p + 2), label="k")
    n = data.draw(st.integers(k, p + 3), label="ranked width")
    cut = data.draw(st.integers(0, r), label="block boundary")
    keys = v.entry_rows * p + v.entry_cols
    counts = np.bincount(v.entry_rows, minlength=r)
    ranked = np.array([[j for j, _ in top] for top in _top_n(scores, n)])
    blocks = [_metrics_at_k(ranked[lo:hi], np.arange(lo, hi) * p, keys, counts[lo:hi], k)
              for lo, hi in ((0, cut), (cut, r))]
    prec = np.concatenate([b[0] for b in blocks])
    ndcg = np.concatenate([b[1] for b in blocks])
    for i in range(r):
        truth = set(v.entry_cols[v.entry_rows == i].tolist())
        ref_p, ref_g = _reference_metrics(scores[i], truth, k)
        assert prec[i].tobytes() == np.float64(ref_p).tobytes()
        assert ndcg[i].tobytes() == np.float64(0.0 if ref_g is None else ref_g).tobytes()
        # the public one-row calls, from a prediction holding fewer than k
        short = RankedPrediction(scores[i], n=1)
        assert precision_at_k(short, truth, k) == ref_p
        if truth:
            assert ndcg_at_k(short, truth, k) == ref_g


def test_precision_hand_oracle():
    pred = _pred_from_ranking([3, 2, 1], p=4)
    truth = {1, 3}
    assert precision_at_k(pred, truth, 1) == 1.0
    assert precision_at_k(pred, truth, 2) == 0.5
    assert precision_at_k(pred, truth, 3) == pytest.approx(2.0 / 3.0)


def test_precision_extremes():
    pred = _pred_from_ranking([0, 1], p=4)
    assert precision_at_k(pred, {0, 1, 2}, 2) == 1.0
    assert precision_at_k(pred, {2, 3}, 2) == 0.0


def test_metrics_count_truth_labels_the_ranking_cannot_hold():
    # labels outside [0, p), however large, enlarge |truth| but never hit
    pred = _pred_from_ranking([3, 2, 1], p=4)
    assert precision_at_k(pred, {3, -1, 2**70}, 2) == 0.5
    assert ndcg_at_k(pred, {3, 2**70}, 2) == pytest.approx(0.6131471927654584)


def test_ndcg_hand_oracle():
    pred = _pred_from_ranking([3, 2, 1], p=4)
    truth = {1, 3}
    assert ndcg_at_k(pred, truth, 1) == pytest.approx(1.0)
    # DCG@2 = 1, ideal = 1 + 1/log2(3)
    assert ndcg_at_k(pred, truth, 2) == pytest.approx(0.6131471927654584)
    # DCG@3 = 1 + 0.5, same ideal
    assert ndcg_at_k(pred, truth, 3) == pytest.approx(0.9197207891481876)


def test_ndcg_rejects_empty_truth_and_bad_k():
    pred = _pred_from_ranking([0, 1], p=3)
    with pytest.raises(XlcError):
        ndcg_at_k(pred, set(), 2)
    with pytest.raises(ConfigError):
        ndcg_at_k(pred, {0}, 0)
    with pytest.raises(ConfigError):
        precision_at_k(pred, {0}, -1)


def test_metrics_bounded_in_unit_interval():
    rng = np.random.default_rng(40)
    for _ in range(20):
        p = int(rng.integers(3, 12))
        pred = RankedPrediction(rng.uniform(size=p), n=p)
        truth = set(rng.choice(p, size=int(rng.integers(1, p)), replace=False).tolist())
        for k in (1, 2, 3):
            assert 0.0 <= precision_at_k(pred, truth, k) <= 1.0
            assert 0.0 <= ndcg_at_k(pred, truth, k) <= 1.0 + 1e-12


# ---------------------------------------------------------------- split


def test_split_rows_disjoint_exhaustive_deterministic():
    train, test = split_rows(50, test_frac=0.2, seed=4)
    assert len(test) == 10
    assert len(train) == 40
    assert not set(train) & set(test)
    assert sorted(set(train) | set(test)) == list(range(50))
    train2, test2 = split_rows(50, test_frac=0.2, seed=4)
    np.testing.assert_array_equal(train, train2)
    np.testing.assert_array_equal(test, test2)
    _, test3 = split_rows(50, test_frac=0.2, seed=5)
    assert not np.array_equal(test, test3)


def test_split_rows_validates_fraction():
    with pytest.raises(ConfigError):
        split_rows(10, test_frac=1.0)
    with pytest.raises(ConfigError):
        split_rows(10, test_frac=-0.1)


# ---------------------------------------------------------------- end to end


def test_planted_recovery_with_latents_as_features():
    # noise-free planted data, features = the latent codes themselves:
    # ridge is an identity mapping away from perfect ranking
    dense = planted_rank4_dense()
    v = LabelMatrix.from_dense_array(dense)
    stack = train_autoencoder(
        v, AeTrainConfig(layer_dims=[4], init_scheme="nmf-greedy", seed=1)
    )
    w = encode(v, stack)
    x = FeatureMatrix(w.values.copy())
    train_idx, test_idx = split_rows(60, test_frac=0.2, seed=0)
    m = fit_regressor(
        FeatureMatrix(x.values[train_idx]),
        DenseMatrix(w.values[train_idx]),
        hyperparams={"lam": 1e-6},
    )
    hits = 0
    for i in test_idx:
        pred = predict_labels(x.values[i], m, stack, n=1)
        top_label = pred.top_n[0][0]
        hits += dense[i, top_label] > 0
    assert hits / len(test_idx) >= 0.9
