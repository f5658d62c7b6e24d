"""Tied-weight autoencoder: chain algebra, gradients, and training behavior."""

import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import planted_rank4_dense, random_label_matrix, svd_floor
from hypothesis import given, settings
from hypothesis import strategies as st

import xlc.autoencoder
import xlc.cli
import xlc.matrix
from xlc import (
    AeTrainConfig,
    ConfigError,
    DenseMatrix,
    EncoderStack,
    ExplainConfig,
    FeatureMatrix,
    HierarchyNode,
    LabelMatrix,
    LimeConfig,
    ModelContainer,
    ModelFormatError,
    NmfConfig,
    NmfFactors,
    NonNegativityError,
    RankedPrediction,
    RegressorModel,
    ShapeMismatchError,
    SurrogateExplanation,
    TrainingDivergedError,
    XlcError,
    ae_gradient,
    decode,
    encode,
    explain_prediction,
    extract_hierarchy,
    fit_regressor,
    lime_explain,
    make_block_dataset,
    make_rng,
    ndcg_at_k,
    nmf_factorize,
    nmf_objective,
    precision_at_k,
    predict_labels,
    predict_latent,
    rank_labels,
    reconstruction_loss,
    render_hierarchy,
    save_dataset,
    save_label_names,
    save_model,
    split_rows,
    train_autoencoder,
)
from xlc.autoencoder import _Objective

H1 = DenseMatrix([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])  # 3x2 selector-ish chain


# ---------------------------------------------------------------- stack type


def test_stack_exposes_dims_and_depth():
    stack = EncoderStack([H1, DenseMatrix([[1.0], [0.5]])])
    assert stack.depth == 2
    assert stack.p == 3
    assert stack.layer_dims == (2, 1)
    assert stack.latent_dim == 1


def test_stack_accepts_corpus_scale_shapes():
    # 708 labels funneled through 64 then 16 units
    stack = EncoderStack(
        [DenseMatrix(np.zeros((708, 64))), DenseMatrix(np.zeros((64, 16)))]
    )
    assert stack.layer_dims == (64, 16)


def test_stack_rejects_empty_negative_nonchaining_and_flat():
    with pytest.raises(ConfigError):
        EncoderStack([])
    with pytest.raises(XlcError):
        EncoderStack([DenseMatrix([[-1.0], [0.0], [0.0]])])
    with pytest.raises(ShapeMismatchError):
        EncoderStack([H1, DenseMatrix([[1.0], [1.0], [1.0]])])
    with pytest.raises(ConfigError):
        # width equal to p adds no compression
        EncoderStack([DenseMatrix(np.eye(3))])


def test_stack_rejects_a_width_zero_layer():
    # a code with no unit used to load and then fail in explain_prediction's
    # argmax with a raw ValueError
    with pytest.raises(ConfigError, match="be >= 1"):
        EncoderStack([DenseMatrix(np.ones((3, 0)))])
    with pytest.raises(ConfigError, match="be >= 1"):
        EncoderStack([H1, DenseMatrix(np.ones((2, 0)))])


# ---------------------------------------------------------------- encode/decode


def test_encode_hand_oracle():
    v = LabelMatrix.from_dense_array(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    w = encode(v, EncoderStack([H1]))
    assert w.values.tolist() == [[2.0, 0.0], [0.0, 1.0]]


def test_encode_zero_rows_give_zero_latent():
    v = LabelMatrix(2, 3, [])
    w = encode(v, EncoderStack([H1]))
    assert not w.values.any()


def test_encode_column_selector_copies_columns():
    sel = DenseMatrix(np.eye(4)[:, [2, 0]])
    v, dense = random_label_matrix(5, 4, seed=6)
    w = encode(v, EncoderStack([sel]))
    np.testing.assert_array_equal(w.values, dense[:, [2, 0]])


def test_encode_shape_mismatch():
    v = LabelMatrix(2, 4, [(0, 0, 1.0)])
    with pytest.raises(ShapeMismatchError):
        encode(v, EncoderStack([H1]))


@pytest.mark.parametrize("dense", [
    np.ones((2, 3)), DenseMatrix(np.ones((2, 3))), [[1.0, 0.0, 1.0]]])
def test_label_inputs_must_be_a_label_matrix(dense):
    stack = EncoderStack([H1])
    for call in (lambda: encode(dense, stack),
                 lambda: reconstruction_loss(dense, stack),
                 lambda: ae_gradient(dense, stack, 1)):
        with pytest.raises(ConfigError, match="v must be of type LabelMatrix, got "
                                              + type(dense).__name__):
            call()


@pytest.mark.parametrize("dense", [
    np.ones((5, 4)), DenseMatrix(np.ones((5, 4))), [[1.0] * 4] * 5])
@pytest.mark.parametrize("fit", ["train_autoencoder", "nmf_factorize", "nmf_objective"])
def test_fitting_takes_labels_only_as_a_label_matrix(dense, fit):
    # these used to fail with a raw AttributeError on v.n_labels or v.n_rows
    factors = NmfFactors(DenseMatrix(np.ones((5, 2))), DenseMatrix(np.ones((2, 4))), [1.0])
    call = {"train_autoencoder": lambda: train_autoencoder(dense, AeTrainConfig([2])),
            "nmf_factorize": lambda: nmf_factorize(dense, NmfConfig(k=2)),
            "nmf_objective": lambda: nmf_objective(dense, factors)}[fit]
    with pytest.raises(ConfigError, match="v must be of type LabelMatrix, got "
                                          + type(dense).__name__):
        call()


def test_encode_row_permutation_equivariance_bitwise():
    v, dense = random_label_matrix(8, 5, seed=12)
    stack = EncoderStack([DenseMatrix(np.random.default_rng(0).uniform(size=(5, 3)))])
    perm = np.random.default_rng(1).permutation(8)
    permuted = LabelMatrix.from_dense_array(dense[perm])
    np.testing.assert_array_equal(
        encode(permuted, stack).values, encode(v, stack).values[perm]
    )


def test_decode_hand_oracle():
    w = DenseMatrix([[2.0, 0.0], [0.0, 1.0]])
    out = decode(w, EncoderStack([H1]))
    assert out.values.tolist() == [[2.0, 0.0, 2.0], [0.0, 1.0, 0.0]]


def test_decode_zero_and_round_trip_shape():
    stack = EncoderStack([H1, DenseMatrix([[1.0], [0.5]])])
    assert not decode(DenseMatrix(np.zeros((4, 1))), stack).values.any()
    v, _ = random_label_matrix(6, 3, seed=3)
    assert decode(encode(v, stack), stack).values.shape == (6, 3)


def test_decode_through_cached_chain_matches_layer_by_layer_oracle():
    rng = np.random.default_rng(8)
    layers = [rng.uniform(size=(30, 7)), rng.uniform(size=(7, 4)), rng.uniform(size=(4, 2))]
    stack = EncoderStack([DenseMatrix(h) for h in layers])
    w = rng.uniform(size=(5, 2))
    oracle = w
    for h in reversed(layers):
        oracle = oracle @ h.T
    np.testing.assert_allclose(decode(w, stack).values, oracle, rtol=1e-13)
    # E^T is computed once, read-only, and rows decode independently
    assert stack.chain_t() is stack.chain_t()
    assert not stack.chain_t().flags.writeable
    for i in range(5):
        assert decode(w[i:i + 1], stack).values.tobytes() == decode(w, stack).values[i].tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_encode_is_the_objectives_product_through_the_kept_chain(seed, depth):
    # encode is one CSR product V E through the stack's kept E: bitwise the
    # A that the training objective forms from the collapsed chain, and the
    # dense layer walk V H_1 ... H_L to rounding
    rng = np.random.default_rng(seed)
    n, widths = int(rng.integers(1, 12)), [int(rng.integers(depth + 1, 14))]
    for l in range(1, depth + 1):                      # k_l >= depth - l + 1
        widths.append(int(rng.integers(depth - l + 1, widths[-1])))
    layers = [rng.uniform(size=(a, b)) for a, b in zip(widths, widths[1:])]
    for h in layers:
        h[rng.random(h.shape) < 0.3] = 0.0
    v, dense = random_label_matrix(n, widths[0], seed=seed % 1000)
    stack = EncoderStack([DenseMatrix(h) for h in layers])
    w = encode(v, stack).values
    a = _Objective(v.to_csr()).expanded(xlc.autoencoder._prefix_chain(layers)[-1])[1]
    assert w.shape == a.shape and w.tobytes() == np.ascontiguousarray(a).tobytes()
    walk = dense
    for h in layers:
        walk = walk @ h
    np.testing.assert_allclose(w, walk, rtol=1e-13)


@pytest.mark.parametrize("dims", [(4,), (1,), (6, 3), (6, 1), (8, 4, 2)])
def test_a_trained_stack_keeps_its_last_epochs_chain(dims):
    # train_autoencoder hands its last E to the stack, so neither encode nor
    # decode nor reconstruction_loss collapses the chain again, and the
    # kept E^T is bitwise the one a stack of the same layers computes
    v, _ = random_label_matrix(30, 12, seed=len(dims) + dims[-1])
    stack = train_autoencoder(v, AeTrainConfig(dims, max_epochs=4, rel_tol=0.0, seed=1))
    kept = stack._chain_t
    assert kept is not None and not kept.flags.writeable
    fresh = EncoderStack(stack.layers, stack.training_trace)
    assert kept.tobytes() == fresh.chain_t().tobytes()
    with mock.patch.object(xlc.autoencoder, "_prefix_chain") as collapse:
        w = encode(v, stack)
        decode(w, stack)
        assert stack.training_trace[-1] == reconstruction_loss(v, stack)
    assert collapse.call_count == 0 and stack.chain_t() is kept
    assert w.values.tobytes() == encode(v, fresh).values.tobytes()


def test_decode_rejects_wrong_latent_width():
    with pytest.raises(ShapeMismatchError):
        decode(DenseMatrix(np.ones((2, 3))), EncoderStack([H1]))


# ---------------------------------------------------------------- loss


def test_loss_zero_matrix_is_zero():
    assert reconstruction_loss(LabelMatrix(4, 3, []), EncoderStack([H1])) == 0.0


def test_loss_matches_dense_brute_force():
    v, dense = random_label_matrix(7, 5, seed=21)
    h = np.random.default_rng(2).uniform(size=(5, 2))
    stack = EncoderStack([DenseMatrix(h)])
    e = h
    expected = np.linalg.norm(dense - dense @ e @ e.T) ** 2
    assert reconstruction_loss(v, stack) == pytest.approx(expected, abs=1e-12)


def test_loss_respects_svd_floor():
    v, dense = random_label_matrix(10, 6, seed=30)
    stack = train_autoencoder(v, AeTrainConfig(layer_dims=[3], seed=0))
    assert reconstruction_loss(v, stack) >= svd_floor(dense, 3) - 1e-9


# ---------------------------------------------------------------- gradient


def test_gradient_zero_at_exact_reconstruction():
    # V supported on the first two columns, E = orthonormal selector of them:
    # V E E^T == V exactly, so the residual and every gradient vanish.
    dense = np.zeros((4, 5))
    dense[:2, :2] = [[1.0, 2.0], [3.0, 4.0]]
    v = LabelMatrix.from_dense_array(dense)
    stack = EncoderStack([DenseMatrix(np.eye(5)[:, :2])])
    g = ae_gradient(v, stack, 1)
    assert not g.values.any()


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    for _ in range(3):
        dense = rng.uniform(size=(5, 4))
        v = LabelMatrix.from_dense_array(dense)
        layers = [rng.uniform(size=(4, 3)), rng.uniform(size=(3, 2))]
        stack = EncoderStack([DenseMatrix(h) for h in layers])

        def loss_at(mats):
            e = mats[0] @ mats[1]
            return np.linalg.norm(dense - dense @ e @ e.T) ** 2

        for layer_index in (1, 2):
            g = ae_gradient(v, stack, layer_index).values
            h = layers[layer_index - 1]
            step = 1e-5
            for i in range(h.shape[0]):
                for j in range(h.shape[1]):
                    probe = [m.copy() for m in layers]
                    probe[layer_index - 1][i, j] += step
                    f_plus = loss_at(probe)
                    probe[layer_index - 1][i, j] -= 2 * step
                    f_minus = loss_at(probe)
                    fd = (f_plus - f_minus) / (2 * step)
                    denom = max(abs(fd), abs(g[i, j]), 1e-8)
                    assert abs(fd - g[i, j]) / denom < 1e-4


def test_gradient_scales_quadratically_in_v():
    v, dense = random_label_matrix(5, 4, seed=17)
    stack = EncoderStack(
        [DenseMatrix(np.random.default_rng(4).uniform(size=(4, 2)))]
    )
    g1 = ae_gradient(v, stack, 1).values
    g2 = ae_gradient(LabelMatrix.from_dense_array(2.0 * dense), stack, 1).values
    np.testing.assert_allclose(g2, 4.0 * g1, rtol=1e-12)


def _to_layer(layers, i, g):
    """Chain rule by brute force: P^T g S^T around layer i (0-based)."""
    prefix = np.eye(layers[0].shape[0])
    for h in layers[:i]:
        prefix = prefix @ h
    suffix = np.eye(layers[i].shape[1])
    for h in layers[i + 1:]:
        suffix = suffix @ h
    return prefix.T @ g @ suffix.T


def _orthonormal_selector(rows, cols, rng):
    """Non-negative rows x cols matrix with orthonormal columns: each row
    feeds exactly one column (disjoint supports, unit-normalized)."""
    owner = rng.permutation(np.arange(rows) % cols)
    h = np.zeros((rows, cols))
    h[np.arange(rows), owner] = rng.uniform(0.5, 1.5, size=rows)
    return h / np.linalg.norm(h, axis=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_expanded_loss_and_gradient_match_dense_oracle(seed, near_exact):
    # The expanded form is off by a few ulps of the terms it cancels
    # (||V||^2 and ||V E E^T||^2 for the loss; 2M, M C and E G, all >= 0,
    # for the gradient), whatever the loss is. Near exact reconstruction
    # (V = X E^T with E^T E = I, plus a 1e-7 perturbation) the loss is ~1e-14
    # of those terms, and only the direct residual still matches it to a
    # relative tolerance.
    rng = np.random.default_rng(seed)
    n, p = int(rng.integers(2, 9)), int(rng.integers(3, 9))
    dims = [int(rng.integers(2, p))]
    if dims[0] > 2 and rng.random() < 0.5:
        dims.append(int(rng.integers(1, dims[0])))
    widths = [p] + dims
    if near_exact:
        layers = [_orthonormal_selector(a, b, rng) for a, b in zip(widths, widths[1:])]
    else:
        layers = [rng.uniform(size=(a, b)) for a, b in zip(widths, widths[1:])]
    e = layers[0]
    for h in layers[1:]:
        e = e @ h
    if near_exact:
        dense = rng.uniform(0.0, 2.0, size=(n, dims[-1])) @ e.T
        dense[dense > 0] += 1e-7 * rng.uniform(size=int((dense > 0).sum()))
    else:
        dense = rng.uniform(size=(n, p))
        dense[rng.uniform(size=(n, p)) < 0.4] = 0.0
    v = LabelMatrix.from_dense_array(dense)
    stack = EncoderStack([DenseMatrix(h) for h in layers])

    # dense oracle: R = V - V E E^T, dLoss/dE = -2 (V^T R E + R^T V E)
    r = dense - dense @ e @ e.T
    want_loss = float(np.sum(r * r))
    want_chain = -2.0 * (dense.T @ r @ e + r.T @ dense @ e)

    rec = dense @ e @ e.T
    scale = float(np.sum(dense * dense) + np.sum(rec * rec))
    loss = _Objective(v.to_csr()).expanded(stack.chain_t().T)[0]
    assert abs(loss - want_loss) <= 1e-12 * scale
    assert abs(reconstruction_loss(v, stack) - want_loss) <= 1e-6 * want_loss + 1e-20 * scale

    m = dense.T @ dense @ e
    terms = 2.0 * m + m @ (e.T @ e) + e @ (e.T @ m)
    for i in range(len(layers)):
        got = ae_gradient(v, stack, i + 1).values
        want = _to_layer(layers, i, want_chain)
        assert np.abs(got - want).max() <= 1e-12 * _to_layer(layers, i, terms).max()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans())
def test_the_gram_from_either_side_matches_the_dense_oracle(seed, depth, tall):
    # with more rows than labels (n > p) the objective takes G = A^T A as
    # E^T M from the gradient's M = V^T A, at p k^2; otherwise as A^T A, at
    # n k^2, bitwise as _mm forms it. Either way the loss and the chain
    # gradient match the dense oracle at the tolerances of
    # test_expanded_loss_and_gradient_match_dense_oracle, and the trace
    # still ends at reconstruction_loss bitwise
    rng = np.random.default_rng(seed)
    p = int(rng.integers(depth + 2, 12))
    n = int(rng.integers(p + 1, 3 * p + 1)) if tall else int(rng.integers(2, p + 1))
    widths = [p]
    for l in range(1, depth + 1):                      # k_l >= depth - l + 1
        widths.append(int(rng.integers(depth - l + 1, widths[-1])))
    layers = [rng.uniform(size=(a, b)) for a, b in zip(widths, widths[1:])]
    v, dense = random_label_matrix(n, p, seed=seed % 1000, density=0.4)
    obj = _Objective(v.to_csr())
    e = xlc.autoencoder._prefix_chain(layers)[-1]
    loss, a, g, c, m = obj.expanded(e)
    assert obj.tall == tall
    if tall:
        assert g.tobytes() == xlc.matrix._mm(e.T, np.asarray(obj.vs.T @ a)).tobytes()
    else:
        assert m is None and g.tobytes() == xlc.matrix._mm(a.T, a).tobytes()

    r = dense - dense @ e @ e.T
    rec = dense @ e @ e.T
    scale = float(np.sum(dense * dense) + np.sum(rec * rec))
    assert abs(loss - float(np.sum(r * r))) <= 1e-12 * scale
    want_chain = -2.0 * (dense.T @ r @ e + r.T @ dense @ e)
    mm = dense.T @ dense @ e
    terms = 2.0 * mm + mm @ (e.T @ e) + e @ (e.T @ mm)
    got_chain = obj.chain_gradient(e, a, g, c, m)
    assert np.abs(got_chain - want_chain).max() <= 1e-12 * terms.max()

    cfg = AeTrainConfig(widths[1:], max_epochs=3, learning_rate=1e-3, rel_tol=0.0,
                        seed=seed % 1000)
    stack = train_autoencoder(v, cfg)
    assert stack.training_trace[-1] == reconstruction_loss(v, stack)


def test_a_tall_epoch_takes_its_gram_from_the_gradients_product():
    # n = 90 rows > p = 30 labels: an epoch forms M = V^T A once, for G =
    # E^T M and for the gradient, and no (k x n) (n x k) product A^T A; the
    # last trace entry's residual forms A^T A once, after the last epoch
    import scipy.sparse as sp

    n, p, dims = 90, 30, (8, 3)
    _, v, _ = make_block_dataset(3, n, p // 3, 0.1, seed=4)
    products, transposes = [], []

    class Spy(sp.csr_matrix):
        """V, counting the transposes V^T that the objective multiplies by A."""

        @property
        def T(self):
            transposes.append(self.shape)
            return super().T

    def counted(a, b):
        products.append((a.shape, b.shape))
        return xlc.matrix._mm(a, b)

    def run(epochs):
        products.clear()
        transposes.clear()
        cfg = AeTrainConfig(list(dims), max_epochs=epochs, learning_rate=1e-4,
                            rel_tol=0.0, seed=4)
        with mock.patch.object(xlc.autoencoder, "_mm", counted), \
                mock.patch.object(xlc.matrix, "_csr", lambda *args: Spy(args[:3], shape=args[3])):
            assert len(train_autoencoder(v, cfg).training_trace) == epochs + 1
        grams = sum(a == (b[1], b[0]) and a[1] == n for a, b in products)
        return grams, len(transposes)

    (grams5, vt5), (grams2, vt2) = run(5), run(2)
    assert grams5 == grams2 == 1
    assert vt5 - vt2 == 3


@pytest.mark.parametrize("layer_index", [0, 3, -1])
def test_gradient_layer_index_out_of_range(layer_index):
    v, _ = random_label_matrix(4, 3, seed=0)
    stack = EncoderStack([H1, DenseMatrix([[1.0], [0.5]])])
    with pytest.raises(XlcError):
        ae_gradient(v, stack, layer_index)


# ---------------------------------------------------------------- config


def test_train_config_validation():
    with pytest.raises(ConfigError):
        AeTrainConfig(layer_dims=[])
    with pytest.raises(ConfigError):
        AeTrainConfig(layer_dims=[4, 4])
    with pytest.raises(ConfigError):
        AeTrainConfig(layer_dims=[2, 4])
    with pytest.raises(ConfigError):
        AeTrainConfig(layer_dims=[4, 0])
    with pytest.raises(ConfigError):
        AeTrainConfig(layer_dims=[4], learning_rate=0.0)
    with pytest.raises(ConfigError):
        AeTrainConfig(layer_dims=[4], max_epochs=0)
    with pytest.raises(ConfigError):
        AeTrainConfig(layer_dims=[4], init_scheme="xavier")


def test_a_fitted_scale_that_overflows_to_zero_is_refused_as_diverged():
    # with entries near 1e152, tr(G C) overflows to inf while tr(G) stays
    # finite, so _rescale_init's least-squares scale tr(G) / tr(G C) would
    # be 0; training refuses the labels' scale before any step
    rng = np.random.default_rng(0)
    v = LabelMatrix.from_dense_array((rng.random((40, 30)) < 0.3) * 3e152)
    with pytest.raises(TrainingDivergedError, match="label values are too large"):
        train_autoencoder(v, AeTrainConfig([4], max_epochs=5))


@pytest.mark.parametrize("init, scale, overflow", [
    ("random-uniform", 3e152, "tr(G C) = inf"),
    ("random-uniform", 1e200, "||V||^2 = inf"),
    ("nmf-greedy", 1e200, "||V||^2 = inf"),
])
def test_labels_that_overflow_at_initialization_are_blamed_on_their_scale(init, scale, overflow):
    # ||V||^2 or tr(G C) at the starting chain overflows before any step, so
    # no learning rate helps: the error names the label scale at epoch 0.
    # ||V||^2 is checked before nmf-greedy runs NMF on V
    rng = np.random.default_rng(0)
    v = LabelMatrix.from_dense_array((rng.random((40, 30)) < 0.3) * scale)
    with pytest.raises(TrainingDivergedError) as err:
        train_autoencoder(v, AeTrainConfig([4], max_epochs=5, init_scheme=init))
    assert err.value.epoch == 0
    message = str(err.value)
    assert message.startswith("the label values are too large for float64")
    assert overflow in message and "learning rate" not in message


def test_large_labels_whose_sums_stay_finite_train_at_a_rate_scaled_to_them():
    # at 1e150 ||V||^2, tr(G) and tr(G C) are finite (about 1e302 to 1e304)
    # and the gradient scales with ||V||^2: the default rate overflows at
    # epoch 1 and says to lower it, and a rate of 1e-3 / 1e300 trains the
    # same relative trace as the unit labels at 1e-3. So do nmf-greedy's
    # unit-norm columns at 3e152, which keep tr(G C) finite
    rng = np.random.default_rng(0)
    mask = (rng.random((40, 30)) < 0.3) * 1.0
    big = LabelMatrix.from_dense_array(mask * 1e150)
    with pytest.raises(TrainingDivergedError, match="lower the learning rate") as err:
        train_autoencoder(big, AeTrainConfig([4], max_epochs=5))
    assert err.value.epoch == 1
    with pytest.raises(TrainingDivergedError, match="lower the learning rate"):
        train_autoencoder(LabelMatrix.from_dense_array(mask * 3e152),
                          AeTrainConfig([4], max_epochs=5, init_scheme="nmf-greedy"))
    unit = train_autoencoder(LabelMatrix.from_dense_array(mask),
                             AeTrainConfig([4], max_epochs=20))
    scaled = train_autoencoder(big, AeTrainConfig([4], max_epochs=20, learning_rate=1e-303))
    assert np.allclose(np.array(scaled.training_trace) / 1e300, unit.training_trace,
                       rtol=1e-12, atol=0.0)


_READ_ONLY = {
    "ae": lambda: AeTrainConfig((6, 2), max_epochs=3, learning_rate=1e-2, rel_tol=0.0,
                                init_scheme="nmf-greedy", seed=5),
    "nmf": lambda: NmfConfig(k=2, max_iters=7, rel_tol=0.0, seed=3),
    "lime": lambda: LimeConfig(num_samples=50, k_features=3, seed=2, baseline=0.5),
    "explain": lambda: ExplainConfig(LimeConfig(num_samples=40), label_names=["a", "b"]),
    "regressor": lambda: RegressorModel("ridge-linear", 3, 2, {
        "theta": np.arange(6.0).reshape(3, 2), "intercept": np.ones(2)}),
}


def _state(obj):
    """obj's fields as comparable values: a nested LimeConfig by its own
    fields, and a regressor's arrays by shape and bytes."""
    out = {}
    for name in type(obj).__slots__:
        value = getattr(obj, name)
        if isinstance(value, LimeConfig):
            value = _state(value)
        elif name == "params":
            value = {k: (a.shape, a.tobytes()) for k, a in value.items()}
        out[name] = value
    return out


@pytest.mark.parametrize("build", _READ_ONLY.values(), ids=_READ_ONLY.keys())
def test_settings_and_regressors_are_read_only_and_so_are_their_copies(build):
    import copy
    import pickle

    # an assignment used to skip every check: init_scheme = "bogus" trained
    # nmf-greedy, and a regressor's theta set to shape (1, 1) predicted the
    # intercept alone
    obj = build()
    cls = type(obj).__name__
    for name in type(obj).__slots__:
        with pytest.raises(AttributeError, match=f"^{cls} is read-only: cannot set '{name}'$"):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError, match=f"^{cls} is read-only: cannot delete '{name}'$"):
            delattr(obj, name)
    # a copy or an unpickled object is rebuilt through __init__ and its checks
    for clone in (copy.copy, copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))):
        c = clone(obj)
        assert type(c) is type(obj) and _state(c) == _state(obj)
        with pytest.raises(AttributeError):
            setattr(c, type(obj).__slots__[0], None)
    if isinstance(obj, RegressorModel):
        with pytest.raises(TypeError):
            obj.params["theta"] = np.zeros((1, 1))
        assert not any(a.flags.writeable for a in clone(obj).params.values())


def _fit(kind="ridge-linear", hyper=None):
    x, w = FeatureMatrix(np.ones((3, 2))), DenseMatrix(np.ones((3, 1)))
    return fit_regressor(x, w, kind, hyper)


_STACK = EncoderStack([DenseMatrix(np.ones((3, 1)))])     # p = 3, one latent unit
_V = LabelMatrix.from_dense_array(np.ones((2, 3)))


# every checked argument: build -> (call with the value, the name its error
# starts with, the lowest legal value, and "int" for an integer setting or
# ">=" / ">" for a real one, or the list of bad values of a sequence or a
# choice)
_SETTINGS = {
    "ae-layer-width": (lambda v: AeTrainConfig((v,)), "layer width", 1, "int"),
    "ae-max-epochs": (lambda v: AeTrainConfig((4,), max_epochs=v), "max_epochs", 1, "int"),
    "ae-learning-rate": (lambda v: AeTrainConfig((4,), learning_rate=v),
                         "learning_rate", 0.0, ">"),
    "ae-rel-tol": (lambda v: AeTrainConfig((4,), rel_tol=v), "rel_tol", 0.0, ">="),
    "nmf-k": (lambda v: NmfConfig(k=v), "k", 1, "int"),
    "nmf-max-iters": (lambda v: NmfConfig(k=2, max_iters=v), "max_iters", 1, "int"),
    "nmf-rel-tol": (lambda v: NmfConfig(k=2, rel_tol=v), "rel_tol", 0.0, ">="),
    "lime-k-features": (lambda v: LimeConfig(k_features=v), "k_features", 1, "int"),
    # at least k_features + 2, and k_features defaults to 5
    "lime-num-samples": (lambda v: LimeConfig(num_samples=v), "num_samples", 7, "int"),
    "ridge-lam": (lambda v: _fit("ridge-linear", {"lam": v}), "lam", 0.0, ">="),
    "regressor-input-dim": (lambda v: RegressorModel("ridge-linear", v, 1, {}),
                            "input_dim", 1, "int"),
    "regressor-output-dim": (lambda v: RegressorModel("ridge-linear", 2, v, {}),
                             "output_dim", 1, "int"),
    "split-n-rows": (lambda v: split_rows(v, 0.2), "n_rows", 2, "int"),
    "split-test-frac": (lambda v: split_rows(10, v), "test_frac", 0.0, ">"),
    "hierarchy-m": (lambda v: extract_hierarchy(_STACK, 1, 0, v), "m", 1, "int"),
    # m is one count for every level: a list of counts is refused
    "hierarchy-m-per-level": (lambda v: extract_hierarchy(_STACK, 1, 0, [v]), "m", 1, "int"),
    "ranked-n": (lambda v: RankedPrediction(np.ones(3), v), "n", 1, "int"),
    "predict-n": (lambda v: predict_labels(np.ones(2), _fit(), _STACK, n=v), "n", 1, "int"),
    "metrics-k": (lambda v: precision_at_k(RankedPrediction(np.ones(3), 2), [0], v),
                  "k", 1, "int"),
    "gen-blocks": (lambda v: make_block_dataset(v, 4, 2, 0.0), "blocks", 1, "int"),
    "gen-rows": (lambda v: make_block_dataset(2, v, 2, 0.0), "rows", 1, "int"),
    "gen-labels-per-block": (lambda v: make_block_dataset(2, 4, v, 0.0),
                             "labels_per_block", 1, "int"),
    "gen-noise": (lambda v: make_block_dataset(2, 4, 2, v), "noise", 0.0, ">="),
    "rng-seed": (lambda v: make_rng(v), "seed", 0, "int"),
    "ae-seed": (lambda v: AeTrainConfig((4,), seed=v), "seed", 0, "int"),
    "nmf-seed": (lambda v: NmfConfig(k=2, seed=v), "seed", 0, "int"),
    "lime-seed": (lambda v: LimeConfig(seed=v), "seed", 0, "int"),
    "split-seed": (lambda v: split_rows(10, 0.2, seed=v), "seed", 0, "int"),
    "gen-seed": (lambda v: make_block_dataset(2, 4, 2, 0.0, seed=v), "seed", 0, "int"),
    "gradient-layer-index": (lambda v: ae_gradient(_V, _STACK, v), "layer_index", 1, "int"),
    "hierarchy-layer": (lambda v: extract_hierarchy(_STACK, v, 0, 2), "layer", 1, "int"),
    "hierarchy-unit": (lambda v: extract_hierarchy(_STACK, 1, v, 2), "unit", 0, "int"),
    "node-layer": (lambda v: HierarchyNode(v, 0, 1.0), "layer", 0, "int"),
    "node-unit": (lambda v: HierarchyNode(1, v, 1.0), "unit_index", 0, "int"),
    "node-weight": (lambda v: HierarchyNode(1, 0, v), "weight", 0.0, ">="),
    "labels-n-rows": (lambda v: LabelMatrix(v, 3, []), "n_rows", 0, "int"),
    "labels-n-labels": (lambda v: LabelMatrix(2, v, []), "n_labels", 0, "int"),
    "ae-layer-dims": (lambda v: AeTrainConfig(v), "layer_dims", None, [4, None]),
    "hierarchy-m-levels": (lambda v: extract_hierarchy(_STACK, 1, 0, v), "m", None, [None]),
    "ae-init-scheme": (lambda v: AeTrainConfig((4,), init_scheme=v), "init_scheme", None,
                       ["xavier", None]),
    "regressor-kind": (lambda v: RegressorModel(v, 2, 1, {}), "kind", None, ["lasso", None]),
    "fit-kind": (lambda v: _fit(v), "kind", None, ["lasso", None]),
}

# the upper bound of each bounded setting: inclusive for an integer, exclusive
# for a real; the depth and the width of _STACK are 1
_UPPER = {"rng-seed": 2**64 - 1, "ae-seed": 2**64 - 1, "nmf-seed": 2**64 - 1,
          "lime-seed": 2**64 - 1, "split-seed": 2**64 - 1, "gen-seed": 2**64 - 1, "split-test-frac": 1.0, "gen-noise": 0.5,
          "gradient-layer-index": 1, "hierarchy-layer": 1, "hierarchy-unit": 0}


def _bad_values(lo, kind, hi=None):
    """A string, then a non-integral float for an integer setting or NaN and
    the infinities for a real one, then values below the range and at or past
    its upper bound hi; a kind that is a list holds the bad values."""
    if not isinstance(kind, str):
        return kind
    if kind == "int":
        return ["5", 2.5, lo - 1] + ([] if hi is None else [hi + 1])
    return (["x", float("nan"), float("inf"), float("-inf"), -1.0]
            + ([0.0] if kind == ">" else []) + ([] if hi is None else [hi]))


# settings that are gone, laid out as in _SETTINGS: every value they once
# refused is now refused by Python as an unknown keyword (LIME's kernel width
# is always 0.75*sqrt(d'))
_REMOVED_SETTINGS = {
    "lime-kernel-width": (lambda v: LimeConfig(kernel_width=v), "kernel_width", 0.0, ">"),
}


@pytest.mark.parametrize("build, value", [
    (build, value) for build, (_, _, lo, kind) in (_SETTINGS | _REMOVED_SETTINGS).items()
    for value in _bad_values(lo, kind, _UPPER.get(build))])
def test_step_settings_must_be_finite_and_in_range(build, value):
    # a string, a float count or index, NaN, an infinity, a bare scalar or
    # None for a sequence, or an unknown choice must neither reach Python or
    # numpy, to fail there with a raw TypeError, IndexError or ValueError,
    # nor be truncated
    if build in _REMOVED_SETTINGS:
        call, name, _, _ = _REMOVED_SETTINGS[build]
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'$"):
            call(value)
        return
    call, name, _, _ = _SETTINGS[build]
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        call(value)


# every refused input that is not a setting: build -> (the call, the class of
# its error, and a fragment of its message)
_REFUSALS = {
    "dense-matrix-ndim": (lambda: DenseMatrix(np.ones(3)), ShapeMismatchError,
                          "values must have shape (*, *), got shape (3,)"),
    "nmf-factors-chain": (lambda: NmfFactors(DenseMatrix(np.ones((2, 2))),
                                             DenseMatrix(np.ones((3, 2))), [1.0]),
                          ShapeMismatchError, "W is 2x2 but H is 3x2"),
    "ranked-2d": (lambda: RankedPrediction(np.ones((2, 3)), 2), ShapeMismatchError,
                  "scores must have shape (*,), got shape (2, 3)"),
    "ranked-non-finite": (lambda: RankedPrediction([1.0, np.nan], 1), ConfigError,
                          "scores must be finite, got a non-finite entry in shape (2,)"),
    "ranked-negative": (lambda: RankedPrediction([1.0, -0.5], 1), NonNegativityError,
                        "scores must be >= 0, got -0.5 in shape (2,)"),
    "predict-latent-nan": (lambda: predict_latent([np.nan, 0.0], _fit()), ConfigError,
                           "x must be finite, got a non-finite entry in shape (2,)"),
    "regressor-width": (lambda: predict_labels(np.ones(2), fit_regressor(
                            FeatureMatrix(np.ones((3, 2))), DenseMatrix(np.ones((3, 2)))),
                            _STACK),
                        ShapeMismatchError, "regressor outputs 2 dims but decoder expects 1"),
    "split-empty-side": (lambda: split_rows(3, 0.2), ConfigError,
                         "test_frac 0.2 leaves an empty split for 3 rows"),
    "hierarchy-label-names": (lambda: extract_hierarchy(_STACK, 1, 0, 2, labels=["a"]),
                              ShapeMismatchError, "1 label names for p=3 labels"),
    # refused before the file is opened
    "save-dataset-rows": (lambda: save_dataset(os.devnull, FeatureMatrix(np.ones((3, 1))), _V),
                          ConfigError, "feature rows 3 != label rows 2"),
}


@pytest.mark.parametrize("build", _REFUSALS)
def test_refused_inputs_raise_a_named_error(build):
    call, error, fragment = _REFUSALS[build]
    with pytest.raises(error, match=re.escape(fragment)) as exc:
        call()
    assert type(exc.value) is error


# a model, stack, config or feature matrix of the wrong type: build -> (the
# call, and the ConfigError's message)
_W = DenseMatrix(np.ones((3, 1)))
_WRONG_TYPES = {
    "explain-model": (lambda: explain_prediction(np.ones(2), "m", _STACK),
                      "m must be of type RegressorModel, got str"),
    "explain-stack": (lambda: explain_prediction(np.ones(2), _fit(), "s"),
                      "stack must be of type EncoderStack, got str"),
    "explain-config": (lambda: explain_prediction(np.ones(2), _fit(), _STACK, {}),
                       "cfg must be of type ExplainConfig, got dict"),
    "explain-config-lime": (lambda: ExplainConfig(lime={"num_samples": 10}),
                            "lime must be of type LimeConfig, got dict"),
    "lime-config": (lambda: lime_explain(np.ones(2), lambda r: r.sum(axis=1), None),
                    "cfg must be of type LimeConfig, got NoneType"),
    "predict-latent-model": (lambda: predict_latent(np.ones(2), "m"),
                             "m must be of type RegressorModel, got str"),
    "predict-labels-stack": (lambda: predict_labels(np.ones(2), _fit(), "s"),
                             "stack must be of type EncoderStack, got str"),
    "decode-stack": (lambda: decode(np.ones((1, 1)), "s"),
                     "stack must be of type EncoderStack, got str"),
    "hierarchy-stack": (lambda: extract_hierarchy("s", 1, 0, 2),
                        "stack must be of type EncoderStack, got str"),
    "encode-stack-class": (lambda: encode(_V, DenseMatrix),
                           "stack must be of type EncoderStack, got type"),
    "reconstruction-loss-stack": (lambda: reconstruction_loss(_V, H1),
                                  "stack must be of type EncoderStack, got DenseMatrix"),
    "ae-gradient-stack": (lambda: ae_gradient(_V, [H1], 1),
                          "stack must be of type EncoderStack, got list"),
    "fit-regressor-features": (lambda: fit_regressor(np.ones((3, 2)), _W),
                               "x must be of type DenseMatrix, got ndarray"),
    "fit-regressor-latents": (lambda: fit_regressor(FeatureMatrix(np.ones((3, 2))), _W.values),
                              "w must be of type DenseMatrix, got ndarray"),
    "nmf-objective-factors": (lambda: nmf_objective(_V, "x"),
                              "f must be of type NmfFactors, got str"),
    "nmf-factorize-config": (lambda: nmf_factorize(_V, {"k": 1}),
                             "cfg must be of type NmfConfig, got dict"),
    "train-autoencoder-config": (lambda: train_autoencoder(_V, {"layer_dims": [1]}),
                                 "cfg must be of type AeTrainConfig, got dict"),
    # refused before the file is opened
    "save-dataset-features": (lambda: save_dataset(os.devnull, np.ones((2, 1)), _V),
                              "x must be of type DenseMatrix, got ndarray"),
    # the parts of containers and callbacks: each used to end in a raw
    # AttributeError or TypeError
    "stack-layer": (lambda: EncoderStack([H1, np.ones((2, 1))]),
                    "layer 2 must be of type DenseMatrix, got ndarray"),
    "nmf-factors-w": (lambda: NmfFactors(np.ones((2, 1)), np.ones((1, 3)), []),
                      "w must be of type DenseMatrix, got ndarray"),
    "nmf-factors-h": (lambda: NmfFactors(DenseMatrix(np.ones((2, 1))), np.ones((1, 3)), []),
                      "h must be of type DenseMatrix, got ndarray"),
    "container-encoder": (lambda: save_model(os.devnull, ModelContainer(encoder="x")),
                          "encoder must be of type EncoderStack, got str"),
    "container-regressor": (lambda: ModelContainer(regressor=_STACK),
                            "regressor must be of type RegressorModel, got EncoderStack"),
    "container-nmf": (lambda: ModelContainer(nmf=H1), "nmf must be of type NmfFactors, "
                                                      "got DenseMatrix"),
    "container-label-names": (lambda: save_model(os.devnull, ModelContainer(label_names=[1, 2])),
                              "label name 1 must be a string, got int"),
    "save-label-names": (lambda: save_label_names(os.devnull, ["a", b"b"]),
                         "label name b'b' must be a string, got bytes"),
    "lime-predict-fn": (lambda: lime_explain(np.ones(2), None, LimeConfig(num_samples=10)),
                        "predict_fn must be callable, got NoneType"),
}


@pytest.mark.parametrize("build", _WRONG_TYPES)
def test_wrong_typed_arguments_raise_a_config_error_naming_them(build):
    # each of these used to end in a raw AttributeError on the first
    # attribute read
    call, message = _WRONG_TYPES[build]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        call()


# arguments of public entry points that used to end in a raw exception: build
# -> (the call, and the ConfigError's message)
_RAW_AT_ENTRY = {
    "fit-hyperparams-text": (lambda: _fit(hyper="abc"),          # a raw ValueError
                             "hyperparams must be of type Mapping, got str"),
    "fit-hyperparams-int": (lambda: _fit(hyper=5),               # a raw TypeError
                            "hyperparams must be of type Mapping, got int"),
    "hierarchy-labels-int": (lambda: extract_hierarchy(_STACK, 1, 0, 2, labels=5),
                             "labels must be a sequence of strings, got int"),
    "explain-label-names-int": (lambda: ExplainConfig(label_names=5),
                                "label_names must be a sequence of strings, got int"),
    # a raw TypeError in render_hierarchy's join
    "hierarchy-labels-not-text": (
        lambda: render_hierarchy(extract_hierarchy(_STACK, 1, 0, 2, labels=[0, 1, 2])),
        "label name 0 must be a string, got int"),
    "precision-pred": (lambda: precision_at_k("x", [1], 1),
                       "pred must be of type RankedPrediction, got str"),
    "ndcg-pred": (lambda: ndcg_at_k(None, [1], 1),
                  "pred must be of type RankedPrediction, got NoneType"),
    "render-node": (lambda: render_hierarchy("x"), "node must be of type HierarchyNode, got str"),
    "save-model-container": (lambda: save_model(os.devnull, "x"),
                             "container must be of type ModelContainer, got str"),
    "container-config": (lambda: ModelContainer(config=5),
                         "config must be of type Mapping, got int"),
    "container-label-names-int": (lambda: ModelContainer(label_names=5),
                                  "label_names must be a sequence of strings, got int"),
    # used to write one name per character
    "save-label-names-text": (lambda: save_label_names(os.devnull, "abc"),
                              "label_names must be a sequence of strings, got str"),
}


@pytest.mark.parametrize("build", _RAW_AT_ENTRY)
def test_entry_point_arguments_raise_a_config_error_naming_them(build):
    call, message = _RAW_AT_ENTRY[build]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as exc:
        call()
    assert type(exc.value) is ConfigError


def _no_label_files(tmp):
    """A model with an encoder and a regressor, and a 3-row dataset with no
    labels, written under tmp."""
    save_model(tmp / "m.xlc", ModelContainer(encoder=_STACK, regressor=_fit()))
    save_dataset(tmp / "d.txt", FeatureMatrix(np.ones((3, 2))), LabelMatrix(3, 3, []))
    return tmp / "m.xlc", tmp / "d.txt"


def _text_file(tmp, text):
    path = tmp / "data.txt"
    path.write_text(text)
    return path


def _cli(*argv):
    """Run one xlc command, letting its error through."""
    args = xlc.cli._build_parser().parse_args([str(a) for a in argv])
    handler, _, options = xlc.cli._COMMANDS[args.command]
    xlc.cli._resolve(args, options)
    return handler(args)


# refusals that raised a plain XlcError: build -> (the call, given a scratch
# directory, and the named class it raises now)
_RECLASSED = {
    "cli-no-rows": (lambda tmp: xlc.cli._load_rows(_text_file(tmp, "0 2 3\n"), "fit"),
                    ConfigError),
    "cli-one-row-split": (lambda tmp: xlc.cli._load_rows(_text_file(tmp, "1 2 3\n0 0:1.0\n"),
                                                         "fit", split=True), ConfigError),
    "cli-missing-section": (lambda tmp: xlc.cli._need(ModelContainer(), "encoder"),
                            ModelFormatError),
    "cli-eval-no-labelled-rows": (lambda tmp: _cli("eval", "--model", _no_label_files(tmp)[0],
                                                   "--data", tmp / "d.txt", "--split", "all"),
                                  ConfigError),
    "surrogate-r2-above-1": (lambda tmp: SurrogateExplanation((), 0.0, 1.5, "t"), ConfigError),
    "cholesky-pivot": (lambda tmp: xlc.matrix._cholesky_solve(np.zeros((2, 2)), np.ones((2, 1))),
                       NonNegativityError),
    "ridge-singular": (lambda tmp: _fit(hyper={"lam": 0.0}), ConfigError),
    "nmf-rising-trace": (lambda tmp: NmfFactors(DenseMatrix(np.ones((2, 1))),
                                                DenseMatrix(np.ones((1, 2))), [1.0, 2.0]),
                         ConfigError),
    "ridge-negative-targets": (lambda tmp: fit_regressor(FeatureMatrix(np.ones((3, 2))),
                                                         DenseMatrix(-np.ones((3, 1)))),
                               NonNegativityError),
    "ndcg-empty-truth": (lambda tmp: ndcg_at_k(RankedPrediction([1.0, 0.5], 1), [], 1),
                         ConfigError),
    "labels-out-of-bounds": (lambda tmp: LabelMatrix(2, 2, [(2, 0, 1.0)]), ConfigError),
    "labels-negative-index": (lambda tmp: LabelMatrix.from_coo(2, 2, [0], [-1], [1.0]),
                              ConfigError),
    "labels-duplicate": (lambda tmp: LabelMatrix(2, 2, [(0, 1, 1.0), (0, 1, 2.0)]), ConfigError),
    "labels-not-a-label-matrix": (lambda tmp: encode(np.ones((2, 3)), _STACK), ConfigError),
}


@pytest.mark.parametrize("build", _RECLASSED)
def test_plain_refusals_raise_a_named_class(build, tmp_path):
    call, error = _RECLASSED[build]
    with pytest.raises(XlcError) as exc:
        call(tmp_path)
    assert type(exc.value) is error


@pytest.mark.parametrize("build, refusal", [
    (lambda: DenseMatrix([["1", "2.5"]]), "a numeric array, got list"),
    # the baseline is one real, checked by errors._real
    (lambda: LimeConfig(baseline="0.5"), "a finite number, got '0.5'"),
    (lambda: predict_latent(["1"] * 2, _fit()), "a numeric array, got list"),
    (lambda: FeatureMatrix(np.array([[1, "2"]], dtype=object)), "a numeric array, got ndarray"),
], ids=["dense-matrix", "lime-baseline", "predict-latent", "object-array"])
def test_numeric_text_is_refused_not_parsed(build, refusal):
    # each used to be parsed as numbers
    with pytest.raises(ConfigError, match=f" must be {re.escape(refusal)}$"):
        build()


def test_object_arrays_of_numbers_convert():
    np.testing.assert_array_equal(DenseMatrix(np.array([[1, 2.5]], dtype=object)).values,
                                  [[1.0, 2.5]])


# every array argument that errors._array converts: build -> (the call, the
# argument's name as its errors give it, and the most dimensions it takes)
_ARRAYS = {
    "dense-matrix": (DenseMatrix, "values", 2),
    "feature-matrix": (FeatureMatrix, "values", 2),
    "label-matrix-entry-value": (lambda a: LabelMatrix(2, 2, [(0, 0, a)]), "vals", 0),
    "label-matrix-coo-vals": (lambda a: LabelMatrix.from_coo(2, 2, [0, 1], [0, 1], a),
                              "vals", 1),
    "label-matrix-dense": (LabelMatrix.from_dense_array, "a", 2),
    "regressor-theta": (lambda a: RegressorModel("ridge-linear", 2, 2,
                                                 {"theta": a, "intercept": np.ones(2)}),
                        "theta", 2),
    "regressor-intercept": (lambda a: RegressorModel("ridge-linear", 2, 2,
                                                     {"theta": np.ones((2, 2)), "intercept": a}),
                            "intercept", 1),
    "ranked-scores": (lambda a: RankedPrediction(a, 1), "scores", 1),
    "rank-labels": (rank_labels, "scores", 1),
    "predict-latent": (lambda a: predict_latent(a, _fit()), "x", 2),
    "predict-labels": (lambda a: predict_labels(a, _fit(), _STACK), "x", 2),
    "decode": (lambda a: decode(a, _STACK), "w", 2),
    # one real, checked by errors._real: every bad value, a vector ("ndim")
    # among them, is refused as not a finite number
    "lime-baseline": (lambda a: LimeConfig(baseline=a), "baseline", 0),
    "lime-row": (lambda a: lime_explain(a, lambda rows: rows.sum(axis=1),
                                        LimeConfig(num_samples=10)), "x_row", 1),
    "explain-row": (lambda a: explain_prediction(a, _fit(), _STACK), "x_row", 1),
    "lime-output": (lambda a: lime_explain(np.ones(2), lambda rows: a,
                                           LimeConfig(num_samples=10)),
                    "predict_fn output", 1),
}

# bad value -> (its error class, and how its message goes on after the name)
_BAD_ARRAYS = {
    "string": (lambda top: "abc", ConfigError, " must be a numeric array, got str$"),
    "ragged": (lambda top: [[1.0, 2.0], [3.0]], ConfigError,
               " must be a numeric array, got list$"),
    "nan": (lambda top: np.full((2,) * top, np.nan), ConfigError,
            r" must be finite, got a non-finite entry in shape \("),
    "ndim": (lambda top: np.ones((2,) * (top + 1)), ShapeMismatchError,
             r" must have shape \(.*\), got shape \("),
    # text used to be parsed: np.full(shape, "1") was taken as ones
    "text": (lambda top: np.full((2,) * top, "1"), ConfigError,
             " must be a numeric array, got (ndarray|list)$"),
    # 3 where the caller fixes 2, 1 or 10: only for the arguments in _FIXED_AXES
    "length": (lambda top: np.ones((3,) * top), ShapeMismatchError,
               r" must have shape \(.*\), got shape \(3"),
}

# the arguments whose own check fixes the length of an axis
_FIXED_AXES = {"regressor-theta", "regressor-intercept", "predict-latent", "predict-labels",
               "decode", "lime-output"}


@pytest.mark.parametrize("build, bad", [
    (build, bad) for bad in _BAD_ARRAYS for build in _ARRAYS
    if bad != "length" or build in _FIXED_AXES])
def test_array_arguments_are_refused_by_name(build, bad):
    # a string or a ragged list used to end in a raw ValueError from numpy
    # at most of these, and a NaN in a plain XlcError or a silent NaN
    call, name, top = _ARRAYS[build]
    value, error, rest = _BAD_ARRAYS[bad]
    if build == "label-matrix-entry-value":     # the entries' values go in one list
        rest = rest.replace("got str", "got list")
    if build == "lime-baseline":
        error, rest = ConfigError, " must be a finite number, got "
    with pytest.raises(error, match="^" + re.escape(name) + rest) as exc:
        call(value(top))
    assert type(exc.value) is error


@pytest.mark.parametrize("entry, message", [
    ((1.5, 0, 1.0), "rows must hold integers, got dtype float64"),
    ((0, 0.5, 1.0), "cols must hold integers, got dtype float64"),
    (("1", 0, 1.0), "rows must hold integers, got dtype <U1"),
    ((0, 0), "entries must be (row, col, value) triples, got (0, 0)"),
    (7, "entries must be (row, col, value) triples, got 7"),
])
def test_label_matrix_entries_are_integer_triples(entry, message):
    # (1.5, 0, 1.0) used to be stored as row 1, and (0, 0) to end in a raw
    # IndexError; from_coo refuses the same columns with the same message
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        LabelMatrix(3, 3, [entry])
    if isinstance(entry, tuple) and len(entry) == 3:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            LabelMatrix.from_coo(3, 3, *([e] for e in entry))


@pytest.mark.parametrize("metric", [precision_at_k, ndcg_at_k])
@pytest.mark.parametrize("label", [1.5, "1", None])
def test_truth_labels_must_be_integers(metric, label):
    # 1.5 used to be scored as label 1
    pred = RankedPrediction([0.1, 0.9, 0.5], 2)
    with pytest.raises(ConfigError, match="^truth label must be an integer, got "):
        metric(pred, [0, label], 1)
    assert metric(pred, [np.int64(1), True], 1) == 1.0


def test_numpy_scalar_settings_equal_python_ones():
    # np.int64 and np.float32 values (these four floats are exact in float32)
    # give the same settings, of the same Python types, as int and float ones
    def settings(i, r):
        ae = AeTrainConfig((i(4), i(2)), max_epochs=i(5), learning_rate=r(0.5),
                           rel_tol=r(0.25), seed=i(3))
        nmf = NmfConfig(k=i(2), max_iters=i(7), rel_tol=r(0.125), seed=i(1))
        lime = LimeConfig(num_samples=i(9), k_features=i(3), baseline=r(1.5))
        return [*ae.layer_dims, ae.max_epochs, ae.learning_rate, ae.rel_tol, ae.seed,
                nmf.k, nmf.max_iters, nmf.rel_tol, nmf.seed,
                lime.num_samples, lime.k_features, lime.baseline]
    python, numpy = settings(int, float), settings(np.int64, np.float32)
    assert numpy == python
    assert [type(v) for v in numpy] == [type(v) for v in python]


def test_train_rejects_first_width_not_below_p():
    v, _ = random_label_matrix(6, 4, seed=2)
    with pytest.raises(ConfigError):
        train_autoencoder(v, AeTrainConfig(layer_dims=[4]))


# ---------------------------------------------------------------- training


def test_training_trace_starts_at_init_loss_and_descends(planted_v):
    v, dense = planted_v
    cfg = AeTrainConfig(layer_dims=[4], max_epochs=200, seed=0)
    stack = train_autoencoder(v, cfg)
    trace = np.asarray(stack.training_trace)
    # the rescaled random init never starts above the zero-stack loss
    assert trace[0] <= np.linalg.norm(dense) ** 2 + 1e-9
    assert trace[-1] <= trace[0]
    # mild oscillation allowed, never more than 10% of the current loss
    increases = np.diff(trace)
    assert (increases <= 0.10 * trace[:-1] + 1e-12).all()
    assert trace[-1] < 0.5 * trace[0]


def test_training_zero_rows_reconstruct_to_exactly_zero():
    dense = planted_rank4_dense()
    dense[[5, 20, 41]] = 0.0
    v = LabelMatrix.from_dense_array(dense)
    stack = train_autoencoder(v, AeTrainConfig(layer_dims=[4], max_epochs=80, seed=2))
    rec = decode(encode(v, stack), stack)
    assert not rec.values[[5, 20, 41]].any()


def test_training_non_negative_layers_and_latent(planted_v):
    v, _ = planted_v
    stack = train_autoencoder(v, AeTrainConfig(layer_dims=[6, 3], max_epochs=150, seed=1))
    for h in stack.layers:
        assert h.values.min() >= 0.0
    assert encode(v, stack).values.min() >= 0.0


def test_training_deterministic_bitwise(planted_v):
    v, _ = planted_v
    cfg = AeTrainConfig(layer_dims=[4], max_epochs=60, seed=7)
    s1 = train_autoencoder(v, cfg)
    s2 = train_autoencoder(v, cfg)
    for h1, h2 in zip(s1.layers, s2.layers):
        np.testing.assert_array_equal(h1.values, h2.values)
    assert s1.training_trace == s2.training_trace


def test_training_nmf_greedy_init_reaches_rank4_floor(planted_v):
    # the planted matrix factors exactly at rank 4, so greedy NMF seeding
    # starts the stack essentially at the optimum
    v, dense = planted_v
    cfg = AeTrainConfig(
        layer_dims=[4], init_scheme="nmf-greedy", seed=1, rel_tol=1e-12
    )
    stack = train_autoencoder(v, cfg)
    assert reconstruction_loss(v, stack) <= 1e-9 * np.linalg.norm(dense) ** 2


@pytest.mark.parametrize("cfg", [
    AeTrainConfig(layer_dims=[4], max_epochs=200, seed=0, rel_tol=1e-12),
    AeTrainConfig(layer_dims=[4], init_scheme="nmf-greedy", seed=1, rel_tol=1e-12),
])
def test_training_does_not_stop_on_rounding_noise(planted_v, cfg):
    # the planted matrix is exactly rank 4, so the expanded loss reaches its
    # rounding noise; the trace and the stop test must not follow that noise
    v, _ = planted_v
    trace = train_autoencoder(v, cfg).training_trace
    assert min(trace) >= 0.0
    assert trace[-1] <= 1e-20


def test_training_diverges_with_huge_learning_rate(planted_v):
    # Moderately oversized rates collapse the stack to zero (finite loss,
    # next test); only a first step large enough to overflow the loss
    # evaluation reaches the non-finite guard.
    v, _ = planted_v
    cfg = AeTrainConfig(layer_dims=[4], learning_rate=1e80, max_epochs=50, seed=0)
    with pytest.raises(TrainingDivergedError) as exc:
        train_autoencoder(v, cfg)
    assert exc.value.epoch is not None and exc.value.epoch >= 1


def test_training_that_collapses_to_the_zero_model_fails_by_name():
    # lr 1e-2 clamps every entry of the stack to zero; the zero stack is a
    # fixpoint of the clamped step, so the loss stops changing at ||V||^2
    _, v, _ = make_block_dataset(2, 40, 4, 0.1, seed=0)
    cfg = AeTrainConfig(layer_dims=[2], learning_rate=1e-2, max_epochs=50, seed=0)
    with pytest.raises(TrainingDivergedError,
                       match=r"zero after epoch 9: .*\(currently 0\.01\)") as exc:
        train_autoencoder(v, cfg)
    assert exc.value.epoch == 9


@pytest.mark.parametrize("cfg", [
    AeTrainConfig(layer_dims=[4], max_epochs=30, seed=0),
    AeTrainConfig(layer_dims=[6, 3], max_epochs=30, seed=1, rel_tol=0.0),
    AeTrainConfig(layer_dims=[4], init_scheme="nmf-greedy", seed=1, rel_tol=1e-12),
])
def test_training_trace_ends_at_reconstruction_loss_bitwise(planted_v, cfg):
    v, _ = planted_v
    stack = train_autoencoder(v, cfg)
    assert stack.training_trace[-1] == reconstruction_loss(v, stack)


def test_sparse_training_trace_ends_at_the_split_residual_bitwise():
    # 2% dense uniform labels fit loosely, so the last trace entry takes the
    # split residual, from the last epoch's V E, G and C
    n, p = 400, 300
    rng = np.random.default_rng(19)
    r, c = np.nonzero(rng.random((n, p)) < 0.02)
    v = LabelMatrix.from_coo(n, p, r, c, np.ones(r.size))
    cfg = AeTrainConfig(layer_dims=[16, 4], max_epochs=5, learning_rate=1e-3,
                        rel_tol=0.0, seed=2)
    with mock.patch.object(xlc.matrix, "_direct_sq_error") as direct:
        stack = train_autoencoder(v, cfg)
        loss = reconstruction_loss(v, stack)
    assert direct.call_count == 0
    assert stack.training_trace[-1] == loss
    dense = v.to_csr().toarray()
    e = stack.chain_t().T
    assert loss == pytest.approx(float(np.sum((dense - dense @ e @ e.T) ** 2)), rel=1e-12)


@pytest.mark.parametrize("dims", [(6, 1), (12, 5, 1), (8, 2), (16, 8), (24, 12, 8)])
def test_transposed_narrow_products_train_the_direct_products_bits(dims):
    # _mm runs a narrow product with more rows in a than columns in b as
    # (B^T A^T)^T: the chain, P^T g, M C and E G among them; a one-column
    # b (k_L = 1) keeps the direct form. Layers, trace, W and the gradients
    # must equal those of the direct products
    rng = np.random.default_rng(len(dims) + dims[-1])
    n, p = 90, 40
    r, c = np.nonzero(rng.random((n, p)) < 0.15)
    v = LabelMatrix.from_coo(n, p, r, c, np.ones(r.size))
    cfg = AeTrainConfig(list(dims), max_epochs=6, learning_rate=1e-3, rel_tol=0.0, seed=3)

    def run():
        stack = train_autoencoder(v, cfg)
        return ([h.values.tobytes() for h in stack.layers], stack.training_trace,
                encode(v, stack).values.tobytes(), stack.chain_t().tobytes(),
                [ae_gradient(v, stack, l).values.tobytes() for l in range(1, len(dims) + 1)])

    def direct(a, b):
        return np.einsum("ij,jk->ik", np.ascontiguousarray(a), np.ascontiguousarray(b),
                         optimize=False)

    with mock.patch.object(xlc.autoencoder, "_mm", direct):
        want = run()
    assert run() == want


def test_dense_matrix_copies_a_writeable_argument_and_keeps_a_locked_one():
    a = np.ones((3, 2))
    m = DenseMatrix(a)
    assert a.flags.writeable
    a[0, 0] = 5.0
    assert m.values[0, 0] == 1.0 and not m.values.flags.writeable
    a.setflags(write=False)
    assert DenseMatrix(a).values is a


def test_a_stack_stores_its_trace_as_python_floats():
    # the trace is checked in one errors._array call
    h = DenseMatrix(np.ones((3, 1)))
    stack = EncoderStack([h], training_trace=np.array([3.0, 1.0], dtype=np.float32))
    assert stack.training_trace == (3.0, 1.0)
    assert all(type(x) is float for x in stack.training_trace)
    with pytest.raises(NonNegativityError,
                       match=r"^trace entry must be >= 0, got -1\.0 in shape \(2,\)$"):
        EncoderStack([h], training_trace=[1.0, -1.0])


@pytest.mark.parametrize("cls", [DenseMatrix, FeatureMatrix])
def test_dense_matrices_are_read_only_and_so_are_their_copies(cls):
    import copy
    import pickle

    # a stack's layer reassigned to twos used to leave the stack decoding
    # through its cached E^T, unlike a fresh stack of the same layers
    stack = EncoderStack([DenseMatrix(np.ones((3, 2)))])
    assert decode(np.ones((1, 2)), stack).values.tolist() == [[2.0, 2.0, 2.0]]
    with pytest.raises(AttributeError, match="^DenseMatrix is read-only: cannot set 'values'$"):
        stack.layers[0].values = np.full((3, 2), 2.0)
    assert decode(np.ones((1, 2)), stack).values.tolist() == [[2.0, 2.0, 2.0]]
    m = cls(np.arange(6.0).reshape(3, 2))
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is read-only: cannot delete"):
        del m.values
    # a copy or an unpickled matrix is rebuilt through __init__, so it is
    # locked too (a deep copy's array used to be writeable)
    for clone in (copy.copy, copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))):
        c = clone(m)
        assert type(c) is cls and np.array_equal(c.values, m.values)
        assert not c.values.flags.writeable
        with pytest.raises(AttributeError):
            c.values = np.zeros((3, 2))


def test_decode_block_is_the_products_own_array():
    # more rows than labels too: a decode product runs directly, so its
    # C-ordered result is kept, not copied
    stack = EncoderStack([DenseMatrix(np.random.default_rng(2).uniform(size=(6, 3)))])
    made = []

    def product(a, b):
        made.append(xlc.matrix._mm(a, b))
        return made[-1]

    for n in (4, 100):
        with mock.patch.object(xlc.autoencoder, "_mm", product):
            out = decode(np.ones((n, 3)), stack)
        assert out.values is made[-1]


def test_an_epoch_forms_the_collapsed_chain_once():
    # each epoch needs E = H_1 H_2 for its loss (p x k_1 @ k_1 x k_2, which
    # _mm runs transposed); the layer gradients need only the suffix
    # products S_2 .. S_L, never E
    n, p, dims = 60, 30, (8, 3)
    _, v, _ = make_block_dataset(3, n, p // 3, 0.1, seed=4)
    products = []

    def counted(a, b):
        products.append((a.shape, b.shape))
        return xlc.matrix._mm(a, b)

    def chain_products(epochs):
        products.clear()
        cfg = AeTrainConfig(list(dims), max_epochs=epochs, learning_rate=1e-4,
                            rel_tol=0.0, seed=4)
        with mock.patch.object(xlc.autoencoder, "_mm", counted):
            assert len(train_autoencoder(v, cfg).training_trace) == epochs + 1
        return products.count(((p, dims[0]), (dims[0], dims[1])))

    assert chain_products(5) - chain_products(2) == 3


def test_training_never_allocates_a_dense_label_matrix():
    # criterion-7 shape: the traced peak of training, the loss and the
    # gradient stays below the n x p x 8 bytes of one dense copy of V
    n, p = 3379, 708
    rng = np.random.default_rng(17)
    r, c = np.nonzero(rng.random((n, p)) < 0.02)
    v = LabelMatrix.from_coo(n, p, r, c, np.ones(r.size))
    cfg = AeTrainConfig(layer_dims=[64, 16], learning_rate=3e-5, max_epochs=8, seed=17)
    tracemalloc.start()
    try:
        stack = train_autoencoder(v, cfg)
        reconstruction_loss(v, stack)
        ae_gradient(v, stack, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stack.training_trace) == 9
    assert peak < n * p * 8
