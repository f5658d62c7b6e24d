"""Tied-weight autoencoder: chain algebra, gradients, and training behavior."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import planted_rank4_dense, random_label_matrix, svd_floor
from hypothesis import given, settings
from hypothesis import strategies as st

import xlc.matrix
from xlc import (
    AeTrainConfig,
    ConfigError,
    DenseMatrix,
    EncoderStack,
    FeatureMatrix,
    LabelMatrix,
    NmfConfig,
    ShapeMismatchError,
    TrainingDivergedError,
    XlcError,
    ae_gradient,
    decode,
    encode,
    fit_regressor,
    reconstruction_loss,
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
        with pytest.raises(XlcError, match="expected a LabelMatrix, got "
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
    loss = _Objective(v.to_csr()).expanded(stack.chain())[0]
    assert abs(loss - want_loss) <= 1e-12 * scale
    assert abs(reconstruction_loss(v, stack) - want_loss) <= 1e-6 * want_loss + 1e-20 * scale

    m = dense.T @ dense @ e
    terms = 2.0 * m + m @ (e.T @ e) + e @ (e.T @ m)
    for i in range(len(layers)):
        got = ae_gradient(v, stack, i + 1).values
        want = _to_layer(layers, i, want_chain)
        assert np.abs(got - want).max() <= 1e-12 * _to_layer(layers, i, terms).max()


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


@pytest.mark.parametrize("build, value", [
    ("ae-learning-rate", float("nan")),
    ("ae-learning-rate", float("inf")),
    ("ae-learning-rate", -1.0),
    ("ae-rel-tol", float("nan")),
    ("ae-rel-tol", float("inf")),
    ("ae-rel-tol", -1.0),
    ("mlp-learning-rate", float("nan")),
    ("mlp-learning-rate", float("inf")),
    ("mlp-learning-rate", 0.0),
    ("nmf-rel-tol", float("nan")),
    ("nmf-rel-tol", float("inf")),
    ("nmf-rel-tol", -1.0),
    ("ridge-lam", float("nan")),
    ("ridge-lam", float("inf")),
])
def test_step_settings_must_be_finite_and_in_range(build, value):
    x, w = FeatureMatrix(np.ones((3, 2))), DenseMatrix(np.ones((3, 1)))
    with pytest.raises(ConfigError):
        if build == "ae-learning-rate":
            AeTrainConfig(layer_dims=[4], learning_rate=value)
        elif build == "ae-rel-tol":
            AeTrainConfig(layer_dims=[4], rel_tol=value)
        elif build == "nmf-rel-tol":
            NmfConfig(k=2, rel_tol=value)
        elif build == "ridge-lam":
            fit_regressor(x, w, "ridge-linear", {"lam": value})
        else:
            fit_regressor(x, w, "mlp-1hidden", {"learning_rate": value, "max_epochs": 1})


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
    # Moderately oversized rates collapse the stack to zero (finite loss);
    # only a first step large enough to overflow the loss evaluation reaches
    # the non-finite guard.
    v, _ = planted_v
    cfg = AeTrainConfig(layer_dims=[4], learning_rate=1e80, max_epochs=50, seed=0)
    with pytest.raises(TrainingDivergedError) as exc:
        train_autoencoder(v, cfg)
    assert exc.value.epoch is not None and exc.value.epoch >= 1


def test_training_fd_check_passes_on_small_instance():
    v, _ = random_label_matrix(5, 4, seed=44)
    cfg = AeTrainConfig(layer_dims=[3, 2], max_epochs=5, seed=3, fd_check=True)
    stack = train_autoencoder(v, cfg)
    assert stack.depth == 2


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
    e = stack.chain()
    assert loss == pytest.approx(float(np.sum((dense - dense @ e @ e.T) ** 2)), rel=1e-12)


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
