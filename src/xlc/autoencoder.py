"""Tied-weight deep non-negative autoencoder over a label matrix.

The model is a chain of non-negative coefficient matrices H_1 (p x k_1)
through H_L (k_{L-1} x k_L) with strictly narrowing widths. Encoding is
the one product V E with the collapsed chain E = H_1 ... H_L, which a
stack keeps once computed; decoding is through E^T, so the training
objective is

    Loss(H_1..H_L) = || V - V H_1...H_L H_L^T...H_1^T ||_F^2
                   = || V - V E E^T ||_F^2,   E = H_1...H_L,

minimized under H_l >= 0 by full-batch projected gradient descent: one
gradient step per layer per epoch (all layers stepped jointly from
gradients at the current iterate), then an entrywise clamp at zero.

V is never densified. With A = V E, M = V^T A, G = A^T A and C = E^T E,

    Loss     = ||V||_F^2 - 2 tr(G) + tr(G C),
    dLoss/dE = -2 (2 M - M C - E G),

so an epoch costs one sparse product V E and one V^T A, O(nnz(V) k_L),
plus O(min(n, p) k_L^2) for G and the dense chain products over the
p x k_l layers, in O(nnz(V) + (n + p) k_1) memory. G = A^T A = E^T M, so
when V has more rows than labels (n > p) the epoch takes G from the side
of the labels, as E^T M in O(p k_L^2) from the M the gradient reads
anyway, and otherwise from the side of the rows, as A^T A in O(n k_L^2);
the choice reads only V's shape. The per-layer gradient
follows by the chain rule as P_l^T (dLoss/dE) S_l^T where P_l and S_l
are the prefix and suffix products around H_l. The expanded loss cancels
catastrophically near exact reconstruction, so every reported loss
(reconstruction_loss and the last training-trace entry) is the residual
||V - A E^T||^2 of matrix._lowrank_sq_error: with A and E^T non-negative,
its split form sums (v - (A E^T)_ij)^2 over V's entries and adds the
off-support mass tr(G C) - sum over V's entries of (A E^T)_ij^2, in
O(nnz(V) k_L + (n + p) k_L^2). It falls back to the direct residual over
fixed-size row blocks of V, O(n p k_L), where its rounding bound would
exceed the direct sum's: for a model that explains more than about
max(1 - M / D, 1/2) of ||V||^2 (see _lowrank_sq_error), as near exact
reconstruction, and on V denser than 1/16. The latent code W_L = V E is
the objective's A, bit for bit, and needs no projection.
"""

from __future__ import annotations

import numpy as np

from .errors import (ConfigError, NonNegativityError, ShapeMismatchError, TrainingDivergedError,
                     _array, _choice, _instance, _integer, _integers, _real)
from .matrix import (DenseMatrix, LabelMatrix, _ReadOnly, _check_labels, _lock,
                     _lowrank_sq_error, _mm, make_rng)
from .nmf import NmfConfig, nmf_factorize


class EncoderStack(_ReadOnly):
    """Trained compression model: the ordered coefficient matrices.

    Invariants: at least one layer; every entry >= 0; widths are >= 1,
    strictly decrease and start below the label count p; shapes chain.
    A stack and its layers are read-only, so what is derived from them is
    computed once and kept on the stack: E^T (chain_t) and, in
    _hierarchies, one (m, ranking, tree) label hierarchy per (layer, unit),
    which interpret.extract_hierarchy fills.
    """

    __slots__ = ("layers", "layer_dims", "p", "training_trace", "_chain_t", "_hierarchies")

    def __init__(self, layers, training_trace=()):
        layers = tuple(layers)
        if not layers:
            raise ConfigError("an encoder stack needs at least one layer")
        dims = []
        for i, h in enumerate(layers):
            if _instance(f"layer {i + 1}", h, DenseMatrix).values.min(initial=0.0) < 0:
                raise NonNegativityError(f"layer {i + 1} has a negative entry")
            if dims and h.rows != dims[-1]:
                raise ShapeMismatchError(
                    f"layer {i + 1} is {h.rows}x{h.cols} but layer {i} has "
                    f"{dims[-1]} columns")
            dims.append(h.cols)
        p = layers[0].rows
        _check_widths(dims, p)
        self._set(layers=layers, layer_dims=tuple(dims), p=p,
                  training_trace=tuple(_array("trace entry", training_trace, (None,),
                                              nonneg=True).tolist()),
                  _chain_t=None, _hierarchies={})

    def __reduce__(self):
        return EncoderStack, (self.layers, self.training_trace)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def latent_dim(self) -> int:
        return self.layer_dims[-1]

    def chain_t(self) -> np.ndarray:
        """Read-only E^T (k_L x p), E = H_1 ... H_L, kept once computed (the
        layers are immutable); a trained stack holds its last epoch's E."""
        if self._chain_t is None:
            self._set(_chain_t=_lock(np.ascontiguousarray(
                _prefix_chain([h.values for h in self.layers])[-1].T)))
        return self._chain_t

    def __repr__(self):
        return f"EncoderStack(p={self.p}, dims={list(self.layer_dims)})"


class AeTrainConfig(_ReadOnly):
    """Training settings for the autoencoder, read-only."""

    INIT_SCHEMES = ("random-uniform", "nmf-greedy")

    __slots__ = ("layer_dims", "max_epochs", "learning_rate", "rel_tol",
                 "init_scheme", "seed")

    def __init__(self, layer_dims, max_epochs: int = 2000,
                 learning_rate: float = 1e-3, rel_tol: float = 1e-7,
                 init_scheme: str = "random-uniform",
                 seed: int = 0):
        dims = _integers("layer_dims", layer_dims, 1, item="layer width")
        _check_widths(dims)
        self._set(layer_dims=dims, max_epochs=_integer("max_epochs", max_epochs, 1),
                  learning_rate=_real("learning_rate", learning_rate, 0.0, above=True),
                  rel_tol=_real("rel_tol", rel_tol, 0.0),
                  init_scheme=_choice("init_scheme", init_scheme, self.INIT_SCHEMES),
                  seed=_integer("seed", seed, 0, 2**64 - 1))

    def __reduce__(self):
        return AeTrainConfig, (self.layer_dims, self.max_epochs, self.learning_rate,
                               self.rel_tol, self.init_scheme, self.seed)


def _check_widths(dims, p=None) -> None:
    """Raise ConfigError unless widths dims are >= 1 and strictly decrease, from p if given."""
    widths = list(dims) if p is None else [p, *dims]
    if dims[-1] < 1 or any(b >= a for a, b in zip(widths, widths[1:])):
        start = "" if p is None else f" from p={p}"
        raise ConfigError(
            f"layer widths {list(dims)} must strictly decrease{start} and be >= 1")


def encode(v: LabelMatrix, stack: EncoderStack) -> DenseMatrix:
    """W_L = V E, entrywise >= 0: one sequential CSR product through the
    stack's kept E, bitwise the training objective's A. Each entry is one
    running sum over the row's stored labels, so permuting input rows
    permutes output rows bitwise."""
    _instance("stack", stack, EncoderStack)
    return DenseMatrix(_lock(np.asarray(_check_labels(v, stack.p).to_csr()
                                        @ stack.chain_t().T)))


def decode(w, stack: EncoderStack) -> DenseMatrix:
    """Map latent rows back: w E^T = w H_L^T ... H_1^T, shape n x p,
    entrywise >= 0.

    One O(k_L p) product per row through the stack's cached E^T. Rows are
    independent: a row of a decoded block is bitwise equal to that row
    decoded alone.
    """
    _instance("stack", stack, EncoderStack)
    a = _array("w", w.values if isinstance(w, DenseMatrix) else w, (None, stack.latent_dim))
    return DenseMatrix(_lock(_mm(a, stack.chain_t())))


# The expanded loss adds and subtracts terms of size ||V||^2, so its error
# is a few ulps of ||V||^2: on random exact low-rank inputs of depth 1-3, at
# most 14 on 1000 with n > p (G = E^T M; 15 with G = A^T A there) and at most
# 9 on 1000 with n <= p. Below this many, the training loop uses the direct
# residual instead.
_NOISE_ULPS = 256


def _prefix_chain(mats) -> list[np.ndarray]:
    """[H_1, H_1 H_2, ..., E]: the left-to-right prefix products of the chain."""
    out = [mats[0]]
    for h in mats[1:]:
        out.append(_mm(out[-1], h))
    return out


class _Objective:
    """Loss = ||V - V E E^T||_F^2 and its chain gradient, V held as CSR.

    ``expanded`` and ``chain_gradient`` are the training forms; ``residual``
    is the accurate form that every reported loss comes from. G = A^T A
    comes from whichever side of V is shorter (see the module docstring):
    ``tall`` (n > p) forms it as E^T M in O(p k^2) and hands M on to the
    gradient; otherwise it is A^T A in O(n k^2) and M is left to the
    gradient. Each method takes expanded(e)'s A, G, C and M.
    """

    __slots__ = ("vs", "sq_norm", "tall")

    def __init__(self, vs):
        self.vs = vs
        self.sq_norm = float(np.einsum("i,i->", vs.data, vs.data, optimize=False))
        self.tall = vs.shape[0] > vs.shape[1]

    def expanded(self, e: np.ndarray):
        """(Loss, A, G, C, M) at chain E, with A = V E, G = A^T A, C = E^T E and
        Loss = ||V||^2 - 2 tr(G) + tr(G C); C is symmetric, so tr(G C) is
        the entrywise sum of G * C. When tall, M = V^T A and G = E^T M;
        otherwise M is None and G = A^T A."""
        a = np.asarray(self.vs @ e)
        if self.tall:
            m = np.asarray(self.vs.T @ a)
            g = _mm(e.T, m)
        else:
            m = None
            g = _mm(a.T, a)
        c = _mm(e.T, e)
        loss = (self.sq_norm - 2.0 * float(np.trace(g))
                + float(np.einsum("ij,ij->", g, c, optimize=False)))
        return loss, a, g, c, m

    def chain_gradient(self, e, a, g, c, m) -> np.ndarray:
        """dLoss/dE = -2 (2 M - M C - E G) with M = V^T A, from expanded(e)."""
        if m is None:
            m = np.asarray(self.vs.T @ a)
        return -2.0 * (2.0 * m - _mm(m, c) - _mm(e, g))

    def accurate(self, expanded_loss: float, e, a, g, c, m) -> float:
        """expanded_loss, or residual(e, a, g, c, m) when expanded_loss is
        below _NOISE_ULPS ulps of ||V||^2 and so is rounding noise."""
        if expanded_loss < _NOISE_ULPS * np.finfo(np.float64).eps * self.sq_norm:
            return self.residual(e, a, g, c, m)
        return expanded_loss

    def residual(self, e: np.ndarray, a, g, c, m) -> float:
        """Loss as ||V - A E^T||^2 by _lowrank_sq_error, from expanded(e).

        The expanded form cancels catastrophically near exact
        reconstruction; this one stays accurate there. Its certificate
        takes G as A^T A exactly as _mm forms it, so a tall objective,
        whose G is E^T M, forms A^T A here.
        """
        if m is not None:
            g = _mm(a.T, a)
        return _lowrank_sq_error(self.vs, a, e.T, grams=(g, c))


def reconstruction_loss(v, stack: EncoderStack) -> float:
    """|| V - decode(encode(V)) ||_F^2, by _Objective.residual: the split
    form of matrix._lowrank_sq_error in O(nnz(V) k_L + (n + p) k_L^2), or
    the direct O(n p k_L) residual over row blocks of V where the split
    form's rounding bound would exceed the direct one's (a model that
    explains most of ||V||^2) or V is more than 1/16 dense."""
    _instance("stack", stack, EncoderStack)
    obj = _Objective(_check_labels(v, stack.p).to_csr())
    e = stack.chain_t().T
    return obj.residual(e, *obj.expanded(e)[1:])


def _layer_gradients(mats, prefixes, g: np.ndarray) -> list[np.ndarray]:
    """Per-layer gradients P_l^T g S_l^T from the chain gradient g, where
    prefixes is _prefix_chain(mats)."""
    grads = []
    suffix = None                           # S_L is the identity
    for l in range(len(mats) - 1, -1, -1):
        gl = g if l == 0 else _mm(prefixes[l - 1].T, g)
        if suffix is not None:
            gl = _mm(gl, suffix.T)
        grads.append(gl)
        if l:                               # S_0 = E is never read
            suffix = mats[l] if suffix is None else _mm(mats[l], suffix)
    grads.reverse()
    return grads


def ae_gradient(v, stack: EncoderStack, layer_index: int) -> DenseMatrix:
    """Analytic dLoss/dH_l for the 1-based layer_index, Loss = ||V - V E E^T||_F^2."""
    layer_index = _integer("layer_index", layer_index, 1,
                           _instance("stack", stack, EncoderStack).depth)
    obj = _Objective(_check_labels(v, stack.p).to_csr())
    mats = [h.values for h in stack.layers]
    chain = _prefix_chain(mats)
    _, *state = obj.expanded(chain[-1])
    grads = _layer_gradients(mats, chain, obj.chain_gradient(chain[-1], *state))
    return DenseMatrix(_lock(grads[layer_index - 1]))


def _check_scale(obj: _Objective, g=None, c=None) -> None:
    """Raise TrainingDivergedError with epoch 0 unless ||V||^2 and, given
    G and C at the starting chain, tr(G) and tr(G C) are finite. Where one
    overflows, the labels' own scale is past float64's range before any
    step, so no learning rate mends it."""
    sums = {"||V||^2": obj.sq_norm}
    if g is not None:
        sums["tr(G)"] = float(np.trace(g))
        sums["tr(G C)"] = float(np.einsum("ij,ij->", g, c, optimize=False))
    if not np.isfinite(list(sums.values())).all():
        raise TrainingDivergedError(
            "the label values are too large for float64: at initialization "
            + ", ".join(f"{name} = {value:.3g}" for name, value in sums.items())
            + "; scale the labels down", epoch=0)


def _init_random(p, layer_dims, rng) -> list[np.ndarray]:
    # uniform(0, sqrt(1/k_l)) keeps chain products at O(1) scale
    widths = [p] + list(layer_dims)
    return [rng.uniform(0.0, np.sqrt(1.0 / widths[i + 1]),
                        size=(widths[i], widths[i + 1]))
            for i in range(len(layer_dims))]


def _rescale_init(obj: _Objective, layers: list[np.ndarray]) -> list[np.ndarray]:
    """Scale a fresh stack by the least-squares scalar fitting V E E^T to V.

    That scalar is s = <V, V E E^T> / ||V E E^T||^2 = tr(G) / tr(G C).
    Guarantees the starting loss is at most ||V||_F^2, so the all-zero
    stack (a fixpoint of the projected update) is never downhill from the
    start. Scale-free: each layer gets the L-th root of the chain factor.
    The stack is returned unscaled when tr(G C) is 0 or overflows; in the
    latter case train_autoencoder's _check_scale refuses it.
    """
    _, _, g, c, _ = obj.expanded(_prefix_chain(layers)[-1])
    den = float(np.einsum("ij,ij->", g, c, optimize=False))
    if not 0.0 < den < np.inf:
        return layers
    t = (float(np.trace(g)) / den) ** (0.5 / len(layers))
    return [h * t for h in layers]


def _init_nmf_greedy(v: LabelMatrix, layer_dims, rng) -> list[np.ndarray]:
    """Greedy layer seeding: NMF of V gives H_1 from the transposed
    coefficient factor, NMF of W_1 gives H_2, and so on. Columns are
    normalized to unit length so the tied decoder starts near projection
    scale."""
    layers = []
    current = v
    for k in layer_dims:
        sub_seed = int(rng.integers(0, 2**63))
        factors = nmf_factorize(current, NmfConfig(k=k, seed=sub_seed))
        h = factors.h.values.T.copy()       # (width, k)
        norms = np.sqrt(np.einsum("ij,ij->j", h, h, optimize=False))
        h /= np.where(norms > 0, norms, 1.0)
        layers.append(h)
        w = np.asarray(current.to_csr() @ h)
        current = LabelMatrix.from_dense_array(w)
    return layers


def train_autoencoder(v: LabelMatrix, cfg: AeTrainConfig) -> EncoderStack:
    """Fit the stack to the label matrix by projected gradient descent.

    All layers take one step per epoch from gradients evaluated at the
    current iterate, then are clamped at zero. The loss is recorded per
    epoch into the training trace (index 0 is the loss at initialization);
    the epochs use the expanded form of the loss, or the residual of
    _Objective.residual where the expanded form is down to rounding noise
    (see _NOISE_ULPS), and the last entry is always that residual, from the
    last epoch's A = V E, G and C, so it equals reconstruction_loss of the
    returned stack, which keeps that E, bitwise and no entry is negative.
    Stops when the relative change of those recorded losses falls below
    cfg.rel_tol or when max_epochs is reached. A non-finite loss, or a
    stack whose collapsed chain E ends all zero (a fixpoint of the clamped
    update, so training cannot leave it), raises TrainingDivergedError with
    the epoch index (the usual cause is a too-large learning rate). Labels
    so large that ||V||^2, or tr(G) or tr(G C) at the starting chain,
    overflow raise it with epoch 0 before any step (see _check_scale).
    """
    p = _check_labels(v).n_labels
    _check_widths(_instance("cfg", cfg, AeTrainConfig).layer_dims, p)

    rng = make_rng(cfg.seed)
    obj = _Objective(v.to_csr())
    _check_scale(obj)
    if cfg.init_scheme == "random-uniform":
        layers = _rescale_init(obj, _init_random(p, cfg.layer_dims, rng))
    else:
        layers = _init_nmf_greedy(v, cfg.layer_dims, rng)

    lr = cfg.learning_rate
    chain = _prefix_chain(layers)
    loss, *state = obj.expanded(chain[-1])      # state: A, G, C and M
    _check_scale(obj, *state[1:3])
    trace = [obj.accurate(loss, chain[-1], *state)]
    for epoch in range(1, cfg.max_epochs + 1):
        grads = _layer_gradients(layers, chain, obj.chain_gradient(chain[-1], *state))
        layers = [np.maximum(h - lr * gl, 0.0) for h, gl in zip(layers, grads)]
        chain = _prefix_chain(layers)
        cur, *state = obj.expanded(chain[-1])
        if not np.isfinite(cur):
            raise TrainingDivergedError(
                f"loss became non-finite at epoch {epoch}; "
                f"lower the learning rate (currently {lr})", epoch=epoch)
        cur = obj.accurate(cur, chain[-1], *state)
        prev = trace[-1]
        trace.append(cur)
        if abs(prev - cur) <= cfg.rel_tol * max(prev, 1e-300):
            break
    trace[-1] = obj.residual(chain[-1], *state)
    if not chain[-1].any():
        raise TrainingDivergedError(
            f"every entry of the collapsed chain E is zero after epoch {epoch}: "
            f"the steps clamped the stack to the all-zero model; lower the "
            f"learning rate (currently {lr})", epoch=epoch)
    stack = EncoderStack([DenseMatrix(_lock(h)) for h in layers], training_trace=trace)
    stack._set(_chain_t=_lock(np.ascontiguousarray(chain[-1].T)))
    return stack
