"""Explanations: label hierarchies from the coefficient stack, and
LIME-style local surrogates for single predictions.

A layer-l latent unit is explained structurally by expanding column
`unit` of H_l into its largest entries (units one layer down), recursing
to the named labels at layer 0. A prediction is explained locally by
perturbing the instance with binary feature masks, fitting a weighted
sparse linear surrogate to the black-box output, and reporting signed
feature weights plus the fit quality.
"""

from __future__ import annotations

import numpy as np

from .autoencoder import EncoderStack
from .errors import ConfigError, ShapeMismatchError, XlcError
from .matrix import RngSeed, _back_substitute, _mm, make_rng
from .pipeline import RegressorModel, _check_latent_dim, predict_latent, rank_labels


class HierarchyNode:
    """One node of the expanded label hierarchy.

    layer 0 nodes are original labels (label_name populated when names
    are available); layer l >= 1 nodes are latent units. weight is the
    parent's H-column entry for this node, 1.0 at the root. children are
    sorted by descending weight, ties by ascending unit index.
    """

    __slots__ = ("layer", "unit_index", "weight", "children", "label_name")

    def __init__(self, layer, unit_index, weight, children=(), label_name=None):
        if weight < 0:
            raise XlcError(f"hierarchy weight must be >= 0, got {weight}")
        self.layer = int(layer)
        self.unit_index = int(unit_index)
        self.weight = float(weight)
        self.children = tuple(children)
        self.label_name = label_name

    def to_dict(self) -> dict:
        d = {"layer": self.layer, "unit": self.unit_index, "weight": self.weight}
        if self.label_name is not None:
            d["label_name"] = self.label_name
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    def __repr__(self):
        tag = f"label {self.unit_index}" if self.layer == 0 else f"H{self.layer} unit {self.unit_index}"
        return f"HierarchyNode({tag}, weight={self.weight:.4g}, children={len(self.children)})"


def _label_text(node: HierarchyNode) -> str:
    return node.label_name if node.label_name is not None else f"label {node.unit_index}"


def render_hierarchy(node: HierarchyNode, indent: int = 0) -> str:
    """Line-oriented tree rendering; layer-1 nodes print their labels
    inline, e.g. "H1, unit 64: garlic, onion, chicken stock"."""
    pad = " " * indent
    if node.layer == 0:
        return f"{pad}{_label_text(node)} (weight {node.weight:.6g})"
    if all(c.layer == 0 for c in node.children):
        names = ", ".join(_label_text(c) for c in node.children)
        return f"{pad}H{node.layer}, unit {node.unit_index}: {names}"
    lines = [f"{pad}H{node.layer}, unit {node.unit_index}:"]
    lines += [render_hierarchy(c, indent + 2) for c in node.children]
    return "\n".join(lines)


def _per_level_counts(m, depth: int) -> list[int]:
    if np.isscalar(m):
        counts = [int(m)] * depth
    else:
        counts = [int(x) for x in m]
        if len(counts) < depth:
            raise ConfigError(
                f"m gives {len(counts)} levels but the expansion needs {depth}")
    if any(c < 1 for c in counts):
        raise ConfigError(f"every per-level m must be >= 1, got {counts}")
    return counts


def extract_hierarchy(stack: EncoderStack, layer: int, unit: int, m,
                      labels=None) -> HierarchyNode:
    """Expand a latent unit into its hierarchy down to layer 0.

    The children of a layer-l node are the up-to-m largest positive
    entries of column `unit` of H_l, interpreted as units of layer l-1.
    Weights are the raw H entries, never renormalized. m may be a single
    count or one count per expansion level, outermost first.
    """
    if not 1 <= layer <= stack.depth:
        raise XlcError(f"layer {layer} out of range [1, {stack.depth}]")
    width = stack.layers[layer - 1].cols
    if not 0 <= unit < width:
        raise XlcError(f"unit {unit} out of range [0, {width}) at layer {layer}")
    if labels is not None and len(labels) != stack.p:
        raise ShapeMismatchError(
            f"{len(labels)} label names for p={stack.p} labels")
    counts = _per_level_counts(m, layer)
    return _expand(stack, layer, unit, 1.0, counts, labels)


def _expand(stack, layer, unit, weight, counts, labels) -> HierarchyNode:
    if layer == 0:
        name = labels[unit] if labels is not None else None
        return HierarchyNode(0, unit, weight, label_name=name)
    col = stack.layers[layer - 1].values[:, unit]
    children = []
    for idx in rank_labels(col):
        if col[idx] <= 0 or len(children) == counts[0]:
            break
        children.append(
            _expand(stack, layer - 1, int(idx), float(col[idx]), counts[1:], labels))
    return HierarchyNode(layer, unit, weight, children=children)


class LimeConfig:
    """Perturbation and fit settings for the local surrogate.

    kernel_width None means the conventional 0.75 * sqrt(d). baseline is
    the value substituted for masked-off features, a scalar or one value
    per feature.
    """

    __slots__ = ("num_samples", "kernel_width", "k_features", "seed", "baseline")

    def __init__(self, num_samples: int = 1000, kernel_width=None,
                 k_features: int = 5, seed: RngSeed | int = 0, baseline=0.0):
        if num_samples < k_features + 2:
            raise ConfigError(
                f"num_samples {num_samples} must be >= k_features + 2 "
                f"= {k_features + 2}")
        if k_features < 1:
            raise ConfigError(f"k_features must be >= 1, got {k_features}")
        if kernel_width is not None and not kernel_width > 0:
            raise ConfigError(f"kernel_width must be > 0, got {kernel_width}")
        try:
            b = np.asarray(baseline, dtype=np.float64)
        except (TypeError, ValueError):
            b = None
        if b is None or b.ndim > 1 or not np.all(np.isfinite(b)):
            raise ConfigError(
                f"baseline must be a finite scalar or vector, got {baseline!r}")
        self.num_samples = int(num_samples)
        self.kernel_width = None if kernel_width is None else float(kernel_width)
        self.k_features = int(k_features)
        self.seed = RngSeed(seed)
        self.baseline = b


class SurrogateExplanation:
    """Sparse weighted-linear surrogate fitted around one instance.

    feature_weights holds at most k_features (index, signed weight)
    pairs, sorted by descending |weight|, ties by ascending index.
    degenerate marks a constant black-box output over the neighborhood
    (all weights zero, r2 reported as 0).
    """

    __slots__ = ("feature_weights", "intercept", "local_fit_r2", "target",
                 "degenerate")

    def __init__(self, feature_weights, intercept, local_fit_r2, target,
                 degenerate=False):
        self.feature_weights = tuple((int(i), float(w)) for i, w in feature_weights)
        self.intercept = float(intercept)
        if local_fit_r2 > 1.0 + 1e-12:
            raise XlcError(f"r2 {local_fit_r2} above 1")
        self.local_fit_r2 = min(float(local_fit_r2), 1.0)
        self.target = str(target)
        self.degenerate = bool(degenerate)

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "intercept": self.intercept,
            "local_fit_r2": self.local_fit_r2,
            "degenerate": self.degenerate,
            "feature_weights": [
                {"feature": i, "weight": w} for i, w in self.feature_weights],
        }


class _RowBlock:
    """A predict_fn that maps the whole S x d block of masked inputs to its
    S outputs in one call; row s of the result equals, bitwise, the output
    for row s alone."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn


def _forward_select(z: np.ndarray, y: np.ndarray, pi: np.ndarray, k: int,
                    ss_tot: float):
    """Greedy weighted least-squares forward selection of up to k columns
    of z, with an intercept; returns (selected, intercept, coefs).

    Modified Gram-Schmidt under the pi-weighted inner product <a, b> =
    sum(pi a b): q is the newest pi-orthonormal basis vector (the
    intercept's first), zt holds every candidate column with the basis
    projected out and r is the residual, so adding candidate j lowers the
    weighted rss by gain_j = <r, zt_j>^2 / <zt_j, zt_j>. Each step takes the
    first argmax of the gain (ties go to the lower index) while it lowers
    rss by more than 1e-15 ss_tot. A candidate whose projected norm has
    collapsed to rounding zero lies in the span already chosen and gains
    nothing. The vectors stay unscaled, so the rounding error of each sample
    is relative to its own values however small its weight. Every step is
    O(S d) work through _mm; the coefficients come from back-substitution
    on the R factor the steps built.
    """
    s, d = z.shape
    pi_row = pi.reshape(1, -1)
    zt = z.copy()
    floor = s * np.finfo(np.float64).eps * np.sqrt(_mm(pi_row, zt * zt)[0])
    r = y.copy()
    one_norm = np.sqrt(float(pi.sum()))
    q = np.full(s, 1.0 / one_norm)
    selected: list[int] = []
    r_rows, qty = [], []
    while True:
        pq = (pi * q).reshape(1, -1)
        c = _mm(pq, zt)[0]
        r_rows.append(c)
        zt -= np.multiply.outer(q, c)
        if selected:
            zt[:, selected[-1]] = 0.0
        qty.append(_mm(pq, r.reshape(-1, 1))[0])
        r -= qty[-1] * q
        if len(selected) == k:
            break
        norm = np.sqrt(_mm(pi_row, zt * zt)[0])
        live = norm > floor
        gain = np.zeros(d)
        gain[live] = (_mm((pi * r).reshape(1, -1), zt)[0][live] / norm[live]) ** 2
        j = int(np.argmax(gain))
        if not gain[j] > 1e-15 * ss_tot:
            break
        selected.append(j)
        q = zt[:, j] / norm[j]
    # R of the design [1, z[:, selected]]
    rf = np.zeros((len(r_rows), len(r_rows)))
    rf[0, 0] = one_norm
    rf[:, 1:] = np.array(r_rows)[:, selected]
    beta = _back_substitute(rf, np.array(qty))[:, 0]
    return selected, float(beta[0]), beta[1:]


def lime_explain(x_row, predict_fn, cfg: LimeConfig) -> SurrogateExplanation:
    """Fit a sparse local linear surrogate to predict_fn around x_row.

    Draws num_samples binary masks (each feature kept with probability
    1/2), evaluates predict_fn on the masked inputs, one row per call,
    weighs samples by exp(-hamming(z, all-ones)^2 / kernel_width^2),
    rescaled so the largest weight is 1, picks k_features greedily by
    weighted residual reduction and fits weighted least squares on the
    selected set (see _forward_select). Deterministic given the seed.
    """
    x = np.ascontiguousarray(x_row, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ShapeMismatchError(f"x_row must be a non-empty vector, got shape {x.shape}")
    d = x.size
    k = min(cfg.k_features, d)
    kw = cfg.kernel_width if cfg.kernel_width is not None else 0.75 * np.sqrt(d)
    if cfg.baseline.ndim == 1 and cfg.baseline.size != d:
        raise ShapeMismatchError(
            f"baseline has {cfg.baseline.size} values for {d} features")

    rng = make_rng(cfg.seed)
    z = (rng.random((cfg.num_samples, d)) < 0.5).astype(np.float64)
    masked = z * x + (1.0 - z) * cfg.baseline
    if isinstance(predict_fn, _RowBlock):
        y = np.asarray(predict_fn.fn(masked), dtype=np.float64)
    else:
        y = np.empty(cfg.num_samples)
        for s in range(cfg.num_samples):
            y[s] = float(predict_fn(masked[s]))
    if not np.all(np.isfinite(y)):
        raise XlcError("predict_fn returned a non-finite value")

    ham = d - z.sum(axis=1)
    h2 = ham * ham
    # shifted so the nearest sample weighs 1: unshifted, the weights
    # underflow to 0 at large d; the fit does not depend on their scale
    pi = np.exp(-(h2 - h2.min()) / (kw * kw))

    y_bar = float((pi * y).sum() / pi.sum())
    ss_tot = float((pi * (y - y_bar) ** 2).sum())
    # constant outputs leave only rounding residue in ss_tot (y_bar itself
    # carries an O(eps * |y|) error), so compare against that noise floor
    noise = (16.0 * np.finfo(np.float64).eps * max(1.0, abs(y_bar))) ** 2
    if ss_tot <= float(pi.sum()) * noise:
        return SurrogateExplanation((), y_bar, 0.0, "predict_fn",
                                    degenerate=True)

    selected, intercept, coefs = _forward_select(z, y, pi, k, ss_tot)
    if not selected:
        # nothing reduced the residual: report an honest zero-weight fit
        return SurrogateExplanation((), y_bar, 0.0, "predict_fn",
                                    degenerate=True)
    resid = y - intercept - _mm(z[:, selected], coefs.reshape(-1, 1))[:, 0]
    rss = float((pi * resid * resid).sum())
    order = sorted(range(len(selected)),
                   key=lambda i: (-abs(coefs[i]), selected[i]))
    pairs = [(selected[i], coefs[i]) for i in order]
    r2 = 1.0 - rss / ss_tot
    return SurrogateExplanation(pairs, intercept, r2, "predict_fn")


class Explanation:
    """Bundled per-instance report: local surrogate plus the hierarchy
    of the implicated latent unit."""

    __slots__ = ("latent_unit", "latent_value", "surrogate", "hierarchy",
                 "degenerate")

    def __init__(self, latent_unit, latent_value, surrogate, hierarchy,
                 degenerate):
        self.latent_unit = int(latent_unit)
        self.latent_value = float(latent_value)
        self.surrogate = surrogate
        self.hierarchy = hierarchy
        self.degenerate = bool(degenerate)

    def to_dict(self) -> dict:
        return {
            "latent_unit": self.latent_unit,
            "latent_value": self.latent_value,
            "degenerate": self.degenerate,
            "surrogate": self.surrogate.to_dict(),
            "hierarchy": self.hierarchy.to_dict(),
        }

    def to_text(self) -> str:
        lines = [f"explained latent unit: {self.latent_unit} "
                 f"(predicted value {self.latent_value:.6g})"]
        if self.degenerate:
            lines.append("note: latent prediction is all zero; unit chosen by tie-break")
        lines.append(f"local fit r2: {self.surrogate.local_fit_r2:.6g}")
        if self.surrogate.degenerate:
            lines.append("note: constant output over the perturbation neighborhood")
        lines.append("feature weights:")
        for i, w in self.surrogate.feature_weights:
            lines.append(f"  feature {i}: {w:+.6g}")
        lines.append("label hierarchy:")
        lines.append(render_hierarchy(self.hierarchy, indent=2))
        return "\n".join(lines)


class ExplainConfig:
    """Settings for a full prediction explanation."""

    __slots__ = ("lime", "hierarchy_m", "label_names")

    def __init__(self, lime: LimeConfig | None = None, hierarchy_m=5,
                 label_names=None):
        self.lime = lime if lime is not None else LimeConfig()
        self.hierarchy_m = hierarchy_m
        self.label_names = label_names


def explain_prediction(x_row, m: RegressorModel, stack: EncoderStack,
                       cfg: ExplainConfig | None = None) -> Explanation:
    """Explain one instance: surrogate for the top latent unit's output,
    plus that unit's label hierarchy.

    The explained scalar is predict_latent(.)[top unit]; a zero latent
    prediction targets unit 0 by tie-break and is flagged degenerate.
    """
    cfg = cfg if cfg is not None else ExplainConfig()
    _check_latent_dim(m, stack)
    latent = predict_latent(x_row, m)
    unit = int(np.argmax(latent))            # first max wins: ascending tie-break
    degenerate = bool(latent[unit] == 0.0)

    block = _RowBlock(lambda rows: predict_latent(rows, m)[:, unit])
    surrogate = lime_explain(x_row, block, cfg.lime)
    surrogate = SurrogateExplanation(
        surrogate.feature_weights, surrogate.intercept,
        surrogate.local_fit_r2, f"latent unit {unit}", surrogate.degenerate)
    hierarchy = extract_hierarchy(stack, stack.depth, unit, cfg.hierarchy_m,
                                  labels=cfg.label_names)
    return Explanation(unit, latent[unit], surrogate, hierarchy, degenerate)
