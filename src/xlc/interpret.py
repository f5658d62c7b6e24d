"""Explanations: label hierarchies from the coefficient stack, and
LIME-style local surrogates for single predictions.

A layer-l latent unit is explained structurally by expanding column
`unit` of H_l into its largest entries (units one layer down), recursing
to the named labels at layer 0. A prediction is explained locally by
perturbing the instance with binary masks over its support, fitting a
weighted sparse linear surrogate to the black-box output, and reporting
signed feature weights plus the fit quality.
"""

from __future__ import annotations

import numpy as np

from .autoencoder import EncoderStack
from .errors import ConfigError, ShapeMismatchError, _array, _instance, _integer, _names, _real
from .matrix import _ReadOnly, _back_substitute, _lock, _mm, make_rng
from .pipeline import RegressorModel, _check_latent_dim, _top_n, predict_latent

# the children per node of an explanation's hierarchy, and xlc hierarchy's
# default --top-m
_HIERARCHY_M = 5


class HierarchyNode(_ReadOnly):
    """One node of the expanded label hierarchy, read-only, so that every
    explanation of a unit can share one tree.

    layer 0 nodes are original labels (label_name populated when names
    are available); layer l >= 1 nodes are latent units. weight is the
    parent's H-column entry for this node, 1.0 at the root. children are
    sorted by descending weight, ties by ascending unit index.
    """

    __slots__ = ("layer", "unit_index", "weight", "children", "label_name")

    def __init__(self, layer, unit_index, weight, children=(), label_name=None):
        self._set(layer=_integer("layer", layer, 0),
                  unit_index=_integer("unit_index", unit_index, 0),
                  weight=_real("weight", weight, 0.0), children=tuple(children),
                  label_name=label_name)

    def __reduce__(self):
        return HierarchyNode, (self.layer, self.unit_index, self.weight, self.children,
                               self.label_name)

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
    if _instance("node", node, HierarchyNode).layer == 0:
        return f"{pad}{_label_text(node)} (weight {node.weight:.6g})"
    if all(c.layer == 0 for c in node.children):
        names = ", ".join(_label_text(c) for c in node.children)
        return f"{pad}H{node.layer}, unit {node.unit_index}: {names}"
    lines = [f"{pad}H{node.layer}, unit {node.unit_index}:"]
    lines += [render_hierarchy(c, indent + 2) for c in node.children]
    return "\n".join(lines)


def extract_hierarchy(stack: EncoderStack, layer: int, unit: int, m: int,
                      labels=None) -> HierarchyNode:
    """Expand a latent unit into its hierarchy down to layer 0.

    The children of a layer-l node are the up-to-m largest positive
    entries of column `unit` of H_l, interpreted as units of layer l-1;
    m is one count >= 1, the same at every level. Weights are the raw H
    entries, never renormalized. The tree is read-only and may be shared:
    the stack keeps it (see _expand).
    """
    layer = _integer("layer", layer, 1, _instance("stack", stack, EncoderStack).depth)
    unit = _integer("unit", unit, 0, stack.layers[layer - 1].cols - 1)
    if labels is not None:
        labels = _names("labels", labels, stack.p)
    return _expand(stack, layer, unit, _integer("m", m, 1), labels)


def _expand(stack, layer, unit, m, labels) -> HierarchyNode:
    """The node of `unit` in `layer` and its subtree. The stack keeps one
    (m, ranking, unnamed tree) per (layer, unit), for the m of the last
    request that ranked it: a request with another m ranks the unit again
    and replaces them, so the stack holds at most one tree per latent unit.
    A request with labels builds a named tree from the kept ranking. Two
    threads that miss at once both rank the unit, and keep equal trees."""
    kept = stack._hierarchies.get((layer, unit))
    if kept is None or kept[0] != m:
        levels = _rank_levels(stack, layer, unit, m)
        kept = stack._hierarchies[layer, unit] = (m, levels, _tree(layer, unit, levels, None))
    return kept[2] if labels is None else _tree(layer, unit, kept[1], labels)


def _rank_levels(stack, layer, unit, m) -> list:
    """For each expansion level, outermost first, the (unit, weight)
    children of each unit chosen one level up, in the order a depth-first
    walk meets those units. The columns of every unit chosen at one level
    are ranked in one _top_n call."""
    levels, units = [], [unit]
    for depth in range(layer, 0, -1):
        tops = [[(j, w) for j, w in top if w > 0]
                for top in _top_n(stack.layers[depth - 1].values.T[units], m)]
        levels.append(tops)
        units = [j for top in tops for j, _ in top]
    return levels


def _tree(layer, unit, levels, labels) -> HierarchyNode:
    """The tree of _rank_levels' levels, its leaves named by labels if given:
    a depth-first walk takes each level's children lists in turn."""
    walk = [iter(tops) for tops in levels]

    def node(depth, j, w):
        if depth == 0:
            return HierarchyNode(0, j, w, label_name=None if labels is None else labels[j])
        return HierarchyNode(depth, j, w, children=[
            node(depth - 1, i, v) for i, v in next(walk[layer - depth])])

    return node(layer, unit, 1.0)


class LimeConfig:
    """Perturbation and fit settings for the local surrogate.

    num_samples must be at least k_features + 2. baseline is the one
    finite value substituted for every masked-off feature.
    """

    __slots__ = ("num_samples", "k_features", "seed", "baseline")

    def __init__(self, num_samples: int = 1000, k_features: int = 5, seed: int = 0,
                 baseline: float = 0.0):
        self.k_features = _integer("k_features", k_features, 1)
        self.num_samples = _integer("num_samples", num_samples, self.k_features + 2)
        self.seed = _integer("seed", seed, 0, 2**64 - 1)
        self.baseline = _real("baseline", baseline, -np.inf)


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
            raise ConfigError(f"r2 {local_fit_r2} above 1")
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


def _feature_row(x_row) -> np.ndarray:
    """x_row as a finite float64 vector, which must be non-empty."""
    x = _array("x_row", x_row, (None,))
    if x.size == 0:
        raise ShapeMismatchError("x_row must be a non-empty vector, got shape (0,)")
    return x


def lime_explain(x_row, predict_fn, cfg: LimeConfig) -> SurrogateExplanation:
    """Fit a sparse local linear surrogate to predict_fn around x_row.

    The candidates are x_row's support c: the d' features where x_row
    differs from the baseline b. Masking any other feature leaves the input
    as it is, so a weight on one would fit nothing (LIME's interpretable
    representation). Draws num_samples binary masks z over c (each feature
    kept with probability 1/2) and calls predict_fn once, on the
    num_samples x d block of rows that hold b, save columns c, which hold
    z x_c + (1 - z) b, for a vector of num_samples outputs (row s of the
    block gives output s). Weighs samples by exp(-hamming(z, all-ones)^2 /
    w^2) with the conventional kernel width w = 0.75 sqrt(d'), rescaled so
    the largest weight is 1, picks up to k_features of c greedily by
    weighted residual reduction and fits weighted least squares on the
    selected set (see _forward_select): O(S d' k) work besides predict_fn.
    A row with no support still makes the one predict_fn call and is
    explained as degenerate. Deterministic given the seed.
    """
    x = _feature_row(x_row)
    b = _instance("cfg", cfg, LimeConfig).baseline
    if not callable(predict_fn):
        raise ConfigError(f"predict_fn must be callable, got {type(predict_fn).__name__}")
    support = np.flatnonzero(x != b)
    d_sup = support.size
    k = min(cfg.k_features, d_sup)

    rng = make_rng(cfg.seed)
    z = (rng.random((cfg.num_samples, d_sup)) < 0.5).astype(np.float64)
    masked = np.full((cfg.num_samples, x.size), b)
    masked[:, support] = z * x[support] + (1.0 - z) * b
    y = _array("predict_fn output", predict_fn(masked), (cfg.num_samples,))
    if d_sup == 0:
        # every row of the block is x_row itself: nothing to vary
        return SurrogateExplanation((), float(y.mean()), 0.0, "predict_fn",
                                    degenerate=True)

    kw = 0.75 * np.sqrt(d_sup)
    ham = d_sup - z.sum(axis=1)
    h2 = ham * ham
    # shifted so the nearest sample weighs 1: unshifted, the weights
    # underflow to 0 at large d'; the fit does not depend on their scale
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
    pairs = [(support[selected[i]], coefs[i]) for i in order]
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
    """Settings for a full prediction explanation: its hierarchy takes
    _HIERARCHY_M children per node."""

    __slots__ = ("lime", "label_names")

    def __init__(self, lime: LimeConfig | None = None, label_names=None):
        self.lime = LimeConfig() if lime is None else _instance("lime", lime, LimeConfig)
        self.label_names = None if label_names is None else _names("label_names", label_names)


def explain_prediction(x_row, m: RegressorModel, stack: EncoderStack,
                       cfg: ExplainConfig | None = None) -> Explanation:
    """Explain one instance: surrogate for the top latent unit's output,
    plus that unit's label hierarchy.

    The explained scalar is predict_latent(.)[top unit]; a zero latent
    prediction targets unit 0 by tie-break and is flagged degenerate.

    With a zero baseline the surrogate is lime_explain's on x_row
    restricted to its nonzeros, with the model restricted to the matching
    rows of theta. Every other column is 0 in every perturbed row and adds
    an exact +-0 to each product (theta is finite), which _mm sums in
    ascending feature order when k >= 2, so the explanation is bitwise the
    one of the whole row, while predicting the S samples costs O(S k) per
    nonzero instead of per feature. With k = 1 _mm's summation order
    depends on the column count, and a nonzero baseline can be masked into
    every column, so both keep every column.
    """
    cfg = ExplainConfig() if cfg is None else _instance("cfg", cfg, ExplainConfig)
    x_row = _feature_row(x_row)
    _check_latent_dim(m, stack)
    latent = predict_latent(x_row, m)
    unit = int(np.argmax(latent))            # first max wins: ascending tie-break
    degenerate = bool(latent[unit] == 0.0)

    cols = np.flatnonzero(x_row)
    if cfg.lime.baseline != 0.0 or m.output_dim < 2 or cols.size == 0:
        cols = np.arange(x_row.size)
    sub = RegressorModel(m.kind, cols.size, m.output_dim,
                         {"theta": _lock(m.params["theta"][cols]),
                          "intercept": m.params["intercept"]})
    surrogate = lime_explain(
        x_row[cols], lambda rows: predict_latent(rows, sub)[:, unit], cfg.lime)
    surrogate = SurrogateExplanation(
        [(cols[i], w) for i, w in surrogate.feature_weights], surrogate.intercept,
        surrogate.local_fit_r2, f"latent unit {unit}", surrogate.degenerate)
    hierarchy = extract_hierarchy(stack, stack.depth, unit, _HIERARCHY_M,
                                  labels=cfg.label_names)
    return Explanation(unit, latent[unit], surrogate, hierarchy, degenerate)
