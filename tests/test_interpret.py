"""Label hierarchies and LIME-style local surrogates."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xlc.interpret
from xlc import (
    ConfigError,
    DenseMatrix,
    EncoderStack,
    ExplainConfig,
    LimeConfig,
    RegressorModel,
    ShapeMismatchError,
    XlcError,
    explain_prediction,
    extract_hierarchy,
    lime_explain,
    predict_latent,
    rank_labels,
    render_hierarchy,
)
from xlc.interpret import _forward_select

# 6 labels -> 2 units, block-diagonal: unit 0 draws on labels 0-2, unit 1 on 3-5
BLOCK_H1 = DenseMatrix(
    np.array(
        [
            [0.9, 0.0],
            [0.7, 0.0],
            [0.2, 0.0],
            [0.0, 0.8],
            [0.0, 0.3],
            [0.0, 0.5],
        ]
    )
)


# ---------------------------------------------------------------- hierarchy


def test_identity_factor_yields_single_exact_label():
    stack = EncoderStack([DenseMatrix(np.eye(5)[:, :3])])
    for j in range(3):
        node = extract_hierarchy(stack, 1, j, m=5)
        assert node.layer == 1 and node.unit_index == j
        assert len(node.children) == 1
        child = node.children[0]
        assert (child.layer, child.unit_index, child.weight) == (0, j, 1.0)


def test_block_diagonal_children_stay_in_block():
    stack = EncoderStack([BLOCK_H1])
    left = extract_hierarchy(stack, 1, 0, m=6)
    right = extract_hierarchy(stack, 1, 1, m=6)
    assert {c.unit_index for c in left.children} == {0, 1, 2}
    assert {c.unit_index for c in right.children} == {3, 4, 5}


def test_children_sorted_by_weight_and_weights_are_h_entries():
    stack = EncoderStack([BLOCK_H1])
    node = extract_hierarchy(stack, 1, 0, m=6)
    weights = [c.weight for c in node.children]
    assert weights == sorted(weights, reverse=True)
    col = BLOCK_H1.values[:, 0]
    for c in node.children:
        assert c.weight == col[c.unit_index]


def test_full_width_expansion_reproduces_positive_column():
    stack = EncoderStack([BLOCK_H1])
    node = extract_hierarchy(stack, 1, 1, m=6)
    col = BLOCK_H1.values[:, 1]
    assert len(node.children) == int((col > 0).sum())
    assert sum(c.weight for c in node.children) == pytest.approx(col[col > 0].sum())


def test_weight_ties_break_by_ascending_index():
    h = DenseMatrix(np.array([[0.5], [0.9], [0.5], [0.0]]))
    node = extract_hierarchy(EncoderStack([h]), 1, 0, m=3)
    assert [c.unit_index for c in node.children] == [1, 0, 2]


def test_two_layer_expansion_with_per_level_counts():
    h2 = DenseMatrix(np.array([[0.6], [0.4]]))
    stack = EncoderStack([BLOCK_H1, h2])
    node = extract_hierarchy(stack, 2, 0, m=(2, 2))
    assert node.layer == 2
    assert [c.unit_index for c in node.children] == [0, 1]
    for c in node.children:
        assert len(c.children) == 2
        assert all(g.layer == 0 for g in c.children)


def _expand_by_full_sort(stack, layer, unit, weight, counts, labels):
    """The definition: walk the whole column in rank_labels order and keep
    the first counts[0] positive entries."""
    node = {"layer": layer, "unit": unit, "weight": weight}
    if layer == 0:
        if labels is not None:
            node["label_name"] = labels[unit]
        return node
    col = stack.layers[layer - 1].values[:, unit]
    children = []
    for idx in rank_labels(col):
        if col[idx] <= 0 or len(children) == counts[0]:
            break
        children.append(_expand_by_full_sort(stack, layer - 1, int(idx), float(col[idx]),
                                             counts[1:], labels))
    if children:
        node["children"] = children
    return node


@settings(max_examples=200, deadline=None)
@given(data=st.data(), widths=st.lists(st.integers(1, 9), min_size=1, max_size=3,
                                       unique=True).map(sorted),
       p=st.integers(10, 14), named=st.booleans())
def test_hierarchy_matches_the_full_sort_expansion_on_tie_heavy_columns(data, widths, p,
                                                                         named):
    # entries from {0, 0.25, 0.5, 1}: many ties, zeros and columns with
    # fewer positive entries than m
    dims = [p] + widths[::-1]
    layers = [DenseMatrix(data.draw(st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=a * b, max_size=a * b)
        .map(lambda v, a=a, b=b: np.reshape(v, (a, b)))))
        for a, b in zip(dims, dims[1:])]
    stack = EncoderStack(layers)
    layer = data.draw(st.integers(1, stack.depth))
    unit = data.draw(st.integers(0, stack.layers[layer - 1].cols - 1))
    counts = data.draw(st.lists(st.integers(1, p + 1), min_size=layer, max_size=layer))
    labels = [f"l{j}" for j in range(p)] if named else None
    got = extract_hierarchy(stack, layer, unit, counts, labels=labels).to_dict()
    assert got == _expand_by_full_sort(stack, layer, unit, 1.0, counts, labels)


def test_hierarchy_index_validation():
    stack = EncoderStack([BLOCK_H1])
    with pytest.raises(XlcError):
        extract_hierarchy(stack, 0, 0, m=3)
    with pytest.raises(XlcError):
        extract_hierarchy(stack, 2, 0, m=3)
    with pytest.raises(XlcError):
        extract_hierarchy(stack, 1, 2, m=3)
    with pytest.raises(ConfigError):
        extract_hierarchy(stack, 1, 0, m=0)
    with pytest.raises(ConfigError):
        # two expansion levels requested but only one count given
        extract_hierarchy(EncoderStack([BLOCK_H1, DenseMatrix([[0.6], [0.4]])]),
                          2, 0, m=(3,))


def test_render_flat_node_inlines_label_names():
    names = ["garlic", "onion", "chicken stock", "silverside", "garlic bread", "x"]
    stack = EncoderStack([BLOCK_H1])
    node = extract_hierarchy(stack, 1, 0, m=3, labels=names)
    assert render_hierarchy(node) == "H1, unit 0: garlic, onion, chicken stock"


def test_render_nested_node_indents_levels():
    h2 = DenseMatrix(np.array([[0.6], [0.4]]))
    stack = EncoderStack([BLOCK_H1, h2])
    node = extract_hierarchy(stack, 2, 0, m=(2, 1))
    text = render_hierarchy(node)
    lines = text.splitlines()
    assert lines[0] == "H2, unit 0:"
    assert lines[1].startswith("  H1, unit 0: ")


# ---------------------------------------------------------------- lime


def linear_fn(coefs):
    c = np.asarray(coefs, dtype=float)
    return lambda rows: rows @ c


def test_lime_recovers_linear_model_exactly():
    d = 6
    coefs = np.array([2.0, -1.0, 0.5, 0.0, 3.0, -0.25])
    x = np.ones(d)
    cfg = LimeConfig(num_samples=400, k_features=d, seed=0)
    exp = lime_explain(x, linear_fn(coefs), cfg)
    assert exp.local_fit_r2 == pytest.approx(1.0, abs=1e-9)
    got = dict(exp.feature_weights)
    for j in range(d):
        if coefs[j] == 0.0:
            assert abs(got.get(j, 0.0)) < 1e-9
        else:
            assert got[j] == pytest.approx(coefs[j], rel=1e-9)


def test_lime_k1_selects_dominant_feature():
    # f(z) = 3 * x_2 * z_2: the only informative feature, weight ~ 3 * x[2]
    x = np.array([1.0, 1.0, 2.0, 1.0])
    cfg = LimeConfig(num_samples=500, k_features=1, seed=3)
    exp = lime_explain(x, lambda rows: 3.0 * rows[:, 2], cfg)
    assert len(exp.feature_weights) == 1
    idx, weight = exp.feature_weights[0]
    assert idx == 2
    assert weight == pytest.approx(3.0 * x[2], rel=0.05)


def test_lime_weight_ranking_matches_true_coefficients():
    rng = np.random.default_rng(7)
    coefs = rng.uniform(0.5, 5.0, size=8) * rng.choice([-1.0, 1.0], size=8)
    x = np.ones(8)
    cfg = LimeConfig(num_samples=1000, k_features=8, seed=5)
    exp = lime_explain(x, linear_fn(coefs), cfg)
    got_order = [i for i, _ in exp.feature_weights]
    true_order = sorted(range(8), key=lambda j: (-abs(coefs[j]), j))
    assert got_order == true_order


def test_lime_deterministic():
    x = np.ones(5)
    fn = linear_fn([1.0, 2.0, 3.0, 4.0, 5.0])
    cfg = LimeConfig(num_samples=300, k_features=3, seed=11)
    e1 = lime_explain(x, fn, cfg)
    e2 = lime_explain(x, fn, cfg)
    assert e1.feature_weights == e2.feature_weights
    assert e1.intercept == e2.intercept
    assert e1.local_fit_r2 == e2.local_fit_r2


def test_lime_constant_function_is_degenerate_not_an_error():
    exp = lime_explain(np.ones(4), lambda rows: np.full(len(rows), 7.0),
                       LimeConfig(num_samples=100, seed=0))
    assert exp.degenerate
    assert exp.feature_weights == ()
    assert exp.local_fit_r2 == 0.0
    assert exp.intercept == pytest.approx(7.0)


def test_lime_weights_do_not_underflow_at_large_d():
    # the default kernel width 0.75 sqrt(d) makes exp(-h^2 / kw^2) about
    # exp(-0.44 d) at the typical distance h ~ d/2, so at d = 3000 every
    # unshifted weight underflows to 0 and the fit divides 0 by 0
    d = 3000
    coefs = np.random.default_rng(4).normal(size=d)
    cfg = LimeConfig(num_samples=50, k_features=3, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exp = lime_explain(np.ones(d), linear_fn(coefs), cfg)
    assert not exp.degenerate
    assert np.isfinite(exp.intercept)
    assert np.isfinite(exp.local_fit_r2)
    assert len(exp.feature_weights) == 3


def test_lime_selection_is_sparse_and_duplicate_free():
    x = np.ones(10)
    cfg = LimeConfig(num_samples=400, k_features=4, seed=2)
    exp = lime_explain(x, linear_fn(np.arange(10.0)), cfg)
    picked = [i for i, _ in exp.feature_weights]
    assert len(picked) <= 4
    assert len(set(picked)) == len(picked)
    mags = [abs(w) for _, w in exp.feature_weights]
    assert mags == sorted(mags, reverse=True)


def test_lime_rejects_non_finite_outputs():
    with pytest.raises(XlcError):
        lime_explain(np.ones(3), lambda rows: np.full(len(rows), np.nan),
                     LimeConfig(num_samples=50, seed=0))


@pytest.mark.parametrize("result", [lambda rows: ["a"] * len(rows),
                                    lambda rows: [[1.0, 2.0], [3.0]]],
                         ids=["strings", "ragged"])
def test_lime_rejects_outputs_that_are_not_numbers(result):
    with pytest.raises(ConfigError, match="^predict_fn output must be a numeric array, got list$"):
        lime_explain(np.ones(3), result, LimeConfig(num_samples=50, seed=0))


@pytest.mark.parametrize("shape", [(50, 1), (), (49,)],
                         ids=["column", "scalar", "one-short"])
def test_lime_rejects_outputs_not_one_per_row(shape):
    # an (S, 1) result would otherwise broadcast against the (S,) weights
    with pytest.raises(ShapeMismatchError, match=r"^predict_fn output must have shape \(50,\), "
                                                 r"got shape \((50, 1|49,|)\)$"):
        lime_explain(np.ones(3), lambda rows: np.ones(shape),
                     LimeConfig(num_samples=50, seed=0))


def test_lime_config_validation():
    with pytest.raises(ConfigError):
        LimeConfig(num_samples=5, k_features=5)
    with pytest.raises(ConfigError):
        LimeConfig(k_features=0)
    with pytest.raises(ConfigError):
        LimeConfig(kernel_width=0.0)
    with pytest.raises(ConfigError):
        LimeConfig(kernel_width=float("nan"))
    # a NaN baseline used to surface as "predict_fn returned a non-finite value"
    for baseline in (float("nan"), [0.0, float("inf")], "abc"):
        with pytest.raises(ConfigError):
            LimeConfig(baseline=baseline)
    with pytest.raises(ShapeMismatchError):
        LimeConfig(baseline=np.zeros((2, 2)))
    # a per-feature baseline of the wrong length used to fail in np.broadcast_to
    cfg = LimeConfig(num_samples=20, k_features=2, baseline=[0.0, 1.0, 2.0])
    with pytest.raises(ShapeMismatchError,
                       match=r"^baseline must have shape \(\) or \(2,\), got shape \(3,\)$"):
        lime_explain(np.array([2.0, 2.0]), linear_fn([1.0, 1.0]), cfg)
    lime_explain(np.array([2.0, 2.0, 2.0]), linear_fn([1.0, 1.0, 1.0]), cfg)


def test_lime_nonzero_baseline_shifts_neighborhood():
    # with baseline b, masked value is b not 0, so f(masked) = c*(z x + (1-z) b)
    x = np.array([2.0, 2.0])
    fn = linear_fn([1.0, 1.0])
    cfg0 = LimeConfig(num_samples=200, k_features=2, seed=9, baseline=0.0)
    cfg1 = LimeConfig(num_samples=200, k_features=2, seed=9, baseline=1.0)
    e0 = lime_explain(x, fn, cfg0)
    e1 = lime_explain(x, fn, cfg1)
    # weight = contribution of switching the feature on: x_j - baseline_j
    assert dict(e0.feature_weights)[0] == pytest.approx(2.0, rel=1e-6)
    assert dict(e1.feature_weights)[0] == pytest.approx(1.0, rel=1e-6)


@pytest.mark.parametrize("per_feature", [False, True], ids=["scalar", "per-feature"])
def test_lime_on_a_sparse_row_picks_its_support_in_true_order(per_feature):
    # a feature where x equals the baseline cannot change the input, so
    # only the support may be reported; masks over all d = 300 features
    # would sit about 150 flips from x, where the 0.75 sqrt(d) kernel
    # leaves about 1.5 effective samples of the 1000
    rng = np.random.default_rng(17)
    d = 300
    coefs = rng.normal(size=d)
    b = rng.uniform(-1.0, 1.0, size=d) if per_feature else np.zeros(d)
    support = np.sort(rng.choice(d, size=8, replace=False))
    effect = np.zeros(d)
    effect[support] = [4.0, -3.2, 2.5, -1.9, 1.4, 0.9, -0.5, 0.2]
    x = b.copy()
    x[support] += effect[support] / coefs[support]     # coef_j (x_j - b_j) = effect_j
    cfg = LimeConfig(num_samples=1000, k_features=5, seed=0,
                     baseline=b if per_feature else 0.0)
    exp = lime_explain(x, linear_fn(coefs), cfg)
    true_top = sorted(support, key=lambda j: (-abs(effect[j]), j))[:5]
    assert [i for i, _ in exp.feature_weights] == true_top
    assert all(np.sign(w) == np.sign(effect[i]) for i, w in exp.feature_weights)
    assert 0.9 < exp.local_fit_r2 < 1.0


@st.composite
def _support_cases(draw):
    d = draw(st.integers(1, 30))
    k = draw(st.integers(1, 6))
    s = draw(st.integers(k + 2, 120))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.1, 0.3, 0.7, 1.0]))
    per_feature = draw(st.booleans())
    width = draw(st.sampled_from([None, 0.5, 3.0]))
    return d, k, s, seed, density, per_feature, width


@settings(max_examples=80, deadline=None)
@given(_support_cases())
def test_lime_equals_lime_on_the_support_with_a_scattering_predict_fn(case):
    # the explanation of x is that of x restricted to its support c, with a
    # predict_fn that scatters each row back among the baseline values,
    # bit for bit, with each index mapped through c
    d, k, s, seed, density, per_feature, width = case
    rng = np.random.default_rng(seed)
    b = rng.uniform(-1.0, 1.0, size=d) if per_feature else np.full(d, 0.5)
    x = b.copy()
    on = rng.random(d) < density
    x[on] += rng.uniform(0.1, 2.0, size=on.sum()) * rng.choice([-1.0, 1.0], size=on.sum())
    w, u = rng.normal(size=d), rng.normal(size=d)

    def f(rows):
        return rows @ w + np.tanh(rows @ u) + rows[:, 0] * rows[:, -1]

    c = np.flatnonzero(x != b)
    if c.size == 0:
        return

    def scatter(rows):
        block = np.empty((rows.shape[0], d))
        block[:] = b
        block[:, c] = rows
        return block

    def cfg(base):
        return LimeConfig(num_samples=s, k_features=k, seed=seed, kernel_width=width,
                          baseline=base)

    full = lime_explain(x, f, cfg(b if per_feature else 0.5))
    part = lime_explain(x[c], lambda rows: f(scatter(rows)), cfg(b[c] if per_feature else 0.5))
    assert full.feature_weights == tuple((int(c[i]), wt) for i, wt in part.feature_weights)
    assert full.intercept == part.intercept
    assert full.local_fit_r2 == part.local_fit_r2
    assert full.degenerate == part.degenerate


@pytest.mark.parametrize("width", [None, 2.0], ids=["default-width", "width-2"])
@pytest.mark.parametrize("per_feature", [False, True], ids=["scalar", "per-feature"])
def test_lime_on_a_row_equal_to_its_baseline_is_degenerate(per_feature, width):
    # no feature can be masked: one predict_fn call on the whole block, and
    # no division by the default width 0.75 sqrt(0)
    b = np.linspace(-1.0, 1.0, 7) if per_feature else np.full(7, 0.25)
    blocks = []

    def f(rows):
        blocks.append(rows.copy())
        return rows.sum(axis=1)

    cfg = LimeConfig(num_samples=30, k_features=3, seed=4, kernel_width=width,
                     baseline=b if per_feature else 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exp = lime_explain(b.copy(), f, cfg)
    assert exp.degenerate and exp.feature_weights == () and exp.local_fit_r2 == 0.0
    assert exp.intercept == pytest.approx(b.sum())
    assert len(blocks) == 1 and blocks[0].shape == (30, 7)
    assert np.array_equal(blocks[0], np.tile(b, (30, 1)))


def _wls_rss(design, y, pi):
    """Oracle: weighted least squares with intercept by np.linalg.lstsq.

    Returns (coefs, intercept, weighted rss, delta). lstsq is backward
    stable for the sqrt(pi)-scaled system, so its weighted residual vector
    is off by up to about delta = 100 s eps (|A| |sol| + |b|), measured on
    the scaled A and b; when one weight dwarfs the rest that can exceed
    the whole rss.
    """
    root = np.sqrt(pi)
    a = np.concatenate([np.ones((design.shape[0], 1)), design], axis=1)
    aw, bw = a * root[:, None], y * root
    sol, *_ = np.linalg.lstsq(aw, bw, rcond=None)
    resid = y - a @ sol
    delta = 100 * y.size * np.finfo(np.float64).eps * (
        np.linalg.norm(aw) * np.linalg.norm(sol) + np.linalg.norm(bw))
    return sol[1:], sol[0], float((pi * resid * resid).sum()), delta


def _agree(fit_a, fit_b, margin=0.0):
    """Whether two oracle rss values are equal up to their rounding (plus
    margin): (rss, delta) pairs."""
    (ra, da), (rb, db) = fit_a, fit_b
    delta = da + db
    return abs(ra - rb) <= margin + 2 * delta * (np.sqrt(ra) + np.sqrt(rb)) + delta**2


def _oracle_step(z, y, pi, chosen, best_rss, ss_tot):
    """One step of forward selection by one lstsq fit per candidate:
    (the pick, or -1 to stop, and each candidate's (rss, delta))."""
    fits = {j: _wls_rss(z[:, chosen + [j]], y, pi)[2:]
            for j in range(z.shape[1]) if j not in chosen}
    pick, pick_rss = -1, best_rss
    for j, (r, _) in fits.items():
        if r < pick_rss - 1e-15 * ss_tot:
            pick, pick_rss = j, r
    return pick, fits


@st.composite
def _selection_cases(draw):
    d = draw(st.integers(1, 12))
    k = draw(st.integers(1, 5))
    s = draw(st.integers(k + 2, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    width = draw(st.sampled_from([None, 0.5, 2.0, 10.0]))
    target = draw(st.sampled_from(["linear", "interaction", "steps"]))
    return d, k, s, seed, width, target


@settings(max_examples=60, deadline=None)
@given(_selection_cases())
def test_forward_selection_matches_an_lstsq_oracle(case):
    d, k, s, seed, width, target = case
    rng = np.random.default_rng(seed)
    z = (rng.random((s, d)) < 0.5).astype(float)
    coefs = rng.normal(size=d) * (rng.random(d) < 0.6)
    y = z @ coefs + 0.1 * rng.normal(size=s)
    if target == "interaction":
        y = y + 2.0 * z[:, 0] * z[:, -1]
    elif target == "steps":
        y = np.round(y)
    kw = 0.75 * np.sqrt(d) if width is None else width
    ham = d - z.sum(axis=1)
    pi = np.exp(-(ham * ham) / (kw * kw))
    y_bar = (pi * y).sum() / pi.sum()
    ss_tot = float((pi * (y - y_bar) ** 2).sum())
    if not ss_tot > 0.0:
        return
    selected, intercept, got = _forward_select(z, y, pi, min(k, d), ss_tot)

    # walk the oracle along the chosen path; a different pick (or stop) is
    # allowed only where the oracle's two choices agree within rounding
    chosen, best = [], (ss_tot, 0.0)
    for step in range(min(k, d)):
        pick, fits = _oracle_step(z, y, pi, chosen, best[0], ss_tot)
        mine = selected[step] if step < len(selected) else -1
        if mine != pick:
            assert _agree(fits[mine] if mine >= 0 else best,
                          fits[pick] if pick >= 0 else best,
                          margin=1e-15 * ss_tot), (step, mine, pick)
            break
        if pick < 0:
            break
        chosen.append(pick)
        best = fits[pick]
    else:
        assert len(selected) == len(chosen)

    if selected:
        want, want_icpt, *want_fit = _wls_rss(z[:, selected], y, pi)
        rss = float((pi * (y - intercept - z[:, selected] @ got) ** 2).sum())
        assert rss <= want_fit[0] or _agree((rss, 0.0), want_fit)
        # both solves are normwise forward stable for least squares:
        # |dx| / |x| <= c eps (cond + cond^2 |r| / (|A| |x|)) on the scaled system
        aw = np.sqrt(pi)[:, None] * np.concatenate([np.ones((s, 1)), z[:, selected]], axis=1)
        cond, x_norm = np.linalg.cond(aw), np.linalg.norm(np.append(want, want_icpt))
        bound = cond + cond**2 * np.sqrt(want_fit[0]) / (np.linalg.norm(aw) * x_norm)
        if bound < 1e6:
            tol = 1e-13 * bound * x_norm
            assert np.abs(got - want).max() <= tol
            assert abs(intercept - want_icpt) <= tol


# ---------------------------------------------------------------- explain


def _stack_and_model():
    stack = EncoderStack([BLOCK_H1])
    # regressor passes its two inputs straight through to the two units
    model = RegressorModel(
        kind="ridge-linear", input_dim=2, output_dim=2,
        params={"theta": np.eye(2), "intercept": np.zeros(2)},
    )
    return stack, model


def test_explain_targets_top_unit_and_bundles_hierarchy():
    stack, model = _stack_and_model()
    exp = explain_prediction(
        np.array([0.2, 1.5]), model, stack,
        ExplainConfig(lime=LimeConfig(num_samples=200, k_features=2, seed=0)),
    )
    assert exp.latent_unit == 1
    assert not exp.degenerate
    assert exp.hierarchy.unit_index == 1
    assert {c.unit_index for c in exp.hierarchy.children} <= {3, 4, 5}
    assert exp.surrogate.target == "latent unit 1"
    # the unit-1 output is x[1] exactly, so feature 1 dominates
    assert exp.surrogate.feature_weights[0][0] == 1
    text = exp.to_text()
    assert "H1, unit 1:" in text
    assert "feature weights:" in text


def test_explain_zero_latent_flags_degenerate_unit_zero():
    stack, model = _stack_and_model()
    exp = explain_prediction(
        np.zeros(2), model, stack,
        ExplainConfig(lime=LimeConfig(num_samples=100, k_features=2, seed=0)),
    )
    assert exp.latent_unit == 0
    assert exp.degenerate
    assert exp.surrogate.degenerate
    assert "tie-break" in exp.to_text()


def test_explain_refuses_a_row_block_before_predicting():
    # a 1 x d block used to reach argmax over the 1 x k latent block and end
    # in a raw IndexError
    stack, model = _stack_and_model()
    with pytest.raises(ShapeMismatchError,
                       match=r"^x_row must have shape \(\*,\), got shape \(1, 2\)"):
        explain_prediction(np.array([[0.2, 1.5]]), model, stack)


@pytest.mark.parametrize("m", [0, [2, 0], 2.5, "5", None, []])
def test_explain_config_checks_hierarchy_m_at_construction(m):
    # a bad count used to pass until extract_hierarchy, after the LIME fit
    with pytest.raises(ConfigError, match="^hierarchy_m must be "):
        ExplainConfig(hierarchy_m=m)
    assert ExplainConfig(hierarchy_m=[3, np.int64(2)]).hierarchy_m == (3, 2)


def test_explain_dict_round_trips_through_json():
    import json

    stack, model = _stack_and_model()
    exp = explain_prediction(
        np.array([1.0, 0.0]), model, stack,
        ExplainConfig(lime=LimeConfig(num_samples=100, k_features=1, seed=4)),
    )
    blob = json.loads(json.dumps(exp.to_dict()))
    assert blob["latent_unit"] == 0
    assert blob["hierarchy"]["unit"] == 0
    assert blob["surrogate"]["feature_weights"][0]["feature"] == 0


def _random_model(d=12, k=3, seed=0):
    rng = np.random.default_rng(seed)
    stack = EncoderStack([DenseMatrix(rng.uniform(0.0, 1.0, size=(6, k)))])
    params = {"theta": rng.normal(size=(d, k)), "intercept": rng.uniform(0.5, 1.0, k)}
    model = RegressorModel("ridge-linear", d, k, params)
    return stack, model, rng.uniform(0.0, 2.0, size=d)


def test_explain_surrogate_equals_per_row_lime_bitwise():
    stack, model, x = _random_model()
    lime = LimeConfig(num_samples=300, k_features=4, seed=8)
    exp = explain_prediction(x, model, stack, ExplainConfig(lime=lime))
    unit = exp.latent_unit
    # reference: the model's single-row path, one row at a time
    ref = lime_explain(
        x, lambda rows: np.array([predict_latent(row, model)[unit] for row in rows]),
        lime)
    assert exp.surrogate.feature_weights == ref.feature_weights
    assert exp.surrogate.intercept == ref.intercept
    assert exp.surrogate.local_fit_r2 == ref.local_fit_r2
    assert exp.surrogate.degenerate == ref.degenerate


def test_explain_predicts_the_sample_block_in_one_call(monkeypatch):
    stack, model, x = _random_model()
    calls = []
    real = xlc.interpret.predict_latent
    monkeypatch.setattr(xlc.interpret, "predict_latent",
                        lambda rows, m: calls.append(np.shape(rows)) or real(rows, m))
    explain_prediction(x, model, stack,
                       ExplainConfig(lime=LimeConfig(num_samples=250, seed=1)))
    # once for the latent code, once for the whole mask block
    assert calls == [(12,), (250, 12)]
    # a user callable is called once, with the whole block too
    blocks = []
    lime_explain(x, lambda rows: blocks.append(rows.shape) or rows.sum(axis=1),
                 LimeConfig(num_samples=40, k_features=2, seed=1))
    assert blocks == [(40, 12)]


def _sparse_row_model(d, k, nnz, seed):
    """A random d -> k model, a row with nnz nonzero features and its stack."""
    rng = np.random.default_rng(seed)
    stack = EncoderStack([DenseMatrix(rng.uniform(0.0, 1.0, size=(k + 3, k)))])
    params = {"theta": rng.normal(size=(d, k)), "intercept": rng.uniform(0.5, 1.0, k)}
    x = np.zeros(d)
    x[rng.choice(d, nnz, replace=False)] = rng.uniform(0.1, 2.0, nnz)
    return stack, RegressorModel("ridge-linear", d, k, params), x


def test_explain_predicts_the_samples_on_the_rows_active_columns(monkeypatch):
    stack, model, x = _sparse_row_model(300, 8, 8, seed=3)
    calls = []
    real = xlc.interpret.predict_latent
    monkeypatch.setattr(xlc.interpret, "predict_latent",
                        lambda rows, m: calls.append(np.shape(rows)) or real(rows, m))
    exp = explain_prediction(x, model, stack,
                             ExplainConfig(lime=LimeConfig(num_samples=400, seed=2)))
    # the latent code on the whole row, then the mask block on its 8 nonzeros
    assert calls == [(300,), (400, 8)]
    assert exp.surrogate.feature_weights
    assert all(x[j] != 0.0 for j, _ in exp.surrogate.feature_weights)


@pytest.mark.parametrize("k", [1, 2, 8])
@pytest.mark.parametrize("baseline", ["zero", "scalar", "vector"])
def test_explain_equals_lime_on_the_whole_row_bitwise(k, baseline):
    # restricting the row and theta to the active columns changes no bit of
    # the explanation; at k = 1 every column is kept
    d = 60
    stack, model, x = _sparse_row_model(d, k, 9, seed=k)
    rng = np.random.default_rng(10 + k)
    b = {"zero": 0.0, "scalar": 0.5,
         "vector": np.where(rng.random(d) < 0.5, 0.0, rng.uniform(-1.0, 1.0, d))}[baseline]
    lime = LimeConfig(num_samples=300, k_features=4, seed=6, baseline=b)
    exp = explain_prediction(x, model, stack, ExplainConfig(lime=lime))
    unit = exp.latent_unit
    ref = lime_explain(x, lambda rows: predict_latent(rows, model)[:, unit], lime)
    assert exp.surrogate.feature_weights == ref.feature_weights
    assert exp.surrogate.intercept == ref.intercept
    assert exp.surrogate.local_fit_r2 == ref.local_fit_r2
    assert exp.surrogate.degenerate == ref.degenerate
    assert len(exp.surrogate.feature_weights) == 4


def test_explain_refuses_a_wrong_size_baseline_before_predicting(monkeypatch):
    stack, model, x = _sparse_row_model(30, 4, 5, seed=1)
    calls = []
    real = xlc.interpret.predict_latent
    monkeypatch.setattr(xlc.interpret, "predict_latent",
                        lambda rows, m: calls.append(np.shape(rows)) or real(rows, m))
    lime = LimeConfig(num_samples=50, seed=0, baseline=np.zeros(29))
    with pytest.raises(ShapeMismatchError,
                       match=r"^baseline must have shape \(\) or \(30,\), got shape \(29,\)$"):
        explain_prediction(x, model, stack, ExplainConfig(lime=lime))
    assert calls == []
