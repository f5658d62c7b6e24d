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
    return lambda row: float(row @ c)


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
    exp = lime_explain(x, lambda row: 3.0 * row[2], cfg)
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
    exp = lime_explain(np.ones(4), lambda row: 7.0, LimeConfig(num_samples=100, seed=0))
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
        lime_explain(np.ones(3), lambda row: float("nan"),
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
    for baseline in (float("nan"), [0.0, float("inf")], np.zeros((2, 2)), "abc"):
        with pytest.raises(ConfigError):
            LimeConfig(baseline=baseline)
    # a per-feature baseline of the wrong length used to fail in np.broadcast_to
    cfg = LimeConfig(num_samples=20, k_features=2, baseline=[0.0, 1.0, 2.0])
    with pytest.raises(ShapeMismatchError, match="3 values for 2 features"):
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


def _random_model(kind="ridge-linear", d=12, k=3, seed=0):
    rng = np.random.default_rng(seed)
    stack = EncoderStack([DenseMatrix(rng.uniform(0.0, 1.0, size=(6, k)))])
    if kind == "ridge-linear":
        params = {"theta": rng.normal(size=(d, k)), "intercept": rng.uniform(0.5, 1.0, k)}
    else:
        params = {"w1": rng.normal(size=(d, 7)), "b1": rng.normal(size=7),
                  "w2": rng.normal(size=(7, k)), "b2": rng.uniform(0.5, 1.0, k)}
    model = RegressorModel(kind, d, k, params)
    return stack, model, rng.uniform(0.0, 2.0, size=d)


@pytest.mark.parametrize("kind", RegressorModel.KINDS)
def test_explain_surrogate_equals_per_row_lime_bitwise(kind):
    stack, model, x = _random_model(kind)
    lime = LimeConfig(num_samples=300, k_features=4, seed=8)
    exp = explain_prediction(x, model, stack, ExplainConfig(lime=lime))
    unit = exp.latent_unit
    ref = lime_explain(x, lambda row: predict_latent(row, model)[unit], lime)
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
    # a plain callable still sees one row per call
    rows = []
    lime_explain(x, lambda row: rows.append(row.shape) or float(row.sum()),
                 LimeConfig(num_samples=40, k_features=2, seed=1))
    assert rows == [(12,)] * 40
