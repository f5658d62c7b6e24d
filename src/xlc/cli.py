"""Command-line surface: dataset generation, training, prediction,
evaluation, and explanation reports.

Option precedence is flags > config file (key=value lines, keys matching
the flag names with underscores) > built-in defaults. Every command is
deterministic given its --seed, exits 0 on success and nonzero with a
one-line diagnostic on failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .autoencoder import AeTrainConfig, encode, train_autoencoder
from .dataio import (ModelContainer, load_dataset, load_label_names, load_model,
                     make_block_dataset, save_dataset, save_label_names, save_model)
from .errors import ConfigError, XlcError
from .interpret import (ExplainConfig, LimeConfig, explain_prediction,
                        extract_hierarchy, render_hierarchy)
from .matrix import _BLOCK_ENTRIES
from .nmf import NmfConfig, nmf_factorize, nmf_objective
from .pipeline import (FeatureMatrix, fit_regressor, ndcg_at_k, precision_at_k,
                       predict_labels, split_rows)


def _parse_config_file(path) -> dict:
    config = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ConfigError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            config[key.strip().replace("-", "_")] = val.strip()
    return config


def _to_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _int_list(raw: str) -> list[int]:
    try:
        return [int(t) for t in raw.split(",") if t != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}")


class _Opts:
    """Resolves each option through flag > config file > default."""

    def __init__(self, args):
        self.args = args
        self.config = _parse_config_file(args.config) if args.config else {}

    def get(self, dest, conv=str, default=None, required=False):
        value = getattr(self.args, dest, None)
        if value is None and dest in self.config:
            raw = self.config[dest]
            value = _to_bool(raw) if conv is bool else conv(raw)
        if value is None:
            if required:
                raise ConfigError(
                    f"missing required option --{dest.replace('_', '-')}")
            value = default
        return value


def _writer(path):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline="\n"), True


def _emit(path, text: str) -> None:
    fh, close = _writer(path)
    try:
        fh.write(text)
    finally:
        if close:
            fh.close()


def _need(container: ModelContainer, section: str):
    value = getattr(container, section)
    if value is None:
        raise XlcError(
            f"model file has no {section!r} section; run the producing "
            f"command first")
    return value


# ---------------------------------------------------------------- commands

def _cmd_gen_synth(opts: _Opts) -> int:
    blocks = opts.get("blocks", int, required=True)
    rows = opts.get("rows", int, required=True)
    lpb = opts.get("labels_per_block", int, required=True)
    noise = opts.get("noise", float, 0.05)
    seed = opts.get("seed", int, 0)
    out = opts.get("out", str, required=True)
    names_out = opts.get("names_out", str)
    x, v, names = make_block_dataset(blocks, rows, lpb, noise, seed=seed)
    save_dataset(out, x, v)
    if names_out:
        save_label_names(names_out, names)
    print(f"wrote {x.rows} rows, {x.n_features} features, "
          f"{v.n_labels} labels to {out}")
    return 0


def _cmd_train_ae(opts: _Opts) -> int:
    data = opts.get("data", str, required=True)
    dims = opts.get("dims", _int_list, required=True)
    epochs = opts.get("epochs", int, 2000)
    lr = opts.get("lr", float, 1e-3)
    rel_tol = opts.get("rel_tol", float, 1e-7)
    init = opts.get("init", str, "random-uniform")
    seed = opts.get("seed", int, 0)
    fd_check = opts.get("fd_check", bool, False)
    names_path = opts.get("label_names", str)
    out = opts.get("out", str, required=True)

    _, v = load_dataset(data)
    names = load_label_names(names_path) if names_path else None
    if names is not None and len(names) != v.n_labels:
        raise ConfigError(
            f"{names_path} has {len(names)} names for {v.n_labels} labels")
    cfg = AeTrainConfig(dims, max_epochs=epochs, learning_rate=lr,
                        rel_tol=rel_tol, init_scheme=init, seed=seed,
                        fd_check=fd_check)
    stack = train_autoencoder(v, cfg)
    config = {
        "ae_dims": ",".join(str(k) for k in dims),
        "ae_epochs": str(epochs), "ae_lr": repr(lr),
        "ae_rel_tol": repr(rel_tol), "ae_init": init, "ae_seed": str(seed),
    }
    save_model(out, ModelContainer(encoder=stack, config=config,
                                   label_names=names))
    trace = stack.training_trace
    print(f"trained dims {dims} for {len(trace) - 1} epochs, "
          f"reconstruction loss {trace[-1]:.6g}")
    return 0


def _cmd_nmf(opts: _Opts) -> int:
    data = opts.get("data", str, required=True)
    k = opts.get("k", int, required=True)
    max_iters = opts.get("max_iters", int, 5000)
    rel_tol = opts.get("rel_tol", float, 1e-6)
    seed = opts.get("seed", int, 0)
    out = opts.get("out", str, required=True)

    _, v = load_dataset(data)
    factors = nmf_factorize(v, NmfConfig(k=k, max_iters=max_iters,
                                         rel_tol=rel_tol, seed=seed))
    config = {"nmf_k": str(k), "nmf_max_iters": str(max_iters),
              "nmf_rel_tol": repr(rel_tol), "nmf_seed": str(seed)}
    save_model(out, ModelContainer(nmf=factors, config=config))
    print(f"nmf k={k} stopped after {len(factors.objective_trace)} "
          f"iterations, objective {nmf_objective(v, factors):.6g}")
    return 0


def _cmd_fit_reg(opts: _Opts) -> int:
    data = opts.get("data", str, required=True)
    model_path = opts.get("model", str, required=True)
    kind_flag = opts.get("kind", str, "ridge")
    seed = opts.get("seed", int, 0)
    lam = opts.get("lam", float, 1e-3)
    hidden = opts.get("hidden", int, 64)
    lr = opts.get("lr", float, 1e-3)
    epochs = opts.get("epochs", int, 500)
    holdout = opts.get("holdout_frac", float, 0.2)
    split_seed = opts.get("split_seed", int, 0)
    out = opts.get("out", str, model_path)

    kinds = {"ridge": "ridge-linear", "mlp": "mlp-1hidden",
             "ridge-linear": "ridge-linear", "mlp-1hidden": "mlp-1hidden"}
    if kind_flag not in kinds:
        raise ConfigError(f"unknown regressor kind {kind_flag!r}, "
                          f"expected ridge or mlp")
    kind = kinds[kind_flag]

    container = load_model(model_path)
    stack = _need(container, "encoder")
    x, v = load_dataset(data)
    if x.rows != v.n_rows:
        raise XlcError(f"feature rows {x.rows} != label rows {v.n_rows}")
    w = encode(v, stack)
    train_idx, test_idx = split_rows(x.rows, test_frac=holdout, seed=split_seed)
    x_train = FeatureMatrix(x.values[train_idx])
    w_train = type(w)(w.values[train_idx])
    hyper = ({"lam": lam} if kind == "ridge-linear"
             else {"hidden": hidden, "learning_rate": lr, "max_epochs": epochs})
    model = fit_regressor(x_train, w_train, kind, hyper, seed=seed)
    container.regressor = model
    container.config.update({
        "reg_kind": kind, "reg_seed": str(seed),
        "holdout_frac": repr(holdout), "split_seed": str(split_seed),
    })
    if kind == "ridge-linear":
        container.config["reg_lam"] = repr(lam)
    else:
        container.config.update({"reg_hidden": str(hidden),
                                 "reg_lr": repr(lr),
                                 "reg_epochs": str(epochs)})
    save_model(out, container)
    print(f"fitted {kind} on {len(train_idx)} rows "
          f"(holdout {len(test_idx)})")
    return 0


def _cmd_predict(opts: _Opts) -> int:
    model_path = opts.get("model", str, required=True)
    data = opts.get("data", str, required=True)
    top_n = opts.get("top_n", int, 25)
    out = opts.get("out", str)

    container = load_model(model_path)
    stack = _need(container, "encoder")
    reg = _need(container, "regressor")
    x, _ = load_dataset(data)
    lines = []
    step = _block_rows(stack)
    for lo in range(0, x.rows, step):
        preds = predict_labels(x.values[lo:lo + step], reg, stack, n=top_n)
        for i, pred in enumerate(preds, start=lo):
            ranked = " ".join(f"{j}:{s:.6g}" for j, s in pred.top_n)
            lines.append(f"row {i}: {ranked}")
    _emit(out, "\n".join(lines) + "\n")
    return 0


def _block_rows(stack) -> int:
    """Rows per predict_labels call: at most _BLOCK_ENTRIES decoded scores,
    so serving memory stays bounded whatever the row count."""
    return max(1, _BLOCK_ENTRIES // stack.p)


def _cmd_explain(opts: _Opts) -> int:
    model_path = opts.get("model", str, required=True)
    data = opts.get("data", str, required=True)
    row = opts.get("row", int, required=True)
    samples = opts.get("samples", int, 1000)
    k_features = opts.get("k_features", int, 6)
    kernel_width = opts.get("kernel_width", float)
    baseline = opts.get("baseline", float, 0.0)
    seed = opts.get("seed", int, 0)
    top_m = opts.get("top_m", int, 5)
    out = opts.get("out", str)
    json_out = opts.get("json_out", str)

    container = load_model(model_path)
    stack = _need(container, "encoder")
    reg = _need(container, "regressor")
    x, _ = load_dataset(data)
    if not 0 <= row < x.rows:
        raise XlcError(f"row {row} out of range [0, {x.rows})")
    cfg = ExplainConfig(
        lime=LimeConfig(num_samples=samples, kernel_width=kernel_width,
                        k_features=k_features, seed=seed, baseline=baseline),
        hierarchy_m=top_m, label_names=container.label_names)
    report = explain_prediction(x.values[row], reg, stack, cfg)
    _emit(out, report.to_text() + "\n")
    if json_out:
        _emit(json_out, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_hierarchy(opts: _Opts) -> int:
    model_path = opts.get("model", str, required=True)
    layer = opts.get("layer", int, required=True)
    unit = opts.get("unit", int, required=True)
    top_m = opts.get("top_m", int, 5)
    out = opts.get("out", str)

    container = load_model(model_path)
    stack = _need(container, "encoder")
    node = extract_hierarchy(stack, layer, unit, top_m,
                             labels=container.label_names)
    _emit(out, render_hierarchy(node) + "\n")
    return 0


def _cmd_eval(opts: _Opts) -> int:
    model_path = opts.get("model", str, required=True)
    data = opts.get("data", str, required=True)
    ks = opts.get("k", _int_list, [1, 3, 5])
    split = opts.get("split", str, "test")
    out = opts.get("out", str)

    container = load_model(model_path)
    stack = _need(container, "encoder")
    reg = _need(container, "regressor")
    x, v = load_dataset(data)
    if not ks:
        raise ConfigError("--k needs at least one value")
    if len(set(ks)) != len(ks):
        raise ConfigError(f"--k lists a value twice: {ks}")
    if any(k < 1 for k in ks):
        raise ConfigError(f"every k must be >= 1, got {ks}")

    if split == "all":
        rows = np.arange(x.rows)
    elif split in ("train", "test"):
        holdout = float(container.config.get("holdout_frac", "0.2"))
        split_seed = int(container.config.get("split_seed", "0"))
        holdout = opts.get("holdout_frac", float, holdout)
        split_seed = opts.get("split_seed", int, split_seed)
        train_idx, test_idx = split_rows(x.rows, test_frac=holdout,
                                         seed=split_seed)
        rows = train_idx if split == "train" else test_idx
    else:
        raise ConfigError(f"unknown split {split!r}, expected train, "
                          f"test or all")

    labels = v.to_csr()
    used_rows = rows[np.diff(labels.indptr)[rows] > 0]
    used, skipped = used_rows.size, rows.size - used_rows.size
    if used == 0:
        raise XlcError("no rows with labels to evaluate")

    n_max = max(ks)
    sums_p = {k: 0.0 for k in ks}
    sums_g = {k: 0.0 for k in ks}
    step = _block_rows(stack)
    for lo in range(0, used, step):
        block = used_rows[lo:lo + step]
        preds = predict_labels(x.values[block], reg, stack, n=n_max)
        for i, pred in zip(block.tolist(), preds):
            truth = labels.indices[labels.indptr[i]:labels.indptr[i + 1]].tolist()
            for k in ks:
                sums_p[k] += precision_at_k(pred, truth, k)
                sums_g[k] += ndcg_at_k(pred, truth, k)

    lines = [f"rows evaluated: {used} ({skipped} empty-truth rows skipped)"]
    for k in ks:
        lines.append(f"P@{k} = {sums_p[k] / used:.6f}")
    for k in ks:
        lines.append(f"nDCG@{k} = {sums_g[k] / used:.6f}")
    _emit(out, "\n".join(lines) + "\n")
    return 0


# ------------------------------------------------------------------ parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlc",
        description="Compress a label matrix, regress features to the "
                    "latent space, rank decoded labels, and explain them.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, configure):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file")
        configure(p)
        return p

    def gen_synth(p):
        p.add_argument("--blocks", type=int)
        p.add_argument("--rows", type=int)
        p.add_argument("--labels-per-block", type=int, dest="labels_per_block")
        p.add_argument("--noise", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--names-out", dest="names_out")
    add("gen-synth", "write a planted block dataset", gen_synth)

    def train_ae(p):
        p.add_argument("--data")
        p.add_argument("--dims", type=_int_list)
        p.add_argument("--epochs", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--rel-tol", type=float, dest="rel_tol")
        p.add_argument("--init", choices=AeTrainConfig.INIT_SCHEMES)
        p.add_argument("--seed", type=int)
        p.add_argument("--fd-check", action="store_true", default=None,
                       dest="fd_check")
        p.add_argument("--label-names", dest="label_names")
        p.add_argument("--out")
    add("train-ae", "train the label-matrix autoencoder", train_ae)

    def nmf(p):
        p.add_argument("--data")
        p.add_argument("--k", type=int)
        p.add_argument("--max-iters", type=int, dest="max_iters")
        p.add_argument("--rel-tol", type=float, dest="rel_tol")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
    add("nmf", "baseline non-negative factorization", nmf)

    def fit_reg(p):
        p.add_argument("--data")
        p.add_argument("--model")
        p.add_argument("--kind", choices=["ridge", "mlp", "ridge-linear",
                                          "mlp-1hidden"])
        p.add_argument("--seed", type=int)
        p.add_argument("--lam", type=float)
        p.add_argument("--hidden", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--epochs", type=int)
        p.add_argument("--holdout-frac", type=float, dest="holdout_frac")
        p.add_argument("--split-seed", type=int, dest="split_seed")
        p.add_argument("--out")
    add("fit-reg", "fit the feature-to-latent regressor", fit_reg)

    def predict(p):
        p.add_argument("--model")
        p.add_argument("--data")
        p.add_argument("--top-n", type=int, dest="top_n")
        p.add_argument("--out")
    add("predict", "write ranked label predictions", predict)

    def explain(p):
        p.add_argument("--model")
        p.add_argument("--data")
        p.add_argument("--row", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--k-features", type=int, dest="k_features")
        p.add_argument("--kernel-width", type=float, dest="kernel_width")
        p.add_argument("--baseline", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--top-m", type=int, dest="top_m")
        p.add_argument("--out")
        p.add_argument("--json-out", dest="json_out")
    add("explain", "explain one instance's prediction", explain)

    def hierarchy(p):
        p.add_argument("--model")
        p.add_argument("--layer", type=int)
        p.add_argument("--unit", type=int)
        p.add_argument("--top-m", type=int, dest="top_m")
        p.add_argument("--out")
    add("hierarchy", "print a latent unit's label hierarchy", hierarchy)

    def eval_cmd(p):
        p.add_argument("--model")
        p.add_argument("--data")
        p.add_argument("--k", type=_int_list)
        p.add_argument("--split", choices=["train", "test", "all"])
        p.add_argument("--holdout-frac", type=float, dest="holdout_frac")
        p.add_argument("--split-seed", type=int, dest="split_seed")
        p.add_argument("--out")
    add("eval", "score ranked predictions with P@k and nDCG@k", eval_cmd)

    return parser


_HANDLERS = {
    "gen-synth": _cmd_gen_synth,
    "train-ae": _cmd_train_ae,
    "nmf": _cmd_nmf,
    "fit-reg": _cmd_fit_reg,
    "predict": _cmd_predict,
    "explain": _cmd_explain,
    "hierarchy": _cmd_hierarchy,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](_Opts(args))
    except (XlcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
