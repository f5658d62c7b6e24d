"""Command-line surface: dataset generation, training, prediction,
evaluation, and explanation reports.

Each command's options are declared once, in _COMMANDS. Option
precedence is flags > config file (key=value lines, keys matching the
flag names, with dashes or underscores) > built-in defaults; a config key
that names no option of the command, or names one twice, is an error.
Every command is deterministic given its --seed, exits 0 on success and 1
with a one-line diagnostic on failure (2 for an unknown flag).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .autoencoder import AeTrainConfig, encode, train_autoencoder
from .dataio import (ModelContainer, _read_text, load_dataset, load_label_names,
                     load_model, make_block_dataset, save_dataset, save_label_names,
                     save_model)
from .errors import ConfigError, ModelFormatError, XlcError, _choice, _integer, _integers
from .interpret import (ExplainConfig, LimeConfig, explain_prediction,
                        extract_hierarchy, render_hierarchy)
from .matrix import _BLOCK_ENTRIES, _check_labels
from .nmf import NmfConfig, nmf_factorize, nmf_objective
from .pipeline import (FeatureMatrix, _metrics_at_k, fit_regressor, predict_labels,
                       split_rows)


_REQUIRED = object()     # an option default: the command fails without it

_EXPECTED = {int: "an integer", float: "a number", list: "comma-separated integers"}


def _parse_config_file(path) -> dict:
    """Map each option named in a key=value file to (line number, value).
    An option set twice, even once with dashes and once with underscores,
    is an error naming both lines."""
    config = {}
    for lineno, line in enumerate(_read_text(path, ConfigError).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(
                f"{path}:{lineno}: expected key=value, got {line!r}")
        key = key.strip().replace("-", "_")
        if key in config:
            raise ConfigError(f"{path}:{lineno}: --{key.replace('_', '-')} is "
                              f"already set on line {config[key][0]}")
        config[key] = (lineno, val.strip())
    return config


def _convert(kind, raw: str, where: str):
    """One option value, from a flag or a config file, in its declared kind:
    int, float, str, list (comma-separated integers) or a tuple of the
    allowed strings."""
    if isinstance(kind, tuple):
        return _choice(where, raw, kind)
    try:
        if kind is str:
            return raw
        if kind is list:
            return [int(t) for t in raw.split(",")]
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected {_EXPECTED[kind]}, got {raw!r}") from None


def _resolve(args, options) -> None:
    """Set each option on args through flag > config file > default,
    converted to its kind; a config key that names no option is an error."""
    config = _parse_config_file(args.config) if args.config else {}
    dests = {flag.replace("-", "_") for flag, _, _ in options}
    for key, (lineno, _) in config.items():
        if key not in dests:
            raise ConfigError(f"{args.config}:{lineno}: xlc {args.command} "
                              f"has no option --{key.replace('_', '-')}")
    for flag, kind, default in options:
        dest = flag.replace("-", "_")
        raw, where = getattr(args, dest), f"--{flag}"
        if raw is None and dest in config:
            lineno, raw = config[dest]
            where = f"{args.config}:{lineno}: --{flag}"
        if raw is not None:
            value = _convert(kind, raw, where)
        elif default is _REQUIRED:
            raise ConfigError(f"missing required option --{flag}")
        else:
            value = default
        setattr(args, dest, value)


def _emit(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_rows(path, purpose: str, split: bool = False):
    """load_dataset for a command that works row by row: a file with no
    rows, or with 1 row for a command that splits them into train and test,
    is refused by its path, not by a bound derived from its row count."""
    x, v = load_dataset(path)
    if x.rows == 0:
        raise ConfigError(f"{path} has no rows to {purpose}")
    if split and x.rows == 1:
        raise ConfigError(f"{path} has 1 row; a train/test split needs at least 2")
    return x, v


def _need(container: ModelContainer, section: str):
    value = getattr(container, section)
    if value is None:
        raise ModelFormatError(
            f"model file has no {section!r} section; run the producing "
            f"command first")
    return value


# ---------------------------------------------------------------- commands

def _cmd_gen_synth(o) -> int:
    x, v, names = make_block_dataset(o.blocks, o.rows, o.labels_per_block,
                                     o.noise, seed=o.seed)
    save_dataset(o.out, x, v)
    if o.names_out:
        save_label_names(o.names_out, names)
    print(f"wrote {x.rows} rows, {x.n_features} features, "
          f"{v.n_labels} labels to {o.out}")
    return 0


def _cmd_train_ae(o) -> int:
    _, v = load_dataset(o.data)
    names = load_label_names(o.label_names) if o.label_names else None
    if names is not None and len(names) != v.n_labels:
        raise ConfigError(
            f"{o.label_names} has {len(names)} names for {v.n_labels} labels")
    cfg = AeTrainConfig(o.dims, max_epochs=o.epochs, learning_rate=o.lr,
                        rel_tol=o.rel_tol, init_scheme=o.init, seed=o.seed)
    stack = train_autoencoder(v, cfg)
    config = {
        "ae_dims": ",".join(str(k) for k in o.dims),
        "ae_epochs": str(o.epochs), "ae_lr": repr(o.lr),
        "ae_rel_tol": repr(o.rel_tol), "ae_init": o.init, "ae_seed": str(o.seed),
    }
    save_model(o.out, ModelContainer(encoder=stack, config=config,
                                     label_names=names))
    trace = stack.training_trace
    print(f"trained dims {o.dims} for {len(trace) - 1} epochs, "
          f"reconstruction loss {trace[-1]:.6g}")
    return 0


def _cmd_nmf(o) -> int:
    _, v = load_dataset(o.data)
    factors = nmf_factorize(v, NmfConfig(k=o.k, max_iters=o.max_iters,
                                         rel_tol=o.rel_tol, seed=o.seed))
    config = {"nmf_k": str(o.k), "nmf_max_iters": str(o.max_iters),
              "nmf_rel_tol": repr(o.rel_tol), "nmf_seed": str(o.seed)}
    save_model(o.out, ModelContainer(nmf=factors, config=config))
    print(f"nmf k={o.k} stopped after {len(factors.objective_trace)} "
          f"iterations, objective {nmf_objective(v, factors):.6g}")
    return 0


def _cmd_fit_reg(o) -> int:
    kind = {"ridge": "ridge-linear"}.get(o.kind, o.kind)
    container = load_model(o.model)
    stack = _need(container, "encoder")
    x, v = _load_rows(o.data, "fit", split=True)
    w = encode(v, stack)
    train_idx, test_idx = split_rows(x.rows, test_frac=o.holdout_frac,
                                     seed=o.split_seed)
    x_train = FeatureMatrix(x.values[train_idx])
    w_train = type(w)(w.values[train_idx])
    container.regressor = fit_regressor(x_train, w_train, kind, {"lam": o.lam})
    container.config.update({
        "reg_kind": kind, "reg_seed": str(o.seed), "reg_lam": repr(o.lam),
        "holdout_frac": repr(o.holdout_frac), "split_seed": str(o.split_seed),
    })
    save_model(o.model if o.out is None else o.out, container)
    print(f"fitted {kind} on {len(train_idx)} rows "
          f"(holdout {len(test_idx)})")
    return 0


def _cmd_predict(o) -> int:
    container = load_model(o.model)
    stack = _need(container, "encoder")
    reg = _need(container, "regressor")
    x, _ = load_dataset(o.data)
    lines = []
    step = _block_rows(stack)
    for lo in range(0, x.rows, step):
        preds = predict_labels(x.values[lo:lo + step], reg, stack, n=o.top_n)
        for i, pred in enumerate(preds, start=lo):
            ranked = " ".join(f"{j}:{s:.6g}" for j, s in pred.top_n)
            lines.append(f"row {i}: {ranked}")
    _emit(o.out, "".join(line + "\n" for line in lines))
    return 0


def _block_rows(stack) -> int:
    """Rows per predict_labels call: at most _BLOCK_ENTRIES decoded scores,
    so serving memory stays bounded whatever the row count."""
    return max(1, _BLOCK_ENTRIES // stack.p)


def _cmd_explain(o) -> int:
    container = load_model(o.model)
    stack = _need(container, "encoder")
    reg = _need(container, "regressor")
    x, _ = _load_rows(o.data, "explain")
    _integer("--row", o.row, 0, x.rows - 1)
    cfg = ExplainConfig(
        lime=LimeConfig(num_samples=o.samples, kernel_width=o.kernel_width,
                        k_features=o.k_features, seed=o.seed, baseline=o.baseline),
        hierarchy_m=o.top_m, label_names=container.label_names)
    report = explain_prediction(x.values[o.row], reg, stack, cfg)
    _emit(o.out, report.to_text() + "\n")
    if o.json_out:
        _emit(o.json_out, json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_hierarchy(o) -> int:
    container = load_model(o.model)
    stack = _need(container, "encoder")
    node = extract_hierarchy(stack, o.layer, o.unit, o.top_m,
                             labels=container.label_names)
    _emit(o.out, render_hierarchy(node) + "\n")
    return 0


def _cmd_eval(o) -> int:
    container = load_model(o.model)
    stack = _need(container, "encoder")
    reg = _need(container, "regressor")
    x, v = _load_rows(o.data, "evaluate", split=o.split != "all")
    _check_labels(v, stack.p)
    ks = _integers("--k", o.k, 1)
    if len(set(ks)) != len(ks):
        raise ConfigError(f"--k lists a value twice: {ks}")

    if o.split == "all":
        rows = np.arange(x.rows)
    else:
        # the split defaults to the one fit-reg stored in the model, and
        # for a model without one to fit-reg's own defaults
        fit_reg = {flag.replace("-", "_"): (kind, default)
                   for flag, kind, default in _COMMANDS["fit-reg"][2]}
        for key in ("holdout_frac", "split_seed"):
            raw, (kind, default) = container.config.get(key), fit_reg[key]
            if getattr(o, key) is None:
                setattr(o, key, default if raw is None
                        else _convert(kind, raw, f"{o.model}: stored {key}"))
        train_idx, test_idx = split_rows(x.rows, test_frac=o.holdout_frac,
                                         seed=o.split_seed)
        rows = train_idx if o.split == "train" else test_idx

    counts = np.bincount(v.entry_rows, minlength=v.n_rows)
    used_rows = rows[counts[rows] > 0]
    used, skipped = used_rows.size, rows.size - used_rows.size
    if used == 0:
        raise ConfigError("no rows with labels to evaluate")

    keys = v.entry_rows * v.n_labels + v.entry_cols
    scores = np.empty((2, len(ks), used))       # P@k and nDCG@k of every row
    step = _block_rows(stack)
    for lo in range(0, used, step):
        block = used_rows[lo:lo + step]
        preds = predict_labels(x.values[block], reg, stack, n=max(ks))
        ranked = np.array([[j for j, _ in pred.top_n] for pred in preds])
        for c, k in enumerate(ks):
            scores[:, c, lo:lo + step] = _metrics_at_k(
                ranked, block * v.n_labels, keys, counts[block], k)
    # one running total per metric, added in row order
    means = np.cumsum(scores, axis=2)[:, :, -1] / used

    lines = [f"rows evaluated: {used} ({skipped} empty-truth rows skipped)"]
    for name, row in zip(("P", "nDCG"), means):
        lines += [f"{name}@{k} = {m:.6f}" for k, m in zip(ks, row)]
    _emit(o.out, "\n".join(lines) + "\n")
    return 0


# ------------------------------------------------------------------ parser

# command: (handler, help, options); each option is (flag, kind, default),
# with the kinds of _convert and _REQUIRED for an option without a default
_COMMANDS = {
    "gen-synth": (_cmd_gen_synth, "write a planted block dataset", (
        ("blocks", int, _REQUIRED),
        ("rows", int, _REQUIRED),
        ("labels-per-block", int, _REQUIRED),
        ("noise", float, 0.05),
        ("seed", int, 0),
        ("out", str, _REQUIRED),
        ("names-out", str, None))),
    "train-ae": (_cmd_train_ae, "train the label-matrix autoencoder", (
        ("data", str, _REQUIRED),
        ("dims", list, _REQUIRED),
        ("epochs", int, 2000),
        ("lr", float, 1e-3),
        ("rel-tol", float, 1e-7),
        ("init", AeTrainConfig.INIT_SCHEMES, "random-uniform"),
        ("seed", int, 0),
        ("label-names", str, None),
        ("out", str, _REQUIRED))),
    "nmf": (_cmd_nmf, "baseline non-negative factorization", (
        ("data", str, _REQUIRED),
        ("k", int, _REQUIRED),
        ("max-iters", int, 5000),
        ("rel-tol", float, 1e-6),
        ("seed", int, 0),
        ("out", str, _REQUIRED))),
    "fit-reg": (_cmd_fit_reg, "fit the feature-to-latent regressor", (
        ("data", str, _REQUIRED),
        ("model", str, _REQUIRED),
        ("kind", ("ridge", "ridge-linear"), "ridge"),
        ("seed", int, 0),                       # stored as reg_seed; ridge draws nothing
        ("lam", float, 1e-3),
        ("holdout-frac", float, 0.2),
        ("split-seed", int, 0),
        ("out", str, None))),                   # None: overwrite --model
    "predict": (_cmd_predict, "write ranked label predictions", (
        ("model", str, _REQUIRED),
        ("data", str, _REQUIRED),
        ("top-n", int, 25),
        ("out", str, None))),
    "explain": (_cmd_explain, "explain one instance's prediction", (
        ("model", str, _REQUIRED),
        ("data", str, _REQUIRED),
        ("row", int, _REQUIRED),
        ("samples", int, 1000),
        ("k-features", int, 6),
        ("kernel-width", float, None),
        ("baseline", float, 0.0),
        ("seed", int, 0),
        ("top-m", int, 5),
        ("out", str, None),
        ("json-out", str, None))),
    "hierarchy": (_cmd_hierarchy, "print a latent unit's label hierarchy", (
        ("model", str, _REQUIRED),
        ("layer", int, _REQUIRED),
        ("unit", int, _REQUIRED),
        ("top-m", int, 5),
        ("out", str, None))),
    "eval": (_cmd_eval, "score ranked predictions with P@k and nDCG@k", (
        ("model", str, _REQUIRED),
        ("data", str, _REQUIRED),
        ("k", list, [1, 3, 5]),
        ("split", ("train", "test", "all"), "test"),
        ("holdout-frac", float, None),          # None: the model's split
        ("split-seed", int, None),
        ("out", str, None))),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlc",
        description="Compress a label matrix, regress features to the "
                    "latent space, rank decoded labels, and explain them.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file")
        for flag, kind, _ in options:
            if isinstance(kind, tuple):
                p.add_argument("--" + flag, metavar="{" + ",".join(kind) + "}")
            else:
                p.add_argument("--" + flag)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _, options = _COMMANDS[args.command]
    try:
        _resolve(args, options)
        return handler(args)
    except (XlcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
