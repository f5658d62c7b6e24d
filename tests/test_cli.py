"""Command-line surface, exercised in-process through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xlc.cli
from conftest import centered_normal_equations
from xlc import (DenseMatrix, EncoderStack, FeatureMatrix, LabelMatrix,
                 ModelContainer, RegressorModel, load_dataset, load_model,
                 rank_labels, save_dataset, save_model, split_rows)
from xlc.cli import main


def _run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def planted(tmp_path):
    """Noise-free 3-block dataset plus a trained autoencoder container."""
    data = tmp_path / "data.txt"
    names = tmp_path / "names.txt"
    model = tmp_path / "model.xlc"
    assert _run("gen-synth", "--blocks", 3, "--rows", 30,
                "--labels-per-block", 4, "--noise", 0.0, "--seed", 2,
                "--out", data, "--names-out", names) == 0
    assert _run("train-ae", "--data", data, "--dims", "3",
                "--init", "nmf-greedy", "--seed", 1, "--label-names", names,
                "--out", model) == 0
    return data, names, model


def test_gen_synth_writes_parseable_dataset(tmp_path, capsys):
    out = tmp_path / "d.txt"
    assert _run("gen-synth", "--blocks", 2, "--rows", 8,
                "--labels-per-block", 3, "--noise", 0.1, "--seed", 0,
                "--out", out) == 0
    assert "wrote 8 rows" in capsys.readouterr().out
    x, v = load_dataset(out)
    assert (x.rows, x.cols, v.n_labels) == (8, 2, 6)


def test_pipeline_perfect_recovery_on_noise_free_data(planted, tmp_path, capsys):
    data, _, model = planted
    assert _run("fit-reg", "--data", data, "--model", model, "--kind", "ridge",
                "--lam", "1e-8", "--seed", 0) == 0
    report = tmp_path / "eval.txt"
    assert _run("eval", "--model", model, "--data", data, "--k", "1,3",
                "--split", "all", "--out", report) == 0
    text = report.read_text()
    assert "P@1 = 1.000000" in text
    assert "P@3 = 1.000000" in text
    assert "nDCG@1 = 1.000000" in text


def test_predict_output_format(planted, tmp_path):
    data, _, model = planted
    _run("fit-reg", "--data", data, "--model", model, "--kind", "ridge")
    out = tmp_path / "pred.txt"
    assert _run("predict", "--model", model, "--data", data, "--top-n", 2,
                "--out", out) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 30
    assert lines[0].startswith("row 0: ")
    assert len(lines[0].split(": ")[1].split()) == 2
    for token in lines[0].split(": ")[1].split():
        label, score = token.split(":")
        int(label), float(score)


def test_hierarchy_exact_render(planted, tmp_path):
    _, _, model = planted
    out = tmp_path / "h.txt"
    assert _run("hierarchy", "--model", model, "--layer", 1, "--unit", 0,
                "--top-m", 3, "--out", out) == 0
    line = out.read_text().rstrip("\n")
    assert line.startswith("H1, unit 0: ")
    listed = line.split(": ", 1)[1].split(", ")
    assert len(listed) == 3
    # names came from the sidecar, all from one block
    assert len({name.split("_")[0] for name in listed}) == 1


def test_explain_text_and_json(planted, tmp_path):
    data, _, model = planted
    _run("fit-reg", "--data", data, "--model", model, "--kind", "ridge")
    out = tmp_path / "e.txt"
    jout = tmp_path / "e.json"
    assert _run("explain", "--model", model, "--data", data, "--row", 0,
                "--samples", 200, "--k-features", 2, "--seed", 0,
                "--out", out, "--json-out", jout) == 0
    text = out.read_text()
    assert "explained latent unit:" in text
    assert "H1, unit" in text
    blob = json.loads(jout.read_text())
    assert {"latent_unit", "surrogate", "hierarchy"} <= blob.keys()


def test_nmf_command_stores_factors(planted, tmp_path, capsys):
    data, _, _ = planted
    out = tmp_path / "nmf.xlc"
    assert _run("nmf", "--data", data, "--k", 3, "--seed", 0, "--out", out) == 0
    assert "objective" in capsys.readouterr().out
    c = load_model(out)
    assert c.nmf is not None
    assert c.nmf.w.values.shape == (30, 3)


def test_config_file_supplies_and_flags_override(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("blocks=2\nrows=6\nlabels-per-block=3\nnoise=0.0\nseed=1\n"
                   "# comment line\n")
    out = tmp_path / "d.txt"
    assert _run("gen-synth", "--config", cfg, "--rows", 12, "--out", out) == 0
    x, v = load_dataset(out)
    # rows from the flag, everything else from the config file
    assert x.rows == 12
    assert (x.cols, v.n_labels) == (2, 6)


# a key given twice is an error, not a silent override
@pytest.mark.parametrize("line", ["bogus_key=1", "blokcs=2", "blocks=3", "blocks 3"])
def test_unknown_config_key_names_path_and_line(tmp_path, capsys, line):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"blocks=2\n{line}\n")
    assert _run("gen-synth", "--config", cfg, "--rows", 4,
                "--labels-per-block", 2, "--out", tmp_path / "d.txt") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:2: ")
    assert len(err.rstrip("\n").splitlines()) == 1
    if "=" not in line:
        assert err == f"error: {cfg}:2: expected key=value, got {line!r}\n"


# required options come first, so resolution reaches the bad value
_GEN = ("gen-synth", "--blocks", 2, "--labels-per-block", 2, "--out", "d.txt")
_EVAL = ("eval", "--model", "m.xlc", "--data", "d.txt")
_AE = ("train-ae", "--data", "d.txt", "--out", "m.xlc")

# what follows the named flag: a refused choice reads as the library's
# errors._choice words it, any other value as "expected <kind>"
_REFUSAL = {"--kind": " must be one of ridge, ridge-linear, got 'lasso'",
            "--split": " must be one of train, test, all, got 'bogus'"}


@pytest.mark.parametrize("argv, config, named", [
    (_GEN, "rows=abc", "gen.cfg:1: --rows"),
    (_GEN + ("--rows", "abc"), None, "--rows"),
    (_EVAL + ("--k", "1,x"), None, "--k"),
    (("fit-reg", "--data", "d.txt", "--model", "m.xlc"), "kind=lasso", "gen.cfg:1: --kind"),
    (_EVAL, "split=bogus", "gen.cfg:1: --split"),
    # an empty list item is refused, not dropped: "4,,2" used to train [4, 2]
    (_EVAL + ("--k", "1,,5"), None, "--k"),
    (_AE + ("--dims", "4,,2"), None, "--dims"),
    (_AE + ("--dims", "4,"), None, "--dims"),
    (_AE, "dims=4,,2", "gen.cfg:1: --dims"),
])
def test_bad_option_value_is_a_one_line_error(tmp_path, capsys, monkeypatch,
                                              argv, config, named):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "gen.cfg").write_text(config + "\n")
        argv += ("--config", "gen.cfg")
    assert _run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}{_REFUSAL.get(named.split()[-1], ': expected ')}")
    assert len(err.rstrip("\n").splitlines()) == 1


def test_non_utf8_config_file_is_a_one_line_error(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_bytes(b"blocks=2\nrows=\xff\n")
    assert _run("gen-synth", "--config", cfg, "--out", tmp_path / "d.txt") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: not UTF-8")
    assert len(err.rstrip("\n").splitlines()) == 1


def test_cli_determinism_byte_identical(planted, tmp_path):
    data, names, model = planted
    model2 = tmp_path / "model2.xlc"
    assert _run("train-ae", "--data", data, "--dims", "3",
                "--init", "nmf-greedy", "--seed", 1, "--label-names", names,
                "--out", model2) == 0
    assert model.read_bytes() == model2.read_bytes()

    _run("fit-reg", "--data", data, "--model", model2, "--kind", "ridge")
    r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    _run("eval", "--model", model2, "--data", data, "--split", "test", "--out", r1)
    _run("eval", "--model", model2, "--data", data, "--split", "test", "--out", r2)
    assert r1.read_bytes() == r2.read_bytes()


def test_eval_uses_split_stored_at_fit_time(planted, tmp_path):
    data, _, model = planted
    _run("fit-reg", "--data", data, "--model", model, "--kind", "ridge",
         "--holdout-frac", "0.3", "--split-seed", 9)
    stored = load_model(model).config
    assert stored["holdout_frac"] == "0.3"
    assert stored["split_seed"] == "9"
    report = tmp_path / "r.txt"
    assert _run("eval", "--model", model, "--data", data, "--out", report) == 0
    assert "rows evaluated: 9 " in report.read_text()  # 30 * 0.3


@pytest.mark.parametrize("key, raw", [("holdout_frac", "abc"), ("split_seed", "1.5")])
def test_eval_rejects_a_bad_stored_split(planted, capsys, key, raw):
    data, _, model = planted
    _run("fit-reg", "--data", data, "--model", model, "--kind", "ridge")
    container = load_model(model)
    container.config[key] = raw
    save_model(model, container)
    capsys.readouterr()
    assert _run("eval", "--model", model, "--data", data) == 1
    err = capsys.readouterr().err
    assert len(err.rstrip("\n").splitlines()) == 1
    assert f"{model}: stored {key}: expected" in err and repr(raw) in err
    # a model without a stored split takes fit-reg's defaults
    for k in ("holdout_frac", "split_seed"):
        del container.config[k]
    save_model(model, container)
    assert _run("eval", "--model", model, "--data", data) == 0
    assert "rows evaluated: 6 " in capsys.readouterr().out      # 30 * 0.2


def test_missing_file_is_a_one_line_error(tmp_path, capsys):
    assert _run("train-ae", "--data", tmp_path / "absent.txt", "--dims", "2",
                "--out", tmp_path / "m.xlc") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.rstrip("\n").splitlines()) == 1


def test_missing_required_option(capsys, tmp_path):
    assert _run("gen-synth", "--blocks", 2, "--rows", 4,
                "--labels-per-block", 2) == 1
    assert "--out" in capsys.readouterr().err


def test_unknown_flag_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        _run("gen-synth", "--bogus", 1)
    assert exc.value.code == 2


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


_PARSER_CASES = ([["--help"], [], ["bogus"], ["bogus", "predict"], ["-h", "predict"],
                  ["predict", "--model", "eval", "--bogus"]]
                 + [[c, "--help"] for c in xlc.cli._COMMANDS]
                 + [[c, "--bogus", "1"] for c in xlc.cli._COMMANDS]
                 + [[c] for c in xlc.cli._COMMANDS])


@pytest.mark.parametrize("argv", _PARSER_CASES, ids=" ".join)
def test_the_one_command_parser_says_what_the_full_parser_says(monkeypatch, capsys, argv):
    # xlc builds only the invoked command's parser; help, usage and error
    # messages and exit codes must be those of the parser of every command
    got = _outcome(capsys, argv)
    full = xlc.cli._build_parser
    monkeypatch.setattr(xlc.cli, "_build_parser", lambda command=None: full())
    assert got == _outcome(capsys, argv)


def test_usage_names_every_command(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    usage = ("usage: xlc [-h]\n"
             "           {gen-synth,train-ae,nmf,fit-reg,predict,explain,hierarchy,eval} ...\n")
    code, out, err = _outcome(capsys, ["predict", "--model", "m.xlc", "--bogus"])
    assert (code, out, err) == (2, "", usage + "xlc: error: unrecognized arguments: --bogus\n")
    code, out, err = _outcome(capsys, ["--help"])
    assert (code, err) == (0, "")
    assert out.startswith(usage)
    for name, (_, help_text, _) in xlc.cli._COMMANDS.items():
        assert f"\n    {name:<20}{help_text}\n" in out
    code, out, err = _outcome(capsys, ["predict", "--data", "d.txt"])
    assert (code, out, err) == (1, "", "error: missing required option --model\n")
    code, out, err = _outcome(capsys, ["predict", "--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: xlc predict [-h] [--config CONFIG] [--model MODEL]")


def test_fit_reg_requires_encoder_section(tmp_path, capsys):
    data = tmp_path / "d.txt"
    _run("gen-synth", "--blocks", 2, "--rows", 6, "--labels-per-block", 2,
         "--noise", 0.0, "--seed", 0, "--out", data)
    bare = tmp_path / "bare.xlc"
    _run("nmf", "--data", data, "--k", 2, "--out", bare)
    assert _run("fit-reg", "--data", data, "--model", bare) == 1
    assert "no 'encoder' section" in capsys.readouterr().err


def test_fit_reg_refuses_the_removed_mlp_kind_and_flags(planted, capsys):
    data, _, model = planted
    assert _run("fit-reg", "--data", data, "--model", model, "--kind", "mlp") == 1
    err = capsys.readouterr().err
    assert err == "error: --kind must be one of ridge, ridge-linear, got 'mlp'\n"
    with pytest.raises(SystemExit) as exc:
        _run("fit-reg", "--data", data, "--model", model, "--hidden", 8)
    assert exc.value.code == 2


# eval scores only the split fit-reg stored; explain and nmf take their
# library defaults for the kernel width, the hierarchy m and the stop rule
_REMOVED = [("eval", "holdout-frac", "0.3"), ("eval", "split-seed", "8"),
            ("explain", "kernel-width", "1.5"), ("explain", "top-m", "3"),
            ("nmf", "max-iters", "10"), ("nmf", "rel-tol", "0")]
_REQUIRED_ARGS = {"eval": ("--model", "m.xlc", "--data", "d.txt"),
                  "explain": ("--model", "m.xlc", "--data", "d.txt", "--row", 0),
                  "nmf": ("--data", "d.txt", "--k", 2, "--out", "m.xlc")}


@pytest.mark.parametrize("command, flag, value", _REMOVED)
def test_removed_options_are_unknown_flags(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        _run(command, *_REQUIRED_ARGS[command], f"--{flag}", value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: xlc ")
    assert f"error: unrecognized arguments: --{flag} {value}\n" in err


@pytest.mark.parametrize("command, flag, value", _REMOVED)
def test_removed_options_are_unknown_config_keys(tmp_path, capsys, command, flag, value):
    cfg = tmp_path / "x.cfg"
    cfg.write_text(f"{flag.replace('-', '_')}={value}\n")
    assert _run(command, *_REQUIRED_ARGS[command], "--config", cfg) == 1
    assert capsys.readouterr().err == f"error: {cfg}:1: xlc {command} has no option --{flag}\n"


def test_data_file_without_rows(planted, tmp_path, capsys):
    # explain has no row to pick, and predict writes no line at all
    data, _, model = planted
    assert _run("fit-reg", "--data", data, "--model", model) == 0
    empty = tmp_path / "empty.txt"
    empty.write_text("0 3 12\n")
    assert _run("explain", "--model", model, "--data", empty, "--row", 0) == 1
    assert capsys.readouterr().err == f"error: {empty} has no rows to explain\n"
    preds = tmp_path / "preds.txt"
    assert _run("predict", "--model", model, "--data", empty, "--out", preds) == 0
    assert preds.read_bytes() == b""


@pytest.mark.parametrize("command, flags, purpose", [
    ("fit-reg", (), "fit"),
    ("eval", (), "evaluate"),
    ("eval", ("--split", "all"), "evaluate")])
def test_fit_reg_and_eval_name_a_data_file_without_rows(planted, tmp_path, capsys,
                                                        command, flags, purpose):
    # fit-reg and eval's test split used to say "n_rows must be >= 2, got 0",
    # the bound of an argument the user never passed
    data, _, model = planted
    assert _run("fit-reg", "--data", data, "--model", model) == 0
    empty = tmp_path / "empty.txt"
    empty.write_text("0 3 12\n")
    capsys.readouterr()
    assert _run(command, "--model", model, "--data", empty, *flags) == 1
    assert capsys.readouterr().err == f"error: {empty} has no rows to {purpose}\n"


@pytest.mark.parametrize("command, flags", [
    ("fit-reg", ()),
    ("eval", ()),
    ("eval", ("--split", "train"))])
def test_fit_reg_and_eval_name_a_data_file_of_one_row(planted, tmp_path, capsys,
                                                      command, flags):
    # a train/test split of 1 row used to fail with "n_rows must be >= 2, got 1"
    data, _, model = planted
    assert _run("fit-reg", "--data", data, "--model", model) == 0
    head, first = data.read_text().split("\n")[:2]
    one = tmp_path / "one.txt"
    one.write_text(f"1 {head.split(' ', 1)[1]}\n{first}\n")
    capsys.readouterr()
    assert _run(command, "--model", model, "--data", one, *flags) == 1
    assert capsys.readouterr().err == (
        f"error: {one} has 1 row; a train/test split needs at least 2\n")
    # without a split, eval scores the one row
    assert _run("eval", "--model", model, "--data", one, "--split", "all") == 0
    assert capsys.readouterr().out.startswith("rows evaluated: 1 (0 empty-truth")


@pytest.mark.parametrize("case", ["label-names-count", "eval-rows-without-labels",
                                  "feature-count"])
def test_commands_refuse_mismatched_inputs_in_one_line(planted, tmp_path, capsys,
                                                      case):
    data, _, model = planted
    assert _run("fit-reg", "--data", data, "--model", model) == 0
    short = tmp_path / "names.txt"
    short.write_text("a\nb\n")
    x, v = load_dataset(data)
    unlabelled = tmp_path / "unlabelled.txt"
    save_dataset(unlabelled, x, LabelMatrix(x.rows, v.n_labels, []))
    # one more feature column, all zero, than the regressor was fitted on
    wide = tmp_path / "wide.txt"
    save_dataset(wide, FeatureMatrix(np.hstack([x.values, np.zeros((x.rows, 1))])), v)
    argvs, message = {
        "label-names-count": ([("train-ae", "--data", data, "--dims", 3, "--label-names",
                                short, "--out", tmp_path / "m.xlc")],
                              f"{short} has 2 names for 12 labels"),
        "eval-rows-without-labels": ([("eval", "--model", model, "--data", unlabelled,
                                       "--split", "all")],
                                     "no rows with labels to evaluate"),
        "feature-count": ([("predict", "--model", model, "--data", wide),
                           ("eval", "--model", model, "--data", wide),
                           ("explain", "--model", model, "--data", wide, "--row", 0)],
                          f"{wide} has 4 features, regressor expects 3"),
    }[case]
    capsys.readouterr()
    for argv in argvs:
        assert _run(*argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_rejects_a_label_count_the_model_does_not_have(planted, tmp_path, capsys):
    # eval used to report P@k for a file declaring more labels than the model
    data, _, model = planted
    _run("fit-reg", "--data", data, "--model", model, "--kind", "ridge")
    head, rows = data.read_text().split("\n", 1)
    n, d, p = head.split()
    wide = tmp_path / "wide.txt"
    wide.write_text(f"{n} {d} {int(p) + 8}\n{rows}")
    capsys.readouterr()
    for argv in (("eval", "--model", model, "--data", wide),
                 ("fit-reg", "--data", wide, "--model", model)):
        assert _run(*argv) == 1
        assert capsys.readouterr().err == (
            f"error: input has {int(p) + 8} labels, encoder expects {p}\n")


@pytest.mark.parametrize("ks", [",", "1,3,1"])
def test_eval_rejects_an_empty_or_repeating_k_list(planted, capsys, ks):
    # a repeated k used to add its metrics twice into one sum (P@1 = 1.95)
    data, _, model = planted
    _run("fit-reg", "--data", data, "--model", model, "--kind", "ridge")
    assert _run("eval", "--model", model, "--data", data, "--k", ks) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert len(err.rstrip("\n").splitlines()) == 1


def test_predict_and_eval_rank_each_block_in_one_predict_labels_call(planted, tmp_path,
                                                                    monkeypatch):
    # 3 rows a block: the outputs are those of one block of every row, and
    # each block is one predict_labels call of at most 3 rows
    data, _, model = planted
    assert _run("fit-reg", "--data", data, "--model", model, "--lam", "0.1") == 0
    argvs = {"predict": ("--top-n", 4), "eval": ("--k", "1,3,5", "--split", "all")}
    whole = {cmd: tmp_path / f"{cmd}-whole.txt" for cmd in argvs}
    for cmd, extra in argvs.items():
        assert _run(cmd, "--model", model, "--data", data, *extra, "--out", whole[cmd]) == 0
    calls = []

    def spy(x, *args, **kwargs):
        calls.append(len(x))
        return xlc.pipeline.predict_labels(x, *args, **kwargs)

    monkeypatch.setattr(xlc.cli, "_BLOCK_ENTRIES", 3 * load_model(model).encoder.p)
    monkeypatch.setattr(xlc.cli, "predict_labels", spy)
    for cmd, extra in argvs.items():
        blocked = tmp_path / f"{cmd}-blocked.txt"
        assert _run(cmd, "--model", model, "--data", data, *extra, "--out", blocked) == 0
        assert blocked.read_bytes() == whole[cmd].read_bytes()
        assert calls == [3] * 10
        calls.clear()


def test_predict_and_eval_match_a_per_row_reference_when_every_label_ties(
        planted, tmp_path, monkeypatch):
    # a regressor clamped to an all-zero latent scores every label 0, so the
    # ranking is decided by the ascending-index tie-break alone; a small block
    # bound makes the commands cross several block boundaries
    _, _, model = planted
    stack = load_model(model).encoder
    p, d, n = stack.p, 3, 17
    reg = RegressorModel("ridge-linear", d, stack.latent_dim,
                         {"theta": np.zeros((d, stack.latent_dim)),
                          "intercept": -np.ones(stack.latent_dim)})
    tied = tmp_path / "tied.xlc"
    save_model(tied, ModelContainer(encoder=stack, regressor=reg))
    rng = np.random.default_rng(4)
    truth = [sorted(rng.choice(p, size=i % 4, replace=False).tolist()) for i in range(n)]
    rows = [i for i, t in enumerate(truth) for _ in t]
    cols = [j for t in truth for j in t]
    data = tmp_path / "tied.txt"
    save_dataset(data, FeatureMatrix(rng.uniform(size=(n, d))),
                 LabelMatrix.from_coo(n, p, rows, cols, np.ones(len(rows))))
    monkeypatch.setattr(xlc.cli, "_BLOCK_ENTRIES", 3 * p)

    order = rank_labels(np.zeros(p))
    preds, report = tmp_path / "pred.txt", tmp_path / "eval.txt"
    assert _run("predict", "--model", tied, "--data", data, "--top-n", 5,
                "--out", preds) == 0
    ranked = " ".join(f"{j}:{0.0:.6g}" for j in order[:5])
    assert preds.read_text() == "".join(f"row {i}: {ranked}\n" for i in range(n))

    ks = (1, 3, 5)
    assert _run("eval", "--model", tied, "--data", data, "--k", "1,3,5",
                "--split", "all", "--out", report) == 0
    used = [set(t) for t in truth if t]
    gain = [1.0 / np.log2(i + 2) for i in range(max(ks))]
    p_at = {k: sum(sum(int(j) in t for j in order[:k]) / k for t in used) for k in ks}
    g_at = {k: sum(sum(g for g, j in zip(gain, order[:k]) if int(j) in t)
                   / sum(gain[:min(k, len(t))]) for t in used) for k in ks}
    expected = [f"rows evaluated: {len(used)} ({n - len(used)} empty-truth rows skipped)"]
    expected += [f"P@{k} = {p_at[k] / len(used):.6f}" for k in ks]
    expected += [f"nDCG@{k} = {g_at[k] / len(used):.6f}" for k in ks]
    assert report.read_text() == "\n".join(expected) + "\n"


_SERVE = """
import json, sys
from xlc.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_serving_commands_do_not_import_scipy(planted, tmp_path):
    # scipy.sparse costs a few hundred ms per process; only training and
    # NMF run sparse products, so only they may load it
    data, _, model = planted
    assert _run("fit-reg", "--data", data, "--model", model) == 0
    argvs = [["gen-synth", "--blocks", "2", "--rows", "6", "--labels-per-block", "2",
              "--out", str(tmp_path / "g.txt")],
             ["predict", "--model", str(model), "--data", str(data),
              "--out", str(tmp_path / "p.txt")],
             ["explain", "--model", str(model), "--data", str(data), "--row", "0",
              "--out", str(tmp_path / "e.txt")],
             ["hierarchy", "--model", str(model), "--layer", "1", "--unit", "0",
              "--out", str(tmp_path / "h.txt")],
             ["eval", "--model", str(model), "--data", str(data), "--split", "all",
              "--out", str(tmp_path / "v.txt")]]
    env = dict(os.environ, PYTHONPATH=str(Path(xlc.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", _SERVE, json.dumps(argvs)], env=env,
                         check=True, capture_output=True, text=True).stdout
    codes, loaded = json.loads(out.strip().split("\n")[-1])
    assert codes == [0] * len(argvs)
    assert loaded == []


@pytest.mark.parametrize("d, zeros, support", [(400, 0.6, False), (300, 0.975, True)],
                         ids=["dense", "sparse"])
def test_ridge_fit_and_explain_bytes_do_not_depend_on_thread_count(tmp_path, d, zeros,
                                                                    support):
    # Features with several nonzeros per row, unlike gen-synth's one-hot
    # rows. At d=400 and 40% density the ridge fit takes the dense products,
    # where a LAPACK solve of its normal equations once gave different bits
    # with 1 and 2 BLAS threads; at d=300 and 2.5% density, serve-xml's
    # shape, it sums them over the features' nonzeros.
    rng = np.random.default_rng(0)
    n, p = 1500, 12
    x = np.round(rng.uniform(0.1, 2.0, size=(n, d)), 3)
    x[rng.random((n, d)) < zeros] = 0.0
    x_train = x[split_rows(n, 0.2, seed=0)[0]]         # fit-reg's default split
    assert centered_normal_equations(x_train, np.zeros((len(x_train), 1)))[1] == support
    v = LabelMatrix.from_dense_array((rng.random((n, p)) < 0.2).astype(float))
    data, base = tmp_path / "dense.txt", tmp_path / "base.xlc"
    save_dataset(data, FeatureMatrix(x), v)
    h = DenseMatrix(rng.uniform(0.0, 1.0, size=(p, 4)))
    save_model(base, ModelContainer(encoder=EncoderStack([h])))
    env = dict(os.environ, PYTHONPATH=str(Path(xlc.__file__).parents[1]))
    outputs = []
    for threads in ("1", "2"):
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        model = tmp_path / f"ridge{threads}.xlc"
        report = tmp_path / f"explain{threads}.json"
        for argv in (("fit-reg", "--data", data, "--model", base, "--kind", "ridge",
                      "--out", model),
                     ("explain", "--model", model, "--data", data, "--row", 0,
                      "--json-out", report)):
            subprocess.run([sys.executable, "-m", "xlc.cli", *map(str, argv)],
                           env=env, check=True, capture_output=True)
        outputs.append((model.read_bytes(), report.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
