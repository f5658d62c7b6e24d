"""The benchmark workloads: one closed loop, one caller, per process.

A run generates its inputs from the seed, then repeats passes until
--seconds have gone by. A pass on train-sparse and serve-xml times the
set-up (the parse of the training file), trains the model in memory and
saves it (on train-sparse every train_every passes only), and serves the
query rows: `xlc predict` and `xlc eval` over the query file, single-row
`predict_labels` latencies, and `explain_prediction` calls. A pass on
cli-small is one README session through `xlc.cli.main`; its sessions
cycle over DATASETS generated inputs. Every pass checks its outputs
against the numpy oracles in oracles.py; an exception or a failed check
counts as a failed operation.

End-to-end times and rates are the median over the passes on each input,
averaged over the inputs (see _over_passes); latency percentiles and the
explanation median pool every request of those passes. Explanations cycle
over EXPLAIN_ROWS fixed rows (see _explain_rows). Set-up is the median of
every set-up of the run: SETUPS_PER_PASS at the start of each pass, or on
cli-small SETUP_REPEATS before the sessions.

Every end-to-end time is host-normalized (see Phase): a phase's wall time
is scaled by REFERENCE_S over the median time of a fixed reference kernel
timed around it, so the figures read as times on a host where that kernel
takes REFERENCE_S. A shared host can run everything up to 1.5x slower in
spells longer than a run; the scaling takes most of that drift out of the
figures, while a change in the program's own cost passes through it
unchanged. Per-layer times are wall times.

The traced run (--trace 1) wraps every public xlc function in a span,
runs the same passes, adds probes that time single calls of each layer
once per run, and turns the spans into per-layer metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

import gen
import oracles
import xlc
import xlc.cli
from spans import LAYERS, Tracer

TOP_N = 5
EVAL_KS = (1, 3, 5)
SETUP_REPEATS = 11          # cli-small: set-ups before the sessions
SETUPS_PER_PASS = 2         # train-sparse, serve-xml: set-ups at each pass start
IMPORT_REPEATS = 3
NMF_PROBE_ITERS = 5
DATASETS = 8                # cli-small sessions cycle over this many inputs
LATENCY_REPEATS = 5         # cli-small: single-row requests per row per session
EXPLAIN_ROWS = 3            # train-sparse, serve-xml: rows the explanations cycle over
REFERENCE_S = 0.010         # nominal time of reference_kernel (see Phase)
REFERENCE_WINDOW_S = 5.0    # reference samples this long before a phase count for it


@dataclasses.dataclass(frozen=True)
class Spec:
    name: str
    gen_kw: dict = dataclasses.field(default_factory=dict)
    dims: tuple = ()
    lr: float = 0.0
    epochs: int = 0
    explains: int = 0                   # explain calls per pass
    latency_samples: int = 1000         # single-row requests per pass
    query_rows: int | None = None       # None: every holdout row
    min_passes: int = 1
    train_every: int = 1                # passes per training; the others serve only


SPECS = {
    "train-sparse": Spec(
        "train-sparse", dims=(64, 16), lr=3e-5, epochs=8, explains=9, latency_samples=1000,
        train_every=3),
    "serve-xml": Spec(
        "serve-xml", dims=(32, 8), lr=2e-3, epochs=1, explains=6, latency_samples=1000,
        query_rows=200, min_passes=4),
    "cli-small": Spec("cli-small", min_passes=2 * DATASETS),
}

TINY = {
    "train-sparse": dict(gen_kw=dict(n=300, p=120, d=16), dims=(16, 4),
                         epochs=3, explains=3, latency_samples=200, min_passes=2),
    "serve-xml": dict(gen_kw=dict(n=400, p=500, d=60, clusters=5),
                      dims=(16, 4), epochs=2, explains=3, latency_samples=200),
    "cli-small": dict(min_passes=2),
}


def spec_for(workload: str, size: str) -> Spec:
    spec = SPECS[workload]
    return dataclasses.replace(spec, **TINY[workload]) if size == "tiny" else spec


class RunFailed(Exception):
    """The run cannot produce its metrics."""


_REF_RNG = np.random.default_rng(0)
_REF_A, _REF_B, _REF_V = (_REF_RNG.random((256, 256)), _REF_RNG.random((256, 64)),
                          _REF_RNG.random(1024))
_REF_BIG = _REF_RNG.random((2048, 1024))       # 16 MiB, beyond the caches


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter loop, small numpy calls,
    cache-resident matrix products and memory-bound matrix-vector
    products, the kinds of work the program does, in about equal shares.

    It does not call the program, so timing it around each phase measures
    only how fast the host runs at that moment.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i * i
    for _ in range(100):
        np.argsort(_REF_V)
    for _ in range(20):
        _REF_A @ _REF_B
    for _ in range(4):
        _REF_BIG @ _REF_V
    return time.perf_counter() - t0


class Phase:
    """One timed phase. `seconds` is its wall time; `norm(t)` turns a wall
    time measured inside it into host-normalized time: t times
    REFERENCE_S over the reference kernel's time around the phase, i.e. t
    on a host where the kernel takes REFERENCE_S."""

    seconds = 0.0
    scale = 1.0

    def norm(self, t: float) -> float:
        return self.scale * t


class Run:
    """Counters, samples and helpers shared by one workload run."""

    def __init__(self, spec: Spec, seed: int, seconds: float, tracer: Tracer,
                 workdir: str):
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.passes: list[dict] = []
        self.values: dict[str, float] = {}
        self.properties: dict = {}
        self.refs: list[tuple[float, float]] = []     # (time, reference_kernel())

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a false ok counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def add(self, key: str, *values: float) -> None:
        self.samples.setdefault(key, []).extend(float(x) for x in values)

    def record_pass(self, dataset: int, times: dict, lat: list, explains: list,
                    predict_rows: int, eval_rows: int, serve_s: float) -> None:
        """Keep one pass's figures; `dataset` names the input it ran on,
        times["train"] is None on a pass that did not train, and serve_s is
        the pass's time outside training.

        `lat` holds the single-row latencies and `explains` the time of
        each explanation; every time is host-normalized (see Phase).
        """
        self.passes.append({
            "dataset": dataset,
            "train_s": times["train"],
            "predict_rows_per_s": predict_rows / times["predict"],
            "eval_rows_per_s": eval_rows / times["eval"],
            "lat_s": list(lat),
            "explain_s": list(explains),
            "serve_s": serve_s,
        })

    def reference(self) -> None:
        self.refs.append((time.perf_counter(), reference_kernel()))

    @contextlib.contextmanager
    def phase(self, name: str):
        """Span plus wall clock around one phase, with the reference kernel
        timed just before and just after it; yields a Phase whose scale
        comes from the median reference time over the phase and the
        REFERENCE_WINDOW_S seconds before it."""
        ph = Phase()
        self.reference()
        with self.tracer.span("phase." + name):
            t0 = time.perf_counter()
            try:
                yield ph
            finally:
                ph.seconds = time.perf_counter() - t0
        self.reference()
        ph.scale = REFERENCE_S / statistics.median(
            r for t, r in self.refs if t >= t0 - REFERENCE_WINDOW_S)

    def cli(self, *argv: str) -> tuple[float, str]:
        """Run one xlc command in process; returns (seconds, its output)."""
        buf = io.StringIO()
        with self.tracer.span("cli." + argv[0].replace("-", "_")):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                try:
                    rc = xlc.cli.main(list(argv))
                except SystemExit as exc:
                    rc = exc.code
            elapsed = time.perf_counter() - t0
        if not self.check(rc == 0, f"xlc {argv[0]} exited {rc}: {buf.getvalue()[-300:]}"):
            raise RunFailed(f"xlc {argv[0]} failed")
        return elapsed, buf.getvalue()

    def timed_loop(self, one_pass) -> None:
        """Closed loop: the next pass starts when the previous one ends.
        After min_passes, no pass starts that would likely end more than
        half its length past the deadline, judged by the longest pass so
        far; so a run lasts about `seconds`, whatever the pass length."""
        start = time.perf_counter()
        k = 0
        longest = 0.0
        while (k < self.spec.min_passes
               or time.perf_counter() - start + longest / 2 < self.seconds):
            t0 = time.perf_counter()
            self.tracer.request = f"pass-{k}"
            try:
                with self.tracer.span("pass"):
                    one_pass(k)
            except Exception as exc:        # the failure is the measurement
                self.check(False, f"pass {k}: {type(exc).__name__}: {exc}")
                if k == 0:
                    raise RunFailed(f"first pass failed: {exc}") from exc
            longest = max(longest, time.perf_counter() - t0)
            k += 1
        self.tracer.request = None


def _import_probe(src: str, gen_argv=None) -> dict:
    """Time `import xlc.cli` (and optionally one gen-synth) in a fresh
    interpreter; the child inherits the pinned thread settings."""
    code = (
        "import json, sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {src!r})\n"
        "import xlc.cli\n"
        "t1 = time.perf_counter()\n"
        "rc = 0\n"
        "if len(sys.argv) > 1:\n"
        "    import contextlib, io\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = xlc.cli.main(sys.argv[1:])\n"
        "t2 = time.perf_counter()\n"
        "print(json.dumps({'import_s': t1 - t0, 'gen_s': t2 - t1, 'rc': rc}))\n")
    proc = subprocess.run([sys.executable, "-c", code] + list(gen_argv or []),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RunFailed(f"import probe failed: {proc.stderr[-300:]}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


# ------------------------------------------------------- library workloads

class Served:
    """The model of pass 0 and the oracle's reference for the query rows."""

    def __init__(self, stack, reg, query_x):
        self.layers = [h.values.copy() for h in stack.layers]
        self.kind = reg.kind
        self.params = {k: v.copy() for k, v in reg.params.items()}
        self.latent = oracles.latent(query_x, self.kind, self.params)
        self.scores = oracles.decode(self.latent, self.layers)
        self.best = [oracles.top_order(r, TOP_N) for r in self.scores]
        self.trace = stack.training_trace

    def same_model(self, stack, reg) -> bool:
        return (stack.training_trace == self.trace
                and all(np.array_equal(h.values, r) for h, r in zip(stack.layers, self.layers))
                and all(np.array_equal(reg.params[k], v) for k, v in self.params.items()))


def run_library(run: Run, src: str, tracer: Tracer) -> None:
    spec = run.spec
    corpus = getattr(gen, "uniform_sparse" if spec.name == "train-sparse" else "xml_planted")(
        run.seed, **spec.gen_kw)
    run.properties = corpus.properties()
    train_idx, test_idx = oracles.split_rows(corpus.n_rows, 0.2, run.seed)
    train = corpus.subset(train_idx)
    train_path = run.path("train.txt")
    text = train.to_text()
    with open(train_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    query = corpus.subset(test_idx[:spec.query_rows])
    query_path = run.path("query.txt")
    with open(query_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(query.to_text())
    query_x = query.feature_dense()
    nq = query.n_rows
    model_path = run.path("model.xlc")
    cfg = xlc.AeTrainConfig(spec.dims, max_epochs=spec.epochs,
                            learning_rate=spec.lr, rel_tol=0.0, seed=run.seed)
    explain_cfg = xlc.ExplainConfig(lime=xlc.LimeConfig(num_samples=1000, k_features=5, seed=0))
    state: dict = {}

    def one_pass(k: int) -> None:
        # set-up is the program's parse of the training file; repeating it at
        # every pass spreads its samples over the run like the other timings
        loads = []
        with run.phase("setup") as ph:
            for _ in range(SETUPS_PER_PASS):
                t0 = time.perf_counter()
                x_train, v = xlc.load_dataset(train_path)
                loads.append(time.perf_counter() - t0)
        run.add("setup_s", *map(ph.norm, loads))
        if k == 0:
            run.check(np.array_equal(x_train.values, train.feature_dense())
                      and v.entries == [(i, j, 1.0) for i, labs in enumerate(train.labels)
                                        for j in labs],
                      "load_dataset disagrees with the generated corpus")
            state["x_train"], state["v"] = x_train, v

        if k % spec.train_every:
            one_serve(k, None, state["stack"], state["reg"])
            return
        with run.phase("train") as t_train:
            stack = xlc.train_autoencoder(v, cfg)
            w = xlc.encode(v, stack)
            reg = xlc.fit_regressor(x_train, w, "ridge-linear", {"lam": 1e-3})
        run.check(all(h.values.min() >= 0 for h in stack.layers),
                  "trained stack has a negative entry")
        if k == 0:
            ref = state["ref"] = Served(stack, reg, query_x)
            state["explain_rows"] = _explain_rows(
                query_x, ref.latent, explain_cfg.lime.k_features)
            loss = oracles.recon_loss(train.labels, train.n_labels, ref.layers)
            final = stack.training_trace[-1]
            run.check(abs(loss - final) <= 1e-9 * abs(final),
                      f"reconstruction loss {final!r} but numpy gives {loss!r}")
            run.check(final < stack.training_trace[0],
                      "training did not lower the reconstruction loss")
            run.values["recon_rel"] = final / v.nnz
        else:
            run.check(state["ref"].same_model(stack, reg),
                      f"pass {k} model differs from pass 0")

        with run.phase("persist"):
            xlc.save_model(model_path, xlc.ModelContainer(encoder=stack, regressor=reg))
        state["stack"], state["reg"] = stack, reg
        one_serve(k, t_train.norm(t_train.seconds), stack, reg)

    def one_serve(k: int, train_s, stack, reg) -> None:
        """The serving phases of pass k, on the model saved at model_path."""
        ref = state["ref"]
        preds_path = run.path("preds.txt")
        with run.phase("predict") as ph:
            t_pred, _ = run.cli("predict", "--model", model_path, "--data", query_path,
                                "--top-n", str(TOP_N), "--out", preds_path)
        t_pred = ph.norm(t_pred)
        with open(preds_path, encoding="utf-8") as fh:
            ranked = oracles.parse_predictions(fh.read())
        run.check(len(ranked) == nq, "predict wrote the wrong number of rows")
        for i, (idx, scores) in enumerate(ranked):
            run.check(oracles.ranked_ok(ref.scores[i], idx, scores, ref.best[i],
                                        score_rtol=1e-5),
                      f"xlc predict row {i} disagrees with the oracle")

        lat = []
        with run.phase("latency") as ph:
            for r in range(spec.latency_samples):
                qi = r % nq
                run.tracer.request = f"pass-{k}/row-{qi}"
                t0 = time.perf_counter()
                pred = xlc.predict_labels(query_x[qi], reg, stack, n=TOP_N)
                lat.append(time.perf_counter() - t0)
                ok = np.all(np.abs(pred.scores - ref.scores[qi])
                            <= 1e-9 * max(np.abs(ref.scores[qi]).max(), 1e-300))
                run.check(bool(ok) and oracles.ranked_ok(
                    ref.scores[qi], [j for j, _ in pred.top_n],
                    [sc for _, sc in pred.top_n], ref.best[qi]),
                    f"predict_labels row {qi} disagrees with the oracle")
        lat = list(map(ph.norm, lat))
        ex_times, explained = [], []
        with run.phase("explain") as ph:
            for e in range(spec.explains):
                qi = state["explain_rows"][e % EXPLAIN_ROWS]
                run.tracer.request = f"pass-{k}/row-{qi}"
                t0 = time.perf_counter()
                explained.append((qi, xlc.explain_prediction(query_x[qi], reg, stack,
                                                             explain_cfg)))
                ex_times.append(time.perf_counter() - t0)
        ex_times = list(map(ph.norm, ex_times))
        r2, degenerate = [], []
        for qi, ex in explained:
            run.check(_explanation_ok(ex.latent_unit, ex.latent_value,
                                      ex.surrogate.local_fit_r2, ref.latent[qi]),
                      f"explanation of row {qi} disagrees with the oracle")
            r2.append(ex.surrogate.local_fit_r2)
            degenerate.append(ex.degenerate or ex.surrogate.degenerate)
        run.tracer.request = f"pass-{k}"

        eval_path = run.path("eval.txt")
        with run.phase("eval") as ph:
            t_eval, _ = run.cli("eval", "--model", model_path, "--data", query_path,
                                "--k", ",".join(map(str, EVAL_KS)), "--split", "all",
                                "--out", eval_path)
        t_eval = ph.norm(t_eval)
        with open(eval_path, encoding="utf-8") as fh:
            printed = oracles.parse_eval(fh.read())
        quality = _check_eval(run, printed, [r[0] for r in ranked], query.labels)

        times = {"train": train_s, "predict": t_pred, "eval": t_eval}
        run.record_pass(0, times, lat, ex_times, nq, printed["rows"],
                        t_pred + sum(lat) + sum(ex_times) + t_eval)
        if k == 0:
            run.values.update(quality)
            run.values["local_fit_r2"] = float(np.mean(r2))
            run.values["degenerate_share"] = float(np.mean(degenerate))

    run.timed_loop(one_pass)

    run.values["dataset_bytes"] = os.path.getsize(train_path)
    run.values["model_bytes"] = os.path.getsize(model_path)
    _matrix_counts(run, state["v"])
    if tracer.enabled:
        _library_probes(run, src, cfg, state, train_path, query_path, text)


def _explain_rows(query_x, ref_latent, k_features: int) -> list[int]:
    """EXPLAIN_ROWS query rows, evenly spaced among those with a positive
    top latent value and at least k_features nonzero features (repeating
    rows if fewer qualify). On such a row LIME's forward selection runs all
    k_features steps, so every explanation does the same work whatever
    the seed."""
    eligible = [i for i, (x, lat) in enumerate(zip(query_x, ref_latent))
                if lat.max() > 0 and np.count_nonzero(x) >= k_features]
    if not eligible:
        raise RunFailed("no query row can be explained in full")
    return [eligible[j * len(eligible) // EXPLAIN_ROWS] for j in range(EXPLAIN_ROWS)]


def _check_eval(run: Run, printed: dict, ranked_lists, truths) -> dict:
    """Recompute P@k and nDCG@k from the ranked lists and compare them with
    what `xlc eval` printed (six decimals). Returns the recomputed quality."""
    rows = [(r, t) for r, t in zip(ranked_lists, truths) if t]
    run.check(printed.get("rows") == len(rows), "eval evaluated the wrong number of rows")
    quality = {}
    for k in EVAL_KS:
        pk = [oracles.precision_ndcg(r, t, k) for r, t in rows]
        quality[k] = (sum(a for a, _ in pk) / len(rows), sum(b for _, b in pk) / len(rows))
        run.check(abs(printed.get(f"P@{k}", -1.0) - quality[k][0]) <= 6e-7
                  and abs(printed.get(f"nDCG@{k}", -1.0) - quality[k][1]) <= 6e-7,
                  f"eval printed P@{k}/nDCG@{k} that the ranked lists do not give")
    return {"p_at_1": quality[1][0], "ndcg_at_5": quality[5][1]}


def _explanation_ok(unit, value, r2, ref_latent) -> bool:
    top = float(ref_latent.max())
    tol = 1e-9 * max(top, 1e-300)
    return (0 <= unit < ref_latent.size and ref_latent[unit] >= top - tol
            and abs(value - ref_latent[unit]) <= tol and r2 <= 1.0)


def _matrix_counts(run: Run, v) -> None:
    """Computed, not measured: bytes of a dense float64 V and of its CSR
    arrays."""
    csr = v.to_csr()
    run.values["dense_v_bytes"] = v.n_rows * v.n_labels * 8
    run.values["csr_bytes"] = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes


def _train_probes(run: Run, v, cfg, stack) -> None:
    """Single-call timings of the autoencoder layer on the run's data."""
    cfg1 = xlc.AeTrainConfig(cfg.layer_dims, max_epochs=1, learning_rate=cfg.learning_rate,
                             rel_tol=cfg.rel_tol, init_scheme=cfg.init_scheme, seed=cfg.seed)
    with run.phase("probe.train1") as t:
        xlc.train_autoencoder(v, cfg1)
    run.values["train1_ms"] = 1e3 * t.seconds
    tracemalloc.start()
    try:
        xlc.train_autoencoder(v, cfg1)
        run.values["train_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    with run.phase("probe.grad") as t:
        xlc.ae_gradient(v, stack, 1)
    run.values["grad_ms"] = 1e3 * t.seconds
    with run.phase("probe.loss") as t:
        xlc.reconstruction_loss(v, stack)
    run.values["loss_ms"] = 1e3 * t.seconds
    entries = list(zip(v.entry_rows.tolist(), v.entry_cols.tolist(), v.entry_vals.tolist()))
    builds = []
    for _ in range(3):
        t0 = time.perf_counter()
        xlc.LabelMatrix(v.n_rows, v.n_labels, entries)
        builds.append(time.perf_counter() - t0)
    run.values["label_matrix_build_ms"] = 1e3 * statistics.median(builds)


def _library_probes(run, src, cfg, state, train_path, query_path, text) -> None:
    v = state["v"]
    _train_probes(run, v, cfg, state["stack"])
    copy_path = run.path("resaved.txt")
    with run.phase("probe.save_dataset"):
        xlc.save_dataset(copy_path, state["x_train"], v)
    with open(copy_path, encoding="utf-8") as fh:
        run.check(fh.read() == text, "save_dataset does not reproduce the dataset file")
    with run.phase("probe.nmf"):
        xlc.nmf_factorize(v, xlc.NmfConfig(k=cfg.layer_dims[0], max_iters=NMF_PROBE_ITERS,
                                           rel_tol=0.0, seed=run.seed))

    # every CLI command on the workload's own files (the training rows for
    # train-ae and fit-reg); gen-synth has no such form and runs at the
    # README shape
    spec = run.spec
    with run.phase("probe.cli"):
        run.cli("gen-synth", "--blocks", "4", "--rows", "200", "--labels-per-block", "10",
                "--seed", str(run.seed), "--out", run.path("synth.txt"))
        model2 = run.path("cli-model.xlc")
        run.cli("train-ae", "--data", train_path, "--dims", ",".join(map(str, spec.dims)),
                "--epochs", str(spec.epochs), "--lr", repr(spec.lr), "--rel-tol", "0",
                "--init", "random-uniform", "--seed", str(run.seed), "--out", model2)
        run.cli("fit-reg", "--data", train_path, "--model", model2, "--kind", "ridge",
                "--holdout-frac", "0.2", "--split-seed", str(run.seed))
        run.cli("hierarchy", "--model", model2, "--layer", str(len(spec.dims)), "--unit", "0",
                "--out", run.path("hier.txt"))
        run.cli("explain", "--model", model2, "--data", query_path, "--row", "0",
                "--k-features", "5", "--out", run.path("explain.txt"))
    m2 = xlc.load_model(model2)
    run.check(m2.encoder is not None and all(
        np.array_equal(a.values, b.values)
        for a, b in zip(m2.encoder.layers, state["stack"].layers)),
        "xlc train-ae and train_autoencoder disagree on the same inputs")
    run.values["import_ms"] = 1e3 * statistics.median(
        _import_probe(src)["import_s"] for _ in range(IMPORT_REPEATS))


# ------------------------------------------------------------- cli-small

README_GEN = ("--blocks", "4", "--rows", "200", "--labels-per-block", "10", "--noise", "0.05")


def run_cli_small(run: Run, src: str, tracer: Tracer) -> None:
    synth, names = run.path("synth.txt"), run.path("names.txt")
    model = run.path("model.xlc")
    first = gen.session_seed(run.seed, 0)
    gen_argv = ("gen-synth",) + README_GEN + ("--seed", str(first), "--out", synth,
                                              "--names-out", names)
    imports = []
    for _ in range(SETUP_REPEATS):
        with run.phase("setup") as ph:
            probe = _import_probe(src, gen_argv)
        run.check(probe["rc"] == 0, "gen-synth failed in the set-up child")
        run.add("setup_s", ph.norm(probe["import_s"] + probe["gen_s"]))
        imports.append(probe["import_s"])
    run.values["import_ms"] = 1e3 * statistics.median(imports)

    quality: list[dict] = []
    probe_args: list = []

    def session(k: int) -> None:
        s = gen.session_seed(run.seed, k % DATASETS)
        split_seed = s + 2
        times = {}
        with run.phase("gen") as ph:
            t_gen, _ = run.cli("gen-synth", *README_GEN, "--seed", str(s),
                               "--out", synth, "--names-out", names)
        times["gen"] = ph.norm(t_gen)
        with run.phase("train") as ph:
            t_ae, _ = run.cli("train-ae", "--data", synth, "--dims", "8,4", "--epochs", "2000",
                              "--lr", "1e-4", "--init", "nmf-greedy", "--seed", str(s + 1),
                              "--label-names", names, "--out", model)
            t_fit, _ = run.cli("fit-reg", "--data", synth, "--model", model, "--kind", "ridge",
                               "--seed", "0", "--holdout-frac", "0.2",
                               "--split-seed", str(split_seed))
        times["train"] = ph.norm(t_ae + t_fit)
        eval_path = run.path("eval.txt")
        with run.phase("eval") as ph:
            times["eval"], _ = run.cli("eval", "--model", model, "--data", synth,
                                       "--k", ",".join(map(str, EVAL_KS)), "--split", "test",
                                       "--out", eval_path)
        times["eval"] = ph.norm(times["eval"])
        preds_path = run.path("preds.txt")
        with run.phase("predict") as ph:
            times["predict"], _ = run.cli("predict", "--model", model, "--data", synth,
                                          "--top-n", str(TOP_N), "--out", preds_path)
        times["predict"] = ph.norm(times["predict"])
        hier_path = run.path("hier.txt")
        with run.phase("hierarchy") as ph:
            times["hierarchy"], _ = run.cli("hierarchy", "--model", model, "--layer", "1",
                                            "--unit", "0", "--top-m", "5", "--out", hier_path)
        times["hierarchy"] = ph.norm(times["hierarchy"])
        ex_path, ex_json = run.path("explain.txt"), run.path("explain.json")
        with run.phase("explain") as ph:
            times["explain"], _ = run.cli("explain", "--model", model, "--data", synth,
                                          "--row", "0", "--samples", "1000",
                                          "--k-features", "6", "--seed", str(s),
                                          "--out", ex_path, "--json-out", ex_json)
        times["explain"] = ph.norm(times["explain"])

        # checks, outside the session's time
        with open(synth, encoding="utf-8") as fh:
            data = oracles.parse_dataset(fh.read())
        labels, x, p = data.labels, data.feature_dense(), data.n_labels
        container = xlc.load_model(model)
        stack, reg = container.encoder, container.regressor
        layers = [h.values for h in stack.layers]
        run.check(all(h.min() >= 0 for h in layers), "trained stack has a negative entry")
        final = stack.training_trace[-1]
        loss = oracles.recon_loss(labels, p, layers)
        run.check(abs(loss - final) <= 1e-9 * abs(final),
                  f"reconstruction loss {final!r} but numpy gives {loss!r}")
        run.check(final < stack.training_trace[0],
                  "training did not lower the reconstruction loss")
        lat_ref = oracles.latent(x, reg.kind, reg.params)
        ref = oracles.decode(lat_ref, layers)
        with open(preds_path, encoding="utf-8") as fh:
            ranked = oracles.parse_predictions(fh.read())
        run.check(len(ranked) == len(labels), "predict wrote the wrong number of rows")
        for i, (idx, scores) in enumerate(ranked):
            run.check(oracles.ranked_ok(ref[i], idx, scores, score_rtol=1e-5),
                      f"xlc predict row {i} disagrees with the oracle")
        _, test_idx = oracles.split_rows(len(labels), 0.2, split_seed)
        with open(eval_path, encoding="utf-8") as fh:
            printed = oracles.parse_eval(fh.read())
        q = _check_eval(run, printed, [ranked[i][0] for i in test_idx],
                        [labels[i] for i in test_idx])
        with open(hier_path, encoding="utf-8") as fh:
            run.check(fh.read() == _hierarchy_line(layers[0][:, 0], container.label_names),
                      "hierarchy output disagrees with the H1 column")
        with open(ex_json, encoding="utf-8") as fh:
            ex = json.load(fh)
        run.check(_explanation_ok(ex["latent_unit"], ex["latent_value"],
                                  ex["surrogate"]["local_fit_r2"], lat_ref[0]),
                  "explanation of row 0 disagrees with the oracle")

        lat = []
        with run.phase("latency") as ph:
            for i in list(range(len(labels))) * LATENCY_REPEATS:
                run.tracer.request = f"pass-{k}/row-{i}"
                t0 = time.perf_counter()
                pred = xlc.predict_labels(x[i], reg, stack, n=TOP_N)
                lat.append(time.perf_counter() - t0)
                run.check(oracles.ranked_ok(ref[i], [j for j, _ in pred.top_n],
                                            [sc for _, sc in pred.top_n]),
                          f"predict_labels row {i} disagrees with the oracle")
        lat = list(map(ph.norm, lat))
        run.tracer.request = f"pass-{k}"

        run.record_pass(k % DATASETS, times, lat, [times["explain"]], len(labels),
                        printed["rows"], sum(times.values()) - times["train"])
        if k < DATASETS:
            quality.append(dict(q, recon_rel=final / sum(len(l) for l in labels),
                                local_fit_r2=ex["surrogate"]["local_fit_r2"],
                                degenerate_share=float(ex["degenerate"]
                                                       or ex["surrogate"]["degenerate"])))
        if k == 0:
            run.properties = data.properties()
            run.values["dataset_bytes"] = os.path.getsize(synth)
            run.values["model_bytes"] = os.path.getsize(model)
            _x, v = xlc.load_dataset(synth)
            _matrix_counts(run, v)
            probe_args.extend([v, xlc.AeTrainConfig((8, 4), max_epochs=2000,
                                                    learning_rate=1e-4,
                                                    init_scheme="nmf-greedy", seed=s + 1),
                               stack])

    run.timed_loop(session)
    if tracer.enabled:
        _train_probes(run, *probe_args)
    for key in quality[0]:
        run.values[key] = float(np.mean([q[key] for q in quality]))


def _hierarchy_line(col, names) -> str:
    """`xlc hierarchy --layer 1 --unit 0 --top-m 5` for a column of H1."""
    order = np.lexsort((np.arange(col.size), -col))
    kids = [int(j) for j in order[:5] if col[j] > 0]
    return "H1, unit 0: " + ", ".join(names[j] for j in kids) + "\n"


# --------------------------------------------------------------- metrics

END_TO_END = {
    "setup_s": "s", "train_s": "s", "recon_rel": "1",
    "predict_rows_per_s": "rows/s", "predict_p50_ms": "ms", "predict_p90_ms": "ms",
    "eval_rows_per_s": "rows/s", "explain_p50_ms": "ms", "sessions_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "autoencoder.train_ms": "ms", "autoencoder.epochs": "count",
    "autoencoder.epoch_ms": "ms", "autoencoder.train1_ms": "ms",
    "autoencoder.grad_ms": "ms", "autoencoder.loss_ms": "ms",
    "autoencoder.train_peak_mb": "MB", "autoencoder.encode_ms": "ms",
    "autoencoder.decode_us_per_row": "us",
    "matrix.dense_v_bytes": "bytes", "matrix.csr_bytes": "bytes",
    "matrix.label_matrix_build_ms": "ms",
    "pipeline.fit_ms": "ms", "pipeline.predict_latent_us_per_row": "us",
    "pipeline.rank_us_per_row": "us", "pipeline.predict_labels_us_per_row": "us",
    "pipeline.metrics_us_per_row": "us", "pipeline.p_at_1": "1",
    "pipeline.ndcg_at_5": "1",
    "interpret.explain_ms": "ms", "interpret.lime_predict_fn_calls": "count",
    "interpret.lime_predict_fn_ms": "ms", "interpret.lime_select_ms": "ms",
    "interpret.hierarchy_ms": "ms", "interpret.local_fit_r2": "1",
    "interpret.degenerate_share": "1",
    "dataio.load_dataset_ms": "ms", "dataio.dataset_bytes": "bytes",
    "dataio.save_dataset_ms": "ms", "dataio.save_model_ms": "ms",
    "dataio.load_model_ms": "ms", "dataio.model_bytes": "bytes",
    "nmf.factorize_ms": "ms", "nmf.iters": "count", "nmf.iter_ms": "ms",
    "cli.import_ms": "ms", "cli.gen_synth_ms": "ms", "cli.train_ae_ms": "ms",
    "cli.fit_reg_ms": "ms", "cli.eval_ms": "ms", "cli.predict_ms": "ms",
    "cli.hierarchy_ms": "ms", "cli.explain_ms": "ms",
}
for _layer in LAYERS:
    PER_LAYER.update({f"{_layer}.calls": "count", f"{_layer}.failed": "count",
                      f"{_layer}.self_ms": "ms"})


def _over_passes(run: Run, key: str, pick=statistics.median) -> float:
    """`pick` over the passes on each input dataset, averaged over the
    datasets; by default the median pass.

    What normalization leaves of the host's drift is spread over the run;
    the median of many samples over the whole run is steadier from run to
    run than the fastest moment a run happens to catch.
    """
    by_data: dict[int, list] = {}
    for p in run.passes:
        if p[key] is not None:
            by_data.setdefault(p["dataset"], []).append(p[key])
    return statistics.fmean(pick(v) for v in by_data.values())


def _pooled(q: float):
    """The q-th percentile of every sample of the passes' lists."""
    return lambda lists: float(np.percentile(np.concatenate(lists), q))


def end_to_end(run: Run) -> dict:
    return {
        "setup_s": statistics.median(run.samples["setup_s"]),
        "train_s": _over_passes(run, "train_s"),
        "recon_rel": run.values["recon_rel"],
        "predict_rows_per_s": _over_passes(run, "predict_rows_per_s"),
        "predict_p50_ms": 1e3 * _over_passes(run, "lat_s", _pooled(50)),
        "predict_p90_ms": 1e3 * _over_passes(run, "lat_s", _pooled(90)),
        "eval_rows_per_s": _over_passes(run, "eval_rows_per_s"),
        "explain_p50_ms": 1e3 * _over_passes(run, "explain_s", _pooled(50)),
        "sessions_per_s": 1.0 / (_over_passes(run, "train_s") + _over_passes(run, "serve_s")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _median_ms(spans) -> float:
    return 1e3 * statistics.median(sp.duration for sp in spans)


def _mean_us(spans) -> float:
    return 1e6 * statistics.fmean(sp.duration for sp in spans)


def per_layer(run: Run, tracer: Tracer) -> dict:
    """Per-layer metrics from the spans of a traced run and its probes."""
    v = run.values
    under = tracer.under
    named = {}
    for sp in tracer.spans:
        named.setdefault(sp.name, []).append(sp)
    out = {}

    trains = under("phase.train", "autoencoder.train_autoencoder")
    epochs0 = trains[0].info
    out["autoencoder.train_ms"] = _median_ms(trains)
    out["autoencoder.epochs"] = epochs0
    out["autoencoder.train1_ms"] = v["train1_ms"]
    out["autoencoder.epoch_ms"] = (1e3 * trains[0].duration - v["train1_ms"]) / max(epochs0 - 1, 1)
    for key in ("grad_ms", "loss_ms", "train_peak_mb"):
        out[f"autoencoder.{key}"] = v[key]
    out["autoencoder.encode_ms"] = _median_ms(under("phase.train", "autoencoder.encode"))
    out["autoencoder.decode_us_per_row"] = _mean_us(under("phase.latency", "autoencoder.decode"))

    out["matrix.dense_v_bytes"] = v["dense_v_bytes"]
    out["matrix.csr_bytes"] = v["csr_bytes"]
    out["matrix.label_matrix_build_ms"] = v["label_matrix_build_ms"]

    out["pipeline.fit_ms"] = _median_ms(under("phase.train", "pipeline.fit_regressor"))
    for key, fn in (("predict_latent", "predict_latent"), ("rank", "rank_labels"),
                    ("predict_labels", "predict_labels")):
        out[f"pipeline.{key}_us_per_row"] = _mean_us(under("phase.latency", f"pipeline.{fn}"))
    scored = [sp for sp in under("phase.eval")
              if sp.name in ("pipeline.precision_at_k", "pipeline.ndcg_at_k")]
    out["pipeline.metrics_us_per_row"] = (
        1e6 * sum(sp.duration for sp in scored)
        / len(under("phase.eval", "pipeline.predict_labels")))
    out["pipeline.p_at_1"] = v["p_at_1"]
    out["pipeline.ndcg_at_5"] = v["ndcg_at_5"]

    own = tracer.self_times()
    limes = under("phase.explain", "interpret.lime_explain")
    lime_ids = {sp.sid for sp in limes}
    fn_calls = [sp for sp in under("phase.explain", "pipeline.predict_latent")
                if sp.parent in lime_ids]
    out["interpret.explain_ms"] = 1e3 * statistics.fmean(
        sp.duration for sp in under("phase.explain", "interpret.explain_prediction"))
    out["interpret.lime_predict_fn_calls"] = len(fn_calls) / len(limes)
    out["interpret.lime_predict_fn_ms"] = 1e3 * sum(sp.duration for sp in fn_calls) / len(limes)
    out["interpret.lime_select_ms"] = 1e3 * statistics.fmean(own[sp.sid] for sp in limes)
    out["interpret.hierarchy_ms"] = 1e3 * statistics.fmean(
        sp.duration for sp in under("phase.explain", "interpret.extract_hierarchy"))
    out["interpret.local_fit_r2"] = v["local_fit_r2"]
    out["interpret.degenerate_share"] = v["degenerate_share"]

    loads = under("phase.setup", "dataio.load_dataset") or under("phase.train", "dataio.load_dataset")
    out["dataio.load_dataset_ms"] = _median_ms(loads)
    out["dataio.dataset_bytes"] = v["dataset_bytes"]
    out["dataio.save_dataset_ms"] = _median_ms(named["dataio.save_dataset"])
    out["dataio.save_model_ms"] = _median_ms(named["dataio.save_model"])
    out["dataio.load_model_ms"] = _median_ms(named["dataio.load_model"])
    out["dataio.model_bytes"] = v["model_bytes"]

    # the first layer's NMF of each nmf-greedy training, else the probe
    nmfs = [tracer.children(sp, "nmf.nmf_factorize")[0] for sp in trains
            if tracer.children(sp, "nmf.nmf_factorize")] or under("phase.probe.nmf", "nmf.nmf_factorize")
    out["nmf.factorize_ms"] = _median_ms(nmfs)
    out["nmf.iters"] = nmfs[0].info
    out["nmf.iter_ms"] = 1e3 * statistics.median(sp.duration / sp.info for sp in nmfs)

    out["cli.import_ms"] = v["import_ms"]
    for cmd in ("gen_synth", "train_ae", "fit_reg", "eval", "predict", "hierarchy", "explain"):
        out[f"cli.{cmd}_ms"] = _median_ms(named[f"cli.{cmd}"])

    for layer, (calls, failed, self_s) in tracer.layer_summary().items():
        out[f"{layer}.calls"] = calls
        out[f"{layer}.failed"] = failed
        out[f"{layer}.self_ms"] = 1e3 * self_s
    return out


ANNOTATE = {
    "autoencoder.train_autoencoder": lambda stack: len(stack.training_trace) - 1,
    "nmf.nmf_factorize": lambda f: len(f.objective_trace),
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workdir: str, src: str, size: str = "full") -> dict:
    """One workload run; returns the result object run.py prints."""
    tracer = Tracer(trace)
    run = Run(spec_for(workload, size), seed, seconds, tracer, workdir)
    if trace:
        tracer.instrument(xlc, ANNOTATE)
    try:
        (run_cli_small if workload == "cli-small" else run_library)(run, src, tracer)
        e2e = end_to_end(run)
        layers = per_layer(run, tracer) if trace else None
    finally:
        tracer.restore()
    metrics = layers if trace else e2e
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "end_to_end": e2e,
        "properties": run.properties,
        "problems": run.problems,
        "passes": run.passes,
        "setup_samples": run.samples["setup_s"],
        "reference_samples": [r for _, r in run.refs],
        "spans": tracer.spans,
    }
