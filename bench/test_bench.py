"""Self-tests of the benchmark. Run with: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import workloads  # noqa: E402
import xlc.pipeline  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]
ALL = list(workloads.SPECS)                 # the gated workloads and cli-small
COUNTS = ("autoencoder.epochs", "nmf.iters", "interpret.lime_predict_fn_calls",
          "matrix.dense_v_bytes", "matrix.csr_bytes", "dataio.model_bytes",
          "dataio.dataset_bytes", "pipeline.p_at_1", "pipeline.ndcg_at_5",
          "interpret.local_fit_r2")


def _tiny(workload, trace, tmp_path, seed=3, tag=""):
    work = tmp_path / f"{workload}-{trace}-{seed}{tag}"
    work.mkdir()
    return workloads.run_workload(workload, seed, 0.1, trace, str(work),
                                  str(ROOT / "src"), size="tiny")


@pytest.mark.parametrize("workload", ALL)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny",
         "--spans-out", str(spans_path)],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    assert spans_path.exists() == bool(trace)
    if trace:
        spans = json.loads(spans_path.read_text())
        by_id = {s["id"]: s for s in spans}
        layers = {s["name"].split(".")[0] for s in spans}
        assert {"dataio", "matrix", "nmf", "autoencoder", "pipeline", "interpret", "cli"} <= layers
        for s in spans:
            assert s["start"] <= s["end"]
            if s["parent"] is not None:
                parent = by_id[s["parent"]]
                assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
        assert any(s["request"] and "/row-" in s["request"] for s in spans)


def test_metric_tables_match_the_benchmark_file():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == workloads.PER_LAYER
    assert set(NAMES) <= set(ALL)


def test_same_seed_gives_same_inputs_counts_and_quality(tmp_path):
    for make in (gen.uniform_sparse, gen.xml_planted):
        kw = workloads.TINY["train-sparse" if make is gen.uniform_sparse
                            else "serve-xml"]["gen_kw"]
        assert make(7, **kw).to_text() == make(7, **kw).to_text()
        assert make(7, **kw).to_text() != make(8, **kw).to_text()
    assert gen.session_seed(7, 2) == gen.session_seed(7, 2) != gen.session_seed(8, 2)
    for workload in ALL:
        a, b = _tiny(workload, 1, tmp_path, 4), _tiny(workload, 1, tmp_path, 40)
        a2 = _tiny(workload, 1, tmp_path, 4, tag="-again")
        for key in COUNTS:
            assert a["metrics"][key] == a2["metrics"][key], (workload, key)
        assert a["end_to_end"]["recon_rel"] == a2["end_to_end"]["recon_rel"]
        assert a["properties"] == a2["properties"] != b["properties"]


def test_a_wrong_prediction_counts_as_a_failed_operation(tmp_path, monkeypatch):
    def reversed_rank(scores):
        return np.lexsort((np.arange(scores.size), scores))

    monkeypatch.setattr(xlc.pipeline, "rank_labels", reversed_rank)
    result = _tiny("train-sparse", 0, tmp_path)
    assert not result["correct"]
    assert result["failed"] > 0
    assert any("disagrees with the oracle" in p for p in result["problems"])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", NAMES[0], "--seed", "0", "--seconds", "1",
                            "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_baseline_records_every_workload_and_metric():
    base = json.loads((HERE / "baseline.json").read_text())
    assert set(base["workloads"]) == set(NAMES)
    for name, entry in base["workloads"].items():
        assert set(entry["end_to_end"]) == set(workloads.END_TO_END), name
        assert set(entry["per_layer"]) == set(workloads.PER_LAYER), name
        assert set(entry["tracing_overhead"]) == set(workloads.END_TO_END), name
        assert not any(entry["failed"]) and entry["traced_failed"] == 0, name
        assert entry["record"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
