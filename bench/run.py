"""Benchmark for xlc: three seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py                        # every workload, one process each
    python3 bench/run.py --workload serve-xml --seed 3 --trace 0

Workloads (see workloads.py): train-sparse, serve-xml, cli-small. With
--trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run, and the line before it the traced end-to-end figures, so the
tracing overhead is their difference from an untraced run on the same
seed. Lines starting with "# " before it hold the run record, the
figures of every pass, every set-up time and a summary of the reference
kernel's times, by which end-to-end times are normalized (see
workloads.py). A table of the same numbers goes to standard error.

The package is imported from src/ of the checkout; BLAS and OpenMP are
pinned to one thread before numpy loads. Scratch files live in
.bench_work/ under the checkout and are removed at exit.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("train-sparse", "serve-xml", "cli-small")


def _git_commit() -> str:
    """The checked-out commit read from .git, or "unknown" outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy
    import xlc

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "xlc": xlc.__version__, "blas": blas, "commit": _git_commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _table(title: str, metrics: dict) -> str:
    lines = [title]
    for name, m in metrics.items():
        lines.append(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    return "\n".join(lines)


def run_one(args) -> int:
    if not (SRC / "xlc" / "__init__.py").is_file():
        print(f"error: no xlc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = workloads.run_workload(args.workload, args.seed, args.seconds,
                                        bool(args.trace), str(work), str(SRC), args.size)
    except workloads.RunFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    record = dict(run_record(args.workload, args.seed), inputs=result["properties"])
    print("# record: " + json.dumps(record))
    print("# passes: " + json.dumps([{k: v for k, v in p.items() if k != "lat_s"}
                                     for p in result["passes"]]))
    print("# setup_s samples: " + json.dumps(result["setup_samples"]))
    ref = result["reference_samples"]
    print("# reference kernel seconds (median, quartiles, count): "
          + json.dumps([statistics.median(ref), statistics.quantiles(ref, n=4), len(ref)]))
    if args.trace:
        print("# traced end-to-end: " + json.dumps(result["end_to_end"]))
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump([s.to_dict() for s in result["spans"]], fh)
    for problem in result["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    print(_table(f"{args.workload} seed {args.seed}: attempted {result['attempted']}, "
                 f"failed {result['failed']}", result["metrics"]), file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric with its unit."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        print(_table(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
                     f"error_rate {result['failed'] / result['attempted']:.6g}",
                     result["metrics"]))
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": m for k, m in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCH["run_seconds"],
                        help="measuring time per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the self-tests")
    parser.add_argument("--spans-out", help="with --trace 1, write every span here as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
