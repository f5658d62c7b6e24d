"""Repeat the benchmark over seeds and record medians, spreads and the
traced per-layer table.

    python3 bench/baseline.py --seeds 10 --out bench/baseline.json

For every workload of BENCHMARK.json it runs run.py once per seed (seeds
0..N-1) with --trace 0, and once more on seed 0 with --trace 1.
The spread of a metric is the distance between the first and third
quartile of its values over the seeds, as a share of their median; the
tracing overhead is each traced end-to-end figure minus the untraced one
on the same seed, as a share of the untraced one. It exits 1 if any spread
exceeds its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().split("\n")
    return json.loads(lines[-1]), lines[:-1]


def _prefixed(lines, prefix):
    return next(json.loads(l[len(prefix):]) for l in lines if l.startswith(prefix))


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf"), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}

    report = {"run_seconds": args.seconds, "seeds": list(range(args.seeds)), "workloads": {}}
    worst_ok = True
    for name in (w["name"] for w in BENCH["workloads"]):
        results = []
        for seed in range(args.seeds):
            result, lines = run(name, seed, args.seconds, 0)
            results.append(result)
            if seed == 0:
                record = _prefixed(lines, "# record: ")
                untraced0 = {k: m["value"] for k, m in result["metrics"].items()}
            print(f"{name} seed {seed}: failed {result['failed']}/{result['attempted']}",
                  file=sys.stderr)
        entry = {
            "record": record,
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {},
        }
        for metric, bound in bounds.items():
            s = spread([r["metrics"][metric]["value"] for r in results])
            s["unit"] = results[0]["metrics"][metric]["unit"]
            s["bound"] = bound
            entry["end_to_end"][metric] = s
            flag = "" if s["spread"] <= bound / 3 else "  <-- above bound/3"
            worst_ok &= s["spread"] <= bound
            rel = " ".join(f"{x / s['median']:.3f}" for x in s["values"])
            print(f"{name:<13} {metric:<20} median {s['median']:<12.6g} spread "
                  f"{s['spread']:.4f} (bound {bound}){flag}  [{rel}]")
        traced, lines = run(name, 0, args.seconds, 1)
        traced_e2e = _prefixed(lines, "# traced end-to-end: ")
        entry["per_layer"] = traced["metrics"]
        entry["traced_failed"] = traced["failed"]
        entry["tracing_overhead"] = {
            k: (traced_e2e[k] - v) / v for k, v in untraced0.items()}
        for k, share in entry["tracing_overhead"].items():
            print(f"{name:<13} traced-untraced {k:<20} {share:+.4f}")
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
