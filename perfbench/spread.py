"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/spread.py --workloads ladder coupled catalog \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--trace-seeds 7 8 9] [--save FILE --label TEXT]

Runs perfbench/run.py once per (workload, seed), one run at a time, with
BENCHMARK.json's run_seconds.  For each end-to-end metric it prints the
median, the quartiles from statistics.quantiles(values, n=4) and their
distance as a share of the median, next to the metric's bound.  With
--trace-seeds it also makes one traced run per workload and seed, keeps
their per-layer metrics and reports the median tracing overhead.  --save writes the whole
summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else float("inf"), "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace-seeds", nargs="*", type=int, default=[])
    ap.add_argument("--save", type=Path, default=None)
    ap.add_argument("--label", default="", help="free text stored with --save, e.g. the commit")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"label": args.label, "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for wl in args.workloads:
        results = []
        for seed in args.seeds:
            res = run_once(wl, seed, seconds, 0)
            results.append(res)
            print(f"{wl} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "metrics": {}}
        for name, bound in bounds.items():
            s = spread([r["metrics"][name]["value"] for r in results])
            s["bound"] = bound
            entry["metrics"][name] = s
            print(f"{wl} {name}: median {s['median']:.4g} q1 {s['q1']:.4g} q3 {s['q3']:.4g} "
                  f"iqr/median {s['iqr_share']:.3f} (bound {bound})", flush=True)
        traced = {}
        for seed in args.trace_seeds:
            res = run_once(wl, seed, seconds, 1)
            traced[seed] = {"correct": res["correct"], "metrics": res["metrics"]}
            print(f"{wl} traced seed {seed}: correct={res['correct']} overhead "
                  f"{res['metrics']['trace.overhead_s']['value']:.4g} s", flush=True)
        if traced:
            overheads = [t["metrics"]["trace.overhead_s"]["value"] for t in traced.values()]
            entry["traced"] = traced
            entry["trace_overhead_median_s"] = statistics.median(overheads)
            print(f"{wl} tracing overhead: median {entry['trace_overhead_median_s']:.4g} s "
                  f"of {len(overheads)} traced runs", flush=True)
        summary["workloads"][wl] = entry
    if args.save is not None:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
