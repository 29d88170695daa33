"""Benchmark runner for mfbsde.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ladder|coupled|catalog \
        --seed N --seconds S --trace 0|1

Each run starts one child process (worker.py) that imports mfbsde from the
checkout's src/, sets the workload up, times its operations for S seconds
and checks every output.  With --trace 0 the result reports the end-to-end
metrics (wall_s, setup_s, peak_rss_mb); with --trace 1 the per-layer metrics
of a traced run, the tracing overhead included.  Every metric is printed by
name with its unit, the machine facts and the full record are written to
perfbench/out/, and the last line of stdout is the JSON result
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("ladder", "coupled", "catalog")
BLAS_THREADS = "1"   # at most nproc; one thread keeps runs on a shared box steady
CHILD_TIMEOUT_S = 150
# Import time jitters by about 10% from one process to the next, so setup_s
# takes the median import time of these extra import-only processes and the
# workload's own.
IMPORT_PROBES = 4


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_worker(args, env, extra: list[str]) -> dict | None:
    """Run worker.py to completion; its last stdout line, parsed, or None."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
           "--launched", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: worker exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "mfbsde" / "__init__.py").is_file():
        print(f"perfbench: no mfbsde sources under {ROOT / 'src'}; "
              "run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    probes = [] if args.trace else [
        run_worker(args, env, ["--import-only"]) for _ in range(IMPORT_PROBES)
    ]
    if None in probes:
        return 1
    child = run_worker(args, env, ["--import-probes",
                                   ",".join(repr(p["import_s"]) for p in probes)])
    if child is None:
        return 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": {**machine_facts(), **child.pop("facts")},
              **child}
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(f"machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']!r} "
          f"blas_threads={m['blas_threads']}")
    walls = [o["wall_s"] for o in child["ops"]]
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} operations, "
          f"{child['failed']} failed (fail_ratio {child['failed'] / len(walls):g}), "
          f"wall per op {' '.join(f'{w:.3f}' for w in walls)} s")
    for op in child["ops"]:
        for problem in op["problems"]:
            print(f"  op {op['op']}: {problem}")
    print(f"accuracy: {json.dumps(child['accuracy'])}")
    for name, metric in child["metrics"].items():
        print(f"metric {name} = {metric['value']} {metric['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({key: child[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
