"""One benchmark run of one workload, in its own process.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload ladder --seed 7 --seconds 30 \
        --trace 0 --launched <time.monotonic() at spawn> [--import-probes 0.7,0.8]

It imports mfbsde from the checkout's src/, sets the workload up
SETUP_REPEATS times, then repeats the workload's operation until --seconds
have passed, checking every operation's outputs.  The last line of stdout is
one JSON object with the raw measurements; run.py turns it into the result
line.  With --import-only it stops after the imports and prints only their
time.  With --trace 1, operations alternate untraced / traced (a traced
set-up repeat likewise), and the traced ones yield the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from tracer import LAYERS, Tracer, span_cost, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"            # records, spans and scratch files; made by run.py
SETUP_REPEATS = 3
SOLVER = {"tol": 1e-3, "max_iter": 40}
CHECK_SAMPLES = 10_000
# AC03 states its anchor for colehopf at M=50, N=1e4 on seed 7:
# |Y0 - 0.5| < 0.02 and mean-node Z error < 0.05.  Across seeds the Y0 error
# is Monte Carlo noise of about one standard error of the terminal mean
# (seed 10 gives 0.0246, 1.9 standard errors), so on other seeds the Y0
# tolerance widens to ANCHOR_SE standard errors.
AC03_SEED, ANCHOR_M, ANCHOR_N = 7, 50, 10_000
ANCHOR_Y0, ANCHOR_Z, ANCHOR_SE = 0.02, 0.05, 4.0
STITCHED, FALLBACK = "stitched", "full-interval-fallback"


def _import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mfbsde
    import mfbsde.cli  # noqa: F401  -- loads every layer module

    if Path(mfbsde.__file__).resolve().parent != src / "mfbsde":
        raise SystemExit(f"imported mfbsde from {mfbsde.__file__}, not from {src}")
    return mfbsde


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _report_problems(report, expected_mode: str, label: str) -> list[str]:
    problems = []
    if not report.converged:
        problems.append(f"{label}: not converged")
    problems += [f"{label}: check {c.name} failed" for c in report.checks if not c.passed]
    if report.mode != expected_mode:
        problems.append(f"{label}: mode {report.mode}, expected {expected_mode}")
    if report.continuity_ok is False:
        problems.append(f"{label}: stitched seams not bitwise continuous")
    return problems


def _anchor_problems(mb, case, ens, y0_err: float, z_err: float) -> list[str]:
    eta = mb.terminal_values(case.terminal, ens.cumulative)[:, 0]
    tol = ANCHOR_Y0
    if ens.seed != AC03_SEED:
        tol = max(tol, ANCHOR_SE * float(eta.std()) / ens.N**0.5)
    if y0_err < tol and z_err < ANCHOR_Z:
        return []
    return [f"colehopf {ANCHOR_M}:{ANCHOR_N}: AC03 anchor missed (|Y0-0.5|={y0_err:.4f} "
            f"vs {tol:.4f}, Z err={z_err:.4f} vs {ANCHOR_Z})"]


def _structural(mb, case):
    checks = mb.run_checks(case.generator, case.params, samples=CHECK_SAMPLES, rng_seed=0)
    failed = [name for name, r in checks.items() if not r.passed]
    if failed:
        raise RuntimeError(f"structural checks {failed} failed for case {case.name}")


def _oracle_z_err(mb, case, pair, ens, chunk=10_000) -> float:
    """Mean-node RMS Z error against the oracle, as oracle_errors gives it,
    computed over particle chunks so that the check adds little memory on
    top of the operation's own peak (which peak_rss_mb is meant to show)."""
    sq = 0.0
    for lo in range(0, ens.N, chunk):
        part = slice(lo, lo + chunk)
        sub = mb.Ensemble(grid=ens.grid, N=min(chunk, ens.N - lo), d=ens.d, seed=ens.seed,
                          increments=ens.increments[part], cumulative=ens.cumulative[part])
        _, ez = mb.oracle_errors(case, pair.Y[part], pair.Z[part], sub)
        sq = sq + ez**2 * sub.N
    return float(np.sqrt(sq / ens.N).mean())


class Ladder:
    """colehopf n=1 over the AC03 ladder, solve_auto in-process."""

    rungs = ((25, 1_000), (50, 10_000), (100, 100_000))

    def setup(self, mb, seed):
        case = mb.make_case("colehopf", n=1)
        _structural(mb, case)
        ledger = mb.compute_ledger(case.params)
        ensembles = [
            mb.generate_ensemble(mb.TimeGrid.make(M, case.params.T), N, 1, seed)
            for M, N in self.rungs
        ]
        return {"case": case, "ledger": ledger, "ensembles": ensembles,
                "basis": mb.default_basis(1)}

    def op(self, mb, st):
        case = st["case"]
        return [
            mb.solve_auto(case.generator, case.terminal, ens, st["basis"], st["ledger"], **SOLVER)
            for ens in st["ensembles"]
        ]

    def check(self, mb, st, reports):
        case, problems, combined, notes = st["case"], [], [], {}
        for (M, N), ens, rep in zip(self.rungs, st["ensembles"], reports):
            label = f"colehopf {M}:{N}"
            problems += _report_problems(rep, STITCHED, label)
            y0_err = abs(float(rep.pair.mean_Y[0, 0]) - case.y0_exact)
            z_err = _oracle_z_err(mb, case, rep.pair, ens)
            combined.append(y0_err + z_err)
            notes[f"{M}:{N}"] = {"y0_abs_err": y0_err, "z_err": z_err,
                                 "sweeps": [len(t.iterations) for t in rep.traces]}
            if (M, N) == (ANCHOR_M, ANCHOR_N):
                problems += _anchor_problems(mb, case, ens, y0_err, z_err)
        if not all(a > b for a, b in zip(combined, combined[1:])):
            problems.append(f"refinement not monotone: {combined}")
        digest = _digest(*(a for r in reports for a in (r.pair.Y, r.pair.Z)))
        return digest, notes, problems


class Coupled:
    """loggrowth n=2: the full-interval fallback with a real component loop."""

    M, N = 50, 30_000

    def setup(self, mb, seed):
        case = mb.make_case("loggrowth")
        _structural(mb, case)
        ledger = mb.compute_ledger(case.params)
        ens = mb.generate_ensemble(mb.TimeGrid.make(self.M, case.params.T), self.N,
                                   case.params.d, seed)
        return {"case": case, "ledger": ledger, "ens": ens,
                "basis": mb.default_basis(case.params.d)}

    def op(self, mb, st):
        case = st["case"]
        return mb.solve_auto(case.generator, case.terminal, st["ens"], st["basis"],
                             st["ledger"], **SOLVER)

    def check(self, mb, st, report):
        problems = _report_problems(report, FALLBACK, f"loggrowth {self.M}:{self.N}")
        notes = {"sweeps": [len(t.iterations) for t in report.traces],
                 "y0_mean": report.pair.mean_Y[0].tolist()}
        return _digest(report.pair.Y, report.pair.Z), notes, problems


class Catalog:
    """`mfbsde bench` over the four catalog cases through mfbsde.cli.main."""

    M, N = ANCHOR_M, ANCHOR_N
    modes = {"colehopf": STITCHED, "zero": STITCHED,
             "loggrowth": FALLBACK, "meanfield_linear": FALLBACK}

    def __init__(self):
        self.work = Path(tempfile.mkdtemp(prefix="catalog-", dir=OUT))

    def setup(self, mb, seed):
        cfg = self.work / "bench.ini"
        cfg.write_text(
            "[case]\nname = colehopf\n"
            f"[grid]\nm = {self.M}\n"
            f"[ensemble]\nn = {self.N}\nseed = {seed}\n"
            f"[solver]\ntol = {SOLVER['tol']}\nmax_iter = {SOLVER['max_iter']}\n"
            f"[checks]\nsamples = {CHECK_SAMPLES}\n"
        )
        return {"argv": ["bench", "--config", str(cfg), "--out", str(self.work / "out")],
                "seed": seed}

    def op(self, mb, st):
        with contextlib.redirect_stdout(io.StringIO()):
            return mb.cli.main(st["argv"])

    def check(self, mb, st, rc):
        out = self.work / "out"
        try:
            return self._read(mb, st, out, rc)
        finally:
            shutil.rmtree(out, ignore_errors=True)   # the next operation starts clean

    def _read(self, mb, st, out: Path, rc: int):
        problems = [] if rc == 0 else [f"mfbsde bench exited {rc}"]
        h, notes = hashlib.sha256(), {}
        for name, mode in sorted(self.modes.items()):
            rep = json.loads((out / f"bench_{name}_report.json").read_text())
            solve = rep["solve"]
            if not solve["converged"]:
                problems.append(f"{name}: not converged")
            problems += [f"{name}: check {c['name']} failed"
                         for c in solve["checks"] if not c["passed"]]
            if solve["mode"] != mode:
                problems.append(f"{name}: mode {solve['mode']}, expected {mode}")
            if rep["oracle"] is not None:
                notes[name] = {"y0_abs_err": rep["oracle"]["y0_abs_err"],
                               "z_err": rep["oracle"]["mean_node_err_Z"]}
            h.update((out / f"bench_{name}_solution.csv").read_bytes())
        if "anchor" not in st:                # the inputs mfbsde bench built itself
            case = mb.make_case("colehopf")
            ens = mb.generate_ensemble(mb.TimeGrid.make(self.M, case.params.T), self.N,
                                       case.params.d, st["seed"])
            st["anchor"] = (case, ens)
        problems += _anchor_problems(mb, *st["anchor"], notes["colehopf"]["y0_abs_err"],
                                     notes["colehopf"]["z_err"])
        return h.hexdigest(), notes, problems

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


# Per-layer metrics: name -> (unit, kind, key), totalled over a set of spans.
# "incl" is inclusive time, "self" excludes child spans, "calls" counts spans,
# "count" reads a counter taken off return values (see tracer.INSPECTORS),
# "wasted" is the time of calls that raised StitchError, "spans" counts all
# spans and "layer_self" sums the self time of one layer's spans.
LAYER_SPECS = {
    "engine.project_s": ("s", "incl", "engine.project"),
    "engine.project.calls": ("count", "calls", "engine.project"),
    "engine.design_s": ("s", "incl", "engine.design"),
    "engine.design.calls": ("count", "calls", "engine.design"),
    "engine.lstsq_s": ("s", "incl", "engine.lstsq"),
    "engine.lstsq.calls": ("count", "calls", "engine.lstsq"),
    "engine.fallbacks": ("count", "count", "engine.fallbacks"),
    "engine.design_bytes": ("B", "count", "engine.design_bytes"),
    "engine.bmo_norm_estimate_s": ("s", "incl", "engine.bmo_norm_estimate"),
    "engine.bmo_norm_estimate.calls": ("count", "calls", "engine.bmo_norm_estimate"),
    "engine.bmo_profile_s": ("s", "incl", "engine.bmo_profile"),
    "engine.generate_ensemble_s": ("s", "incl", "engine.generate_ensemble"),
    "benchmarks.oracle_errors_s": ("s", "incl", "benchmarks.oracle_errors"),
    "benchmarks.oracle_errors.calls": ("count", "calls", "benchmarks.oracle_errors"),
    "benchmarks.residual_self_check_s": ("s", "incl", "benchmarks.residual_self_check"),
    "model.component_s": ("s", "incl", "model.component"),
    "model.component.calls": ("count", "calls", "model.component"),
    "model.run_checks_s": ("s", "incl", "model.run_checks"),
    "constants.compute_ledger_s": ("s", "incl", "constants.compute_ledger"),
    "picard.apply_gamma.self_s": ("s", "self", "picard.apply_gamma"),
    "qbsde1d.solve_1d.self_s": ("s", "self", "qbsde1d.solve_1d"),
    "global_solver.wasted_s": ("s", "wasted", "global_solver.solve_global"),
    "picard.sweeps": ("count", "calls", "picard.apply_gamma"),
    "global_solver.windows": ("count", "count", "global_solver.windows"),
    "global_solver.fallbacks": ("count", "count", "global_solver.fallbacks"),
    "qbsde1d.truncation_hits": ("count", "count", "qbsde1d.truncation_hits"),
    "trace.spans": ("count", "spans", ""),
}
LAYER_SPECS.update({f"{layer}.self_s": ("s", "layer_self", layer) for layer in LAYERS})


def _phase_totals(tracer, ops: list[int]) -> dict[str, float]:
    """Each per-layer metric summed over the traced regions `ops`."""
    s = summarize(tracer.spans, set(ops))
    counts = sum((tracer.op_counts[o] for o in ops), start=Counter())
    totals = {}
    for metric, (_, kind, key) in LAYER_SPECS.items():
        if kind == "count":
            totals[metric] = counts[key]
        elif kind == "wasted":
            totals[metric] = s["errors"][(key, "StitchError")]
        elif kind == "spans":
            totals[metric] = sum(s["calls"].values())
        elif kind == "layer_self":
            totals[metric] = s["layer_self"][key]
        else:
            totals[metric] = s[kind][key]
    return totals


def layer_metrics(tracer, setups, ops, traced_walls, untraced_walls) -> dict:
    """Per-layer values per operation, plus per set-up repeat for spans that
    happen during set-up (the ledger and self-checks on ladder/coupled)."""
    per_op = _phase_totals(tracer, ops)
    per_setup = _phase_totals(tracer, setups)
    out = {}
    for metric, (unit, kind, _) in LAYER_SPECS.items():
        value = per_op[metric] / len(ops) + per_setup[metric] / len(setups)
        if unit in ("count", "B"):
            value = int(value) if value == int(value) else value
        out[metric] = {"value": value, "unit": unit}
    design, project = out["engine.design.calls"]["value"], out["engine.project.calls"]["value"]
    out["engine.regress_ratio"] = {"value": design / project if project else 0.0,
                                   "unit": "ratio"}
    out["trace.overhead_s"] = {
        "value": statistics.median(traced_walls) - statistics.median(untraced_walls),
        "unit": "s",
    }
    out["trace.overhead_est_s"] = {"value": out["trace.spans"]["value"] * span_cost(),
                                   "unit": "s"}
    return out


def blas_facts() -> dict:
    import ctypes

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("ladder", "coupled", "catalog"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--import-probes", default="",
                    help="comma-separated import times of --import-only processes")
    args = ap.parse_args()

    mb = _import_package()
    import_s = time.monotonic() - args.launched
    if args.import_only:
        print(json.dumps({"import_s": import_s}))
        return 0
    imports = [import_s] + [float(x) for x in args.import_probes.split(",") if x]
    tracer = Tracer() if args.trace else None
    wl = {"ladder": Ladder, "coupled": Coupled}.get(args.workload)
    wl = wl() if wl else Catalog()
    try:
        setup_times, traced_setups, state = [], [], None
        for r in range(SETUP_REPEATS):
            state = None                       # free the previous repeat first
            t0 = time.perf_counter()
            if tracer is not None and r % 2 == 1:
                state = tracer.run(-1 - r, "bench.setup", lambda: wl.setup(mb, args.seed))
                traced_setups.append(-1 - r)
            else:
                state = wl.setup(mb, args.seed)
            setup_times.append(time.perf_counter() - t0)

        walls, traced, untraced, ops_log = [], [], [], []
        first_digest, first_notes, failed, i = None, None, 0, 0
        t_start = time.perf_counter()
        while True:
            is_traced = tracer is not None and i % 2 == 1
            t0 = time.perf_counter()
            try:
                if is_traced:
                    result = tracer.run(i, "bench.op", lambda: wl.op(mb, state))
                else:
                    result = wl.op(mb, state)
                wall = time.perf_counter() - t0
                digest, notes, problems = wl.check(mb, state, result)
                del result
                if first_digest is None:
                    first_digest, first_notes = digest, notes
                elif digest != first_digest:
                    problems.append("outputs differ from the first operation's")
            except Exception as exc:           # counted as a failed operation
                wall = time.perf_counter() - t0
                problems = [f"{type(exc).__name__}: {exc}"]
            walls.append(wall)
            (traced if is_traced else untraced).append(i)
            failed += bool(problems)
            ops_log.append({"op": i, "traced": is_traced, "wall_s": wall, "problems": problems})
            i += 1
            if time.perf_counter() - t_start >= args.seconds and (tracer is None or i >= 2):
                break
    finally:
        if isinstance(wl, Catalog):
            wl.close()

    consistent = True
    out = {
        "import_s": imports,
        "setup_repeats_s": setup_times,
        "ops": ops_log,
        "accuracy": first_notes,
        "facts": blas_facts(),
    }
    if tracer is None:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(imports) + statistics.median(setup_times),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        # Counts of every traced operation must repeat exactly.
        per_op = [(tracer.op_counts[o], summarize(tracer.spans, {o})["calls"])
                  for o in traced]
        consistent = all(p == per_op[0] for p in per_op)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        out["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = layer_metrics(
            tracer, traced_setups, traced,
            [walls[o] for o in traced], [walls[o] for o in untraced],
        )
    out.update({
        "correct": failed == 0 and consistent,
        "attempted": len(walls),
        "failed": failed,
        "counts_repeat": consistent,
        "metrics": metrics,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
