"""The benchmark harness in perfbench/ runs against the package as it is.

perfbench reaches into the package by name: its tracer wraps every public
function of each layer module, plus ``RegressionBasis.design`` and
``Generator.component``, and reads ``truncation_hits`` and ``windows`` off
what they return; its worker calls ``run_checks`` with the params by
position, and ``oracle_errors`` on particle chunks of the solved pair.
These tests make those calls the way the harness does, so a refactor of
the package that breaks the harness fails here.  They also pin the
solution digests of the ``ladder`` and ``coupled`` workloads, which the
worker compares only between the operations of one run.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

import mfbsde
from test_benchmarks import reference_errors

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_solve_runs_through_the_tracer():
    # one tiny solve as a traced operation: every layer call it makes is a
    # span, the counters the tracer reads off return values are filled, and
    # every wrapped name is restored afterwards
    tracer = load_tracer()
    case = mfbsde.make_case("loggrowth")
    ens = mfbsde.generate_ensemble(mfbsde.TimeGrid.make(10, case.params.T), 300, case.params.d, 7)
    basis = mfbsde.default_basis(case.params.d)
    solve_auto, solve_1d = mfbsde.solve_auto, mfbsde.picard.solve_1d
    t = tracer.Tracer()
    report = t.run(0, "bench.op", lambda: mfbsde.solve_auto(
        case.generator, case.terminal, ens, basis, tol=1e-3, max_iter=40))
    assert mfbsde.solve_auto is solve_auto and mfbsde.picard.solve_1d is solve_1d
    (trace,) = report.traces
    calls = tracer.summarize(t.spans, {0})["calls"]
    assert calls["bench.op"] == calls["global_solver.solve_auto"] == 1
    assert calls["qbsde1d.solve_1d"] == calls["picard.apply_gamma"] == len(trace.iterations)
    assert calls["engine.design"] > 0
    # the sweep calls Generator.component once per row and step
    n, steps = case.params.n, ens.grid.M
    assert calls["model.component"] == n * steps * len(trace.iterations)
    counts = t.op_counts[0]
    assert counts["global_solver.windows"] == counts["global_solver.fallbacks"] == 1
    assert counts["qbsde1d.truncation_hits"] == trace.truncation_hits


def test_structural_checks_run_as_the_worker_calls_them():
    case = mfbsde.make_case("loggrowth")
    checks = mfbsde.run_checks(case.generator, case.params, samples=200, rng_seed=0)
    assert checks and all(result.passed for result in checks.values())


def test_chunked_oracle_errors_as_the_worker_calls_them():
    # the worker's check of the Z error: a keyword-built Ensemble over each
    # particle chunk of a solved node-major pair, the last chunk short
    case = mfbsde.make_case("colehopf", n=1)
    ens = mfbsde.generate_ensemble(mfbsde.TimeGrid.make(10, case.params.T), 2_500, 1, 7)
    pair = mfbsde.solve_auto(case.generator, case.terminal, ens, mfbsde.default_basis(1)).pair
    chunk = 1_000
    for lo in range(0, ens.N, chunk):
        part = slice(lo, lo + chunk)
        sub = mfbsde.Ensemble(grid=ens.grid, N=min(chunk, ens.N - lo), d=ens.d, seed=ens.seed,
                              increments=ens.increments[part], cumulative=ens.cumulative[part])
        got = mfbsde.oracle_errors(case, pair.Y[part], pair.Z[part], sub)
        want = reference_errors(case, pair.Y[part], pair.Z[part], sub)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


# sha256 of Y then Z of each workload's solve, set up as perfbench/worker.py
# does (solve_auto with the ledger, tol=1e-3, max_iter=40); ladder hashes its
# three rungs in order into one digest.  Identical at 1 and 2 BLAS threads,
# with the numpy, scipy and BLAS of tests/test_cli.py's bench digests.
WORKLOAD_DIGESTS = {
    "ladder": "f31b271594e1c68bff6c7c1f3ae05d8429595a24f55e47f4875a49f992c80ca2",
    "coupled": "441a4158c6dde6319100f5a60427508dddae2c5faaf11f79d98157ec5123ccf9",
}


def workload_digest(name, rungs, seed):
    case = mfbsde.make_case(name)
    ledger = mfbsde.compute_ledger(case.params)
    basis = mfbsde.default_basis(case.params.d)
    h = hashlib.sha256()
    for M, N in rungs:                  # one rung alive at a time
        ens = mfbsde.generate_ensemble(mfbsde.TimeGrid.make(M, case.params.T), N,
                                       case.params.d, seed)
        pair = mfbsde.solve_auto(case.generator, case.terminal, ens, basis, ledger,
                                 tol=1e-3, max_iter=40).pair
        h.update(pair.Y.tobytes())
        h.update(pair.Z.tobytes())
    return h.hexdigest()


def test_workload_solutions_match_the_pinned_digests():
    got = {"ladder": workload_digest("colehopf", ((25, 1_000), (50, 10_000), (100, 100_000)), 7),
           "coupled": workload_digest("loggrowth", ((50, 30_000),), 5)}
    assert got == WORKLOAD_DIGESTS
