"""Checks of the benchmark's tracer on tiny solves.

    PYTHONPATH=src python3 -m pytest -q perfbench/check_tracer.py

Not named test_*.py, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import mfbsde  # noqa: E402
from mfbsde import benchmarks, cli, engine, global_solver, model, picard, qbsde1d  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

# Names each layer module binds from another layer with `from .x import y`.
IMPORT_SITES = [
    (qbsde1d, "project"),
    (qbsde1d, "c_delta_k_n"),
    (picard, "solve_1d"),
    (picard, "bmo_norm_estimate"),
    (picard, "sup_norm_estimate"),
    (picard, "terminal_values"),
    (picard, "contraction_coefficients"),
    (global_solver, "picard_solve"),
    (global_solver, "bmo_norm_estimate"),
    (global_solver, "compute_ledger"),
    (global_solver, "local_ball"),
    (cli, "solve_auto"),
    (cli, "bmo_profile"),
    (cli, "oracle_errors"),
    (cli, "run_checks"),
    (cli, "compute_ledger"),
    (cli, "generate_ensemble"),
    (cli, "make_case"),
    (benchmarks, "generate_ensemble"),
    (mfbsde, "solve_auto"),
    (mfbsde, "project"),
]


def _tiny():
    case = mfbsde.make_case("colehopf", n=1)
    ens = mfbsde.generate_ensemble(mfbsde.TimeGrid.make(10, 1.0), 300, 1, 3)
    return case, ens, mfbsde.default_basis(1)


def _solve(case, ens, basis):
    return mfbsde.solve_auto(case.generator, case.terminal, ens, basis, tol=1e-3, max_iter=40)


def test_install_patches_every_import_site():
    originals = {(m.__name__, a): getattr(m, a) for m, a in IMPORT_SITES}
    catalog = dict(benchmarks.CATALOG)
    design, component, lstsq = (engine.RegressionBasis.design,
                                model.Generator.component, np.linalg.lstsq)
    tracer = Tracer()
    tracer.install()
    try:
        for module, attr in IMPORT_SITES:
            wrapped = getattr(getattr(module, attr), "__wrapped__", None)
            assert wrapped is originals[(module.__name__, attr)], f"{module.__name__}.{attr}"
        for name, factory in benchmarks.CATALOG.items():
            assert factory.__wrapped__ is catalog[name]
        assert engine.RegressionBasis.design.__wrapped__ is design
        assert model.Generator.component.__wrapped__ is component
        assert np.linalg.lstsq.__wrapped__ is lstsq
    finally:
        tracer.uninstall()
    for module, attr in IMPORT_SITES:
        assert getattr(module, attr) is originals[(module.__name__, attr)]
    assert benchmarks.CATALOG == catalog
    assert engine.RegressionBasis.design is design
    assert model.Generator.component is component
    assert np.linalg.lstsq is lstsq


def test_counts_repeat_and_outputs_match_untraced():
    case, ens, basis = _tiny()
    plain = _solve(case, ens, basis)
    tracer = Tracer()
    runs = [tracer.run(op, "bench.op", lambda: _solve(case, ens, basis)) for op in (0, 1)]
    calls = [summarize(tracer.spans, {op})["calls"] for op in (0, 1)]
    assert calls[0] == calls[1]
    assert tracer.op_counts[0] == tracer.op_counts[1]
    c = calls[0]
    assert c["engine.design"] == c["engine.lstsq"] > 0
    assert c["engine.project"] >= c["engine.lstsq"]
    assert c["picard.apply_gamma"] == sum(len(t.iterations) for t in plain.traces)
    assert tracer.op_counts[0]["global_solver.windows"] == len(plain.windows)
    for rep in runs:
        assert rep.pair.Y.tobytes() == plain.pair.Y.tobytes()
        assert rep.pair.Z.tobytes() == plain.pair.Z.tobytes()
    # every span but the roots nests inside another of the same operation
    for name, start, end, parent, op, _ in tracer.spans:
        assert start <= end
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[4] == op and p[1] <= start and end <= p[2]
        else:
            assert name == "bench.op"


def test_cli_outputs_identical_traced_and_untraced(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[case]\nname = colehopf\n[grid]\nm = 10\n[ensemble]\nn = 300\nseed = 3\n"
                   "[checks]\nsamples = 500\n")

    def solve(out):
        return cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / out)])

    assert solve("plain") == 0
    tracer = Tracer()
    assert tracer.run(0, "bench.op", lambda: solve("traced")) == 0
    for name in ("colehopf_solution.csv", "colehopf_report.json"):
        digests = {hashlib.sha256((tmp_path / d / name).read_bytes()).hexdigest()
                   for d in ("plain", "traced")}
        assert len(digests) == 1, name
    s = summarize(tracer.spans)
    assert s["calls"]["cli.main"] == 1 and s["calls"]["cli.cmd_solve"] == 1
    assert s["calls"]["benchmarks.oracle_errors"] == 2
    assert s["calls"]["engine.bmo_profile"] == 1
    assert s["layer_self"]["cli"] > 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a.f", 0.0, 10.0, -1, 0, ""],
        ["b.g", 1.0, 5.0, 0, 0, ""],
        ["c.h", 2.0, 3.0, 1, 0, ""],
        ["b.g", 6.0, 7.0, 0, 0, "StitchError"],
        ["a.f", 20.0, 21.0, -1, 1, ""],
    ]
    s = summarize(spans, {0})
    assert s["incl"] == {"a.f": 10.0, "b.g": 5.0, "c.h": 1.0}
    assert s["self"] == {"a.f": 5.0, "b.g": 4.0, "c.h": 1.0}
    assert s["calls"]["b.g"] == 2
    assert s["errors"][("b.g", "StitchError")] == 1.0
    assert s["layer_self"] == {"a": 5.0, "b": 4.0, "c": 1.0}
