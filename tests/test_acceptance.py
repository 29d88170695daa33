"""Acceptance suite: eleven end-to-end criteria at their stated tolerances.

Each test prints exactly one pass/fail line with the measured numbers, then
asserts.  Heavy solves are shared through module-scoped fixtures; everything
runs on fixed seeds so the reported numbers are stable.
"""

import math
import time

import numpy as np
import pytest

from mfbsde import (
    CATALOG,
    BallSpec,
    ModelParams,
    ProcessPair,
    TimeGrid,
    apriori_lambda,
    bmo_profile,
    c_delta_k_n,
    case_colehopf_diagonal,
    case_meanfield_linear,
    compute_ledger,
    contraction_report,
    default_basis,
    generate_ensemble,
    make_case,
    oracle_errors,
    picard_solve,
    solve_auto,
    sup_norm_estimate,
    verify_apriori,
    verify_bmo_membership,
)
from mfbsde.cli import main
from mfbsde.constants import local_ball

from conftest import ball_from_ledger, log_inequality_gap, terminal_eta

BASIS = default_basis(1)


def fresh(ens, ball, n=1):
    """New storage for a picard_solve on the window of ball."""
    return ProcessPair.empty(ens.N, ball.steps, n, ens.d)

CATALOG_SEEDS = {"zero": 1, "meanfield_linear": 1, "colehopf": 7, "loggrowth": 5}


def emit(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def zeroed_params(**kw) -> ModelParams:
    base = dict(
        n=1, d=1, T=1.0, gamma=1.0, K=0.0, delta=0.0,
        phi=lambda r: 0.0, a=lambda t: 0.0, alpha=lambda t: 0.0,
        beta=lambda t: 0.0, eta=lambda t: 0.0, C0=0.0, C1=0.0, C2=0.0,
    )
    base.update(kw)
    return ModelParams(**base)


@pytest.fixture(scope="module")
def catalog_runs():
    """Full-interval solves of every catalog case at desk scale (M=50, N=1e4)."""
    runs = {}
    for name in sorted(CATALOG):
        case = make_case(name)
        grid = TimeGrid.make(50, case.params.T)
        ens = generate_ensemble(grid, 10_000, case.params.d, CATALOG_SEEDS[name])
        basis = default_basis(case.params.d)
        ledger = compute_ledger(case.params)
        report = solve_auto(
            case.generator, case.terminal, ens, basis, ledger, tol=1e-3, max_iter=40
        )
        runs[name] = (case, ens, basis, ledger, report)
    return runs


@pytest.fixture(scope="module")
def ball_trace():
    """Fixed-point run of the linear case on the guaranteed window."""
    case = case_meanfield_linear(a=0.5, b=0.5, c=1.0, T=1.0)
    ens = generate_ensemble(TimeGrid.make(50, 1.0), 10_000, 1, 1)
    ledger = compute_ledger(case.params)
    ball = ball_from_ledger(ens.grid, ledger)      # eps = min(eps0, T)
    trace = picard_solve(case.generator, terminal_eta(case.terminal, ens), ens, BASIS, ball,
                         fresh(ens, ball), tol=1e-3, max_iter=10)
    return trace, ledger


def test_ac01_constants_ledger_hand_values():
    e1 = abs(c_delta_k_n(0.0, 1.0, 2) - 2.0)

    k1, _ = local_ball(zeroed_params(C0=0.0, C1=1.0))
    e2 = abs(k1 - (math.log(2.0) + 1.5))

    c3, lam = apriori_lambda(zeroed_params())
    c3_exact = math.log(4.0) + 12.0
    lam_exact = c3_exact * math.exp(4.0)
    e3 = abs(c3 - c3_exact) / c3_exact
    e4 = abs(lam - lam_exact) / lam_exact

    ok = e1 == 0.0 and e2 <= 1e-12 and e3 <= 1e-9 and e4 <= 1e-9
    emit(1, ok, f"coupling-constant err={e1:.1e}, K1 err={e2:.1e}, "
                f"C3 rel={e3:.1e}, lambda rel={e4:.1e}")


def test_ac02_log_inequality_gap_property():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    x, y, c = 10.0 ** rng.uniform(-6.0, 3.0, size=(3, 1_000_000))
    gaps = log_inequality_gap(x, y, c)
    worst = float(gaps.min())
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-12 and elapsed < 10.0
    emit(2, ok, f"min gap={worst:.3e} over 1e6 log-uniform triples, {elapsed:.2f}s")


def test_ac03_diagonal_quadratic_benchmark_refines():
    settings = [(25, 1_000), (50, 10_000), (100, 100_000)]
    combined, anchor, largest_time = [], None, None
    case = case_colehopf_diagonal(gamma=1.0, n=1)
    for M, N in settings:
        ens = generate_ensemble(TimeGrid.make(M, 1.0), N, 1, 7)
        start = time.perf_counter()
        report = solve_auto(
            case.generator, case.terminal, ens, BASIS, tol=1e-3, max_iter=40
        )
        elapsed = time.perf_counter() - start
        y0_err = abs(float(report.pair.mean_Y[0, 0]) - 0.5)
        _, ez = oracle_errors(case, report.pair.Y, report.pair.Z, ens)
        z_err = float(ez.mean())
        combined.append(y0_err + z_err)
        if (M, N) == (50, 10_000):
            anchor = (y0_err, z_err)
        largest_time = elapsed
    monotone = combined[0] > combined[1] > combined[2]
    ok = anchor[0] < 0.02 and anchor[1] < 0.05 and monotone and largest_time < 120.0
    emit(3, ok, f"|Y0-0.5|={anchor[0]:.4f}, mean-node Z err={anchor[1]:.4f}, "
                f"combined={'>'.join(f'{c:.4f}' for c in combined)}, "
                f"largest run {largest_time:.1f}s")


def test_ac04_mean_field_linear_benchmark():
    case = case_meanfield_linear(a=0.5, b=0.5, c=1.0, T=1.0)
    ens = generate_ensemble(TimeGrid.make(50, 1.0), 10_000, 1, 1)
    start = time.perf_counter()
    report = solve_auto(
        case.generator, case.terminal, ens, BASIS, tol=1e-6, max_iter=60
    )
    elapsed = time.perf_counter() - start
    y0 = float(report.pair.mean_Y[0, 0])
    rel = abs(y0 - math.e) / math.e
    exact = np.exp(1.0 - ens.grid.nodes)
    sup_node = float(np.abs(report.pair.mean_Y[:, 0] - exact).max())
    ok = rel < 0.01 and sup_node < 0.02 and elapsed < 60.0
    emit(4, ok, f"Y0={y0:.6f}, rel err={rel:.2e}, sup-node err={sup_node:.2e}, "
                f"{elapsed:.2f}s")


def test_ac05_ball_invariance_on_guaranteed_window(ball_trace):
    trace, _ = ball_trace
    ball = trace.ball
    sup_cap = 2.0 * ball.k1 * 1.05
    bmo_cap = 2.0 * ball.k2 * 1.05
    worst_sup = max(float(it.sup_nodes.max()) for it in trace.iterations)
    worst_bmo = max(float(it.bmo_nodes.max()) ** 2 for it in trace.iterations)
    ok = (
        trace.converged
        and len(trace.iterations) <= 10
        and worst_sup <= sup_cap
        and worst_bmo <= bmo_cap
        and trace.in_ball_throughout()
    )
    emit(5, ok, f"window [{ball.k_lo},{ball.k_hi}] eps={ball.eps:.3f}: "
                f"sup={worst_sup:.3f}<={sup_cap:.3f}, bmo^2={worst_bmo:.3e}<="
                f"{bmo_cap:.3f}, {len(trace.iterations)} sweeps")


def test_ac06_contraction_observed(ball_trace):
    trace, ledger = ball_trace
    ratios = ()
    if len(trace.iterations) >= 3:
        report = contraction_report(trace, ledger)
        ratios = report.observed_ratios_y + report.observed_ratios_z
    ok = len(ratios) >= 1 and all(r < 1.0 for r in ratios)
    emit(6, ok, f"{len(ratios)} successive-difference ratios after sweep 2, "
                f"max={max(ratios):.4f}" if ratios else "no ratios observed")


def test_ac07_apriori_bound_on_catalog(catalog_runs):
    details, ok = [], True
    for name, (case, ens, basis, ledger, report) in catalog_runs.items():
        # an independent re-measurement of the solution's sup, which must be
        # the number the solve verified
        res = verify_apriori(sup_norm_estimate(report.pair.Y), ledger)
        ok = ok and res.passed and report.converged
        ok = ok and res.observed == report.checks[0].observed
        details.append(f"{name}: sup={res.observed:.3g}<=lam={res.bound:.3g}")
    emit(7, ok, "; ".join(details))


def test_ac08_bmo_ceiling_on_catalog(catalog_runs):
    details, ok = [], True
    for name, (case, ens, basis, ledger, report) in catalog_runs.items():
        res = verify_bmo_membership(bmo_profile(report.pair, ens, basis).max(), ledger)
        ok = ok and res.passed
        details.append(f"{name}: bmo^2={res.observed:.3g}")
    emit(8, ok, "; ".join(details))


def test_ac09_stitching_consistency():
    case = case_colehopf_diagonal(gamma=1.0, n=1)
    ledger = compute_ledger(case.params)

    # T below the guaranteed step: one window, bitwise equal to a plain solve
    ens = generate_ensemble(TimeGrid.make(20, 1.0), 2_000, 1, 7)
    report = solve_auto(case.generator, case.terminal, ens, BASIS, ledger, tol=1e-3)
    ball = report.plan.windows[0]
    plain = fresh(ens, ball)
    picard_solve(case.generator, terminal_eta(case.terminal, ens), ens, BASIS, ball, plain,
                 tol=1e-3)
    single_ok = (
        report.mode == "stitched"
        and [(b.k_lo, b.k_hi) for b in report.plan.windows] == [(0, 20)]
        and report.traces[0].ball is ball
        and np.array_equal(report.pair.Y, plain.Y)
        and np.array_equal(report.pair.Z, plain.Z)
    )

    # T = 2.5 * t_lambda: several windows, exact tiling, and each window
    # solved alone on fresh storage from the stitched left edge of the
    # window after it gives its slice of the solution bitwise
    T2 = 2.5 * ledger.t_lambda
    case2 = case_colehopf_diagonal(gamma=1.0, n=1, T=T2)
    ens2 = generate_ensemble(TimeGrid.make(50, T2), 2_000, 1, 7)
    ledger2 = compute_ledger(case2.params)
    kw = dict(tol=2e-3, max_iter=40)
    rep2 = solve_auto(case2.generator, case2.terminal, ens2, BASIS, ledger2, **kw)
    plan = rep2.plan
    windows = [(b.k_lo, b.k_hi) for b in plan.windows]
    edges = [50]
    tiled = len(windows) >= 2
    for k_lo, k_hi in windows:
        tiled = tiled and k_hi == edges[-1] and 0 < k_hi - k_lo <= plan.steps
        edges.append(k_lo)
    tiled = tiled and edges[-1] == 0
    tiled = tiled and all(b - a == plan.steps for a, b in windows[:-1])
    seams = rep2.mode == "stitched" and rep2.continuity_ok is True
    sol = rep2.pair
    for ball2, trace in zip(plan.windows, rep2.traces, strict=True):
        k_lo, k_hi = ball2.k_lo, ball2.k_hi
        seams = seams and trace.ball is ball2
        edge = terminal_eta(case2.terminal, ens2) if k_hi == 50 else sol.Y[:, k_hi].copy()
        alone = fresh(ens2, ball2)
        picard_solve(case2.generator, edge, ens2, BASIS, ball2, alone, **kw)
        seams = seams and np.array_equal(alone.Y, sol.Y[:, k_lo : k_hi + 1])
        seams = seams and np.array_equal(alone.Z, sol.Z[:, k_lo:k_hi])

    ok = single_ok and tiled and seams
    emit(9, ok, f"single-window bitwise={single_ok}; "
                f"windows={windows} steps={plan.steps} "
                f"tiled={tiled} windows-alone-bitwise={seams}")


def test_ac10_initializer_independence():
    case = case_meanfield_linear(a=0.5, b=0.5, c=1.0, T=1.0)
    ens = generate_ensemble(TimeGrid.make(50, 1.0), 2_000, 1, 1)
    ledger = compute_ledger(case.params)
    ball = BallSpec.full_interval(ens.grid, ledger)
    tol = 1e-3
    kw = dict(tol=tol, max_iter=25)
    pair_a, pair_b = fresh(ens, ball), fresh(ens, ball)
    eta = terminal_eta(case.terminal, ens)
    a = picard_solve(case.generator, eta, ens, BASIS, ball, pair_a, init="terminal-flat", **kw)
    b = picard_solve(case.generator, eta, ens, BASIS, ball, pair_b, init="zero", **kw)
    dy = float(np.abs(pair_a.Y - pair_b.Y).max())
    ok = a.converged and b.converged and dy < 3.0 * tol
    emit(10, ok, f"sup |Y_flat - Y_zero| = {dy:.2e} < {3 * tol:.0e}")


def test_ac11_solve_csv_byte_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[case]\nname = colehopf\n\n"
        "[grid]\nm = 25\n\n"
        "[ensemble]\nn = 2000\nseed = 3\n\n"
        "[checks]\nsamples = 2000\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = main(["solve", "--config", str(cfg), "--out", str(out_a)])
    rc_b = main(["solve", "--config", str(cfg), "--out", str(out_b)])
    bytes_a = (out_a / "colehopf_solution.csv").read_bytes()
    bytes_b = (out_b / "colehopf_solution.csv").read_bytes()
    ok = rc_a == 0 and rc_b == 0 and bytes_a == bytes_b
    emit(11, ok, f"two identical runs -> identical {len(bytes_a)}-byte CSV")
