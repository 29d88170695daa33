"""Window planning, bound verification and the stitched global solve."""

import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from mfbsde import (
    CATALOG,
    BallSpec,
    ConfigError,
    Ensemble,
    Generator,
    ModelParams,
    ProcessPair,
    TerminalCondition,
    TimeGrid,
    bmo_profile,
    case_colehopf_diagonal,
    case_loggrowth,
    case_meanfield_linear,
    case_zero,
    compute_ledger,
    default_basis,
    generate_ensemble,
    lambda_ball,
    make_case,
    picard_solve,
    plan_stitch,
    solve_auto,
    sup_norm_estimate,
    verify_apriori,
    verify_bmo_membership,
)
from mfbsde import cli, engine, global_solver, qbsde1d
from mfbsde.constants import local_ball

from conftest import pair_from_fields, terminal_eta

BASIS = default_basis(1)


def fresh(ens, ball, n=1):
    """New storage for a picard_solve on the window of ball."""
    return ProcessPair.empty(ens.N, ball.steps, n, ens.d)


def colehopf_ledger():
    return compute_ledger(case_colehopf_diagonal(gamma=1.0, n=1).params)


def constant_terminal(c, bound=1.0):
    """The terminal data c on every path, a map without params, so that a
    bound above lambda reaches the solve's check against lambda."""
    return TerminalCondition(g=lambda w: np.full((w.shape[0], 1), c), bound=bound)


# ------------------------------------------------------------------ planning


def test_plan_tiles_grid_backward_exactly():
    # t_lambda of this model is about 2.02, far above any dt here: the cap
    # on window size is then the grid itself, checked with a synthetic ledger
    ledger = colehopf_ledger()
    grid = TimeGrid.make(50, 1.0)
    plan = plan_stitch(grid, ledger)
    assert plan.windows == ((0, 50),)

    # T = 2.5 * t_lambda forces at least three windows
    import dataclasses

    t_lam = ledger.t_lambda
    T2 = 2.5 * t_lam
    grid2 = TimeGrid.make(50, T2)
    plan2 = plan_stitch(grid2, ledger)
    steps = plan2.steps
    assert steps == int(np.floor(t_lam / grid2.dt + 1e-12))
    # windows tile [0, M] with no gaps or overlaps, latest first
    ks = [50]
    for k_lo, k_hi in plan2.windows:
        assert k_hi == ks[-1]
        assert k_hi - k_lo <= steps
        ks.append(k_lo)
    assert ks[-1] == 0
    assert all(b - a == steps for a, b in plan2.windows[:-1])
    d = plan2.to_dict()
    assert d["steps_per_window"] == steps and d["windows"][0] == [50 - steps, 50]


def test_plan_rejects_unusable_window():
    ledger = colehopf_ledger()
    # dt larger than t_lambda: no admissible step
    grid = TimeGrid.make(2, 10.0 * ledger.t_lambda)
    plan = plan_stitch(grid, ledger)
    assert re.search("grid step", plan.reason) and plan.windows == ((0, 2),)

    # t_lambda = 0 (degenerate constants) is refused up front
    import dataclasses

    dead = dataclasses.replace(ledger, t_lambda=0.0)
    plan = plan_stitch(TimeGrid.make(10, 1.0), dead)
    assert re.search("not positive", plan.reason) and plan.windows == ((0, 10),)


@pytest.mark.parametrize("t_lambda, M", [(float("inf"), 50), (6.0e306, 1000)],
                         ids=["infinite", "ratio-overflows"])
def test_plan_is_one_stitched_window_when_the_step_count_overflows(t_lambda, M):
    # t_lambda / dt is not finite: the whole grid fits in one guaranteed window
    import dataclasses

    ledger = dataclasses.replace(colehopf_ledger(), t_lambda=t_lambda)
    grid = TimeGrid.make(M, 1.0)
    assert t_lambda / grid.dt == float("inf")
    plan = plan_stitch(grid, ledger)
    assert plan.reason is None and plan.steps == M and plan.windows == ((0, M),)
    # a finite ratio keeps its count of steps, unclamped
    finite = plan_stitch(grid, dataclasses.replace(ledger, t_lambda=1e300))
    assert finite.steps == int(1e300 / grid.dt) > M and finite.windows == ((0, M),)


def test_lambda_ball_uses_enlarged_radii():
    ledger = colehopf_ledger()
    grid = TimeGrid.make(50, 1.0)
    ball = lambda_ball(grid, ledger, 10, 30)
    assert (ball.k_lo, ball.k_hi) == (10, 30)
    assert ball.eps == pytest.approx(0.4)
    # radii come from the ledger with C1 replaced by lambda, so they dominate
    # the small-terminal radii strictly
    import dataclasses

    k1l, k2l = local_ball(dataclasses.replace(ledger.params, C1=ledger.lam))
    assert (ball.k1, ball.k2) == (k1l, k2l)
    assert ball.k1 > ledger.k1 and ball.k2 >= ledger.k2
    assert ball.within_guarantee


# ------------------------------------------------------------ verifications


def run_small_linear(M=20, N=300, seed=3):
    case = case_meanfield_linear(a=0.5, b=0.5, c=1.0, T=1.0)
    ens = generate_ensemble(TimeGrid.make(M, 1.0), N, 1, seed)
    ledger = compute_ledger(case.params)
    ball = BallSpec.full_interval(ens.grid, ledger)
    pair = fresh(ens, ball)
    picard_solve(case.generator, terminal_eta(case.terminal, ens), ens, BASIS, ball, pair,
                 tol=1e-8, max_iter=60)
    return case, ens, ledger, pair


def test_verify_apriori_pass_and_fail():
    _, _, ledger, pair = run_small_linear()
    ok = verify_apriori(sup_norm_estimate(pair.Y), ledger)
    assert ok.passed and ok.name == "apriori_sup"
    assert ok.observed <= ok.bound
    assert "lambda" in ok.detail

    # scale the solution above lambda: the check must flip
    big = pair_from_fields(
        pair.Y * (1.01 * ledger.lam / ok.observed), pair.Z
    )
    bad = verify_apriori(sup_norm_estimate(big.Y), ledger)
    assert not bad.passed
    assert bad.to_dict()["passed"] is False


def test_verify_bmo_membership_zero_and_overflow_ceiling():
    case, ens, ledger, pair = run_small_linear()
    res = verify_bmo_membership(bmo_profile(pair, ens, BASIS).max(), ledger)
    assert res.passed and res.name == "bmo_membership"
    assert res.observed == 0.0          # the linear solution carries Z = 0

    # ceiling carries e^{gamma*lambda}; for this model it overflows to inf,
    # and the log-domain comparison must still pass for a finite proxy
    assert res.bound == np.inf
    noisy = pair_from_fields(
        pair.Y, pair.Z + 0.5
    )
    res2 = verify_bmo_membership(bmo_profile(noisy, ens, BASIS).max(), ledger)
    assert res2.passed and res2.observed > 0.0


# ------------------------------------------------------------- global solve


def record_picard_pairs(monkeypatch):
    """The pair of every ``picard_solve`` call the global solver makes."""
    pairs = []
    solve = global_solver.picard_solve

    def recording(gen, eta, ens, basis, ball, pair, **kw):
        pairs.append(pair)
        return solve(gen, eta, ens, basis, ball, pair, **kw)

    monkeypatch.setattr(global_solver, "picard_solve", recording)
    return pairs


def test_single_window_global_equals_plain_picard_bitwise(monkeypatch):
    pairs = record_picard_pairs(monkeypatch)
    case = case_colehopf_diagonal(gamma=1.0, n=1)
    ledger = compute_ledger(case.params)
    ens = generate_ensemble(TimeGrid.make(20, 1.0), 2_000, 1, 7)
    report = solve_auto(case.generator, case.terminal, ens, BASIS, ledger, tol=1e-3)
    assert report.mode == "stitched" and report.plan.windows == ((0, 20),)

    ball = lambda_ball(ens.grid, ledger, 0, 20)
    plain = fresh(ens, ball)
    picard_solve(case.generator, terminal_eta(case.terminal, ens), ens, BASIS, ball, plain,
                 tol=1e-3)
    assert np.array_equal(report.pair.Y, plain.Y)
    assert np.array_equal(report.pair.Z, plain.Z)
    assert report.converged and report.all_checks_passed()
    assert report.continuity_ok
    # one window over the whole grid: it was solved in the solution's
    # storage, and its BMO profile is the solution's
    (window,) = pairs
    assert np.shares_memory(report.pair.Y, window.Y)
    assert np.shares_memory(report.pair.Z, window.Z)
    assert report.bmo_nodes is report.traces[0].bmo_nodes


def refused_above_lambda_peak(gen, ens, ledger):
    """tracemalloc peak of a solve_auto refused for terminal data 2 lambda."""
    big = constant_terminal(2.0 * ledger.lam, bound=2.0 * ledger.lam)

    def solve():
        with pytest.raises(ConfigError, match="exceeds the a priori radius lambda"):
            solve_auto(gen, big, ens, BASIS, ledger)

    return traced(solve)[2]


def test_global_rejects_oversized_terminal():
    # a stitched plan checks the terminal against lambda before the
    # solution pair exists
    case = case_colehopf_diagonal(gamma=1.0, n=1)
    ledger = compute_ledger(case.params)
    ens = generate_ensemble(TimeGrid.make(20, 1.0), 2000, 1, 0)
    assert plan_stitch(ens.grid, ledger).reason is None
    peak = refused_above_lambda_peak(case.generator, ens, ledger)
    assert peak < pair_bytes(ProcessPair.empty(2000, 20, 1, 1))


def test_solve_auto_refuses_a_terminal_of_the_wrong_width_before_allocating():
    # the terminal data must be (N, n); a map of another width is refused
    # next to the lambda check, before the solution pair exists
    case = case_colehopf_diagonal(gamma=1.0, n=1)
    ens = generate_ensemble(TimeGrid.make(20, 1.0), 2000, 1, 0)
    wide = TerminalCondition(g=lambda w: np.repeat(np.clip(w, -1.0, 1.0), 2, axis=1), bound=2.0)

    def solve():
        with pytest.raises(ValueError, match=r"shape \(2000, 2\), expected \(2000, 1\)"):
            solve_auto(case.generator, wide, ens, BASIS)

    _, _, peak = traced(solve)
    assert peak < pair_bytes(ProcessPair.empty(2000, 20, 1, 1))


def test_solve_auto_refuses_a_terminal_array_before_any_work():
    # the terminal data is solve_auto's to evaluate: an array is refused
    # before the ledger, the terminal map or any pair
    case = case_colehopf_diagonal(gamma=1.0, n=1)
    ens = generate_ensemble(TimeGrid.make(20, 1.0), 2000, 1, 0)
    eta = terminal_eta(case.terminal, ens)

    def solve():
        with pytest.raises(TypeError, match="TerminalCondition, got ndarray"):
            solve_auto(case.generator, eta, ens, BASIS)

    _, _, peak = traced(solve)
    assert peak < eta.nbytes


@pytest.mark.parametrize("mismatch, message", [
    ("horizon", "ensemble has T = 2, d = 1; the model has T = 1, d = 1"),
    ("dimension", "ensemble has T = 1, d = 2; the model has T = 1, d = 1"),
    ("ledger", "ledger was computed for other params than the generator's"),
])
def test_solve_auto_refuses_another_models_ensemble_or_ledger_before_allocating(mismatch,
                                                                               message):
    # a solve on another horizon or dimension than the model's, or checked
    # against another model's lambda, would pass its checks meaninglessly;
    # each is refused before the terminal map runs or a pair exists
    case = make_case("colehopf")
    ledger = compute_ledger(case.params)
    T, d = {"horizon": (2.0, 1), "dimension": (1.0, 2)}.get(mismatch, (1.0, 1))
    if mismatch == "ledger":
        ledger = compute_ledger(make_case("colehopf", gamma=3.0).params)
    ens = generate_ensemble(TimeGrid.make(20, T), 2000, d, 7)
    counting, calls = counting_terminal(case.terminal)

    def solve():
        with pytest.raises(ValueError, match=re.escape(message)):
            solve_auto(case.generator, counting, ens, BASIS, ledger)

    _, _, peak = traced(solve)
    assert calls == []
    assert peak < pair_bytes(ProcessPair.empty(2000, 20, 1, d))


def small_params(T=1.0):
    """A scalar model with a small drift budget, whose guaranteed step
    (t_lambda = 2.02) is usable."""
    return ModelParams(
        n=1, d=1, T=T, gamma=1.0, K=0.0, delta=0.0,
        phi=lambda r: 0.5, a=lambda t: 0.01 / T, alpha=lambda t: 0.01 / T,
        beta=lambda t: 0.01 / T, eta=lambda t: 0.0, C0=0.01, C1=1.0, C2=0.05,
    )


def test_global_raises_on_window_nonconvergence():
    # needs a generator with y-feedback (the diagonal-quadratic cases settle
    # in one sweep because their frozen scalar equations never change) and a
    # model whose guaranteed step is still usable
    p = small_params()
    gen = Generator(fn=lambda i, t, y, ybar, z_i, z, zbar: 0.4 * y[..., i], params=p,
                    name="relax")
    ens = generate_ensemble(TimeGrid.make(20, 1.0), 200, 1, 7)
    ledger = compute_ledger(p)
    assert ledger.t_lambda > ens.grid.dt
    report = solve_auto(gen, constant_terminal(0.5), ens, BASIS, ledger, tol=1e-14, max_iter=2)
    assert report.mode == "full-interval-fallback"
    assert re.search("did not converge", report.plan.reason)


def relax(i, t, y, ybar, z_i, z, zbar):
    """y-feedback alone, whose first stitched window does not reach tol 1e-14
    in 3 sweeps."""
    return 0.4 * y[..., i]


def y_feedback(f=lambda i, t, y, ybar, z_i, z, zbar: 0.4 * y[..., i] + 0.1 * ybar[..., i],
               M=30, N=4000):
    """A scalar model with y-feedback on three stitched windows, T = 2.5 t_lambda,
    with terminal clip(W_T, -1, 1), a map without params: its sweep counts,
    and so its solution, depend on init."""
    T = 2.5 * compute_ledger(small_params()).t_lambda
    gen = Generator(fn=f, params=small_params(T), name="y-feedback")
    ens = generate_ensemble(TimeGrid.make(M, T), N, 1, 7)
    terminal = TerminalCondition(g=lambda w: np.clip(w, -1.0, 1.0), bound=1.0)
    return gen, terminal, ens, compute_ledger(gen.params)


def counting_terminal(terminal):
    """``terminal`` with a map that records the array of every call, uncopied."""
    calls = []

    def counted(w):
        calls.append(w)
        return terminal.g(w)

    return TerminalCondition(g=counted, bound=terminal.bound), calls


def assert_read_the_terminal_states_once(calls, ens):
    """The map ran once, on the (N, d) states at T: bitwise the paths' last node."""
    assert [w.shape for w in calls] == [(ens.N, ens.d)]
    assert calls[0].tobytes() == ens.cumulative[:, -1].tobytes()


@pytest.mark.parametrize("init, sweeps", [("terminal-flat", [9, 10, 7]), ("zero", [10, 11, 8])])
def test_multi_window_stitch_equals_each_window_solved_alone_bitwise(init, sweeps):
    # every window shares its seam node with its neighbour, so comparing
    # the seam slices of two windows proves nothing; instead each window is
    # solved again on fresh storage, from the terminal data (the latest
    # window) or from the stitched left edge of the window after it, and
    # must give its slice of the stitched solution, bit for bit
    gen, terminal, ens, ledger = y_feedback()
    counting, calls = counting_terminal(terminal)
    kw = dict(tol=1e-6, max_iter=60, init=init)
    report = solve_auto(gen, counting, ens, BASIS, ledger, **kw)
    assert report.mode == "stitched" and report.continuity_ok and report.all_checks_passed()
    assert_read_the_terminal_states_once(calls, ens)
    assert [len(t.iterations) for t in report.traces] == sweeps
    sol = report.pair
    assert sol.Y.shape == (4000, 31, 1) and sol.Z.shape == (4000, 30, 1, 1)
    for (k_lo, k_hi), trace in zip(report.plan.windows, report.traces):
        assert (trace.ball.k_lo, trace.ball.k_hi) == (k_lo, k_hi)
        ball = lambda_ball(ens.grid, ledger, k_lo, k_hi)
        eta = terminal_eta(terminal, ens) if k_hi == ens.grid.M else sol.Y[:, k_hi].copy()
        pair = fresh(ens, ball)
        alone = picard_solve(gen, eta, ens, BASIS, ball, pair, **kw)
        assert len(alone.iterations) == len(trace.iterations)
        assert np.array_equal(pair.Y, sol.Y[:, k_lo : k_hi + 1])
        assert np.array_equal(pair.Z, sol.Z[:, k_lo:k_hi])
        assert np.array_equal(pair.mean_Y, sol.mean_Y[k_lo : k_hi + 1])
        assert np.array_equal(pair.mean_Z, sol.mean_Z[k_lo:k_hi])
        assert np.array_equal(alone.sup_nodes, report.sup_nodes[k_lo : k_hi + 1])
    assert np.array_equal(report.bmo_nodes, bmo_profile(sol, ens, BASIS))
    d = report.to_dict()
    assert d["mode"] == "stitched" and len(d["windows"]) == len(report.plan.windows)


def test_stitch_flags_a_window_that_did_not_end_on_its_terminal(monkeypatch):
    # continuity compares the node a window wrote at its right edge with the
    # terminal copy it was solved from, so a window that leaves anything
    # else there is caught
    import mfbsde.global_solver as gs

    def off_by_one_ulp(gen, eta, ens, basis, ball, pair, **kw):
        trace = picard_solve(gen, eta, ens, basis, ball, pair, **kw)
        if ball.k_lo == 0:
            pair.Y[:, -1] = np.nextafter(pair.Y[:, -1], np.inf)
        return trace

    monkeypatch.setattr(gs, "picard_solve", off_by_one_ulp)
    gen, terminal, ens, ledger = y_feedback(N=500)
    report = solve_auto(gen, terminal, ens, BASIS, ledger, tol=1e-6, max_iter=60)
    assert report.mode == "stitched"
    assert len(report.traces) == 3 and report.continuity_ok is False


def test_multi_window_report_json_is_pinned(monkeypatch):
    # three stitched windows, each clipping Z on every sweep, so the JSON
    # pins each window's sweep count and its truncation hits end to end
    monkeypatch.setattr(qbsde1d, "_TRUNC_MULT", 1e-3)
    gen, terminal, ens, ledger = y_feedback(N=500)
    report = solve_auto(gen, terminal, ens, BASIS, ledger, tol=1e-6, max_iter=60)
    assert report.mode == "stitched" and report.all_checks_passed()
    assert [len(t.iterations) for t in report.traces] == [9, 10, 8]
    assert [w.truncation_hits for w in report.windows] == [53505, 59412, 23984]
    text = json.dumps(cli._sanitize(report.to_dict()), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ae0b15f3d8c4827bad733aa9955101b18048caf166bea48f613ae02166012814")


def test_stitched_apriori_check_reads_the_largest_window_sup():
    # a constant drift makes Y = 0.5 + 0.5 (T - t) grow backward, so the
    # earliest window holds the solution's sup, not the latest
    T = 2.5 * compute_ledger(small_params()).t_lambda
    p = small_params(T)
    gen = Generator(fn=lambda i, t, y, ybar, z_i, z, zbar: 0.0 * y[..., i] + 0.5, params=p,
                    name="drift")
    ens = generate_ensemble(TimeGrid.make(30, T), 200, 1, 7)
    report = solve_auto(gen, constant_terminal(0.5), ens, BASIS, tol=1e-3, max_iter=40)
    assert report.mode == "stitched" and len(report.traces) == 3
    sups = [t.iterations[-1].sup_y for t in report.traces]
    assert sups[0] < sups[1] < sups[2]
    assert report.checks[0].observed == sups[2] == sup_norm_estimate(report.pair.Y)
    assert report.checks[0].observed == pytest.approx(0.5 + 0.5 * T)


def test_solve_auto_falls_back_when_step_unusable(monkeypatch):
    # the linear model's t_lambda collapses below any practical dt, so the
    # stitched solve refuses and the fallback single-window path takes over
    pairs = record_picard_pairs(monkeypatch)
    case = case_meanfield_linear(a=0.5, b=0.5, c=1.0, T=1.0)
    ledger = compute_ledger(case.params)
    ens = generate_ensemble(TimeGrid.make(20, 1.0), 300, 1, 3)
    assert ledger.t_lambda < ens.grid.dt
    report = solve_auto(case.generator, case.terminal, ens, BASIS, ledger, tol=1e-6, max_iter=60)
    assert report.mode == "full-interval-fallback"
    assert re.search("shorter than one grid step", report.plan.reason)
    assert report.continuity_ok is None and report.to_dict()["plan"] is None
    assert report.converged and report.all_checks_passed()
    assert len(report.windows) == 1 and report.windows[0].k_hi == 20
    (window,) = pairs
    assert np.shares_memory(report.pair.Y, window.Y)
    assert np.shares_memory(report.pair.Z, window.Z)
    assert report.bmo_nodes is report.traces[0].bmo_nodes


@pytest.mark.parametrize("case, reason", [
    (case_loggrowth(), "is not positive"),
    (case_meanfield_linear(), "is shorter than one grid step"),
], ids=["loggrowth", "meanfield_linear"])
def test_planned_fallback_reasons_are_data(case, reason):
    # the two planned causes of the full-interval solve are known from the
    # ledger and the grid before any work: the plan carries them, unraised
    ledger = compute_ledger(case.params)
    ens = generate_ensemble(TimeGrid.make(50, case.params.T), 200, case.params.d, 5)
    if case.name == "loggrowth":
        assert ledger.t_lambda == 0.0
    else:
        assert 0.0 < ledger.t_lambda < ens.grid.dt
    plan = plan_stitch(ens.grid, ledger)
    assert reason in plan.reason and plan.windows == ((0, 50),)
    report = solve_auto(case.generator, case.terminal, ens, default_basis(case.params.d), ledger)
    assert report.mode == "full-interval-fallback" and report.plan.reason == plan.reason


def pair_bytes(pair):
    return pair.Y.nbytes + pair.Z.nbytes + pair.mean_Y.nbytes + pair.mean_Z.nbytes


def test_fallback_rejects_a_terminal_above_lambda_before_allocating():
    # the terminal is checked against lambda on every plan, the full-interval
    # one too, and before the solution pair exists
    case = case_meanfield_linear(a=0.5, b=0.5, c=1.0, T=1.0)
    ledger = compute_ledger(case.params)
    ens = generate_ensemble(TimeGrid.make(20, 1.0), 2000, 1, 3)
    assert ledger.t_lambda < ens.grid.dt
    peak = refused_above_lambda_peak(case.generator, ens, ledger)
    assert peak < pair_bytes(ProcessPair.empty(2000, 20, 1, 1))


def traced(solve):
    """(result, bytes still allocated after the call, peak bytes) of solve()."""
    tracemalloc.start()
    try:
        result = solve()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current, peak


def test_multi_window_solve_holds_one_solution_pair():
    # the windows are solved in place on the one solution pair, so what a
    # three-window solve leaves allocated is that pair and little else
    case = case_colehopf_diagonal(n=2, T=5.0)
    ens = generate_ensemble(TimeGrid.make(30, case.params.T), 2000, 1, 3)
    ledger = compute_ledger(case.params)
    report, kept, _ = traced(lambda: solve_auto(case.generator, case.terminal, ens,
                                                BASIS, ledger, max_iter=40))
    assert report.mode == "stitched" and len(report.traces) == 3
    assert kept <= 1.05 * pair_bytes(report.pair)


def test_solve_holds_no_full_path_array():
    # the ensemble keeps increments and path checkpoints, the solve adds its
    # pair and at most one block of rebuilt nodes, and the terminal map reads
    # the states at T: no (N, M+1, d) array is ever alive, so the peak stays
    # below a path array's worth of slack over that storage
    case = case_colehopf_diagonal()
    M, N = 40, 20_000
    node = 8 * N                            # one node of the paths, d = 1
    every = engine._CHECKPOINT_EVERY
    storage = node * (M + M // every + 1 + every - 1)   # increments, checkpoints, one block
    slack = 20 * node
    assert slack < (M + 1) * node
    report, _, peak = traced(lambda: solve_auto(
        case.generator, case.terminal,
        generate_ensemble(TimeGrid.make(M, case.params.T), N, 1, 7), BASIS))
    assert report.mode == "stitched" and report.converged
    assert peak < pair_bytes(report.pair) + storage + slack, (
        (peak - pair_bytes(report.pair) - storage) / node)


def test_fallback_after_a_failed_window_runs_alone_on_fresh_storage():
    # the first stitched window fails to converge; its pair is released
    # before the fallback allocates its own, so the two never coexist, and
    # none of its partial writes reach the fallback's result; the terminal
    # map runs once per solve, on the terminal states, and the fallback
    # solves from the terminal data of the failed attempt
    gen, terminal, ens, ledger = y_feedback(f=relax, N=2000)
    counting, calls = counting_terminal(terminal)
    kw = dict(tol=1e-14, max_iter=3)
    solve_auto(gen, counting, ens, BASIS, ledger, **kw)      # first-solve allocations
    calls.clear()
    report, _, peak = traced(lambda: solve_auto(gen, counting, ens, BASIS, ledger, **kw))
    assert report.mode == "full-interval-fallback" and not report.converged
    assert re.search("did not converge", report.plan.reason)
    assert_read_the_terminal_states_once(calls, ens)
    # the pair and the (N, n) terminal data it is solved from
    assert peak <= 1.4 * pair_bytes(report.pair) + ens.N * gen.params.n * 8
    ball = BallSpec.full_interval(ens.grid, ledger)
    pair = fresh(ens, ball)
    alone = picard_solve(gen, terminal_eta(terminal, ens), ens, BASIS, ball, pair, **kw)
    for field in ("Y", "Z", "mean_Y", "mean_Z"):
        assert np.array_equal(getattr(report.pair, field), getattr(pair, field))
    assert np.array_equal(report.sup_nodes, alone.sup_nodes)
    assert np.array_equal(report.bmo_nodes, alone.bmo_nodes)


def test_solve_auto_measures_each_iterate_once(bmo_passes, sup_passes):
    # each sweep's backward pass measures its iterate node by node, and the
    # initial guess is measured from its last node: no BMO pass and no
    # whole-pair sup pass beyond the terminal check; the window spans the whole grid, so verification
    # reuses the last sweep's profile, which the report keeps, and its sup
    case = case_loggrowth()
    ens = generate_ensemble(TimeGrid.make(10, case.params.T), 300, 1, 5)
    report = solve_auto(case.generator, case.terminal, ens, BASIS)
    sweeps = len(report.traces[0].iterations)
    assert report.mode == "full-interval-fallback" and sweeps >= 2
    assert len(bmo_passes) == 0
    assert len(sup_passes) == 2 + sweeps * 11
    assert all(block.shape == (ens.N, 2) for block in sup_passes)
    assert report.bmo_nodes is report.traces[0].bmo_nodes
    assert np.array_equal(report.bmo_nodes, bmo_profile(report.pair, ens, BASIS))
    assert report.checks[1].observed == report.bmo_nodes.max() ** 2
    assert report.checks[0].observed == sup_norm_estimate(report.pair.Y)


def test_multi_window_solve_verifies_with_its_own_pass(bmo_passes, sup_passes):
    # no window covers the whole grid, so verification makes one full-grid
    # BMO pass on the assembled pair, the only BMO pass of the solve; the
    # solution's sup is the largest window sup, and every sup is measured
    # one node block at a time, never over a whole pair: the terminal check,
    # each window's left-edge check and each node of each sweep
    case = case_colehopf_diagonal(gamma=1.0, n=1)
    T2 = 2.5 * compute_ledger(case.params).t_lambda
    case2 = case_colehopf_diagonal(gamma=1.0, n=1, T=T2)
    ens = generate_ensemble(TimeGrid.make(30, T2), 500, 1, 11)
    report = solve_auto(case2.generator, case2.terminal, ens, BASIS, tol=2e-3, max_iter=40)
    assert report.mode == "stitched" and len(report.traces) >= 3
    assert len(bmo_passes) == 1
    assert bmo_passes[-1] is report.pair
    assert len(sup_passes) == 1 + sum(2 + len(t.iterations) * (t.ball.steps + 1)
                                      for t in report.traces)
    assert all(block.shape == (ens.N, 1) for block in sup_passes)
    assert np.array_equal(report.bmo_nodes, bmo_profile(report.pair, ens, BASIS))
    assert report.checks[0].observed == sup_norm_estimate(report.pair.Y)


def test_solves_write_their_means_with_their_nodes():
    # every catalog case and a three-window solve: the sweeps write each
    # node's mean with its block, and the solution's means are bitwise the
    # index-order ``_node_mean`` of each node block of its fields
    solves = [(make_case(name), 10, 300) for name in sorted(CATALOG)]
    solves.append((case_colehopf_diagonal(n=2, T=5.0), 30, 500))
    reports = []
    for case, M, N in solves:
        ens = generate_ensemble(TimeGrid.make(M, case.params.T), N, case.params.d, 7)
        reports.append(solve_auto(case.generator, case.terminal, ens,
                                  default_basis(case.params.d), tol=2e-3, max_iter=40))
    assert len(reports[-1].traces) == 3
    for report in reports:
        ref = pair_from_fields(report.pair.Y.copy(), report.pair.Z.copy())
        assert report.pair.mean_Y.tobytes() == ref.mean_Y.tobytes()
        assert report.pair.mean_Z.tobytes() == ref.mean_Z.tobytes()


def test_solve_auto_prefers_stitching_when_guaranteed():
    case = case_zero(c=1.0)
    ens = generate_ensemble(TimeGrid.make(10, 1.0), 200, 1, 1)
    report = solve_auto(case.generator, case.terminal, ens, BASIS)
    assert report.mode == "stitched"
    assert np.array_equal(report.pair.Y, np.ones((200, 11, 1)))
    assert report.all_checks_passed()


@pytest.mark.parametrize("n", [1, 2])
def test_solution_does_not_depend_on_the_ensemble_layout(n):
    # The same paths stored particle-major, as a caller builds an Ensemble
    # by keyword, give bitwise the solution of the node-major ensemble.
    case = case_colehopf_diagonal(gamma=1.0, n=n)
    ens = generate_ensemble(TimeGrid.make(20, case.params.T), 2000, 1, 3)
    flat = Ensemble(grid=ens.grid, N=ens.N, d=ens.d, seed=ens.seed,
                    increments=np.ascontiguousarray(ens.increments),
                    cumulative=np.ascontiguousarray(ens.cumulative))
    assert flat.increments.flags.c_contiguous and not ens.increments.flags.c_contiguous
    a, b = (solve_auto(case.generator, case.terminal, e, BASIS) for e in (ens, flat))
    for name in ("Y", "Z", "mean_Y", "mean_Z"):
        assert getattr(a.pair, name).tobytes() == getattr(b.pair, name).tobytes()
    assert a.sup_nodes.tobytes() == b.sup_nodes.tobytes()
    assert a.bmo_nodes.tobytes() == b.bmo_nodes.tobytes()
    assert [t.iterations for t in a.traces] == [t.iterations for t in b.traces]
