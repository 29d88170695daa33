"""Decoupling-map sweeps and their fixed-point iteration."""

import math
import tracemalloc

import numpy as np
import pytest

from collections import Counter

from scipy.integrate import quad

from mfbsde import (
    BallSpec,
    BlowUpError,
    Generator,
    ModelParams,
    ProcessPair,
    TimeGrid,
    apply_gamma,
    case_colehopf_diagonal,
    case_loggrowth,
    case_meanfield_linear,
    case_zero,
    compute_ledger,
    contraction_report,
    default_basis,
    generate_ensemble,
    bmo_profile,
    bound_y,
    picard_solve,
    solve_1d,
    solve_auto,
    sup_norm_estimate,
    TerminalCondition,
    truncation_radius,
)
from mfbsde import picard, qbsde1d
from mfbsde.benchmarks import BenchmarkCase
from mfbsde.qbsde1d import Solve1DResult

from conftest import ball_from_ledger, pair_from_fields, terminal_eta

BASIS = default_basis(1)


def fresh(ens, ball, n=1):
    """New storage for a picard_solve on the window of ball."""
    return ProcessPair.empty(ens.N, ball.steps, n, ens.d)


def linear_setup(M=20, N=256, seed=2, a=0.5, b=0.5, c=1.0):
    case = case_meanfield_linear(a=a, b=b, c=c, T=1.0)
    ens = generate_ensemble(TimeGrid.make(M, 1.0), N, 1, seed)
    ledger = compute_ledger(case.params)
    return case, ens, ledger


# ----------------------------------------------------------------- BallSpec


def test_ballspec_validation_and_steps():
    ball = BallSpec(k_lo=2, k_hi=7, eps=0.5, k1=1.0, k2=1.0, within_guarantee=True)
    assert ball.steps == 5
    with pytest.raises(ValueError):
        BallSpec(k_lo=5, k_hi=5, eps=0.5, k1=1.0, k2=1.0, within_guarantee=True)
    with pytest.raises(ValueError):
        BallSpec(k_lo=0, k_hi=5, eps=0.0, k1=1.0, k2=1.0, within_guarantee=True)
    with pytest.raises(ValueError):
        BallSpec(k_lo=0, k_hi=5, eps=0.5, k1=-1.0, k2=1.0, within_guarantee=True)


def test_ball_from_ledger_fits_inside_step_budget():
    case, _, ledger = linear_setup()
    grid = TimeGrid.make(50, 1.0)
    ball = ball_from_ledger(grid, ledger)
    steps = int(math.floor(ledger.eps0 / grid.dt + 1e-12))
    assert ball.steps == steps
    assert ball.k_hi == 50 and ball.k_lo == 50 - steps
    assert ball.eps == pytest.approx(steps * grid.dt)
    assert ball.eps <= ledger.eps0 * (1 + 1e-12)
    assert ball.within_guarantee
    assert (ball.k1, ball.k2) == (ledger.k1, ledger.k2)


def test_ball_from_ledger_truncates_at_requested_endpoint():
    _, _, ledger = linear_setup()
    grid = TimeGrid.make(50, 1.0)
    ball = ball_from_ledger(grid, ledger, eps=0.5, k_hi=3)
    assert (ball.k_lo, ball.k_hi) == (0, 3)
    assert ball.eps == pytest.approx(0.06)


def test_ball_from_ledger_rejects_subgrid_budget():
    _, _, ledger = linear_setup()
    grid = TimeGrid.make(50, 1.0)
    with pytest.raises(ValueError, match="window budget"):
        ball_from_ledger(grid, ledger, eps=0.001)


def test_ballspec_full_interval_flags_guarantee():
    _, _, ledger = linear_setup()
    ball = BallSpec.full_interval(TimeGrid.make(50, 1.0), ledger)
    assert (ball.k_lo, ball.k_hi) == (0, 50)
    # eps0 of this model is well below T = 1, so no guarantee
    assert ledger.eps0 < 1.0 and not ball.within_guarantee


# --------------------------------------------------------------- one sweep


def snapshot(pair):
    """A copy of pair, which a later sweep (overwriting pair in place)
    leaves alone."""
    return pair_from_fields(pair.Y.copy(), pair.Z.copy())


def norms(pair, ens, ball, basis=BASIS):
    """The (sup, BMO) norms picard_solve hands apply_gamma for the window
    pair of ball."""
    return sup_norm_estimate(pair.Y), bmo_profile(pair, ens, basis, ball.k_lo).max()


def record(monkeypatch, name):
    """Replace picard's ``name`` by a wrapper that records the (args,
    kwargs, result) of every call."""
    calls = []
    real = getattr(picard, name)

    def recording(*args, **kwargs):
        calls.append((args, kwargs, real(*args, **kwargs)))
        return calls[-1][2]

    monkeypatch.setattr(picard, name, recording)
    return calls


def last_pass(solves):
    """The (trunc_R, blowup_guard, result) of the last recorded solve_1d."""
    (_, _, _, _, trunc_R, guard, _), _, res = solves[-1]
    return trunc_R, guard, res


def test_apply_gamma_single_sweep_hand_value_on_flat_environment(monkeypatch):
    # frozen environment constant c on the window: each backward step adds
    # (a + b) * c * dt, so node k carries c * (1 + s*dt*(M-k))
    case, ens, ledger = linear_setup(M=10, N=128)
    ball = BallSpec.full_interval(ens.grid, ledger)
    eta = np.ones((ens.N, 1))
    Y0 = np.ones((ens.N, 11, 1))
    Z0 = np.zeros((ens.N, 10, 1, 1))
    pair = pair_from_fields(Y0, Z0)
    solves = record(monkeypatch, "solve_1d")
    info = apply_gamma(pair, case.generator, eta, ens, BASIS, ball, *norms(pair, ens, ball))
    out = pair
    dt = ens.grid.dt
    for k in range(11):
        np.testing.assert_allclose(out.Y[:, k, 0], 1.0 + dt * (10 - k), rtol=1e-12)
    assert np.array_equal(out.Z, np.zeros_like(out.Z))
    assert info.truncation_hits == 0 and info.row_hits == (0,)
    trunc_R, _, _ = last_pass(solves)
    assert trunc_R.shape == (1,) and trunc_R[0] > 0.0


def test_apply_gamma_returns_the_result_of_its_solve_1d_pass(monkeypatch):
    # one sweep is one solve_1d pass, and its record is that pass's own
    case = case_loggrowth()
    ens = generate_ensemble(TimeGrid.make(10, case.params.T), 300, 1, 4)
    solves = record(monkeypatch, "solve_1d")
    _, _, _, _, info = second_sweep(case, ens, BASIS)
    assert len(solves) == 2
    assert type(info) is Solve1DResult and info is last_pass(solves)[2]
    assert info.truncation_hits == sum(info.row_hits) and len(info.row_hits) == 2


def test_apply_gamma_works_on_the_window_nodes():
    # window [5, 10]: the environment and the result hold the window's 6
    # nodes, local node j being grid node 5 + j.  An environment equal to j
    # at local node j makes the drift (a + b) * (j + 1/2) = j + 1/2 on the
    # step from local node j, so Y_j = 1 + dt * sum_{i >= j} (i + 1/2).
    case, ens, ledger = linear_setup(M=10, N=128)
    ball = ball_from_ledger(ens.grid, ledger, eps=0.5, k_hi=10)
    assert ball.k_lo == 5
    eta = np.ones((ens.N, 1))
    ramp = np.broadcast_to(np.arange(6.0)[None, :, None], (ens.N, 6, 1)).copy()
    pair = pair_from_fields(ramp, np.zeros((ens.N, 5, 1, 1)))
    apply_gamma(pair, case.generator, eta, ens, BASIS, ball, *norms(pair, ens, ball))
    out = pair
    assert out.Y.shape == (ens.N, 6, 1) and out.Z.shape == (ens.N, 5, 1, 1)
    dt = ens.grid.dt
    for j in range(6):
        expect = 1.0 + dt * sum(i + 0.5 for i in range(j, 5))
        np.testing.assert_allclose(out.Y[:, j, 0], expect, rtol=1e-12)
    assert out.Y.min() > 1.0 - 1e-12
    # a full-grid environment is not the window's
    full = pair_from_fields(np.ones((ens.N, 11, 1)), np.zeros((ens.N, 10, 1, 1)))
    with pytest.raises(ValueError, match="11 nodes"):
        apply_gamma(full, case.generator, eta, ens, BASIS, ball, 1.0, 0.0)


@pytest.mark.parametrize("bad", ["wrong-shape", "terminal-condition"])
def test_apply_gamma_rejects_bad_terminal_shape(bad):
    # a window solve takes the (N, n) terminal array only: solve_auto
    # evaluates the terminal map, and below it a TerminalCondition is refused
    # like an array of the wrong shape, before anything is written
    case, ens, ledger = linear_setup(M=10, N=64)
    ball = BallSpec.full_interval(ens.grid, ledger)
    pair = pair_from_fields(np.ones((ens.N, 11, 1)), np.zeros((ens.N, 10, 1, 1)))
    eta = np.zeros((ens.N, 2)) if bad == "wrong-shape" else case.terminal
    with pytest.raises(ValueError, match=r"terminal array must have shape \(64, 1\)"):
        apply_gamma(pair, case.generator, eta, ens, BASIS, ball, 1.0, 0.0)
    with pytest.raises(ValueError, match="terminal array"):
        picard_solve(case.generator, eta, ens, BASIS, ball, pair)
    assert np.array_equal(pair.Y, np.ones_like(pair.Y))


def test_apply_gamma_blowup_carries_component_index():
    p = ModelParams(
        n=2, d=1, T=1.0, gamma=1.0, K=0.01, delta=0.0,
        phi=lambda r: 0.5, a=lambda t: 0.01, alpha=lambda t: 0.01,
        beta=lambda t: 0.01, eta=lambda t: 0.0, C0=0.01, C1=1.0, C2=0.05,
    )

    def runaway(i, t, y, ybar, z_i, z, zbar):
        return np.full(y.shape[:-1], 1e8 if i == 1 else 0.0)

    gen = Generator(fn=runaway, params=p, name="runaway")
    ens = generate_ensemble(TimeGrid.make(10, 1.0), 64, 1, 0)
    ledger = compute_ledger(p)
    ball = BallSpec.full_interval(ens.grid, ledger)
    pair = pair_from_fields(
        np.zeros((64, 11, 2)), np.zeros((64, 10, 2, 1))
    )
    with pytest.raises(BlowUpError) as exc:
        apply_gamma(pair, gen, np.zeros((64, 2)), ens, BASIS, ball, *norms(pair, ens, ball))
    assert exc.value.component == 1
    assert "component 1" in str(exc.value)


# ------------------------------------------------------ one pass, all rows


def per_row_reference(pair, gen, eta, ens, basis, ball, trunc_R, guard):
    """The sweep of apply_gamma solved one row at a time: solve_1d on the
    (N, 1) block of each row, with its own frozen closure and the radius and
    guard the sweep gave that row.  Returns (Y, Z, hits) on the window."""
    U, V = pair.Y, pair.Z
    nodes = ens.grid.nodes
    Y = np.zeros((ens.N, ball.steps + 1, gen.params.n))
    Z = np.zeros((ens.N, ball.steps, gen.params.n, ens.d))
    mean_Y, mean_Z = np.zeros((ball.steps + 1, 1)), np.zeros((ball.steps, 1, ens.d))
    hits = []
    for i in range(gen.params.n):
        def g_i(k, zrow, i=i):
            j = k - ball.k_lo
            vsub = V[:, j].copy()
            vsub[:, i, :] = zrow[:, 0]
            t_mid = 0.5 * (nodes[k] + nodes[k + 1])
            u_mid = 0.5 * (U[:, j] + U[:, j + 1])
            mu_mid = 0.5 * (pair.mean_Y[j] + pair.mean_Y[j + 1])
            return gen.eval(t_mid, u_mid, mu_mid, vsub, pair.mean_Z[j])[:, i, None]

        row = ProcessPair(Y=Y[:, :, i : i + 1], Z=Z[:, :, i : i + 1], mean_Y=mean_Y, mean_Z=mean_Z)
        res = solve_1d(eta[:, i : i + 1], g_i, ens, basis, trunc_R[i : i + 1],
                       guard[i : i + 1], row, ball.k_lo)
        hits.append(res.truncation_hits)
    return Y, Z, hits


def mixing_case(n, d):
    """n rows on d dims whose generator reads every argument: t, its own y,
    ybar, its own z-row, each other z-row with its own weight, and zbar, so
    that a frozen slot taken from the wrong row or node changes the drift."""
    p = ModelParams(
        n=n, d=d, T=1.0, gamma=1.0, K=0.05, delta=0.0,
        phi=lambda r: 0.5, a=lambda t: 0.01, alpha=lambda t: 0.01,
        beta=lambda t: 0.01, eta=lambda t: 0.05, C0=0.01, C1=20.0, C2=0.1,
    )
    weights = 1.0 + np.arange(n * d).reshape(n, d) / (n * d)        # (n, d)
    mixing = (np.arange(n)[:, None] + 2.0 * np.arange(n)[None, :] + 1.0) / 10.0
    np.fill_diagonal(mixing, 0.0)                                   # (n, n), zero diagonal

    def fn(i, t, y, ybar, z_i, z, zbar):
        cross = sum(mixing[i, j] * np.tanh((z[..., j, :] * weights[j]).sum(axis=-1))
                    for j in range(n) if j != i)
        return (0.5 * (z_i * z_i).sum(axis=-1) + 0.3 * t * np.tanh(y[..., i])
                + 0.2 * np.sin(ybar[..., i]) + 0.1 * cross
                + 0.05 * (zbar[..., i, :] * weights[i]).sum(axis=-1))

    def xi(w):
        w = np.clip(w, -3.0, 3.0)
        return np.column_stack([(1.0 + 0.5 * i) * w[:, i % d] + 0.3 * i for i in range(n)])

    return BenchmarkCase(
        name=f"mixing{n}x{d}", generator=Generator(fn=fn, params=p, name="mixing"),
        terminal=TerminalCondition(g=xi, bound=20.0, params=p), oracle=None, y0_exact=None,
    )


def particle_first_drift(gen, env, ens, ball):
    """apply_gamma's frozen drift, built the particle-first way from a
    fixed copy env of the environment: an (N, n, n, d) block whose slice
    [:, i] is V with row i substituted, y broadcast over its second axis,
    and the diagonal [:, diag, diag] of the generator's (N, n, n) values."""
    n, N, nodes = gen.params.n, ens.N, ens.grid.nodes
    diag = np.arange(n)

    def drift(k, z):
        j = k - ball.k_lo
        t_mid = 0.5 * (nodes[k] + nodes[k + 1])
        u_mid = 0.5 * (env.Y[:, j] + env.Y[:, j + 1])
        mu_mid = 0.5 * (env.mean_Y[j] + env.mean_Y[j + 1])
        vsub = np.repeat(env.Z[:, j, None], n, axis=1)
        vsub[:, diag, diag] = z
        y = np.broadcast_to(u_mid[:, None, :], (N, n, n))
        return gen.eval(t_mid, y, mu_mid, vsub, env.mean_Z[j])[:, diag, diag]

    return drift


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2])
def test_apply_gamma_drift_layout_is_the_particle_first_block_bitwise(n, d, monkeypatch):
    # the sweep's row-form calls, each on V's (N, n, d) node block as the
    # environment, give bitwise the sweep of the particle-first
    # (N, n, n, d) block, on a window that starts past node 0 and ends
    # before the last node
    case = mixing_case(n, d)
    ens = generate_ensemble(TimeGrid.make(10, 1.0), 300, d, 4)
    basis = default_basis(d)
    ball = BallSpec(k_lo=3, k_hi=9, eps=0.6, k1=1.0, k2=1.0, within_guarantee=False)
    env, eta, ball, _, _ = second_sweep(case, ens, basis, ball)
    assert np.abs(env.Z).min() > 0.0 and np.ptp(env.mean_Z) > 0.0     # every z-slot is live
    pair = snapshot(env)
    solves = record(monkeypatch, "solve_1d")
    info = apply_gamma(pair, case.generator, eta, ens, basis, ball, *norms(env, ens, ball, basis))
    trunc_R, guard, _ = last_pass(solves)
    ref = snapshot(env)
    res = solve_1d(eta, particle_first_drift(case.generator, env, ens, ball), ens, basis,
                   trunc_R, guard, ref, ball.k_lo)
    for name in ("Y", "Z", "mean_Y", "mean_Z"):
        assert np.array_equal(getattr(pair, name), getattr(ref, name)), name
    assert np.array_equal(info.sup_nodes, res.sup_nodes)
    assert np.array_equal(info.bmo_nodes, res.bmo_nodes)
    assert (info.diff_y, info.diff_z) == (res.diff_y, res.diff_z)
    assert info.row_hits == res.row_hits


def second_sweep(case, ens, basis, ball=None):
    """An environment with nonzero Z (one sweep from the flat guess), the
    next sweep on it, and what that sweep was given; on the whole grid
    unless a window ball is given.  The sweep overwrites its pair, so the
    environment returned is a snapshot taken before it."""
    if ball is None:
        ball = BallSpec.full_interval(ens.grid, compute_ledger(case.params))
    eta = terminal_eta(case.terminal, ens)
    flat = np.repeat(eta[:, None, :], ball.steps + 1, axis=1)
    pair = pair_from_fields(flat, np.zeros((ens.N, ball.steps, case.params.n, ens.d)))
    apply_gamma(pair, case.generator, eta, ens, basis, ball, *norms(pair, ens, ball, basis))
    env = snapshot(pair)
    info = apply_gamma(pair, case.generator, eta, ens, basis, ball, *norms(env, ens, ball, basis))
    return env, eta, ball, pair, info


def test_apply_gamma_rows_match_per_row_reference(monkeypatch):
    case = case_loggrowth()
    ens = generate_ensemble(TimeGrid.make(10, case.params.T), 300, 1, 4)
    solves = record(monkeypatch, "solve_1d")
    pair, eta, ball, out, info = second_sweep(case, ens, BASIS)
    assert np.abs(pair.Z).max() > 0.0           # the frozen z-slots are live
    trunc_R, guard, _ = last_pass(solves)
    Y, Z, hits = per_row_reference(pair, case.generator, eta, ens, BASIS, ball, trunc_R, guard)
    np.testing.assert_allclose(out.Y, Y, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(out.Z, Z, rtol=0.0, atol=1e-12)
    assert list(info.row_hits) == hits


def test_apply_gamma_single_row_is_the_scalar_solve_bitwise(monkeypatch):
    case = case_colehopf_diagonal(gamma=1.0, n=1)
    ens = generate_ensemble(TimeGrid.make(10, case.params.T), 300, 1, 4)
    solves = record(monkeypatch, "solve_1d")
    pair, eta, ball, out, info = second_sweep(case, ens, BASIS)
    trunc_R, guard, _ = last_pass(solves)
    Y, Z, hits = per_row_reference(pair, case.generator, eta, ens, BASIS, ball, trunc_R, guard)
    assert np.array_equal(out.Y, Y) and np.array_equal(out.Z, Z)
    assert info.truncation_hits == hits[0]


def test_apply_gamma_projects_all_rows_together(projections):
    # two projections per node for both rows: the (N, 2) continuation and
    # the (N, 2) martingale targets, where solving row by row makes four;
    # the (N,) BMO tail of the sweep's result is the node's third
    case = case_loggrowth()
    ens = generate_ensemble(TimeGrid.make(10, case.params.T), 300, 1, 4)
    ball = BallSpec.full_interval(ens.grid, compute_ledger(case.params))
    eta = terminal_eta(case.terminal, ens)
    pair = pair_from_fields(
        np.repeat(eta[:, None, :], 11, axis=1), np.zeros((ens.N, 10, 2, 1))
    )
    norms_ = norms(pair, ens, ball)
    projections.clear()
    apply_gamma(pair, case.generator, eta, ens, BASIS, ball, *norms_)
    assert Counter(k for k, _ in projections) == {k: 3 for k in range(10)}
    assert projections == [(k, shape) for k in range(9, -1, -1)
                           for shape in ((ens.N, 2), (ens.N, 2), (ens.N,))]


def test_apply_gamma_two_rows_two_dims(monkeypatch, projections):
    # n = 2, d = 2: the martingale targets of both rows are one (N, 4)
    # projection (next to the (N, 2) continuation and the (N,) BMO tail),
    # each row's Z is clipped in Euclidean norm over d at its own radius,
    # and each row counts its own clips
    p = ModelParams(
        n=2, d=2, T=1.0, gamma=1.0, K=0.05, delta=0.0,
        phi=lambda r: 0.5, a=lambda t: 0.01, alpha=lambda t: 0.01,
        beta=lambda t: 0.01, eta=lambda t: 0.05, C0=0.01, C1=10.0, C2=0.1,
    )

    def fn(i, t, y, ybar, z_i, z, zbar):
        other = z[..., 1 - i, :]
        return (0.5 * np.sqrt((z_i * z_i).sum(axis=-1)) ** 2
                + 0.05 * np.log1p(np.sqrt((other * other).sum(axis=-1))))

    def xi(w):
        w = np.clip(w, -3.0, 3.0)
        return np.column_stack([w[:, 0] + w[:, 1], 2.0 * w[:, 1]])

    case = BenchmarkCase(
        name="rows2d", generator=Generator(fn=fn, params=p, name="rows2d"),
        terminal=TerminalCondition(g=xi, bound=10.0, params=p),
        oracle=None, y0_exact=None,
    )
    basis = default_basis(2)
    ens = generate_ensemble(TimeGrid.make(8, 1.0), 400, 2, 6)
    # radii small enough that both rows clip
    monkeypatch.setattr(qbsde1d, "_TRUNC_MULT", 1e-3)
    solves = record(monkeypatch, "solve_1d")
    pair, eta, ball, out, info = second_sweep(case, ens, basis)
    assert {shape for _, shape in projections} == {(ens.N, 2), (ens.N, 4), (ens.N,)}
    trunc_R, guard, _ = last_pass(solves)
    Y, Z, hits = per_row_reference(pair, case.generator, eta, ens, basis, ball, trunc_R, guard)
    np.testing.assert_allclose(out.Y, Y, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(out.Z, Z, rtol=0.0, atol=1e-12)
    assert list(info.row_hits) == hits and all(h > 0 for h in info.row_hits)
    assert info.truncation_hits == sum(info.row_hits)
    for i in range(2):
        norms = np.sqrt((out.Z[:, :, i, :] ** 2).sum(axis=-1))
        assert norms.max() <= trunc_R[i] * (1 + 1e-12)
    assert trunc_R[0] != trunc_R[1]


def test_apply_gamma_passes_each_row_its_radius_and_guard(monkeypatch):
    # row i is clipped at truncation_radius of its own bound_z, at the
    # default multiple, and guarded at ten times its own bound_y
    case = case_loggrowth()
    ens = generate_ensemble(TimeGrid.make(10, case.params.T), 300, 1, 4)
    solves = record(monkeypatch, "solve_1d")
    y_bounds = record(monkeypatch, "bound_y")
    z_bounds = record(monkeypatch, "bound_z")
    pair, eta, ball, out, info = second_sweep(case, ens, BASIS)
    # two sweeps, each one solve_1d pass and one bound_y and bound_z per row
    assert len(solves) == 2 and len(y_bounds) == len(z_bounds) == 4
    trunc_R, guard, _ = last_pass(solves)
    assert solves[-1][1] == {"k_lo": ball.k_lo}
    assert trunc_R.shape == guard.shape == (2,)
    for i in range(2):
        assert trunc_R[i] == truncation_radius(z_bounds[2 + i][2])
        assert guard[i] == 10.0 * y_bounds[2 + i][2]


def test_apply_gamma_bounds_read_the_window_budget(monkeypatch):
    # each row's y_bound is bound_y over the window [t_lo, t_hi] with the
    # drift budget integral_{t_lo}^{t_hi} a + K dt sum_j |E[V_j]|^{1+delta}
    case = case_loggrowth()
    p = case.params
    ens = generate_ensemble(TimeGrid.make(10, p.T), 300, 1, 4)
    ledger = compute_ledger(p)
    ball = BallSpec(k_lo=3, k_hi=10, eps=0.7 * p.T, k1=ledger.k1, k2=ledger.k2,
                    within_guarantee=False)
    y_bounds = record(monkeypatch, "bound_y")
    pair, eta, ball, out, info = second_sweep(case, ens, BASIS, ball)
    t_lo, t_hi = ens.grid.nodes[3], ens.grid.nodes[10]
    mean_z = np.sqrt((pair.mean_Z**2).sum(axis=(1, 2)))           # (L,)
    coupling = p.K * ens.grid.dt * (mean_z ** (1.0 + p.delta)).sum()
    assert coupling > 1e-6                       # the mean-field term is pinned too
    budget = quad(p.a, t_lo, t_hi)[0] + coupling
    u, v = norms(pair, ens, ball)
    for i in range(2):
        args, _, y_bound = y_bounds[2 + i]             # the second sweep's row i
        eta_bound = args[3]
        assert eta_bound == np.abs(eta[:, i]).max()
        expect = bound_y(p, t_hi - t_lo, budget, eta_bound, u, v)
        assert y_bound == pytest.approx(expect, rel=0.0, abs=1e-12)


def quad_bounds(p, env, eta, ens, ball, u, v):
    """Each row's (bound_y, trunc_R) from a drift budget of one quad per
    step, summed from the window's last step backward."""
    nodes, dt = ens.grid.nodes, ens.grid.dt
    budget = 0.0
    for j in range(ball.steps - 1, -1, -1):
        a_step = quad(p.a, nodes[ball.k_lo + j], nodes[ball.k_lo + j + 1], limit=200)[0]
        mz = float(np.sqrt((env.mean_Z[j] * env.mean_Z[j]).sum()))
        budget += a_step + p.K * mz ** (1.0 + p.delta) * dt
    horizon = float(nodes[ball.k_hi]) - float(nodes[ball.k_lo])
    out = []
    for eta_i in np.abs(eta).max(axis=0):
        y = bound_y(p, horizon, budget, float(eta_i), u, v)
        out.append((y, truncation_radius(qbsde1d.bound_z(p, horizon, budget, float(eta_i),
                                                         y, u, v))))
    return out


@pytest.mark.parametrize("make", [case_loggrowth, case_colehopf_diagonal])
@pytest.mark.parametrize("k_lo", [0, 3])
def test_apply_gamma_bounds_are_the_per_step_quad_budget_bitwise(make, k_lo, monkeypatch):
    case = make()
    p = case.params
    ens = generate_ensemble(TimeGrid.make(10, p.T), 300, 1, 4)
    ledger = compute_ledger(p)
    ball = BallSpec(k_lo=k_lo, k_hi=10, eps=(10 - k_lo) / 10 * p.T, k1=ledger.k1,
                    k2=ledger.k2, within_guarantee=False)
    solves = record(monkeypatch, "solve_1d")
    env, eta, ball, _, _ = second_sweep(case, ens, BASIS, ball)
    if p.K > 0.0:
        assert np.abs(env.mean_Z).max() > 0.0        # the coupling term is live
    expect = quad_bounds(p, env, eta, ens, ball, *norms(env, ens, ball))
    trunc_R, guard, _ = last_pass(solves)
    assert list(zip(guard, trunc_R)) == [(10.0 * y, R) for y, R in expect]


# ------------------------------------------------------------- fixed point


def test_picard_fixed_point_matches_implicit_trapezoid_product():
    # midpoint-frozen y-slots mean the converged iterate satisfies
    # Y_k = Y_{k+1} + s * (Y_k + Y_{k+1})/2 * dt, hence a closed-form ratio
    case, ens, ledger = linear_setup(M=20, N=256)
    ball = BallSpec.full_interval(ens.grid, ledger)
    eta = terminal_eta(case.terminal, ens)
    pair = fresh(ens, ball)
    trace = picard_solve(
        case.generator, eta, ens, BASIS, ball, pair, tol=1e-11, max_iter=100
    )
    assert trace.converged
    dt = ens.grid.dt
    ratio = (1.0 + 0.5 * dt / 2.0 + 0.5 * dt / 2.0) / (1.0 - 0.5 * dt / 2.0 - 0.5 * dt / 2.0)
    expect = ratio**20
    np.testing.assert_allclose(pair.Y[:, 0, 0], expect, rtol=1e-9)
    # and that closed form is itself within O(dt^2) of e^{(a+b)T}
    assert abs(expect - np.e) < 5 * dt**2


def test_picard_zero_case_converges_first_sweep_bitwise():
    case = case_zero(c=2.0)
    ens = generate_ensemble(TimeGrid.make(8, 1.0), 100, 1, 1)
    ledger = compute_ledger(case.params)
    ball = BallSpec.full_interval(ens.grid, ledger)
    eta = terminal_eta(case.terminal, ens)
    pair = fresh(ens, ball)
    trace = picard_solve(case.generator, eta, ens, BASIS, ball, pair)
    assert trace.converged and len(trace.iterations) == 1
    it = trace.iterations[0]
    assert it.diff_y == 0.0 and it.diff_z == 0.0
    assert it.ratio_y is None and it.ratio_z is None
    assert it.in_ball_y and it.in_ball_z
    assert np.array_equal(pair.Y, np.full((100, 9, 1), 2.0))
    assert np.array_equal(pair.Z, np.zeros((100, 8, 1, 1)))


def test_picard_iteration_diagnostics_monotone_tail():
    case, ens, ledger = linear_setup(M=16, N=200)
    ball = BallSpec.full_interval(ens.grid, ledger)
    eta = terminal_eta(case.terminal, ens)
    trace = picard_solve(
        case.generator, eta, ens, BASIS, ball, fresh(ens, ball), tol=1e-10, max_iter=50
    )
    assert trace.converged and len(trace.iterations) >= 3
    assert trace.iterations[0].ratio_y is None
    for it in trace.iterations[2:]:
        assert it.ratio_y is not None and it.ratio_y < 1.0
    assert trace.in_ball_throughout()
    assert trace.truncation_hits == 0


def test_picard_inits_agree_at_fixed_point():
    case, ens, ledger = linear_setup(M=10, N=200)
    ball = BallSpec.full_interval(ens.grid, ledger)
    eta = terminal_eta(case.terminal, ens)
    kw = dict(tol=1e-6, max_iter=60)
    pair_a, pair_b = fresh(ens, ball), fresh(ens, ball)
    a = picard_solve(case.generator, eta, ens, BASIS, ball, pair_a,
                     init="terminal-flat", **kw)
    b = picard_solve(case.generator, eta, ens, BASIS, ball, pair_b,
                     init="zero", **kw)
    assert a.converged and b.converged
    assert float(np.abs(pair_a.Y - pair_b.Y).max()) < 3e-6


def test_picard_argument_validation():
    case, ens, ledger = linear_setup(M=10, N=64)
    ball = BallSpec.full_interval(ens.grid, ledger)
    eta = terminal_eta(case.terminal, ens)
    with pytest.raises(ValueError, match="init"):
        picard_solve(case.generator, eta, ens, BASIS, ball, fresh(ens, ball),
                     init="bogus")
    with pytest.raises(ValueError, match="max_iter"):
        picard_solve(case.generator, eta, ens, BASIS, ball, fresh(ens, ball), max_iter=0)


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0])
def test_picard_rejects_a_tol_that_is_not_finite_and_positive(tol):
    # tol = inf would declare convergence after one sweep, tol = nan never
    case, ens, ledger = linear_setup(M=10, N=64)
    ball = BallSpec.full_interval(ens.grid, ledger)
    eta = terminal_eta(case.terminal, ens)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        picard_solve(case.generator, eta, ens, BASIS, ball, fresh(ens, ball), tol=tol)


def record_sweeps(monkeypatch):
    """(environment, u_norm, v_norm, result) of every apply_gamma call.

    A sweep overwrites its pair, so each environment is a snapshot, and a
    result is the live pair until the next sweep, which first replaces it
    with that sweep's environment snapshot: the last result is the pair
    the solve returns."""
    sweeps = []
    apply = picard.apply_gamma

    def recording(pair, gen, terminal, ens, basis, ball, u_norm, v_norm):
        env = snapshot(pair)
        if sweeps:
            sweeps[-1] = sweeps[-1][:3] + (env,)
        info = apply(pair, gen, terminal, ens, basis, ball, u_norm, v_norm)
        sweeps.append((env, u_norm, v_norm, pair))
        return info

    monkeypatch.setattr(picard, "apply_gamma", recording)
    return sweeps


def test_sweep_records_are_the_standalone_measurements_bitwise(monkeypatch):
    # the sup and BMO each backward pass measures in flight are, bit for
    # bit, what sup_norm_estimate and bmo_profile give on the same pair
    sweeps = record_sweeps(monkeypatch)
    case = case_loggrowth()
    ens = generate_ensemble(TimeGrid.make(10, case.params.T), 300, 1, 5)
    report = solve_auto(case.generator, case.terminal, ens, BASIS)
    (trace,) = report.traces
    assert len(sweeps) == len(trace.iterations) >= 2
    for it, (_, _, _, out) in zip(trace.iterations, sweeps):
        assert it.sup_y == sup_norm_estimate(out.Y)
        assert it.bmo_sq == bmo_profile(out, ens, BASIS, trace.ball.k_lo).max() ** 2
    # each sweep's bounds are read from the measurements of its environment
    for (_, u_norm, v_norm, _), it in zip(sweeps[1:], trace.iterations):
        assert (u_norm, v_norm * v_norm) == (it.sup_y, it.bmo_sq)
    assert np.shares_memory(sweeps[-1][3].Y, report.pair.Y)
    assert np.shares_memory(sweeps[-1][3].Z, report.pair.Z)
    assert np.array_equal(report.bmo_nodes, bmo_profile(report.pair, ens, BASIS))


@pytest.mark.parametrize("case", [case_loggrowth(), case_colehopf_diagonal(n=1)],
                         ids=["loggrowth", "colehopf"])
@pytest.mark.parametrize("init", ["terminal-flat", "zero"])
def test_initial_pair_is_measured_from_its_definition_bitwise(monkeypatch, init, case):
    # the initial pair's last node and Z = 0 give the norms the standalone
    # passes find over the whole pair, and its means are its node blocks'
    # index-order ``_node_mean``
    sweeps = record_sweeps(monkeypatch)
    means, recording = [], picard.apply_gamma

    def with_means(pair, *args):
        means.append((pair.mean_Y.tobytes(), pair.mean_Z.tobytes()))
        return recording(pair, *args)

    monkeypatch.setattr(picard, "apply_gamma", with_means)
    # at N = 2000, np.mean of the colehopf terminal differs in the last bits
    ens = generate_ensemble(TimeGrid.make(10, case.params.T), 2000, 1, 5)
    ball = ball_from_ledger(ens.grid, compute_ledger(case.params), eps=0.5)
    eta = terminal_eta(case.terminal, ens)
    assert ball.k_lo > 0
    picard_solve(case.generator, eta, ens, BASIS, ball, fresh(ens, ball, case.params.n),
                 max_iter=1, init=init)
    pair, u_norm, v_norm, _ = sweeps[0]
    assert u_norm == sup_norm_estimate(pair.Y)
    assert v_norm == bmo_profile(pair, ens, BASIS, ball.k_lo).max() == 0.0
    assert (u_norm > 0.0) == (init == "terminal-flat")
    assert means[0] == (pair.mean_Y.tobytes(), pair.mean_Z.tobytes())


def test_apply_gamma_rejects_a_read_only_environment():
    # the sweep overwrites its pair, so a read-only one fails at entry, not
    # deep inside the backward pass
    case, ens, ledger = linear_setup(M=10, N=64)
    ball = BallSpec.full_interval(ens.grid, ledger)
    eta = np.ones((ens.N, 1))
    Y, Z = np.ones((ens.N, 11, 1)), np.zeros((ens.N, 10, 1, 1))
    for pair in (pair_from_fields(np.broadcast_to(1.0, Y.shape), Z),
                 pair_from_fields(Y, np.broadcast_to(0.0, Z.shape))):
        with pytest.raises(ValueError, match="overwrites its pair"):
            apply_gamma(pair, case.generator, eta, ens, BASIS, ball, 1.0, 0.0)
    assert np.array_equal(Y, np.ones_like(Y))


def record_reference_diffs(monkeypatch):
    """(diff_y, diff_z) of every sweep, and of a reference: the same sweep
    run on a copy of its environment, diffed in full against the original."""
    sweeps = []
    apply = picard.apply_gamma

    def recording(pair, *args):
        ref = snapshot(pair)
        apply(ref, *args)
        full = (float(np.abs(ref.Y - pair.Y).max()), float(np.abs(ref.Z - pair.Z).max()))
        info = apply(pair, *args)
        assert np.array_equal(pair.Y, ref.Y) and np.array_equal(pair.Z, ref.Z)
        sweeps.append(((info.diff_y, info.diff_z), full))
        return info

    monkeypatch.setattr(picard, "apply_gamma", recording)
    return sweeps


@pytest.mark.parametrize(
    "make, M, N, seed, init, windows, sweeps, first_dy",
    [
        (case_loggrowth, 10, 300, 5, "terminal-flat", 1, None, None),
        # Y starts at 0 below a terminal of 1: the first sweep moves Y by
        # exactly 1 only if the terminal node is written after the drift of
        # the node before it has read the old one (an early write gives 1.0125)
        (case_meanfield_linear, 20, 3000, 7, "zero", 1, 8, 1.0),
        (lambda: case_colehopf_diagonal(n=2, T=5.0), 30, 2000, 3, "terminal-flat", 3, None, None),
        (lambda: case_colehopf_diagonal(n=2, T=5.0), 30, 2000, 3, "zero", 3, None, None),
    ],
    ids=["loggrowth", "meanfield_linear-zero", "colehopf-3-windows-flat", "colehopf-3-windows-zero"],
)
def test_sweep_diffs_are_the_full_array_diffs_bitwise(monkeypatch, make, M, N, seed, init,
                                                      windows, sweeps, first_dy):
    recorded = record_reference_diffs(monkeypatch)
    case = make()
    ens = generate_ensemble(TimeGrid.make(M, case.params.T), N, case.params.d, seed)
    report = solve_auto(case.generator, case.terminal, ens, default_basis(case.params.d), init=init)
    iterations = [it for t in report.traces for it in t.iterations]
    assert len(report.traces) == windows and len(recorded) == len(iterations)
    for it, (diffs, full) in zip(iterations, recorded):
        assert (it.diff_y, it.diff_z) == diffs == full
    if sweeps is not None:
        assert len(iterations) == sweeps and iterations[0].diff_y == first_dy


@pytest.mark.parametrize("make, n", [(case_colehopf_diagonal, 1), (case_loggrowth, 2)])
def test_picard_solve_allocates_no_pair(make, n):
    # the solve writes the initial guess and every sweep into the caller's
    # pair, so its allocation peak is per-node temporaries, below the size
    # of either field of the pair
    case = make()
    assert case.params.n == n
    ens = generate_ensemble(TimeGrid.make(40, case.params.T), 4000, 1, 3)
    ball = BallSpec.full_interval(ens.grid, compute_ledger(case.params))
    eta = terminal_eta(case.terminal, ens)
    pair = fresh(ens, ball, n)
    tracemalloc.start()
    try:
        trace = picard_solve(case.generator, eta, ens, BASIS, ball, pair,
                             tol=1e-12, max_iter=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace.iterations) >= 2
    # the final iterate is the caller's pair
    assert trace.sup_nodes.tolist() == [sup_norm_estimate(pair.Y[:, j])
                                        for j in range(ball.steps + 1)]
    assert peak < min(pair.Y.nbytes, pair.Z.nbytes)


def warm_sweep_peak(n, M=20, N=20_000):
    """tracemalloc peak of one apply_gamma sweep of colehopf with n rows, on
    the iterate of a first sweep, whose regression factors it reuses."""
    case = case_colehopf_diagonal(n=n)
    ens = generate_ensemble(TimeGrid.make(M, case.params.T), N, 1, 7)
    ball = BallSpec.full_interval(ens.grid, compute_ledger(case.params))
    pair = fresh(ens, ball, n)
    eta = terminal_eta(case.terminal, ens)
    picard_solve(case.generator, eta, ens, BASIS, ball, pair, max_iter=1)
    u_norm, v_norm = norms(pair, ens, ball)
    tracemalloc.start()
    try:
        apply_gamma(pair, case.generator, eta, ens, BASIS, ball, u_norm, v_norm)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_grows_linearly_in_the_rows():
    # each row's drift reads V's node block in place, so the sweep's
    # temporaries are (N, n) blocks, not n copies of the (N, n, d) block
    assert warm_sweep_peak(8) <= 8 * warm_sweep_peak(1)


def test_picard_nonconvergence_reported_not_raised():
    case, ens, ledger = linear_setup(M=10, N=64)
    ball = BallSpec.full_interval(ens.grid, ledger)
    eta = terminal_eta(case.terminal, ens)
    trace = picard_solve(
        case.generator, eta, ens, BASIS, ball, fresh(ens, ball), tol=1e-15, max_iter=2
    )
    assert not trace.converged and len(trace.iterations) == 2


# -------------------------------------------------------------- contraction


def test_contraction_report_requires_three_sweeps():
    case, ens, ledger = linear_setup(M=10, N=64)
    ball = BallSpec.full_interval(ens.grid, ledger)
    eta = terminal_eta(case.terminal, ens)
    short = picard_solve(case.generator, eta, ens, BASIS, ball, fresh(ens, ball),
                         tol=1e-15, max_iter=2)
    with pytest.raises(ValueError, match="3 sweeps"):
        contraction_report(short, ledger)


def test_contraction_report_observes_linear_decay():
    case, ens, ledger = linear_setup(M=16, N=200)
    ball = ball_from_ledger(ens.grid, ledger)
    eta = terminal_eta(case.terminal, ens)
    trace = picard_solve(
        case.generator, eta, ens, BASIS, ball, fresh(ens, ball), tol=1e-10, max_iter=50
    )
    rep = contraction_report(trace, ledger)
    assert rep.observed_contracting
    assert all(r < 1.0 for r in rep.observed_ratios_y)
    assert rep.coef_u > 0.0 and rep.coef_v > 0.0
    # the predicted coefficients are rigorous worst cases; no numeric claim
    # beyond positivity and finiteness is made about them here
    assert np.isfinite(rep.coef_u) and np.isfinite(rep.coef_v)
