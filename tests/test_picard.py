"""Decoupling-map sweeps and their fixed-point iteration."""

import math

import numpy as np
import pytest

from collections import Counter

from mfbsde import (
    BallSpec,
    BlowUpError,
    FrozenGenerator1D,
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
    picard_solve,
    solve_1d,
    sup_norm_estimate,
    terminal_values,
    TerminalCondition,
)
from mfbsde import qbsde1d
from mfbsde.benchmarks import BenchmarkCase

BASIS = default_basis(1)


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


def test_ballspec_from_ledger_fits_inside_step_budget():
    case, _, ledger = linear_setup()
    grid = TimeGrid.make(50, 1.0)
    ball = BallSpec.from_ledger(grid, ledger)
    steps = int(math.floor(ledger.eps0 / grid.dt + 1e-12))
    assert ball.steps == steps
    assert ball.k_hi == 50 and ball.k_lo == 50 - steps
    assert ball.eps == pytest.approx(steps * grid.dt)
    assert ball.eps <= ledger.eps0 * (1 + 1e-12)
    assert ball.within_guarantee
    assert (ball.k1, ball.k2) == (ledger.k1, ledger.k2)


def test_ballspec_from_ledger_truncates_at_requested_endpoint():
    _, _, ledger = linear_setup()
    grid = TimeGrid.make(50, 1.0)
    ball = BallSpec.from_ledger(grid, ledger, eps=0.5, k_hi=3)
    assert (ball.k_lo, ball.k_hi) == (0, 3)
    assert ball.eps == pytest.approx(0.06)


def test_ballspec_from_ledger_rejects_subgrid_budget():
    _, _, ledger = linear_setup()
    grid = TimeGrid.make(50, 1.0)
    with pytest.raises(ValueError, match="window budget"):
        BallSpec.from_ledger(grid, ledger, eps=0.001)


def test_ballspec_full_interval_flags_guarantee():
    _, _, ledger = linear_setup()
    ball = BallSpec.full_interval(TimeGrid.make(50, 1.0), ledger)
    assert (ball.k_lo, ball.k_hi) == (0, 50)
    # eps0 of this model is well below T = 1, so no guarantee
    assert ledger.eps0 < 1.0 and not ball.within_guarantee


# --------------------------------------------------------------- one sweep


def norms(pair, ens, ball):
    """The (sup, BMO) environment norms picard_solve hands to apply_gamma."""
    return (
        sup_norm_estimate(pair, ball.k_lo, ball.k_hi),
        bmo_profile(pair, ens, BASIS, ball.k_lo, ball.k_hi).max(),
    )


def test_apply_gamma_single_sweep_hand_value_on_flat_environment():
    # frozen environment constant c on the window: each backward step adds
    # (a + b) * c * dt, so node k carries c * (1 + s*dt*(M-k))
    case, ens, ledger = linear_setup(M=10, N=128)
    ball = BallSpec.full_interval(ens.grid, ledger)
    eta = np.ones((ens.N, 1))
    Y0 = np.ones((ens.N, 11, 1))
    Z0 = np.zeros((ens.N, 10, 1, 1))
    pair = ProcessPair.from_fields(Y0, Z0)
    out, info = apply_gamma(pair, case.generator, eta, ens, BASIS, ball, *norms(pair, ens, ball))
    dt = ens.grid.dt
    for k in range(11):
        np.testing.assert_allclose(out.Y[:, k, 0], 1.0 + dt * (10 - k), rtol=1e-12)
    assert np.array_equal(out.Z, np.zeros_like(out.Z))
    assert info.u_norm == 1.0
    assert info.truncation_hits == 0
    assert len(info.components) == 1 and info.components[0].trunc_R > 0.0


def test_apply_gamma_masks_outside_window():
    case, ens, ledger = linear_setup(M=10, N=128)
    ball = BallSpec.from_ledger(ens.grid, ledger, eps=0.5, k_hi=10)
    assert ball.k_lo == 5
    eta = np.ones((ens.N, 1))
    pair = ProcessPair.from_fields(
        np.ones((ens.N, 11, 1)), np.zeros((ens.N, 10, 1, 1))
    )
    out, _ = apply_gamma(pair, case.generator, eta, ens, BASIS, ball, *norms(pair, ens, ball))
    assert np.array_equal(out.Y[:, :5], np.zeros((ens.N, 5, 1)))
    assert out.Y[:, 5:].min() > 1.0 - 1e-12


def test_apply_gamma_rejects_bad_terminal_shape():
    case, ens, ledger = linear_setup(M=10, N=64)
    ball = BallSpec.full_interval(ens.grid, ledger)
    pair = ProcessPair.from_fields(
        np.zeros((ens.N, 11, 1)), np.zeros((ens.N, 10, 1, 1))
    )
    with pytest.raises(ValueError, match="terminal array"):
        apply_gamma(pair, case.generator, np.zeros((ens.N, 2)), ens, BASIS, ball, 0.0, 0.0)


def test_apply_gamma_blowup_carries_component_index():
    p = ModelParams(
        n=2, d=1, T=1.0, gamma=1.0, K=0.01, delta=0.0,
        phi=lambda r: 0.5, a=lambda t: 0.01, alpha=lambda t: 0.01,
        beta=lambda t: 0.01, eta=lambda t: 0.0, C0=0.01, C1=1.0, C2=0.05,
    )

    def runaway(t, y, ybar, z, zbar):
        out = np.zeros(np.asarray(y).shape)
        out[..., 1] = 1e8
        return out

    gen = Generator(fn=runaway, params=p, name="runaway")
    ens = generate_ensemble(TimeGrid.make(10, 1.0), 64, 1, 0)
    ledger = compute_ledger(p)
    ball = BallSpec.full_interval(ens.grid, ledger)
    pair = ProcessPair.from_fields(
        np.zeros((64, 11, 2)), np.zeros((64, 10, 2, 1))
    )
    with pytest.raises(BlowUpError) as exc:
        apply_gamma(pair, gen, np.zeros((64, 2)), ens, BASIS, ball, *norms(pair, ens, ball))
    assert exc.value.component == 1
    assert "component 1" in str(exc.value)


# ------------------------------------------------------ one pass, all rows


def per_row_reference(pair, gen, eta, ens, basis, ball, info):
    """The sweep of apply_gamma solved one row at a time: scalar solve_1d with
    each row's own frozen closure, radius and guard.  Returns (Y, Z, hits)
    on the window."""
    U, V = pair.Y, pair.Z
    nodes = ens.grid.nodes
    Y = np.zeros((ens.N, ball.steps + 1, gen.params.n))
    Z = np.zeros((ens.N, ball.steps, gen.params.n, ens.d))
    hits = []
    for i, comp in enumerate(info.components):
        def g_i(k, zrow, i=i):
            vsub = V[:, k].copy()
            vsub[:, i, :] = zrow
            t_mid = 0.5 * (nodes[k] + nodes[k + 1])
            u_mid = 0.5 * (U[:, k] + U[:, k + 1])
            mu_mid = 0.5 * (pair.mean_Y[k] + pair.mean_Y[k + 1])
            return gen.component(i, t_mid, u_mid, mu_mid, vsub, pair.mean_Z[k])

        # the envelope only sets the default guard, which is given here
        frozen = FrozenGenerator1D(g=g_i, envelope=None, u_norm=info.u_norm, v_norm=info.v_norm)
        res = solve_1d(eta[:, i], frozen, ens, basis, comp.trunc_R, ball.k_lo, ball.k_hi,
                       blowup_guard=10.0 * comp.y_bound)
        Y[:, :, i], Z[:, :, i] = res.Y, res.Z
        hits.append(res.truncation_hits)
    return Y, Z, hits


def env_norms(pair, ens, basis, ball):
    return (
        sup_norm_estimate(pair, ball.k_lo, ball.k_hi),
        bmo_profile(pair, ens, basis, ball.k_lo, ball.k_hi).max(),
    )


def second_sweep(case, ens, basis, safety=3.0):
    """An environment with nonzero Z (one sweep from the flat guess), the
    next sweep on it, and what that sweep was given."""
    ball = BallSpec.full_interval(ens.grid, compute_ledger(case.params))
    eta = terminal_values(case.terminal, ens.cumulative)
    flat = np.repeat(eta[:, None, :], ens.grid.M + 1, axis=1)
    pair = ProcessPair.from_fields(flat, np.zeros((ens.N, ens.grid.M, case.params.n, ens.d)))
    pair, _ = apply_gamma(pair, case.generator, eta, ens, basis, ball,
                          *env_norms(pair, ens, basis, ball), safety=safety)
    out, info = apply_gamma(pair, case.generator, eta, ens, basis, ball,
                            *env_norms(pair, ens, basis, ball), safety=safety)
    return pair, eta, ball, out, info


def record_projections(monkeypatch):
    """(node, target shape) of every projection the backward pass makes."""
    calls = []
    project = qbsde1d.project

    def recording(values, k, ens, basis):
        calls.append((k, np.shape(values)))
        return project(values, k, ens, basis)

    monkeypatch.setattr(qbsde1d, "project", recording)
    return calls


def test_apply_gamma_rows_match_per_row_reference():
    case = case_loggrowth()
    ens = generate_ensemble(TimeGrid.make(10, case.params.T), 300, 1, 4)
    pair, eta, ball, out, info = second_sweep(case, ens, BASIS)
    assert np.abs(pair.Z).max() > 0.0           # the frozen z-slots are live
    Y, Z, hits = per_row_reference(pair, case.generator, eta, ens, BASIS, ball, info)
    np.testing.assert_allclose(out.Y, Y, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(out.Z, Z, rtol=0.0, atol=1e-12)
    assert [c.truncation_hits for c in info.components] == hits


def test_apply_gamma_single_row_is_the_scalar_solve_bitwise():
    case = case_colehopf_diagonal(gamma=1.0, n=1)
    ens = generate_ensemble(TimeGrid.make(10, case.params.T), 300, 1, 4)
    pair, eta, ball, out, info = second_sweep(case, ens, BASIS)
    Y, Z, hits = per_row_reference(pair, case.generator, eta, ens, BASIS, ball, info)
    assert np.array_equal(out.Y, Y) and np.array_equal(out.Z, Z)
    assert info.truncation_hits == hits[0]


def test_apply_gamma_projects_all_rows_together(monkeypatch):
    # two projections per node for both rows: the (N, 2) continuation and
    # the (N, 2) martingale targets, where solving row by row makes four
    case = case_loggrowth()
    ens = generate_ensemble(TimeGrid.make(10, case.params.T), 300, 1, 4)
    ball = BallSpec.full_interval(ens.grid, compute_ledger(case.params))
    eta = terminal_values(case.terminal, ens.cumulative)
    pair = ProcessPair.from_fields(
        np.repeat(eta[:, None, :], 11, axis=1), np.zeros((ens.N, 10, 2, 1))
    )
    norms_ = env_norms(pair, ens, BASIS, ball)
    calls = record_projections(monkeypatch)
    apply_gamma(pair, case.generator, eta, ens, BASIS, ball, *norms_)
    assert Counter(k for k, _ in calls) == {k: 2 for k in range(10)}
    assert {shape for _, shape in calls} == {(ens.N, 2)}


def test_apply_gamma_two_rows_two_dims(monkeypatch):
    # n = 2, d = 2: the martingale targets of both rows are one (N, 4)
    # projection, each row's Z is clipped in Euclidean norm over d at its own
    # radius, and each row counts its own clips
    p = ModelParams(
        n=2, d=2, T=1.0, gamma=1.0, K=0.05, delta=0.0,
        phi=lambda r: 0.5, a=lambda t: 0.01, alpha=lambda t: 0.01,
        beta=lambda t: 0.01, eta=lambda t: 0.05, C0=0.01, C1=10.0, C2=0.1,
    )

    def fn(t, y, ybar, z, zbar):
        rows = np.sqrt((z * z).sum(axis=-1))
        return 0.5 * rows**2 + 0.05 * np.log1p(rows[..., ::-1])

    def xi(paths):
        w = np.clip(paths[:, -1, :], -3.0, 3.0)
        return np.column_stack([w[:, 0] + w[:, 1], 2.0 * w[:, 1]])

    case = BenchmarkCase(
        name="rows2d", params=p, generator=Generator(fn=fn, params=p, name="rows2d"),
        terminal=TerminalCondition(g=xi, bound=10.0, params=p),
        oracle=None, y0_exact=None, tolerance_profile={},
    )
    basis = default_basis(2)
    ens = generate_ensemble(TimeGrid.make(8, 1.0), 400, 2, 6)
    calls = record_projections(monkeypatch)
    pair, eta, ball, out, info = second_sweep(case, ens, basis, safety=1e-3)
    assert {shape for _, shape in calls} == {(ens.N, 2), (ens.N, 4)}
    Y, Z, hits = per_row_reference(pair, case.generator, eta, ens, basis, ball, info)
    np.testing.assert_allclose(out.Y, Y, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(out.Z, Z, rtol=0.0, atol=1e-12)
    row_hits = [c.truncation_hits for c in info.components]
    assert row_hits == hits and all(h > 0 for h in row_hits)
    assert info.truncation_hits == sum(row_hits)
    for i, comp in enumerate(info.components):
        norms = np.sqrt((out.Z[:, :, i, :] ** 2).sum(axis=-1))
        assert norms.max() <= comp.trunc_R * (1 + 1e-12)
    assert info.components[0].trunc_R != info.components[1].trunc_R


# ------------------------------------------------------------- fixed point


def test_picard_fixed_point_matches_implicit_trapezoid_product():
    # midpoint-frozen y-slots mean the converged iterate satisfies
    # Y_k = Y_{k+1} + s * (Y_k + Y_{k+1})/2 * dt, hence a closed-form ratio
    case, ens, ledger = linear_setup(M=20, N=256)
    ball = BallSpec.full_interval(ens.grid, ledger)
    trace = picard_solve(
        case.generator, case.terminal, ens, BASIS, ball, tol=1e-11, max_iter=100
    )
    assert trace.converged
    dt = ens.grid.dt
    ratio = (1.0 + 0.5 * dt / 2.0 + 0.5 * dt / 2.0) / (1.0 - 0.5 * dt / 2.0 - 0.5 * dt / 2.0)
    expect = ratio**20
    np.testing.assert_allclose(trace.pair.Y[:, 0, 0], expect, rtol=1e-9)
    # and that closed form is itself within O(dt^2) of e^{(a+b)T}
    assert abs(expect - np.e) < 5 * dt**2


def test_picard_zero_case_converges_first_sweep_bitwise():
    case = case_zero(c=2.0)
    ens = generate_ensemble(TimeGrid.make(8, 1.0), 100, 1, 1)
    ledger = compute_ledger(case.params)
    ball = BallSpec.full_interval(ens.grid, ledger)
    trace = picard_solve(case.generator, case.terminal, ens, BASIS, ball)
    assert trace.converged and len(trace.iterations) == 1
    it = trace.iterations[0]
    assert it.diff_y == 0.0 and it.diff_z == 0.0
    assert it.ratio_y is None and it.ratio_z is None
    assert it.in_ball_y and it.in_ball_z
    assert np.array_equal(trace.pair.Y, np.full((100, 9, 1), 2.0))
    assert np.array_equal(trace.pair.Z, np.zeros((100, 8, 1, 1)))


def test_picard_iteration_diagnostics_monotone_tail():
    case, ens, ledger = linear_setup(M=16, N=200)
    ball = BallSpec.full_interval(ens.grid, ledger)
    trace = picard_solve(
        case.generator, case.terminal, ens, BASIS, ball, tol=1e-10, max_iter=50
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
    kw = dict(tol=1e-6, max_iter=60)
    a = picard_solve(case.generator, case.terminal, ens, BASIS, ball, init="terminal-flat", **kw)
    b = picard_solve(case.generator, case.terminal, ens, BASIS, ball, init="zero", **kw)
    assert a.converged and b.converged
    assert float(np.abs(a.pair.Y - b.pair.Y).max()) < 3e-6


def test_picard_argument_validation():
    case, ens, ledger = linear_setup(M=10, N=64)
    ball = BallSpec.full_interval(ens.grid, ledger)
    with pytest.raises(ValueError, match="init"):
        picard_solve(case.generator, case.terminal, ens, BASIS, ball, init="bogus")
    with pytest.raises(ValueError, match="tol"):
        picard_solve(case.generator, case.terminal, ens, BASIS, ball, tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        picard_solve(case.generator, case.terminal, ens, BASIS, ball, max_iter=0)


def test_picard_nonconvergence_reported_not_raised():
    case, ens, ledger = linear_setup(M=10, N=64)
    ball = BallSpec.full_interval(ens.grid, ledger)
    trace = picard_solve(
        case.generator, case.terminal, ens, BASIS, ball, tol=1e-15, max_iter=2
    )
    assert not trace.converged and len(trace.iterations) == 2


# -------------------------------------------------------------- contraction


def test_contraction_report_requires_three_sweeps():
    case, ens, ledger = linear_setup(M=10, N=64)
    ball = BallSpec.full_interval(ens.grid, ledger)
    short = picard_solve(case.generator, case.terminal, ens, BASIS, ball, tol=1e-15, max_iter=2)
    with pytest.raises(ValueError, match="3 sweeps"):
        contraction_report(short, ledger)


def test_contraction_report_observes_linear_decay():
    case, ens, ledger = linear_setup(M=16, N=200)
    ball = BallSpec.from_ledger(ens.grid, ledger)
    trace = picard_solve(
        case.generator, case.terminal, ens, BASIS, ball, tol=1e-10, max_iter=50
    )
    rep = contraction_report(trace, ledger)
    assert rep.observed_contracting
    assert all(r < 1.0 for r in rep.observed_ratios_y)
    assert rep.coef_u > 0.0 and rep.coef_v > 0.0
    # the predicted coefficients are rigorous worst cases; no numeric claim
    # beyond positivity and finiteness is made about them here
    assert np.isfinite(rep.coef_u) and np.isfinite(rep.coef_v)
