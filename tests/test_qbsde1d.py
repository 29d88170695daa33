"""Scalar backward solver: explicit bounds, truncation, blow-up guard."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbsde import (
    BlowUpError,
    FrozenGenerator1D,
    GrowthEnvelope,
    TimeGrid,
    bound_y,
    bound_z,
    default_basis,
    generate_ensemble,
    solve_1d,
    truncation_radius,
)
from mfbsde import qbsde1d
from mfbsde.constants import LOG2


def make_env(gamma=1.0, K=0.0, delta=0.0, n=1, T=1.0, phi=0.5, a=0.1, eta_bound=2.0):
    return GrowthEnvelope(
        gamma=gamma,
        K=K,
        delta=delta,
        n=n,
        T=T,
        phi=lambda r, _p=phi: _p,
        a_integral=lambda t, _a=a, _T=T: _a * (_T - t),
        eta_bound=eta_bound,
    )


def frozen(env, fn, u=1.0, v=1.0):
    return FrozenGenerator1D(g=fn, envelope=env, u_norm=u, v_norm=v)


def record_projection_nodes(monkeypatch):
    """Node index of every regression solve_1d runs, in call order."""
    nodes = []
    project = qbsde1d.project

    def recording(values, k, ens, basis):
        nodes.append(k)
        return project(values, k, ens, basis)

    monkeypatch.setattr(qbsde1d, "project", recording)
    return nodes


# ------------------------------------------------------------------- bounds


def test_bound_y_hand_value_uncoupled():
    env = make_env()
    # log2/gamma + eta + a-integral + phi * horizon; the coupling term
    # vanishes because K = 0 makes its constant zero
    assert bound_y(env, 0.0, 1.0, 1.0) == pytest.approx(LOG2 + 2.0 + 0.1 + 0.5)
    assert bound_y(env, 1.0, 1.0, 1.0) == pytest.approx(LOG2 + 2.0)


def test_bound_y_hand_value_coupled():
    env = make_env(K=1.0, delta=0.0, n=1)
    # constant for (delta=0, K=1, n=1) is 1/2; q = 1
    expect = LOG2 + 2.0 + 0.1 + 0.5 + 1.0 * 0.5 * 3.0**2
    assert bound_y(env, 0.0, 1.0, 3.0) == pytest.approx(expect)


def test_bound_y_rejects_time_outside_horizon():
    env = make_env()
    with pytest.raises(ValueError):
        bound_y(env, -0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        bound_y(env, 1.5, 1.0, 1.0)


def test_bound_z_hand_value():
    env = make_env(phi=0.0, a=0.0, eta_bound=0.0)
    # lead = e^0 / 1 = 1, body = e^0 * (1 + 0 + 0 + 0) = 1
    assert bound_z(env, 0.0, 0.0, 1.0, 0.0) == pytest.approx(2.0)


def test_bound_z_saturates_not_crashes_for_huge_y():
    env = make_env()
    assert bound_z(env, 0.0, 1e6, 1.0, 1.0) == np.inf


@given(
    t1=st.floats(0.0, 1.0),
    t2=st.floats(0.0, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_bound_y_nonincreasing_in_time(t1, t2):
    env = make_env(K=0.5)
    lo, hi = min(t1, t2), max(t1, t2)
    assert bound_y(env, lo, 1.0, 1.0) >= bound_y(env, hi, 1.0, 1.0) - 1e-12


def test_truncation_radius():
    assert truncation_radius(4.0) == 6.0
    assert truncation_radius(4.0, mult=1.0) == 2.0
    assert truncation_radius(0.0) == 0.0
    big = truncation_radius(float("inf"))
    assert big == truncation_radius(-1.0) == truncation_radius(float("nan"))
    assert big > 1e150


# ---------------------------------------------------------------- recursion


def setup_ens(M=8, T=1.0, N=4_000, seed=3):
    return generate_ensemble(TimeGrid.make(M, T), N, 1, seed)


def test_constant_terminal_zero_generator_is_bitwise_constant(monkeypatch):
    nodes = record_projection_nodes(monkeypatch)
    ens = setup_ens(N=500)
    env = make_env()
    g = frozen(env, lambda k, z: np.zeros(z.shape[0]))
    eta = np.full(ens.N, 4.25)
    res = solve_1d(eta, g, ens, default_basis(1), trunc_R=10.0)
    assert np.array_equal(res.Y, np.full((ens.N, 9), 4.25))
    assert np.array_equal(res.Z, np.zeros((ens.N, 8, 1)))
    assert res.truncation_hits == 0
    assert len(nodes) == 8          # one continuation regression per step, none for Z


def test_constant_drift_integrates_exactly():
    ens = setup_ens(N=300)
    env = make_env(a=1.0)
    c = 0.7
    g = frozen(env, lambda k, z: np.full(z.shape[0], c))
    res = solve_1d(np.ones(ens.N), g, ens, default_basis(1), trunc_R=10.0)
    dt = ens.grid.dt
    for j in range(9):
        np.testing.assert_allclose(res.Y[:, j], 1.0 + c * dt * (8 - j), rtol=1e-12)


def test_martingale_terminal_recovers_brownian_path_and_unit_z():
    # eta = W_T, g = 0: the true solution is Y_t = W_t, Z = 1
    ens = setup_ens(M=8, N=8_000, seed=13)
    env = make_env(phi=0.0, a=0.0, eta_bound=20.0)
    g = frozen(env, lambda k, z: np.zeros(z.shape[0]))
    eta = ens.cumulative[:, -1, 0]
    res = solve_1d(eta, g, ens, default_basis(1), trunc_R=100.0)
    for k in range(1, 8):
        rms = np.sqrt(np.mean((res.Y[:, k] - ens.cumulative[:, k, 0]) ** 2))
        assert rms < 0.05, f"node {k}: rms {rms}"
    z_means = res.Z[:, 1:, 0].mean(axis=0)
    np.testing.assert_allclose(z_means, 1.0, atol=0.06)


def test_truncation_clips_row_norms_and_counts():
    ens = setup_ens(N=2_000, seed=4)
    env = make_env(eta_bound=20.0)
    g = frozen(env, lambda k, z: np.zeros(z.shape[0]))
    eta = ens.cumulative[:, -1, 0]
    res = solve_1d(eta, g, ens, default_basis(1), trunc_R=0.5)
    assert res.truncation_hits > 0
    norms = np.sqrt((res.Z**2).sum(axis=2))
    assert norms.max() <= 0.5 * (1 + 1e-12)


def test_blowup_guard_raises_with_location():
    ens = setup_ens(N=200)
    env = make_env()
    g = frozen(env, lambda k, z: np.full(z.shape[0], 1e6))
    with pytest.raises(BlowUpError) as exc:
        solve_1d(np.zeros(ens.N), g, ens, default_basis(1), trunc_R=10.0, blowup_guard=50.0)
    assert exc.value.node == 7
    assert exc.value.guard == 50.0
    assert "blow-up" in str(exc.value)


def test_default_guard_derives_from_envelope():
    # guard = 10 * bound_y must stop a generator that violates its own
    # declared envelope by orders of magnitude
    ens = setup_ens(N=200)
    env = make_env(phi=0.01, a=0.0, eta_bound=0.1)
    g = frozen(env, lambda k, z: np.full(z.shape[0], 1e4), u=0.1, v=0.0)
    with pytest.raises(BlowUpError):
        solve_1d(np.zeros(ens.N), g, ens, default_basis(1), trunc_R=10.0)


def test_window_solve_shapes_and_indices(monkeypatch):
    nodes = record_projection_nodes(monkeypatch)
    ens = setup_ens(M=10, N=300)
    env = make_env()
    g = frozen(env, lambda k, z: np.zeros(z.shape[0]))
    res = solve_1d(np.ones(ens.N), g, ens, default_basis(1), trunc_R=5.0, k_lo=3, k_hi=7)
    assert res.Y.shape == (ens.N, 5)
    assert res.Z.shape == (ens.N, 4, 1)
    assert (res.k_lo, res.k_hi) == (3, 7)
    assert nodes == [6, 5, 4, 3]


def test_input_validation():
    ens = setup_ens(N=100)
    env = make_env()
    g = frozen(env, lambda k, z: np.zeros(z.shape[0]))
    basis = default_basis(1)
    with pytest.raises(ValueError):
        solve_1d(np.ones(ens.N + 1), g, ens, basis, trunc_R=1.0)
    with pytest.raises(ValueError):
        solve_1d(np.full(ens.N, np.inf), g, ens, basis, trunc_R=1.0)
    with pytest.raises(ValueError):
        solve_1d(np.ones(ens.N), g, ens, basis, trunc_R=1.0, k_lo=5, k_hi=5)
    with pytest.raises(ValueError):
        solve_1d(np.ones(ens.N), g, ens, basis, trunc_R=1.0, k_hi=99)


def test_terminal_column_is_bitwise_eta():
    ens = setup_ens(N=150, seed=9)
    env = make_env(eta_bound=20.0)
    g = frozen(env, lambda k, z: np.zeros(z.shape[0]))
    eta = ens.cumulative[:, -1, 0]
    res = solve_1d(eta, g, ens, default_basis(1), trunc_R=50.0)
    assert np.array_equal(res.Y[:, -1], eta)


# ------------------------------------------------------------ row blocks


def test_block_constant_row_next_to_live_row(monkeypatch):
    calls = []
    project = qbsde1d.project

    def recording(values, k, ens, basis):
        calls.append(np.shape(values))
        return project(values, k, ens, basis)

    monkeypatch.setattr(qbsde1d, "project", recording)
    ens = setup_ens(N=500, seed=5)
    g = frozen(make_env(eta_bound=20.0), lambda k, z: 0.5 * (z * z).sum(axis=-1) * [0.0, 1.0])
    eta = np.column_stack([np.full(ens.N, 4.25), ens.cumulative[:, -1, 0]])
    res = solve_1d(eta, g, ens, default_basis(1), trunc_R=50.0)
    assert res.Y.shape == (ens.N, 9, 2) and res.Z.shape == (ens.N, 8, 2, 1)
    assert np.array_equal(res.Y[:, :, 0], np.full((ens.N, 9), 4.25))
    assert np.array_equal(res.Z[:, :, 0], np.zeros((ens.N, 8, 1)))
    assert not np.signbit(res.Z[:, :, 0]).any()          # +0.0, not -0.0
    assert np.ptp(res.Y[:, 4, 1]) > 0.0 and np.abs(res.Z[:, 1:, 1]).min() > 0.0
    # the continuation of both rows is one projection, the martingale
    # targets of the live row alone another
    assert calls == [(ens.N, 2), (ens.N, 1)] * 8


def test_block_matches_scalar_rows():
    ens = setup_ens(N=400, seed=8)
    env = make_env(eta_bound=20.0)
    w = ens.cumulative[:, -1, 0]
    eta = np.column_stack([w, np.sin(w), 0.5 * w])

    def drift(k, z):
        return 0.5 * (z * z).sum(axis=-1)

    radii = np.array([50.0, 0.3, 0.05])
    res = solve_1d(eta, frozen(env, drift), ens, default_basis(1), trunc_R=radii)
    assert sum(res.row_hits) == res.truncation_hits and res.row_hits[2] > 0
    for i in range(3):
        one = solve_1d(eta[:, i], frozen(env, drift), ens, default_basis(1), trunc_R=radii[i])
        np.testing.assert_allclose(res.Y[:, :, i], one.Y, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(res.Z[:, :, i], one.Z, rtol=0.0, atol=1e-12)
        assert res.row_hits[i] == one.truncation_hits


@pytest.mark.parametrize(
    "guards, node, component",
    [
        # row 1 leaves its guard at node 7, row 0 only at node 4
        ([3.5, 1.0], 7, 1),
        # both rows leave at node 6: the lower index is named
        ([1.5, 2.5], 6, 0),
    ],
)
def test_block_blowup_names_first_node_then_lowest_row(guards, node, component):
    ens = setup_ens(N=200)
    # drift c_i makes Y at node k equal c_i * dt * (8 - k) on row i
    g = frozen(make_env(), lambda k, z: np.broadcast_to([8.0, 12.0], z.shape[:-1]).copy())
    with pytest.raises(BlowUpError) as exc:
        solve_1d(np.zeros((ens.N, 2)), g, ens, default_basis(1), trunc_R=10.0,
                 blowup_guard=np.array(guards))
    assert (exc.value.node, exc.value.component) == (node, component)
    assert exc.value.guard == guards[component]
    assert f"component {component}" in str(exc.value)


def test_block_input_validation():
    ens = setup_ens(N=100)
    basis = default_basis(1)
    g = frozen(make_env(), lambda k, z: np.zeros(z.shape[:-1]))
    with pytest.raises(ValueError, match="trunc_R"):
        solve_1d(np.ones((ens.N, 2)), g, ens, basis, trunc_R=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="blowup_guard"):
        solve_1d(np.ones((ens.N, 2)), g, ens, basis, trunc_R=1.0, blowup_guard=[1.0])
    for bad in (np.ones((ens.N, 2, 1)), np.ones((ens.N, 0))):
        with pytest.raises(ValueError, match="eta"):
            solve_1d(bad, g, ens, basis, trunc_R=1.0)
    wrong = frozen(make_env(), lambda k, z: np.zeros(z.shape[0]))
    with pytest.raises(ValueError, match="shape"):
        solve_1d(np.ones((ens.N, 2)), wrong, ens, basis, trunc_R=1.0)
