"""Scalar backward solver: explicit bounds, truncation, blow-up guard."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbsde import (
    BlowUpError,
    ModelParams,
    ProcessPair,
    TimeGrid,
    bmo_profile,
    bound_y,
    bound_z,
    default_basis,
    generate_ensemble,
    solve_1d,
    sup_norm_estimate,
    truncation_radius,
)
from mfbsde import qbsde1d
from mfbsde.constants import LOG2

from conftest import pair_from_fields


def make_params(K=0.0, phi=0.5):
    """Model parameters for the bounds: gamma = 1, delta = 0, n = 1, the
    given K and a constant phi; the rest are zero."""
    zero = lambda t: 0.0
    return ModelParams(n=1, d=1, T=1.0, gamma=1.0, K=K, delta=0.0,
                       phi=lambda r, _p=phi: _p, a=zero, alpha=zero, beta=zero, eta=zero,
                       C0=0.0, C1=0.0, C2=0.0)


def envelope_guard(ens, n=1, k_lo=0, k_hi=None, a=0.1, phi=0.5, eta_bound=2.0):
    """The blow-up guard apply_gamma gives each of n rows on the window
    [k_lo, k_hi] with drift density a and unit environment norms: ten times
    bound_y at the window start."""
    nodes = ens.grid.nodes
    horizon = nodes[ens.grid.M if k_hi is None else k_hi] - nodes[k_lo]
    y_bound = bound_y(make_params(phi=phi), horizon, a * horizon, eta_bound, 1.0, 1.0)
    return np.full(n, 10.0 * y_bound)


# ------------------------------------------------------------------- bounds


def test_bound_y_hand_value_uncoupled():
    p = make_params()
    # log2/gamma + eta + budget + phi * horizon; the coupling term vanishes
    # because K = 0 makes its constant zero
    assert bound_y(p, 1.0, 0.1, 2.0, 1.0, 1.0) == pytest.approx(LOG2 + 2.0 + 0.1 + 0.5)
    # a window of length 0 has no budget left: the terminal bound alone
    assert bound_y(p, 0.0, 0.0, 2.0, 1.0, 1.0) == pytest.approx(LOG2 + 2.0)


def test_bound_y_hand_value_coupled():
    p = make_params(K=1.0)
    # constant for (delta=0, K=1, n=1) is 1/2; q = 1
    expect = LOG2 + 2.0 + 0.1 + 0.5 + 1.0 * 0.5 * 3.0**2
    assert bound_y(p, 1.0, 0.1, 2.0, 1.0, 3.0) == pytest.approx(expect)


def test_bound_z_hand_value():
    p = make_params(phi=0.0)
    # lead = e^0 / 1 = 1, body = e^0 * (1 + 0 + 0 + 0) = 1
    assert bound_z(p, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0) == pytest.approx(2.0)
    # horizon 0 and no budget: the phi and coupling terms drop out
    assert bound_z(make_params(K=1.0), 0.0, 0.0, 0.0, 0.0, 1.0, 3.0) == pytest.approx(2.0)


def test_bound_z_saturates_not_crashes_for_huge_y():
    assert bound_z(make_params(), 1.0, 0.1, 2.0, 1e6, 1.0, 1.0) == np.inf


@given(
    h1=st.floats(0.0, 1.0),
    h2=st.floats(0.0, 1.0),
)
@settings(max_examples=50, deadline=None)
def test_bound_y_nondecreasing_in_horizon(h1, h2):
    # a longer window carries more drift budget (density 0.1) and more
    # phi and coupling growth
    p = make_params(K=0.5)
    lo, hi = min(h1, h2), max(h1, h2)
    longer = bound_y(p, hi, 0.1 * hi, 2.0, 1.0, 1.0)
    assert longer >= bound_y(p, lo, 0.1 * lo, 2.0, 1.0, 1.0) - 1e-12


def test_truncation_radius(monkeypatch):
    assert truncation_radius(4.0) == 6.0
    monkeypatch.setattr(qbsde1d, "_TRUNC_MULT", 1.0)
    assert truncation_radius(4.0) == 2.0
    assert truncation_radius(0.0) == 0.0
    big = truncation_radius(float("inf"))
    assert big == truncation_radius(-1.0) == truncation_radius(float("nan"))
    assert big > 1e150


# ---------------------------------------------------------------- recursion


def setup_ens(M=8, T=1.0, N=4_000, seed=3):
    return generate_ensemble(TimeGrid.make(M, T), N, 1, seed)


def no_drift(k, z):
    return np.zeros(z.shape[:-1])


def zero_pair(ens, L, n):
    """A pair of zeros on L+1 nodes, means included."""
    return pair_from_fields(np.zeros((ens.N, L + 1, n)), np.zeros((ens.N, L, n, ens.d)))


def run_1d(eta, drift, ens, basis, trunc_R, blowup_guard, k_lo=0, k_hi=None):
    """solve_1d on the window [k_lo, k_hi] (k_hi defaults to M) of a fresh
    zero pair; the result carries it as .pair, .Y and .Z."""
    L = (ens.grid.M if k_hi is None else k_hi) - k_lo
    pair = zero_pair(ens, L, np.shape(eta)[-1])
    res = solve_1d(eta, drift, ens, basis, trunc_R, blowup_guard, pair, k_lo)
    res.pair, res.Y, res.Z = pair, pair.Y, pair.Z
    return res


def test_constant_terminal_zero_generator_is_bitwise_constant(projections):
    ens = setup_ens(N=500)
    eta = np.full((ens.N, 1), 4.25)
    res = run_1d(eta, no_drift, ens, default_basis(1), np.array([10.0]),
                   envelope_guard(ens))
    assert np.array_equal(res.Y, np.full((ens.N, 9, 1), 4.25))
    assert np.array_equal(res.Z, np.zeros((ens.N, 8, 1, 1)))
    assert res.truncation_hits == 0
    # per step one continuation and one BMO-tail projection, none for Z
    assert [shape for _, shape in projections] == [(ens.N, 1), (ens.N,)] * 8
    assert np.array_equal(res.bmo_nodes, np.zeros(9)) and res.sup_nodes.max() == 4.25


def test_constant_drift_integrates_exactly():
    ens = setup_ens(N=300)
    c = 0.7
    res = run_1d(np.ones((ens.N, 1)), lambda k, z: np.full(z.shape[:-1], c), ens,
                   default_basis(1), np.array([10.0]), envelope_guard(ens, a=1.0))
    dt = ens.grid.dt
    for j in range(9):
        np.testing.assert_allclose(res.Y[:, j, 0], 1.0 + c * dt * (8 - j), rtol=1e-12)


def test_martingale_terminal_recovers_brownian_path_and_unit_z():
    # eta = W_T, g = 0: the true solution is Y_t = W_t, Z = 1
    ens = setup_ens(M=8, N=8_000, seed=13)
    eta = ens.cumulative[:, -1, :]
    res = run_1d(eta, no_drift, ens, default_basis(1), np.array([100.0]),
                   envelope_guard(ens, a=0.0, phi=0.0, eta_bound=20.0))
    for k in range(1, 8):
        rms = np.sqrt(np.mean((res.Y[:, k, 0] - ens.cumulative[:, k, 0]) ** 2))
        assert rms < 0.05, f"node {k}: rms {rms}"
    z_means = res.Z[:, 1:, 0, 0].mean(axis=0)
    np.testing.assert_allclose(z_means, 1.0, atol=0.06)


def test_truncation_clips_row_norms_and_counts():
    ens = setup_ens(N=2_000, seed=4)
    eta = ens.cumulative[:, -1, :]
    res = run_1d(eta, no_drift, ens, default_basis(1), np.array([0.5]),
                   envelope_guard(ens, eta_bound=20.0))
    assert res.truncation_hits > 0
    norms = np.sqrt((res.Z**2).sum(axis=-1))
    assert norms.max() <= 0.5 * (1 + 1e-12)


def test_blowup_guard_raises_with_location():
    ens = setup_ens(N=200)
    with pytest.raises(BlowUpError) as exc:
        run_1d(np.zeros((ens.N, 1)), lambda k, z: np.full(z.shape[:-1], 1e6), ens,
                 default_basis(1), np.array([10.0]), np.array([50.0]))
    assert exc.value.node == 7
    assert exc.value.guard == 50.0
    assert exc.value.component == 0
    assert "blow-up" in str(exc.value)


def test_window_solve_shapes_and_indices(projections):
    ens = setup_ens(M=10, N=300)
    res = run_1d(np.ones((ens.N, 1)), no_drift, ens, default_basis(1), np.array([5.0]),
                   envelope_guard(ens, k_lo=3, k_hi=7), k_lo=3, k_hi=7)
    assert res.Y.shape == (ens.N, 5, 1)
    assert res.Z.shape == (ens.N, 4, 1, 1)
    assert res.bmo_nodes.shape == (5,)
    # the continuation and the BMO tail at each node, backward
    assert [k for k, _ in projections] == [6, 6, 5, 5, 4, 4, 3, 3]


def test_input_validation():
    ens = setup_ens(N=100)
    basis = default_basis(1)
    R, guard = np.array([1.0]), envelope_guard(ens)
    with pytest.raises(ValueError):
        run_1d(np.ones((ens.N + 1, 1)), no_drift, ens, basis, R, guard)
    with pytest.raises(ValueError):
        run_1d(np.full((ens.N, 1), np.inf), no_drift, ens, basis, R, guard)
    with pytest.raises(ValueError):
        run_1d(np.ones((ens.N, 1)), no_drift, ens, basis, R, guard, k_lo=5, k_hi=5)
    with pytest.raises(ValueError):
        run_1d(np.ones((ens.N, 1)), no_drift, ens, basis, R, guard, k_hi=99)


def test_terminal_column_is_bitwise_eta():
    ens = setup_ens(N=150, seed=9)
    eta = ens.cumulative[:, -1, :]
    res = run_1d(eta, no_drift, ens, default_basis(1), np.array([50.0]),
                   envelope_guard(ens, eta_bound=20.0))
    assert np.array_equal(res.Y[:, -1], eta)


# ------------------------------------------------------------ row blocks


def test_block_constant_row_next_to_live_row(projections):
    ens = setup_ens(N=500, seed=5)
    eta = np.column_stack([np.full(ens.N, 4.25), ens.cumulative[:, -1, 0]])
    res = run_1d(eta, lambda k, z: 0.5 * (z * z).sum(axis=-1) * [0.0, 1.0], ens,
                   default_basis(1), np.full(2, 50.0),
                   envelope_guard(ens, n=2, eta_bound=20.0))
    assert res.Y.shape == (ens.N, 9, 2) and res.Z.shape == (ens.N, 8, 2, 1)
    assert np.array_equal(res.Y[:, :, 0], np.full((ens.N, 9), 4.25))
    assert np.array_equal(res.Z[:, :, 0], np.zeros((ens.N, 8, 1)))
    assert not np.signbit(res.Z[:, :, 0]).any()          # +0.0, not -0.0
    assert np.ptp(res.Y[:, 4, 1]) > 0.0 and np.abs(res.Z[:, 1:, 1]).min() > 0.0
    # the continuation of both rows is one projection, the martingale
    # targets of the live row alone another, and the BMO tail a third
    assert [shape for _, shape in projections] == [(ens.N, 2), (ens.N, 1), (ens.N,)] * 8


def test_block_matches_scalar_rows():
    ens = setup_ens(N=400, seed=8)
    w = ens.cumulative[:, -1, 0]
    eta = np.column_stack([w, np.sin(w), 0.5 * w])

    def drift(k, z):
        return 0.5 * (z * z).sum(axis=-1)

    radii = np.array([50.0, 0.3, 0.05])
    guard = envelope_guard(ens, n=3, eta_bound=20.0)
    res = run_1d(eta, drift, ens, default_basis(1), radii, guard)
    assert sum(res.row_hits) == res.truncation_hits and res.row_hits[2] > 0
    for i in range(3):
        # row i alone, as a block of one
        one = run_1d(eta[:, i : i + 1], drift, ens, default_basis(1), radii[i : i + 1],
                       guard[i : i + 1])
        np.testing.assert_allclose(res.Y[:, :, i], one.Y[:, :, 0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(res.Z[:, :, i], one.Z[:, :, 0], rtol=0.0, atol=1e-12)
        assert res.row_hits[i] == one.truncation_hits


def broadcast_mask_live_z(cur, m, live, op, radius):
    """qbsde1d._live_z with the clip it replaced: one (N, n_live) mask of the
    row norms against the radii broadcast over the particles, its hits
    counted by a sum over the particle axis."""
    ens, k = op.ens, op.k
    N, d = ens.N, ens.d
    targets = np.empty((live.size, d, N))
    resid = cur - m.T if live.size == len(cur) else cur[live] - m.T[live]
    np.multiply(resid[:, None, :], ens.increments[:, k, :].T[None], out=targets)
    fit, _ = op.project(targets.reshape(live.size * d, N).T)
    z = fit.reshape(N, live.size, d)
    z /= ens.grid.dt
    norms = np.sqrt((z * z).sum(axis=-1))
    R = np.broadcast_to(radius[live], norms.shape)
    over = norms > R
    z[over] *= (R[over] / norms[over])[:, None]
    return z, over.sum(axis=0)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize(
    "radii, constant_row, clipping",
    [
        ([1e-3, 0.5], False, [True, True]),       # both rows live, both clip
        ([1e-3, 1e6], False, [True, False]),      # both live, row 1 never clips
        ([1e6, 0.5], True, [False, True]),        # row 0 constant: live is row 1 alone
    ],
)
def test_forced_clipping_is_the_broadcast_mask_bitwise(monkeypatch, d, radii, constant_row,
                                                       clipping):
    ens = generate_ensemble(TimeGrid.make(8, 1.0), 500, d, 14)
    w = ens.cumulative[:, -1, :]
    eta = np.column_stack([np.full(ens.N, 0.75) if constant_row else w[:, 0],
                           w[:, -1] + np.sin(w[:, 0])])

    def drift(k, z):
        return 0.5 * (z * z).sum(axis=-1) * [0.0, 1.0]

    def solve():
        return run_1d(eta, drift, ens, default_basis(d), np.array(radii),
                      envelope_guard(ens, n=2, eta_bound=20.0))

    res = solve()
    monkeypatch.setattr(qbsde1d, "_live_z", broadcast_mask_live_z)
    ref = solve()
    assert np.array_equal(res.Y, ref.Y) and np.array_equal(res.Z, ref.Z)
    assert res.row_hits == ref.row_hits
    assert [h > 0 for h in res.row_hits] == clipping
    assert res.row_hits[1] < ens.N * ens.grid.M             # row 1 clips only its outliers
    assert res.truncation_hits == sum(res.row_hits)


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
    with pytest.raises(BlowUpError) as exc:
        run_1d(np.zeros((ens.N, 2)),
                 lambda k, z: np.broadcast_to([8.0, 12.0], z.shape[:-1]).copy(), ens,
                 default_basis(1), np.full(2, 10.0), np.array(guards))
    assert (exc.value.node, exc.value.component) == (node, component)
    assert exc.value.guard == guards[component]
    assert f"component {component}" in str(exc.value)


def test_block_input_validation():
    ens = setup_ens(N=100)
    basis = default_basis(1)
    guard = envelope_guard(ens, n=2)
    with pytest.raises(ValueError, match="trunc_R"):
        run_1d(np.ones((ens.N, 2)), no_drift, ens, basis, [1.0, 2.0, 3.0], guard)
    with pytest.raises(ValueError, match="trunc_R"):       # one value per row, not a scalar
        run_1d(np.ones((ens.N, 2)), no_drift, ens, basis, 1.0, guard)
    with pytest.raises(ValueError, match="blowup_guard"):
        run_1d(np.ones((ens.N, 2)), no_drift, ens, basis, np.ones(2), [1.0])
    # an (N,) row is not a block: there is no one-row mode
    for bad in (np.ones((ens.N, 2, 1)), np.ones((ens.N, 0)), np.ones(ens.N)):
        with pytest.raises(ValueError, match="eta"):
            run_1d(bad, no_drift, ens, basis, np.ones(2), guard)
    with pytest.raises(ValueError, match="shape"):
        run_1d(np.ones((ens.N, 2)), lambda k, z: np.zeros(z.shape[0]), ens, basis,
                 np.ones(2), guard)


def test_block_measures_sup_and_bmo_profile_bitwise():
    # n = 3 rows in d = 2, where the order of each row-norm sum matters: the
    # in-pass sup and BMO profile are bitwise the standalone routines on the
    # result pair, on a window away from the grid's start
    ens = generate_ensemble(TimeGrid.make(10, 1.0), 400, 2, 12)
    w = ens.cumulative[:, -1, :]
    eta = np.column_stack([w[:, 0] + w[:, 1], np.sin(w[:, 0]), 0.3 * w[:, 1] ** 2])
    basis = default_basis(2)
    res = run_1d(eta, lambda k, z: 0.5 * (z * z).sum(axis=-1), ens, basis,
                   np.array([50.0, 0.4, 50.0]), np.full(3, 1e3), k_lo=3, k_hi=9)
    assert res.row_hits[1] > 0 and np.ptp(res.Y[:, 0], axis=0).min() > 0.0
    assert res.sup_nodes.max() == sup_norm_estimate(res.Y)
    ref = pair_from_fields(res.Y.copy(), res.Z.copy())
    profile = bmo_profile(ref, ens, basis, k_lo=3)
    assert np.array_equal(res.bmo_nodes, profile)
    assert res.bmo_nodes.shape == (7,) and res.bmo_nodes[-1] == 0.0 < res.bmo_nodes[0]
    # the means the pass writes with each node are the index-order
    # ``_node_mean`` of its blocks, bitwise
    assert res.pair.mean_Y.tobytes() == ref.mean_Y.tobytes()
    assert res.pair.mean_Z.tobytes() == ref.mean_Z.tobytes()
    assert np.abs(ref.mean_Z).min() > 0.0


# ---------------------------------------------------------- caller's pair


def test_buffers_are_overwritten_one_node_behind_the_pass():
    # the drift at local node j sees the old contents of Y and mean_Y at
    # nodes j and j+1 and of Z and mean_Z at node j; the result is the one
    # written into a fresh pair, and diff_y/diff_z are the full-array
    # distances from the old contents, bitwise
    ens = generate_ensemble(TimeGrid.make(10, 1.0), 300, 1, 6)
    k_lo, k_hi, n = 2, 8, 2
    rng = np.random.default_rng(0)
    old = pair_from_fields(rng.normal(size=(ens.N, 7, n)), rng.normal(size=(ens.N, 6, n, 1)))
    pair = pair_from_fields(old.Y.copy(), old.Z.copy())
    w = ens.cumulative[:, k_hi, 0]
    eta = np.column_stack([w, np.sin(w)])
    seen = []

    def read(p, j):
        return p.Y[:, j : j + 2], p.mean_Y[j : j + 2], p.Z[:, j], p.mean_Z[j]

    def drift(k, z):
        j = k - k_lo
        seen.append(all(map(np.array_equal, read(pair, j), read(old, j))))
        return 0.5 * (z * z).sum(axis=-1)

    args = (eta, drift, ens, default_basis(1), np.full(n, 50.0), np.full(n, 1e3))
    res = solve_1d(*args, pair, k_lo)
    assert seen == [True] * 6
    fresh = run_1d(*args, k_lo, k_hi)
    for f in ("Y", "Z", "mean_Y", "mean_Z"):
        assert getattr(pair, f).tobytes() == getattr(fresh.pair, f).tobytes()
    Y, Z = pair.Y, pair.Z
    assert res.diff_y == np.abs(Y - old.Y).max() and res.diff_z == np.abs(Z - old.Z).max()
    assert np.array_equal(res.sup_nodes, [sup_norm_estimate(Y[:, j]) for j in range(7)])
    assert res.sup_nodes.max() == sup_norm_estimate(Y)


def test_eta_may_be_the_pairs_own_terminal_node():
    # each write measures its diff in the slot it overwrites, so a terminal
    # that is a view of that slot is read before the slot changes
    ens = setup_ens(N=300, seed=4)
    w = ens.cumulative[:, -1, :]
    args = (no_drift, ens, default_basis(1), np.array([50.0]), envelope_guard(ens, eta_bound=20.0))
    fresh = run_1d(w, *args)
    pair = zero_pair(ens, 8, 1)
    pair.Y[:, -1] = w
    old_Y = pair.Y.copy()
    res = solve_1d(pair.Y[:, -1], *args, pair)
    for f in ("Y", "Z", "mean_Y", "mean_Z"):
        assert getattr(pair, f).tobytes() == getattr(fresh.pair, f).tobytes()
    assert res.diff_y == np.abs(pair.Y - old_Y).max() and res.diff_z == fresh.diff_z


def test_buffers_must_match_the_window():
    # every array of the pair is checked against the window, and must be
    # writable, before anything is written
    ens = setup_ens(N=100)
    eta, R, guard = np.ones((ens.N, 1)), np.array([1.0]), envelope_guard(ens)
    good = zero_pair(ens, 8, 1)
    bad = {"Y": good.Y[:, 1:], "Z": np.zeros((ens.N, 8, 1, 2)), "mean_Y": good.mean_Y[1:],
           "mean_Z": np.zeros((8, 2, 1))}
    for name, arr in bad.items():
        pair = ProcessPair(**{**vars(good), name: arr})
        with pytest.raises(ValueError, match=f"pair.{name} must have shape"):
            solve_1d(eta, no_drift, ens, default_basis(1), R, guard, pair)
        arr = getattr(good, name)
        frozen = ProcessPair(**{**vars(good), name: np.broadcast_to(arr, arr.shape)})
        with pytest.raises(ValueError, match=f"pair.{name} must be writable"):
            solve_1d(eta, no_drift, ens, default_basis(1), R, guard, frozen)
    assert all(not getattr(good, f).any() for f in ("Y", "Z", "mean_Y", "mean_Z"))
