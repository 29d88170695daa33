"""Ensemble generation and regression conditional expectations."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbsde import (
    ProcessPair,
    RegressionBasis,
    TimeGrid,
    bmo_profile,
    compute_ledger,
    default_basis,
    generate_ensemble,
    make_case,
    solve_auto,
    sup_norm_estimate,
)
from mfbsde import engine
from mfbsde.engine import NodeRegression


def make_ens(M=10, T=1.0, N=500, d=1, seed=0):
    return generate_ensemble(TimeGrid.make(M, T), N, d, seed)


# ------------------------------------------------------------------- grids


def test_grid_nodes():
    g = TimeGrid.make(4, 2.0)
    assert g.dt == 0.5
    np.testing.assert_allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        TimeGrid.make(0, 1.0)
    with pytest.raises(ValueError):
        TimeGrid.make(10, -1.0)


# ---------------------------------------------------------------- ensembles


def test_ensemble_shapes_and_cumsum_consistency():
    ens = make_ens(M=7, N=64, d=3, seed=5)
    assert ens.increments.shape == (64, 7, 3)
    assert ens.cumulative.shape == (64, 8, 3)
    assert np.all(ens.cumulative[:, 0, :] == 0.0)
    np.testing.assert_allclose(
        ens.cumulative[:, 1:, :], np.cumsum(ens.increments, axis=1)
    )


def test_ensemble_reproducible_by_seed():
    a = make_ens(seed=11)
    b = make_ens(seed=11)
    c = make_ens(seed=12)
    assert np.array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)


def test_ensemble_increment_scale():
    # variance of increments must be dt (law sanity at 5 sigma)
    ens = make_ens(M=4, T=2.0, N=20_000, seed=1)
    v = ens.increments.var()
    assert abs(v - 0.5) < 5 * 0.5 * np.sqrt(2.0 / (4 * 20_000))


def test_ensemble_rejects_tiny_population():
    with pytest.raises(ValueError):
        make_ens(N=1)


# -------------------------------------------------------------------- bases


def test_polynomial_design_columns():
    basis = RegressionBasis(degree=3)
    X = basis.design(np.linspace(-1, 1, 9)[:, None])
    assert X.shape == (9, 4)                      # 1, w, w^2, w^3
    np.testing.assert_allclose(X[:, 2], X[:, 1] ** 2)

    basis2 = RegressionBasis(degree=2)
    X2 = basis2.design(np.random.default_rng(0).normal(size=(20, 2)))
    assert X2.shape == (20, 6)                    # 1, w1, w2, w1^2, w1w2, w2^2


@pytest.mark.parametrize("d, degree", [(1, 3), (2, 2), (2, 3)])
def test_polynomial_design_matches_the_product_recipe_bitwise(d, degree):
    # each column is 1 * s_a * s_b * ... multiplied left to right
    states = np.random.default_rng(d + degree).normal(size=(50, d))
    cols = [np.ones(50)]
    for deg in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(d), deg):
            col = np.ones(50)
            for j in combo:
                col = col * states[:, j]
            cols.append(col)
    X = RegressionBasis(degree=degree).design(states)
    assert np.array_equal(X, np.column_stack(cols))


def test_basis_validation():
    with pytest.raises(ValueError):
        RegressionBasis(degree=0)
    assert default_basis(1).degree == 3
    assert default_basis(3).degree == 2


# ---------------------------------------------------------------- regression


def test_projection_reproduces_basis_functions_exactly():
    ens = make_ens(M=6, N=400, seed=2)
    basis = default_basis(1)
    w = ens.cumulative[:, 3, 0]
    target = 2.0 + 3.0 * w - 0.5 * w**2
    fitted, info = NodeRegression(ens, basis, 3).project(target)
    np.testing.assert_allclose(fitted, target, atol=1e-10)
    assert not info.fallback and np.isfinite(info.cond)


def test_projection_is_a_conditional_mean_not_interpolation():
    # pure-noise target must collapse toward the basis span, not memorize
    ens = make_ens(M=6, N=4_000, seed=4)
    noise = np.random.default_rng(9).normal(size=4_000)
    fitted, _ = NodeRegression(ens, default_basis(1), 3).project(noise)
    assert fitted.std() < 0.2 * noise.std()


def test_projection_constant_column_bitwise():
    ens = make_ens()
    vals = np.full(ens.N, 3.7)
    fitted, info = NodeRegression(ens, default_basis(1), 5).project(vals)
    assert np.array_equal(fitted, vals)
    assert info.cond == 1.0
    assert info.constant.tolist() == [True]
    # multi-column: constant columns bitwise even when others are fitted
    both = np.column_stack([vals, ens.cumulative[:, 5, 0]])
    fitted2, info2 = NodeRegression(ens, default_basis(1), 5).project(both)
    assert np.array_equal(fitted2[:, 0], vals)
    assert info2.constant.tolist() == [True, False]
    # the flags hold on the root-node mean too
    _, info0 = NodeRegression(ens, default_basis(1), 0).project(both)
    assert info0.constant.tolist() == [True, False]


def test_projection_root_node_is_sample_mean():
    ens = make_ens()
    vals = ens.cumulative[:, 4, 0] ** 2
    fitted, _ = NodeRegression(ens, default_basis(1), 0).project(vals)
    np.testing.assert_allclose(fitted, vals.mean())


def test_projection_rejects_bad_input():
    ens = make_ens()
    with pytest.raises(ValueError):
        NodeRegression(ens, default_basis(1), 2).project(np.full(ens.N, np.nan))
    with pytest.raises(ValueError):
        NodeRegression(ens, default_basis(1), 2).project(np.zeros(ens.N + 1))
    with pytest.raises(ValueError):
        NodeRegression(ens, default_basis(1), 99).project(np.zeros(ens.N))


def test_projection_rank_deficient_falls_back_to_mean(caplog):
    # two particles cannot support a 4-column design: rank < p.  The cached
    # factor keeps the node deficient, and every call warns again.
    ens = make_ens(N=2, seed=8)
    vals = np.array([1.0, 3.0])
    for call in (1, 2):
        caplog.clear()
        with caplog.at_level("WARNING"):
            fitted, info = NodeRegression(ens, default_basis(1), 2).project(vals)
        assert info.fallback and info.cond == float("inf")
        np.testing.assert_allclose(fitted, 2.0)
        assert any("rank-deficient" in r.message for r in caplog.records), call
    assert len(ens.factors) == 1
    assert engine.regression_summary(ens, default_basis(1)) == {
        "nodes_factored": 1, "max_cond": None, "rank_deficient_nodes": [2],
    }


def lstsq_fit(values, k, ens, basis):
    X = basis.design(ens.cumulative[:, k, :])
    coef = np.linalg.lstsq(X, values, rcond=None)[0]
    return X @ coef


@pytest.mark.parametrize(
    "basis, d",
    [
        (RegressionBasis(degree=3), 1),
        (RegressionBasis(degree=2), 2),
    ],
)
def test_projection_matches_lstsq(basis, d):
    ens = make_ens(M=8, N=2_000, d=d, seed=13)
    rng = np.random.default_rng(4)
    for k in (1, 4, 8):
        w = ens.cumulative[:, k, :]
        single = np.sin(w.sum(axis=1)) + 0.3 * rng.normal(size=ens.N)
        block = np.column_stack([single, np.exp(w[:, 0]), np.full(ens.N, -1.25)])
        # twice per node: the second call reuses the cached factor
        for _ in range(2):
            fitted, info = NodeRegression(ens, basis, k).project(single)
            np.testing.assert_allclose(fitted, lstsq_fit(single, k, ens, basis),
                                       rtol=0.0, atol=1e-10)
            assert not info.fallback and np.isfinite(info.cond)
            fitted_block, info_block = NodeRegression(ens, basis, k).project(block)
            assert info_block.constant.tolist() == [False, False, True]
            np.testing.assert_allclose(fitted_block[:, :2],
                                       lstsq_fit(block[:, :2], k, ens, basis),
                                       rtol=0.0, atol=1e-10)
            assert np.array_equal(fitted_block[:, 2], block[:, 2])
    assert sorted(ens.factors) == [(basis, k) for k in (1, 4, 8)]


def test_factor_cache_is_per_basis():
    ens = make_ens(M=6, N=400, seed=3)
    cubic, quadratic = default_basis(1), RegressionBasis(degree=2)
    vals = np.tanh(ens.cumulative[:, 3, 0])
    NodeRegression(ens, cubic, 3).project(vals)
    NodeRegression(ens, quadratic, 3).project(vals)
    assert set(ens.factors) == {(cubic, 3), (quadratic, 3)}
    assert ens.factors[(cubic, 3)].R.shape == (4, 4)
    assert ens.factors[(quadratic, 3)].R.shape == (3, 3)
    assert engine.regression_summary(ens, cubic)["nodes_factored"] == 1
    assert engine.regression_summary(ens, quadratic)["nodes_factored"] == 1


def test_solve_factors_each_node_once(monkeypatch, projections):
    # every projection of a solve (all three per backward step, every sweep)
    # shares one factor per non-root node
    built = []
    factorize = engine._factorize

    def counting_factorize(X):
        built.append(X.shape)
        return factorize(X)

    monkeypatch.setattr(engine, "_factorize", counting_factorize)
    case = make_case("colehopf")
    ens = generate_ensemble(TimeGrid.make(10, case.params.T), 300, case.params.d, 3)
    basis = default_basis(case.params.d)
    report = solve_auto(case.generator, case.terminal, ens, basis,
                        compute_ledger(case.params), tol=1e-3, max_iter=40)
    assert report.mode == "stitched"
    assert len(projections) > 3 * 9
    assert sorted({k for k, _ in projections} - {0}) == list(range(1, 10))
    assert len(built) == 9
    assert sorted(k for _, k in ens.factors) == list(range(1, 10))
    summary = report.to_dict()["regression"]
    assert summary["nodes_factored"] == 9 and summary["rank_deficient_nodes"] == []
    # a second solve on the same ensemble builds nothing
    solve_auto(case.generator, case.terminal, ens, basis, compute_ledger(case.params))
    assert len(built) == 9


def test_solve_builds_one_design_per_non_root_node_per_sweep(monkeypatch, projections):
    # the continuation, the Z targets and the BMO tail of a node share the
    # node's one design
    designs = []
    design = RegressionBasis.design

    def counting_design(self, states):
        designs.append(states.shape)
        return design(self, states)

    monkeypatch.setattr(RegressionBasis, "design", counting_design)
    case = make_case("colehopf")
    ens = generate_ensemble(TimeGrid.make(10, case.params.T), 300, case.params.d, 3)
    report = solve_auto(case.generator, case.terminal, ens, default_basis(1),
                        compute_ledger(case.params))
    (trace,) = report.traces
    sweeps = len(trace.iterations)
    assert report.mode == "stitched" and sweeps >= 2
    assert len(designs) == sweeps * 9
    # three projections at every node of every sweep, root included
    assert len(projections) == sweeps * 10 * 3


@given(k=st.integers(1, 9))
@settings(max_examples=20, deadline=None)
def test_projection_tower_property_of_means(k):
    # the particle mean of the fitted values equals the mean of the targets
    # (the design contains a constant column)
    ens = make_ens(M=10, N=300, seed=1)
    vals = np.cos(ens.cumulative[:, k, 0]) + 0.3 * ens.cumulative[:, k, 0]
    fitted, _ = NodeRegression(ens, default_basis(1), k).project(vals)
    assert fitted.mean() == pytest.approx(vals.mean(), rel=1e-9)


# -------------------------------------------------------------- norm proxies


def pair_from(Y, Z):
    return ProcessPair.from_fields(Y, Z)


def test_process_pair_validation_and_means():
    Y = np.random.default_rng(0).normal(size=(8, 5, 2))
    Z = np.random.default_rng(1).normal(size=(8, 4, 2, 3))
    pair = pair_from(Y, Z)
    assert np.array_equal(pair.mean_Y, Y.mean(axis=0))
    assert np.array_equal(pair.mean_Z, Z.mean(axis=0))
    with pytest.raises(ValueError):
        pair_from(Y, np.zeros((8, 5, 2, 3)))      # Z must have M = 4 steps
    with pytest.raises(ValueError):
        pair_from(Y[0], Z)


def test_sup_norm_estimate_hand_value():
    Y = np.zeros((3, 4, 2))
    Y[1, 2] = [3.0, 4.0]
    assert sup_norm_estimate(Y) == 5.0
    # the nodes of a window of the grid, and one node's (N, n) block: the max
    # runs over the array's own entries only
    assert sup_norm_estimate(Y[:, 2:]) == 5.0
    assert sup_norm_estimate(Y[:, 3:]) == 0.0
    assert sup_norm_estimate(Y[:, 2]) == 5.0 and sup_norm_estimate(Y[:, 1]) == 0.0


def test_bmo_estimate_constant_z():
    # |Z| = c constant: remaining quadratic variation from node k is
    # c^2 (T - t_k); the proxy max over k is c^2 T
    ens = make_ens(M=20, T=2.0, N=3_000, seed=6)
    c = 0.8
    Y = np.zeros((ens.N, 21, 1))
    Z = np.full((ens.N, 20, 1, 1), c)
    pair = pair_from(Y, Z)
    prof = bmo_profile(pair, ens, default_basis(1))
    assert prof.max() == pytest.approx(c * np.sqrt(2.0), rel=1e-9)
    assert prof.shape == (21,)
    assert prof[-1] == 0.0
    np.testing.assert_allclose(prof[:-1] ** 2, c**2 * (2.0 - ens.grid.nodes[:-1]), rtol=1e-9)


def test_bmo_estimate_window_restriction():
    ens = make_ens(M=10, T=1.0, N=2_00, seed=6)
    Z = np.zeros((ens.N, 10, 1, 1))
    Z[:, :5] = 2.0                                 # activity only before t=0.5
    pair = pair_from(np.zeros((ens.N, 11, 1)), Z)
    full = bmo_profile(pair, ens, default_basis(1)).max()
    # window pairs on nodes 5..10 and 0..5, each placed by its node offset
    late = bmo_profile(pair_from(np.zeros((ens.N, 6, 1)), Z[:, 5:]), ens,
                       default_basis(1), k_lo=5)
    assert full > 0.0 and late.shape == (6,) and late.max() == 0.0
    early_pair = pair_from(np.zeros((ens.N, 6, 1)), Z[:, :5])
    early = bmo_profile(early_pair, ens, default_basis(1))
    assert early.shape == (6,) and early.max() == full and early[5] == 0.0
    # an offset that puts the window's 5 steps past node M = 10 is refused
    for k_lo in (6, 10, -1):
        with pytest.raises(ValueError, match="overrun"):
            bmo_profile(early_pair, ens, default_basis(1), k_lo=k_lo)
    assert bmo_profile(early_pair, ens, default_basis(1), k_lo=5).shape == (6,)


def test_bmo_profile_of_window_pair_is_the_embedded_profile_bitwise():
    # a window pair on nodes 3..8 of a 12-step grid gives bitwise the nodes
    # 3..8 of the profile of the same fields set in zeros on the whole grid
    ens = make_ens(M=12, T=1.0, N=400, seed=4)
    rng = np.random.default_rng(8)
    Zw = rng.standard_normal((ens.N, 5, 2, 1))
    window = pair_from(np.zeros((ens.N, 6, 2)), Zw)
    Z = np.zeros((ens.N, 12, 2, 1))
    Z[:, 3:8] = Zw
    embedded = bmo_profile(pair_from(np.zeros((ens.N, 13, 2)), Z), ens, default_basis(1))
    local = bmo_profile(window, ens, default_basis(1), k_lo=3)
    assert local.shape == (6,) and local.max() > 0.0
    assert np.array_equal(local, embedded[3:9])


@pytest.mark.parametrize("n, d", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_bmo_profile_squared_norm_is_the_reduction_bitwise(n, d):
    # the squared norm of each (n, d) block, added left to right, is bitwise
    # numpy's reduction over both axes, and so is the whole profile
    ens = make_ens(M=6, T=1.0, N=500, seed=2)
    rng = np.random.default_rng(n * 10 + d)
    Z = rng.standard_normal((ens.N, 6, n, d)) * np.exp(rng.uniform(-8.0, 8.0, (ens.N, 6, n, d)))
    pair = pair_from(np.zeros((ens.N, 7, n)), Z)
    z_sq = (Z * Z).sum(axis=(2, 3))
    assert np.array_equal(engine._sum_of_squares(Z.reshape(ens.N, 6, n * d)), z_sq)

    basis = default_basis(1)
    tail = np.zeros(ens.N)
    expect = np.zeros(7)
    for k in range(5, -1, -1):
        tail += z_sq[:, k] * ens.grid.dt
        est, _ = NodeRegression(ens, basis, k).project(tail)
        expect[k] = np.sqrt(max(float(est.max()), 0.0))
    assert np.array_equal(bmo_profile(pair, ens, basis), expect)
