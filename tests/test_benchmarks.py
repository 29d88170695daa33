"""Benchmark catalog: oracles, residual self-checks, solver agreement."""

import math

import numpy as np
import pytest

from mfbsde import (
    CATALOG,
    ConfigError,
    TimeGrid,
    case_colehopf_diagonal,
    case_loggrowth,
    case_meanfield_linear,
    case_zero,
    compute_ledger,
    default_basis,
    generate_ensemble,
    make_case,
    oracle_errors,
    oracle_fields,
    residual_self_check,
    run_checks,
    solve_auto,
)

BASIS = default_basis(1)


def small_ens(case, M=20, N=500, seed=4):
    return generate_ensemble(TimeGrid.make(M, case.params.T), N, case.params.d, seed)


# ------------------------------------------------------------------ catalog


def test_catalog_names_and_factory_dispatch():
    assert set(CATALOG) == {"zero", "meanfield_linear", "colehopf", "loggrowth"}
    case = make_case("colehopf", gamma=2.0)
    assert case.params.gamma == 2.0
    with pytest.raises(ConfigError, match="unknown case"):
        make_case("nonsense")


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_case_satisfies_its_own_declarations(name):
    case = make_case(name)
    reports = run_checks(case.generator, case.params, samples=2_000, rng_seed=0)
    for label, rep in reports.items():
        assert rep.passed, f"{name}: {label} violated: {rep.first_violation}"


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_every_case_has_usable_ledger(name):
    ledger = compute_ledger(make_case(name).params)
    # the guaranteed step may honestly underflow for strongly coupled models
    # (it is then reported as degenerate); the ball radii never may
    assert set(ledger.validate()) <= {"t_lambda"}
    assert ledger.k1 > 0.0 and ledger.k2 > 0.0 and ledger.lam > 0.0


# ------------------------------------------------------------------ oracles


def test_zero_oracle_fields_and_errors():
    case = case_zero(c=3.0)
    ens = small_ens(case)
    Y, Z = oracle_fields(case, ens)
    assert np.array_equal(Y, np.full((500, 21, 1), 3.0))
    assert np.array_equal(Z, np.zeros((500, 20, 1, 1)))
    ey, ez = oracle_errors(case, Y, Z, ens)
    assert np.array_equal(ey, np.zeros(21)) and np.array_equal(ez, np.zeros(20))


def test_linear_oracle_is_the_ode_path():
    case = case_meanfield_linear(a=0.3, b=0.2, c=2.0, T=2.0)
    ens = small_ens(case, M=10)
    Y, _ = oracle_fields(case, ens)
    t = ens.grid.nodes
    np.testing.assert_allclose(Y[0, :, 0], 2.0 * np.exp(0.5 * (2.0 - t)), rtol=1e-12)
    assert case.y0_exact == pytest.approx(2.0 * math.exp(1.0))


def test_colehopf_oracle_shifted_brownian():
    case = case_colehopf_diagonal(gamma=2.0, n=3)
    ens = small_ens(case, M=8)
    Y, Z = oracle_fields(case, ens)
    # every component identical: W_t + (gamma/2)(T - t); Z = 1
    expect = ens.cumulative[:, :, 0] + (2.0 / 2.0) * (1.0 - ens.grid.nodes)
    for i in range(3):
        np.testing.assert_allclose(Y[:, :, i], expect, rtol=0, atol=1e-12)
    assert np.array_equal(Z, np.ones((500, 8, 3, 1)))
    assert case.y0_exact == pytest.approx(1.0)


def test_loggrowth_has_no_oracle():
    case = case_loggrowth()
    assert case.oracle is None and case.y0_exact is None
    with pytest.raises(ValueError, match="no oracle"):
        oracle_fields(case, small_ens(case))
    with pytest.raises(ConfigError, match="kappa"):
        case_loggrowth(kappa=0.0)


def test_loggrowth_generator_couples_rows_symmetrically():
    case = case_loggrowth(gamma=1.0, kappa=0.1)
    z = np.zeros((4, 2, 1))
    z[:, 0, 0] = 2.0                     # activity only in row 1
    out = case.generator.eval(0.0, np.zeros((4, 2)), np.zeros(2), z, np.zeros((2, 1)))
    np.testing.assert_allclose(out[:, 0], 0.5 * 4.0)            # own quadratic
    np.testing.assert_allclose(out[:, 1], 0.1 * np.log1p(2.0))  # cross log


# ------------------------------------------------------- residual self-check


def test_residual_self_check_accepts_correct_oracles():
    for name in ("zero", "meanfield_linear", "colehopf"):
        case = make_case(name)
        worst, threshold = residual_self_check(case, M=100, N=2_000, seed=10)
        assert worst <= threshold, f"{name}: {worst} > {threshold}"


def test_residual_self_check_rejects_wrong_oracle():
    import dataclasses

    case = case_colehopf_diagonal()

    # a time-independent shift would cancel in one-step differences, so the
    # corruption must change the drift
    def broken_drift(t, w):
        y, z = case.oracle(t, w)
        return y + 0.5 * t, z             # residual ~ 0.5*dt per step

    bad = dataclasses.replace(case, oracle=broken_drift)
    worst, threshold = residual_self_check(bad, M=100, N=2_000, seed=10)
    assert worst > threshold


def test_case_construction_runs_self_check(monkeypatch):
    # corrupting the closed form at build time must abort construction
    import mfbsde.benchmarks as bm

    def tiny_threshold(case, M=bm._SELF_CHECK_M, N=bm._SELF_CHECK_N, seed=bm._SELF_CHECK_SEED):
        return 1.0, -1.0                  # force worst > threshold

    monkeypatch.setattr(bm, "residual_self_check", tiny_threshold)
    with pytest.raises(ConfigError, match="self-check"):
        bm.case_zero()


# ----------------------------------------------------------- solver vs oracle


def test_zero_case_solved_bitwise():
    case = case_zero(c=1.5)
    ens = small_ens(case, M=10, N=300)
    report = solve_auto(case.generator, case.terminal, ens, BASIS)
    Yx, Zx = oracle_fields(case, ens)
    assert np.array_equal(report.pair.Y, Yx)
    assert np.array_equal(report.pair.Z, Zx)


def test_linear_case_matches_ode_to_discretization_error():
    case = case_meanfield_linear()
    ens = small_ens(case, M=50, N=200, seed=1)
    report = solve_auto(case.generator, case.terminal, ens, BASIS, tol=1e-9, max_iter=80)
    ey, ez = oracle_errors(case, report.pair.Y, report.pair.Z, ens)
    assert ey.max() < 5e-4                # trapezoid-level, far under O(dt)
    assert ez.max() == 0.0
