"""Benchmark catalog: oracles, residual self-checks, solver agreement."""

import math
import re

import numpy as np
import pytest

from mfbsde import (
    CATALOG,
    ConfigError,
    ProcessPair,
    TimeGrid,
    case_colehopf_diagonal,
    case_loggrowth,
    case_meanfield_linear,
    case_zero,
    check_oracle,
    compute_ledger,
    default_basis,
    generate_ensemble,
    make_case,
    oracle_errors,
    residual_self_check,
    run_checks,
    solve_auto,
)
from mfbsde import engine

BASIS = default_basis(1)


def small_ens(case, M=20, N=500, seed=4):
    return generate_ensemble(TimeGrid.make(M, case.params.T), N, case.params.d, seed)


def reference_fields(case, ens):
    """Exact (Y, Z) on every node, particle-major: (N, M+1, n), (N, M, n, d),
    straight from ``case.oracle``."""
    p, M = case.params, ens.grid.M
    Y = np.zeros((ens.N, M + 1, p.n))
    Z = np.zeros((ens.N, M, p.n, p.d))
    for k in range(M + 1):
        y, z = case.oracle(float(ens.grid.nodes[k]), ens.cumulative[:, k, :])
        Y[:, k] = y
        if k < M:
            Z[:, k] = z
    return Y, Z


def reference_errors(case, Y, Z, ens):
    """Per-node RMS errors against the oracle, from the full particle-major fields."""
    Yx, Zx = reference_fields(case, ens)
    dy = ((Y - Yx) ** 2).sum(axis=2).mean(axis=0)
    dz = ((Z - Zx) ** 2).sum(axis=(2, 3)).mean(axis=0)
    return np.sqrt(dy), np.sqrt(dz)


# ------------------------------------------------------------------ catalog


def test_catalog_names_and_factory_dispatch():
    assert set(CATALOG) == {"zero", "meanfield_linear", "colehopf", "loggrowth"}
    case = make_case("colehopf", gamma=2.0)
    assert case.params.gamma == 2.0
    with pytest.raises(ConfigError, match="unknown case"):
        make_case("nonsense")


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_case_params_are_its_generators(name):
    # one copy: the checks and the ledger read the params the solve runs on
    case = make_case(name)
    assert case.params is case.generator.params


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
    Y, Z = reference_fields(case, ens)
    assert np.array_equal(Y, np.full((500, 21, 1), 3.0))
    assert np.array_equal(Z, np.zeros((500, 20, 1, 1)))
    ey, ez = oracle_errors(case, Y, Z, ens)
    assert np.array_equal(ey, np.zeros(21)) and np.array_equal(ez, np.zeros(20))


def test_linear_oracle_is_the_ode_path():
    case = case_meanfield_linear(a=0.3, b=0.2, c=2.0, T=2.0)
    ens = small_ens(case, M=10)
    Y, _ = reference_fields(case, ens)
    t = ens.grid.nodes
    np.testing.assert_allclose(Y[0, :, 0], 2.0 * np.exp(0.5 * (2.0 - t)), rtol=1e-12)
    assert case.y0_exact == pytest.approx(2.0 * math.exp(1.0))


def test_colehopf_oracle_shifted_brownian():
    case = case_colehopf_diagonal(gamma=2.0, n=3)
    ens = small_ens(case, M=8)
    Y, Z = reference_fields(case, ens)
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
        oracle_errors(case, np.zeros((500, 21, 2)), np.zeros((500, 20, 2, 1)), small_ens(case))
    with pytest.raises(ConfigError, match="kappa"):
        case_loggrowth(kappa=0.0)


def test_loggrowth_generator_couples_rows_symmetrically():
    case = case_loggrowth(gamma=1.0, kappa=0.1)
    z = np.zeros((4, 2, 1))
    z[:, 0, 0] = 2.0                     # activity only in row 1
    out = case.generator.eval(0.0, np.zeros((4, 2)), np.zeros(2), z, np.zeros((2, 1)))
    np.testing.assert_allclose(out[:, 0], 0.5 * 4.0)            # own quadratic
    np.testing.assert_allclose(out[:, 1], 0.1 * np.log1p(2.0))  # cross log


def edge_block(rng, shape):
    """Standard normals with a tenth each of +0.0, -0.0, subnormals and
    values near +-1e150 planted at random places."""
    z = rng.standard_normal(shape)
    flat = z.reshape(-1)
    parts = np.array_split(rng.permutation(flat.size)[: 4 * (flat.size // 10)], 4)
    sign = lambda k: rng.choice([-1.0, 1.0], size=k)
    flat[parts[0]] = 0.0
    flat[parts[1]] = -0.0
    flat[parts[2]] = sign(parts[2].size) * 5e-324 * rng.integers(1, 2**40, size=parts[2].size)
    flat[parts[3]] = sign(parts[3].size) * 1e150 * rng.uniform(0.5, 2.0, size=parts[3].size)
    return z


def colehopf_fn_before(gamma):
    return lambda z: 0.5 * gamma * (z * z).sum(axis=-1)


def loggrowth_fn_before(gamma, kappa):
    def fn(z):
        rows = np.sqrt((z * z).sum(axis=-1))
        return 0.5 * gamma * rows**2 + kappa * np.log1p(rows[..., ::-1])
    return fn


@pytest.mark.parametrize(
    "make, n, before",
    [
        (lambda: case_colehopf_diagonal(gamma=1.3, n=1), 1, colehopf_fn_before(1.3)),
        (lambda: case_colehopf_diagonal(gamma=1.3, n=3), 3, colehopf_fn_before(1.3)),
        (lambda: case_loggrowth(gamma=1.3, kappa=0.07), 2, loggrowth_fn_before(1.3, 0.07)),
    ],
    ids=["colehopf-n1", "colehopf-n3", "loggrowth"],
)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_catalog_generators_are_their_reduction_expressions_bitwise(make, n, before, d):
    # fn sums the squares of z_i, and loggrowth those of the other row,
    # left to right (engine._sum_of_squares), then works in place; with the
    # own row a strided view of the (N, n, d) environment, as the sweep
    # passes it, or a contiguous copy, each row is bitwise its column of the
    # sum over the last axis and the reversed-row view, signed zeros,
    # subnormals and squares near 1e300 included
    fn = make().generator.fn
    rng = np.random.default_rng(21)
    N = 1000
    args = (rng.standard_normal((N, n)), rng.standard_normal(n), edge_block(rng, (N, n, d)),
            rng.standard_normal((n, d)))
    frozen = [a.copy() for a in args]
    for a in frozen:
        a.setflags(write=False)              # writing into an input raises
    y, ybar, z, zbar = frozen
    expect = before(args[2])
    for i in range(n):
        own = z[:, i].copy()
        own.setflags(write=False)
        for z_i in (z[:, i], own):
            out = fn(i, 0.4, y, ybar, z_i, z, zbar)
            assert out.shape == (N,)
            assert out.tobytes() == expect[:, i].tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(frozen, args))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_generators_never_read_their_own_row_of_the_environment(name):
    # row i of z is replaced by z_i, so a NaN there must not reach f^i
    gen = make_case(name).generator
    n, d = gen.params.n, gen.params.d
    rng = np.random.default_rng(3)
    y, ybar = rng.standard_normal((50, n)), rng.standard_normal(n)
    z, zbar = rng.standard_normal((50, n, d)), rng.standard_normal((n, d))
    for i in range(n):
        z_i = rng.standard_normal((50, d))
        holed = z.copy()
        holed[:, i] = np.nan
        want = gen.component(i, 0.4, y, ybar, z_i, z, zbar)
        assert np.isfinite(want).all()
        assert gen.component(i, 0.4, y, ybar, z_i, holed, zbar).tobytes() == want.tobytes()


# ------------------------------------------------------- residual self-check


def test_residual_self_check_accepts_correct_oracles():
    for name in ("zero", "meanfield_linear", "colehopf"):
        case = make_case(name)
        worst, threshold = residual_self_check(case, small_ens(case, M=100, N=2_000, seed=10))
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
    worst, threshold = residual_self_check(bad, small_ens(bad, M=100, N=2_000, seed=10))
    assert worst > threshold


def _particle_major_self_check(case, M, N, seed):
    """The self-check on full particle-major oracle fields."""
    grid = TimeGrid.make(M, case.params.T)
    ens = generate_ensemble(grid, N, case.params.d, seed)
    Yx, Zx = reference_fields(case, ens)
    mY, mZ = Yx.mean(axis=0), Zx.mean(axis=0)
    worst = 0.0
    for k in range(M):
        f = case.generator.eval(float(grid.nodes[k]), Yx[:, k], mY[k], Zx[:, k], mZ[k])
        incr = (Zx[:, k] * ens.increments[:, k, None, :]).sum(axis=-1)
        resid = Yx[:, k] - Yx[:, k + 1] - f * grid.dt + incr
        worst = max(worst, float(np.abs(resid.mean(axis=0)).max()))
    return worst, 10.0 * grid.dt**2 + 5.0 * grid.dt / math.sqrt(N)


SELF_CHECK_CASES = {
    "colehopf n=1": lambda: case_colehopf_diagonal(),
    "colehopf n=2": lambda: case_colehopf_diagonal(n=2),
    "meanfield_linear": lambda: case_meanfield_linear(),
    "zero n=2 d=2": lambda: case_zero(n=2, d=2),
}


@pytest.mark.parametrize("size", [(200, 10_000, 93), (60, 4_999, 5)])
@pytest.mark.parametrize("label", sorted(SELF_CHECK_CASES))
def test_streamed_self_check_equals_the_particle_major_one(label, size):
    case = SELF_CHECK_CASES[label]()
    M, N, seed = size
    assert (residual_self_check(case, small_ens(case, M, N, seed))
            == _particle_major_self_check(case, *size))


@pytest.mark.parametrize("label", ["colehopf n=1", "zero n=2 d=2"])
def test_self_check_holds_only_its_ensemble(label):
    import tracemalloc

    case = SELF_CHECK_CASES[label]()
    M, N = 200, 10_000
    every = engine._CHECKPOINT_EVERY
    ensemble_bytes = 8 * N * (M + M // every + 1) * case.params.d   # increments and checkpoints
    tracemalloc.start()
    try:
        residual_self_check(case, small_ens(case, M, N, 93))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * ensemble_bytes, peak / ensemble_bytes


def test_case_construction_does_not_self_check(monkeypatch):
    # the commands that read an oracle check it; building a case does not
    import mfbsde.benchmarks as bm

    def refuse(case, ens):
        raise AssertionError(f"case {case.name!r} self-checked at construction")

    monkeypatch.setattr(bm, "residual_self_check", refuse)
    for name in CATALOG:
        assert make_case(name).name == name


def test_check_oracle_raises_on_a_wrong_oracle():
    import dataclasses

    case = case_colehopf_diagonal()
    ens = small_ens(case, M=100, N=2_000, seed=10)
    assert check_oracle(case, ens) is None

    def broken_drift(t, w):
        y, z = case.oracle(t, w)
        return y + 0.5 * t, z

    with pytest.raises(ConfigError, match="oracle self-check failed for case 'colehopf'"):
        check_oracle(dataclasses.replace(case, oracle=broken_drift), ens)


# ----------------------------------------------------------- solver vs oracle


def test_zero_case_solved_bitwise():
    case = case_zero(c=1.5)
    ens = small_ens(case, M=10, N=300)
    report = solve_auto(case.generator, case.terminal, ens, BASIS)
    Yx, Zx = reference_fields(case, ens)
    assert np.array_equal(report.pair.Y, Yx)
    assert np.array_equal(report.pair.Z, Zx)


def test_linear_case_matches_ode_to_discretization_error():
    case = case_meanfield_linear()
    ens = small_ens(case, M=50, N=200, seed=1)
    report = solve_auto(case.generator, case.terminal, ens, BASIS, tol=1e-9, max_iter=80)
    ey, ez = oracle_errors(case, report.pair.Y, report.pair.Z, ens)
    assert ey.max() < 5e-4                # trapezoid-level, far under O(dt)
    assert ez.max() == 0.0


@pytest.mark.parametrize("layout", ["node-major pair", "particle-major"])
@pytest.mark.parametrize("label", sorted(SELF_CHECK_CASES))
def test_streamed_oracle_errors_equal_the_reference(label, layout):
    case = SELF_CHECK_CASES[label]()
    ens = small_ens(case, M=30, N=4_999, seed=5)
    pair = solve_auto(case.generator, case.terminal, ens, default_basis(case.params.d)).pair
    Y, Z = pair.Y, pair.Z
    if layout == "particle-major":
        # noise makes every error nonzero, the zero case's included
        rng = np.random.default_rng(3)
        Y = np.ascontiguousarray(Y) + 0.1 * rng.standard_normal(Y.shape)
        Z = np.ascontiguousarray(Z) + 0.1 * rng.standard_normal(Z.shape)
    got, want = oracle_errors(case, Y, Z, ens), reference_errors(case, Y, Z, ens)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("label", ["colehopf n=1", "zero n=2 d=2"])
def test_oracle_errors_hold_a_few_node_blocks(label):
    import tracemalloc

    case = SELF_CHECK_CASES[label]()
    M, N = 100, 20_000
    p = case.params
    ens = small_ens(case, M=M, N=N, seed=5)
    pair = ProcessPair.empty(N, M, p.n, p.d)
    pair.Y[...], pair.Z[...] = 1.0, 1.0
    tracemalloc.start()
    try:
        oracle_errors(case, pair.Y, pair.Z, ens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * pair.Y.nbytes, peak / pair.Y.nbytes


@pytest.mark.parametrize("y_shape, z_shape, message", [
    ((11, 1), (10, 1, 1), "Y must have shape (300, 11, 1), got (11, 1)"),
    ((1, 11, 1), (1, 10, 1, 1), "Y must have shape (300, 11, 1), got (1, 11, 1)"),
    ((300, 11, 1), (1, 10, 1, 1), "Z must have shape (300, 10, 1, 1), got (1, 10, 1, 1)"),
], ids=["node-mean fields", "one-particle pair", "one-particle Z"])
def test_oracle_errors_refuse_misshapen_fields(y_shape, z_shape, message):
    # a node-mean field or a one-particle pair would broadcast against the
    # oracle's (N, ...) node blocks and give errors of the right length
    case = case_colehopf_diagonal()
    ens = small_ens(case, M=10, N=300)
    with pytest.raises(ValueError, match=re.escape(message)):
        oracle_errors(case, np.zeros(y_shape), np.zeros(z_shape), ens)
