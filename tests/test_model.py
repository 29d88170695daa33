"""Model declarations and the sampled structural checks.

The checkers must (a) accept every catalog case, (b) actually catch models
whose declared envelopes are violated -- a checker that can't refute anything
is worthless -- and (c) be deterministic given the seed.
"""

import math

import numpy as np
import pytest

from mfbsde import (
    CATALOG,
    Generator,
    ModelParams,
    TerminalBoundError,
    TerminalCondition,
    check_h1,
    check_h2,
    check_h4,
    make_case,
    run_checks,
    terminal_values,
)
from mfbsde import model


def simple_params(**over):
    base = dict(
        n=1, d=1, T=1.0, gamma=1.0, K=0.0, delta=0.0,
        phi=lambda r: 0.5, a=lambda t: 0.01,
        alpha=lambda t: 0.01, beta=lambda t: 0.01, eta=lambda t: 0.01,
        C0=0.01, C1=1.0, C2=0.05,
    )
    base.update(over)
    return ModelParams(**base)


# ------------------------------------------------------------- ModelParams


def test_params_validation_rejects_bad_scalars():
    with pytest.raises(ValueError):
        simple_params(n=0)
    with pytest.raises(ValueError):
        simple_params(T=0.0)
    with pytest.raises(ValueError):
        simple_params(gamma=0.0)
    with pytest.raises(ValueError):
        simple_params(K=-1.0)
    with pytest.raises(ValueError):
        simple_params(delta=1.0)
    with pytest.raises(ValueError):
        simple_params(C1=-0.5)


def test_params_validation_rejects_bad_functions():
    with pytest.raises(ValueError, match="nonnegative"):
        simple_params(a=lambda t: -0.1)
    with pytest.raises(ValueError, match="nondecreasing"):
        simple_params(phi=lambda r: 1.0 / (1.0 + r))
    with pytest.raises(ValueError, match="C0"):
        simple_params(a=lambda t: 1.0, C0=0.01)
    with pytest.raises(ValueError, match="C2"):
        simple_params(beta=lambda t: 5.0, C2=0.05)


@pytest.mark.parametrize("name", ["phi", "a", "alpha", "beta", "eta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_params_reject_a_non_finite_budget(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        simple_params(**{name: lambda t: value})


def test_params_reject_a_budget_that_does_not_take_an_array():
    # math.exp takes one float only; it is refused, not looped over
    with pytest.raises(ValueError, match="^a must accept a float array"):
        simple_params(a=math.exp)
    with pytest.raises(ValueError, match="^phi must accept a float array"):
        simple_params(phi=lambda r: np.full((len(r), 2), 0.5))
    with pytest.raises(ValueError, match="^eta must accept a float array"):
        simple_params(eta=lambda t: np.full(3, 0.01))


def test_params_budgets_met_with_equality_are_accepted():
    p = simple_params(a=lambda t: 0.01, C0=0.01)
    assert p.C0 == 0.01


# ------------------------------------------------------- terminal condition


def test_terminal_bound_enforced():
    tc = TerminalCondition(g=lambda paths: paths[:, -1, :1] * 10.0, bound=1.0)
    paths = np.zeros((4, 3, 1))
    paths[:, -1, 0] = [0.01, 0.05, -0.02, 0.3]
    with pytest.raises(TerminalBoundError):
        terminal_values(tc, paths)
    paths[:, -1, 0] = [0.01, 0.05, -0.02, 0.03]
    vals = terminal_values(tc, paths)
    assert vals.shape == (4, 1)


def test_terminal_bound_must_respect_declared_c1():
    p = simple_params(C1=1.0)
    with pytest.raises(ValueError, match="C1"):
        TerminalCondition(g=lambda paths: paths[:, -1, :1], bound=2.0, params=p)


# ------------------------------------------------------------ checker passes


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_cases_pass_all_checkers(name):
    case = make_case(name)
    reports = run_checks(case.generator, case.params, samples=10_000, rng_seed=0)
    for rep in reports.values():
        assert rep.passed, rep.summary()


def _loop_sample_fn(fn, ts):
    return np.array([float(fn(float(t))) for t in ts])


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_reports_equal_the_per_sample_budget_loop(name, monkeypatch):
    # one call on the sample array gives the reports of one call per sample
    case = make_case(name)
    reports = run_checks(case.generator, case.params, samples=10_000, rng_seed=0)
    monkeypatch.setattr(model, "_sample_fn", _loop_sample_fn)
    assert run_checks(case.generator, case.params, samples=10_000, rng_seed=0) == reports


def test_checks_fail_on_a_nan_generator():
    p = make_case("colehopf", n=2).params
    gen = Generator(
        fn=lambda t, y, ybar, z, zbar: np.full(np.broadcast_shapes(y.shape, z.shape[:-1]), np.nan),
        params=p,
        name="nan",
    )
    samples = 300
    for check in (check_h1, check_h2, check_h4):
        rep = check(gen, p, samples=samples, rng_seed=0)
        assert rep.passed is False, rep.summary()
        assert rep.violations == samples * p.n
        assert rep.first_violation["sample"] == 0 and rep.first_violation["component"] == 0


def test_checks_deterministic_given_seed():
    case = make_case("loggrowth")
    a = check_h1(case.generator, case.params, samples=500, rng_seed=42)
    b = check_h1(case.generator, case.params, samples=500, rng_seed=42)
    assert a.worst_margin == b.worst_margin
    c = check_h1(case.generator, case.params, samples=500, rng_seed=43)
    assert c.worst_margin != a.worst_margin


# ------------------------------------------------------- checker refutations


def test_h1_refutes_undeclared_quadratic_growth():
    # Driver is quadratic with weight gamma, declared envelope only gamma/2.
    p = simple_params(gamma=1.0)
    gen = Generator(
        fn=lambda t, y, ybar, z, zbar: 1.0 * (np.asarray(z) ** 2).sum(axis=-1),
        params=p,
    )
    rep = check_h1(gen, p, samples=5_000, rng_seed=0)
    assert not rep.passed
    assert rep.violations > 0
    assert rep.first_violation is not None
    assert rep.worst_margin < 0


def test_h2_refutes_discontinuous_driver():
    p = simple_params(phi=lambda r: 0.5 + 0.0 * r)
    gen = Generator(
        fn=lambda t, y, ybar, z, zbar: 10.0 * np.sign(np.asarray(y, dtype=float)),
        params=p,
    )
    rep = check_h2(gen, p, samples=5_000, rng_seed=1)
    assert not rep.passed


def test_h4_refutes_strong_signed_growth():
    # sign(y) f = 5|y| needs beta >= 5; declared beta is 0.01.
    p = simple_params()
    gen = Generator(
        fn=lambda t, y, ybar, z, zbar: 5.0 * np.asarray(y, dtype=float),
        params=p,
    )
    rep = check_h4(gen, p, samples=5_000, rng_seed=0)
    assert not rep.passed


def test_h4_accepts_one_sided_driver():
    # f = -5y has sign(y) f = -5|y| <= 0: a one-sided envelope must accept it
    # even though the two-sided growth is way past the declared beta.
    p = simple_params()
    gen = Generator(
        fn=lambda t, y, ybar, z, zbar: -5.0 * np.asarray(y, dtype=float),
        params=p,
    )
    rep = check_h4(gen, p, samples=5_000, rng_seed=0)
    assert rep.passed


def test_report_payload_roundtrip():
    p = simple_params()
    gen = Generator(
        fn=lambda t, y, ybar, z, zbar: 1.0 * (np.asarray(z) ** 2).sum(axis=-1),
        params=p,
    )
    rep = check_h1(gen, p, samples=2_000, rng_seed=7)
    d = rep.to_dict()
    assert d["name"] == "H1" and d["passed"] is False
    fv = d["first_violation"]
    assert set(fv) >= {"sample", "component", "lhs", "rhs", "margin", "t", "z"}
    # the recorded tuple must actually reproduce the violation
    z = np.asarray(fv["z"])
    lhs = float((z**2).sum(axis=-1)[fv["component"]])
    assert lhs == pytest.approx(fv["lhs"], rel=1e-12)


def test_checker_rejects_empty_sample_budget():
    case = make_case("zero")
    with pytest.raises(ValueError):
        check_h1(case.generator, case.params, samples=0)


def test_generator_component_bounds():
    case = make_case("loggrowth")
    with pytest.raises(IndexError):
        case.generator.component(2, 0.0, np.zeros(2), np.zeros(2), np.zeros((2, 1)), np.zeros((2, 1)))


def test_generator_eval_checks_the_result_shape():
    p = simple_params(n=2)
    y, ybar, z, zbar = np.zeros((5, 2)), np.zeros(2), np.zeros((5, 2, 1)), np.zeros((2, 1))
    good = Generator(fn=lambda t, y, ybar, z, zbar: np.zeros(y.shape), params=p, name="flat")
    assert good.eval(0.0, y, ybar, z, zbar).shape == (5, 2)
    # stacked rows: y broadcast over the copies of z gives (5, 2, 2)
    zs = np.zeros((5, 2, 2, 1))
    assert good.eval(0.0, np.broadcast_to(y[:, None], (5, 2, 2)), ybar, zs, zbar).shape == (5, 2, 2)
    # a result that ignores the z block is refused with the generator's name
    with pytest.raises(ValueError, match="'flat' returned shape \\(5, 1, 2\\)"):
        good.eval(0.0, y[:, None], ybar, zs, zbar)
    summed = Generator(fn=lambda t, y, ybar, z, zbar: z.sum(axis=(-2, -1)), params=p, name="summed")
    with pytest.raises(ValueError, match="summed"):
        summed.eval(0.0, y, ybar, z, zbar)
