"""Model declarations and the sampled structural checks.

The checkers must (a) accept every catalog case, (b) actually catch models
whose declared envelopes are violated -- a checker that can't refute anything
is worthless -- and (c) be deterministic given the seed.
"""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from mfbsde import (
    CATALOG,
    Generator,
    ModelParams,
    TerminalBoundError,
    TerminalCondition,
    TimeGrid,
    generate_ensemble,
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


@pytest.mark.parametrize("phi", [lambda r: 0.5, lambda r: 0.5 + r], ids=["constant", "linear"])
@pytest.mark.parametrize("over", [dict(C1=1e308), dict(C0=1e308), dict(n=5, C1=1e308 / 8)],
                         ids=["C1", "C0", "n"])
def test_params_reject_a_phi_radius_that_overflows(phi, over):
    # 4*n*(C0 + C1 + 1) overflows to inf: the radius is refused before phi
    # is sampled on a grid of nan and inf, constant or not, and numpy warns
    # about nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^phi's sampling radius 4\*n\*\(C0 \+ C1 \+ 1\) "
                                             r"is inf for C0 = .*, C1 = .*; it must be finite"):
            simple_params(phi=phi, **over)


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


# The Kronrod node 0.5 - 0.5*x_10 of [0, 1], 5.6e-4 away from the nearest
# point of the (201,) sampling grid.
_K21_NODE = 0.5 - 0.5 * 0.148874338981631210884826001129720


@pytest.mark.parametrize("name, integral", [
    ("a", "integral of a over [0, T]"),
    ("alpha", "integral of alpha + beta + eta*log(1+eta)"),
])
def test_params_reject_a_nan_integral(name, integral):
    # finite on the sampled grid, NaN at a quadrature node: quad returned
    # nan with a warning only, and nan > C0 let the model through
    p = make_case("colehopf").params
    assert p.T == 1.0
    value = getattr(p, name)(0.0)
    spiked = lambda t: np.where(np.abs(t - _K21_NODE) < 1e-4, np.nan, value)
    with pytest.raises(ValueError, match=rf"^{re.escape(integral)} is not finite"):
        dataclasses.replace(p, **{name: spiked})


def test_params_reject_an_integral_that_does_not_converge():
    # about 1600 periods on [0, 1]: 200 panels of 21 nodes cannot resolve them
    with pytest.raises(ValueError, match=r"^integral of a over \[0, T\] did not converge "
                                         r"within 200 panels"):
        simple_params(a=lambda t: 0.005 * (1.0 + np.sin(1e4 * t)))


# --------------------------------------------------------------- quadrature


def quad_each(fn, lo, hi):
    """scipy.integrate.quad on each interval, the independent reference."""
    return np.array([quad(fn, a, b, limit=200)[0] for a, b in zip(lo, hi)])


def old_mix(p):
    """The C2 integrand as ModelParams built it for quad, on one float."""
    return lambda t: p.alpha(t) + p.beta(t) + p.eta(t) * math.log1p(p.eta(t))


def new_mix(p):
    """The C2 integrand on float arrays, eta called once."""
    def mix(t):
        eta = p.eta(t)
        return p.alpha(t) + p.beta(t) + eta * np.log1p(eta)
    return mix


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_integrate_is_quad_bitwise_on_the_catalog_budgets(name):
    p = make_case(name).params
    lo, hi = np.array([0.0]), np.array([p.T])
    assert model._integrate(p.a, lo, hi)[0] == quad(p.a, 0.0, p.T, limit=200)[0]
    assert model._integrate(new_mix(p), lo, hi)[0] == quad(old_mix(p), 0.0, p.T, limit=200)[0]
    for M in (25, 50, 100):
        nodes = TimeGrid.make(M, p.T).nodes
        got = model._integrate(p.a, nodes[:-1], nodes[1:])
        assert np.array_equal(got, quad_each(p.a, nodes[:-1], nodes[1:]))


@pytest.mark.parametrize("fn", [lambda t: 0.1 * t**2 + 0.3, lambda t: 0.02 * np.exp(t), np.exp],
                         ids=["poly", "scaled-exp", "exp"])
def test_integrate_is_quad_bitwise_on_smooth_integrands(fn):
    lo = np.array([0.0, 0.0, 0.02, 0.5, -1.0])
    hi = np.array([1.0, 0.37, 0.04, 1.0, 3.0])
    assert np.array_equal(model._integrate(fn, lo, hi), quad_each(fn, lo, hi))
    nodes = TimeGrid.make(100, 1.0).nodes
    assert np.array_equal(model._integrate(fn, nodes[:-1], nodes[1:]),
                          quad_each(fn, nodes[:-1], nodes[1:]))


@pytest.mark.parametrize("fn, exact", [
    (np.sqrt, 2.0 / 3.0),
    (lambda t: np.abs(t - 1.0 / 3.0), 5.0 / 18.0),
], ids=["sqrt", "kink"])
def test_integrate_bisects_to_quads_tolerance(fn, exact):
    lo, hi = np.array([0.0, 0.5]), np.array([1.0, 1.0])
    first = model._kronrod21(fn, lo, hi)
    assert list(model._converged(*first)) == [False, True]    # [0, 1] needs bisection
    got = model._integrate(fn, lo, hi)
    ref = quad_each(fn, lo, hi)
    assert got[1] == ref[1]
    assert abs(got[0] - ref[0]) <= 1.49e-8 * abs(ref[0])
    assert abs(got[0] - exact) <= 1.49e-8 * exact


def test_integrate_refuses_an_integrand_that_exhausts_the_panels():
    with pytest.raises(ValueError, match="^did not converge within 200 panels"):
        model._integrate(lambda t: 1.0 / t, np.array([0.0]), np.array([1.0]))
    # inf at a Kronrod-only node: the Gauss sum stays finite, the estimate inf
    node = 0.5 - 0.5 * 0.995657163025808080735527280689003
    with pytest.raises(ValueError, match="^is not finite"):
        model._integrate(lambda t: np.where(np.abs(t - node) < 1e-12, np.inf, 0.0),
                         np.array([0.0]), np.array([1.0]))


# ------------------------------------------------------- terminal condition


def test_terminal_bound_enforced():
    tc = TerminalCondition(g=lambda w: w[:, :1] * 10.0, bound=1.0)
    paths = np.zeros((4, 3, 1))
    paths[:, -1, 0] = [0.01, 0.05, -0.02, 0.3]
    with pytest.raises(TerminalBoundError):
        terminal_values(tc, paths)
    paths[:, -1, 0] = [0.01, 0.05, -0.02, 0.03]
    vals = terminal_values(tc, paths)
    assert vals.shape == (4, 1)


def test_terminal_bound_rejects_nan_samples():
    # NaN compares False against the bound, so the check must be written to fail on it
    tc = TerminalCondition(g=lambda p: np.full((p.shape[0], 1), np.nan), bound=1.0)
    with pytest.raises(TerminalBoundError, match="norm nan"):
        terminal_values(tc, np.zeros((4, 3, 1)))


def test_terminal_values_refuses_input_that_is_not_paths():
    tc = TerminalCondition(g=lambda w: w[:, :1], bound=1.0)
    for bad in (np.zeros((4, 1)), np.zeros(4), np.zeros((4, 3, 1, 1)), np.zeros((4, 0, 1))):
        with pytest.raises(ValueError, match=r"terminal paths must have shape \(N, K >= 1, d\)"):
            terminal_values(tc, bad)


@pytest.mark.parametrize("M", [25, 30], ids=["block-node", "checkpoint"])
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_terminal_values_read_the_last_node_alone(name, M):
    # the map sees the states at T whether it is given the full paths, as
    # the benchmark worker does, or the last node alone, as a solve does
    case = make_case(name)
    ens = generate_ensemble(TimeGrid.make(M, case.params.T), 300, case.params.d, 7)
    full = terminal_values(case.terminal, ens.cumulative)
    assert full.shape == (300, case.params.n)
    assert full.tobytes() == terminal_values(case.terminal, ens.node(M)[:, None]).tobytes()


def test_terminal_bound_must_respect_declared_c1():
    p = simple_params(C1=1.0)
    with pytest.raises(ValueError, match="C1"):
        TerminalCondition(g=lambda w: w[:, :1], bound=2.0, params=p)


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


_RECORD = ["sample", "component", "lhs", "rhs", "margin"]
_TUPLE = ["t", "y", "ybar", "z", "zbar"]


def test_checks_fail_on_a_nan_generator(monkeypatch):
    p = make_case("colehopf", n=2).params
    gen = Generator(
        fn=lambda i, t, y, ybar, z_i, z, zbar: np.full(z_i.shape[:-1], np.nan),
        params=p,
        name="nan",
    )
    calls = []
    component = Generator.component
    monkeypatch.setattr(Generator, "component",
                        lambda self, i, *args: calls.append(i) or component(self, i, *args))
    samples = 300
    reports = run_checks(gen, p, samples=samples, rng_seed=0)
    # one draw, evaluated once as drawn and once perturbed for H2
    assert calls == [0, 1, 0, 1]
    for rep in reports.values():
        assert rep.passed is False, rep.summary()
        assert rep.violations == samples * p.n
        assert rep.first_violation["sample"] == 0 and rep.first_violation["component"] == 0
    assert list(reports["H1"].first_violation) == _RECORD + _TUPLE
    assert list(reports["H4"].first_violation) == _RECORD + _TUPLE
    assert list(reports["H2"].first_violation) == (
        _RECORD + ["t"] + [f"{k}{j}" for j in (1, 2) for k in _TUPLE[1:]])


def test_checks_deterministic_given_seed():
    case = make_case("loggrowth")
    a = run_checks(case.generator, case.params, samples=500, rng_seed=42)["H1"]
    b = run_checks(case.generator, case.params, samples=500, rng_seed=42)["H1"]
    assert a.worst_margin == b.worst_margin
    c = run_checks(case.generator, case.params, samples=500, rng_seed=43)["H1"]
    assert c.worst_margin != a.worst_margin


# ------------------------------------------------------- checker refutations


def test_h1_refutes_undeclared_quadratic_growth():
    # Driver is quadratic with weight gamma, declared envelope only gamma/2.
    p = simple_params(gamma=1.0)
    gen = Generator(
        fn=lambda i, t, y, ybar, z_i, z, zbar: 1.0 * (z_i**2).sum(axis=-1),
        params=p,
    )
    rep = run_checks(gen, p, samples=5_000, rng_seed=0)["H1"]
    assert not rep.passed
    assert rep.violations > 0
    assert rep.first_violation is not None
    assert rep.worst_margin < 0


def test_h2_refutes_discontinuous_driver():
    p = simple_params(phi=lambda r: 0.5 + 0.0 * r)
    gen = Generator(
        fn=lambda i, t, y, ybar, z_i, z, zbar: 10.0 * np.sign(y[..., i]),
        params=p,
    )
    rep = run_checks(gen, p, samples=5_000, rng_seed=1)["H2"]
    assert not rep.passed


def test_h4_refutes_strong_signed_growth():
    # sign(y) f = 5|y| needs beta >= 5; declared beta is 0.01.
    p = simple_params()
    gen = Generator(
        fn=lambda i, t, y, ybar, z_i, z, zbar: 5.0 * y[..., i],
        params=p,
    )
    rep = run_checks(gen, p, samples=5_000, rng_seed=0)["H4"]
    assert not rep.passed


def test_h4_accepts_one_sided_driver():
    # f = -5y has sign(y) f = -5|y| <= 0: a one-sided envelope must accept it
    # even though the two-sided growth is way past the declared beta.
    p = simple_params()
    gen = Generator(
        fn=lambda i, t, y, ybar, z_i, z, zbar: -5.0 * y[..., i],
        params=p,
    )
    rep = run_checks(gen, p, samples=5_000, rng_seed=0)["H4"]
    assert rep.passed


def test_report_payload_roundtrip():
    p = simple_params()
    gen = Generator(
        fn=lambda i, t, y, ybar, z_i, z, zbar: 1.0 * (z_i**2).sum(axis=-1),
        params=p,
    )
    rep = run_checks(gen, p, samples=2_000, rng_seed=7)["H1"]
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
        run_checks(case.generator, case.params, samples=0)


def test_generator_component_bounds():
    case = make_case("loggrowth")
    with pytest.raises(IndexError):
        case.generator.component(2, 0.0, np.zeros(2), np.zeros(2), np.zeros(1), np.zeros((2, 1)),
                                 np.zeros((2, 1)))


def test_generator_eval_checks_the_result_shape():
    p = simple_params(n=2)
    y, ybar, z, zbar = np.zeros((5, 2)), np.zeros(2), np.zeros((5, 2, 1)), np.zeros((2, 1))
    good = Generator(fn=lambda i, t, y, ybar, z_i, z, zbar: np.zeros(y.shape[:-1]), params=p,
                     name="flat")
    assert good.eval(0.0, y, ybar, z, zbar).shape == (5, 2)
    assert good.component(1, 0.0, y, ybar, z[:, 1], z, zbar).shape == (5,)
    # an extra leading axis, as in a particle-first block of environments
    zs = np.zeros((5, 2, 2, 1))
    assert good.eval(0.0, np.broadcast_to(y[:, None], (5, 2, 2)), ybar, zs, zbar).shape == (5, 2, 2)
    # a result that ignores the z block is refused with the generator's name
    with pytest.raises(ValueError, match="'flat' returned shape \\(5, 1\\), expected \\(5, 2\\)"):
        good.eval(0.0, y[:, None], ybar, zs, zbar)
    summed = Generator(fn=lambda i, t, y, ybar, z_i, z, zbar: z.sum(axis=-1), params=p,
                       name="summed")
    with pytest.raises(ValueError, match="summed"):
        summed.eval(0.0, y, ybar, z, zbar)
