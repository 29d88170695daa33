"""Benchmark catalog: models with independent closed-form oracles.

Each case packages a generator, bounded terminal data, the declared structural
budgets, and (where one exists) an exact solution used to score the solver.
A factory only builds the case.  ``check_oracle(case, ens)`` runs the
one-step residual self-check of the oracle against the discrete backward
relation on the paths of ``ens``.  The commands that read an oracle (solve,
bench, sweep) run it before their first solve, on the ensemble
``cli._check_oracles`` draws, so a typo in either the generator or the
oracle fails fast rather than polluting downstream error measurements.

The declared budgets are deliberately not the minimal ones: strictly positive
phi and integral budgets keep the constants ledger non-degenerate (a zero
envelope would make the guaranteed window length meaningless).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import Ensemble, _node_mean, _sum_of_squares
from .errors import ConfigError
from .model import Generator, ModelParams, TerminalCondition, _check_ensemble


@dataclass(frozen=True, eq=False)
class BenchmarkCase:
    """A solvable model plus its exact reference fields.

    ``oracle(t, w)`` maps a node time and states (..., d) to exact values
    (Y (..., n), Z (..., n, d)); None when the case has no closed form.
    """

    name: str
    generator: Generator
    terminal: TerminalCondition
    oracle: Callable[[float, np.ndarray], tuple[np.ndarray, np.ndarray]] | None
    y0_exact: float | None

    @property
    def params(self) -> ModelParams:
        """The generator's parameters, the case's one copy of them."""
        return self.generator.params


def _oracle_node(case: BenchmarkCase, ens: Ensemble, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact (Y, Z) at node k, cast to float and broadcast to (N, n), (N, n, d)."""
    if case.oracle is None:
        raise ValueError(f"case {case.name!r} has no oracle")
    p = case.params
    y, z = case.oracle(float(ens.grid.nodes[k]), ens.node(k))
    return (np.broadcast_to(np.asarray(y, dtype=float), (ens.N, p.n)),
            np.broadcast_to(np.asarray(z, dtype=float), (ens.N, p.n, p.d)))


def oracle_errors(
    case: BenchmarkCase, Y: np.ndarray, Z: np.ndarray, ens: Ensemble
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node RMS (over particles) error of solved fields against the oracle.

    Y is (N, M+1, n) and Z (N, M, n, d), in either memory layout.  Returns
    (err_y (M+1,), err_z (M,)); err_y uses the Euclidean norm over
    components, err_z the Frobenius norm over the (n, d) block.  The oracle
    is evaluated one node at a time, and each node's squared errors are
    averaged with ``_node_mean``, in the particle-major mean's order.  An
    ensemble on another horizon or dimension than the case's is a ValueError.
    """
    p = case.params
    _check_ensemble(p, ens)
    M = ens.grid.M
    for name, arr, shape in (("Y", Y, (ens.N, M + 1, p.n)), ("Z", Z, (ens.N, M, p.n, p.d))):
        if np.shape(arr) != shape:
            raise ValueError(f"{name} must have shape {shape}, got {np.shape(arr)}")
    dy, dz = np.empty(M + 1), np.empty(M)
    for k in range(M + 1):
        y, z = _oracle_node(case, ens, k)
        dy[k] = _node_mean(_sum_of_squares(Y[:, k] - y))
        if k < M:
            dz[k] = _node_mean(_sum_of_squares((Z[:, k] - z).reshape(ens.N, -1)))
    return np.sqrt(dy), np.sqrt(dz)


def residual_self_check(case: BenchmarkCase, ens: Ensemble) -> tuple[float, float]:
    """One-step residual of the oracle against the discrete backward relation.

    For every step k the particle mean of
        Y_k - Y_{k+1} - f(t_k, Y_k, E[Y_k], Z_k, E[Z_k]) dt + Z_k dW_k
    over the paths of `ens` must vanish up to the time-discretization error
    of the oracle itself plus Monte Carlo noise.  Returns (worst observed
    mean residual, threshold); an ensemble on another horizon or dimension
    than the case's is a ValueError.
    """
    _check_ensemble(case.params, ens)
    grid = ens.grid
    # One node of oracle values at a time, node k+1's carried into step k+1;
    # _node_mean adds in the index order of a particle-major field's mean.
    y, z = _oracle_node(case, ens, 0)
    mean_y = _node_mean(y)
    worst = 0.0
    for k in range(grid.M):
        y_next, z_next = _oracle_node(case, ens, k + 1)
        f = case.generator.eval(float(grid.nodes[k]), y, mean_y, z, _node_mean(z))
        incr = (z * ens.increments[:, k, None, :]).sum(axis=-1)
        resid = y - y_next - f * grid.dt + incr
        worst = max(worst, float(np.abs(resid.mean(axis=0)).max()))
        y, z, mean_y = y_next, z_next, _node_mean(y_next)
    threshold = 10.0 * grid.dt**2 + 5.0 * grid.dt / math.sqrt(ens.N)
    return worst, threshold


def check_oracle(case: BenchmarkCase, ens: Ensemble) -> None:
    """Raise a ConfigError when the case's oracle fails its residual
    self-check on `ens` (the commands pass the draw of cli._check_oracles)."""
    worst, threshold = residual_self_check(case, ens)
    if worst > threshold:
        raise ConfigError(
            f"oracle self-check failed for case {case.name!r}: one-step "
            f"residual {worst:.3e} exceeds {threshold:.3e}"
        )


def case_zero(c: float = 1.0, n: int = 1, d: int = 1, T: float = 1.0, gamma: float = 1.0) -> BenchmarkCase:
    """Trivial driver: f = 0, terminal constant c; exact Y = c, Z = 0.

    The solver reproduces this case bitwise -- constant targets bypass the
    regression -- so any nonzero error flags a plumbing bug.
    """
    params = ModelParams(
        n=n, d=d, T=T, gamma=gamma, K=0.0, delta=0.0,
        phi=lambda r: 0.5,
        a=lambda t: 0.01 / T,
        alpha=lambda t: 0.01 / T,
        beta=lambda t: 0.01 / T,
        eta=lambda t: 0.01 / T,
        C0=0.01, C1=abs(c) * math.sqrt(n), C2=0.03,
    )

    def fn(i, t, y, ybar, z_i, z, zbar):
        return np.zeros(y.shape[:-1])

    def xi(w):
        return np.full((w.shape[0], n), c)

    def oracle(t, w):
        y = np.full(w.shape[:-1] + (n,), c)
        z = np.zeros(w.shape[:-1] + (n, d))
        return y, z

    return BenchmarkCase(
        name="zero",
        generator=Generator(fn=fn, params=params, name="zero"),
        terminal=TerminalCondition(g=xi, bound=abs(c) * math.sqrt(n), params=params),
        oracle=oracle,
        y0_exact=c,
    )


def case_meanfield_linear(
    a: float = 0.5, b: float = 0.5, c: float = 1.0,
    T: float = 1.0, gamma: float = 1.0, n: int = 1, d: int = 1,
) -> BenchmarkCase:
    """Linear mean-field driver f^i = a*y^i + b*ybar^i with constant terminal.

    The solution is deterministic, Y_t = c*exp((a+b)(T-t)) with Z = 0, so the
    only solver error is time discretization of the drift.
    """
    s = abs(a) + abs(b)
    params = ModelParams(
        n=n, d=d, T=T, gamma=gamma, K=0.0, delta=0.0,
        phi=lambda r: s * (1.0 + r),
        a=lambda t: 0.01 / T,
        alpha=lambda t: 0.01 / T,
        beta=lambda t: s,
        eta=lambda t: 0.0,
        C0=0.01, C1=abs(c) * math.sqrt(n), C2=s * T + 0.02,
    )

    def fn(i, t, y, ybar, z_i, z, zbar):
        return a * y[..., i] + b * ybar[..., i]

    def xi(w):
        return np.full((w.shape[0], n), c)

    def oracle(t, w):
        y = np.full(w.shape[:-1] + (n,), c * math.exp((a + b) * (T - t)))
        z = np.zeros(w.shape[:-1] + (n, d))
        return y, z

    return BenchmarkCase(
        name="meanfield_linear",
        generator=Generator(fn=fn, params=params, name="meanfield_linear"),
        terminal=TerminalCondition(g=xi, bound=abs(c) * math.sqrt(n), params=params),
        oracle=oracle,
        y0_exact=c * math.exp((a + b) * T),
    )


def case_colehopf_diagonal(
    gamma: float = 1.0, n: int = 1, T: float = 1.0, clamp_mult: float = 6.0
) -> BenchmarkCase:
    """Pure diagonal quadratic driver f^i = (gamma/2)|z^i|^2, d = 1.

    Terminal data clamp(W_T, +-B) per component with B = clamp_mult*sqrt(T);
    the exponential transform of the unclamped problem gives
    Y^i_t = W_t + (gamma/2)(T - t) and Z^i = 1.  At the default B the clamping
    probability is below 1e-8, far under the Monte Carlo noise floor, so the
    unclamped closed form serves as the oracle with widened tolerances.
    """
    B = clamp_mult * math.sqrt(T)
    params = ModelParams(
        n=n, d=1, T=T, gamma=gamma, K=0.0, delta=0.0,
        phi=lambda r: 0.5 * gamma,
        a=lambda t: 0.01 / T,
        alpha=lambda t: 0.01 / T,
        beta=lambda t: 0.01 / T,
        eta=lambda t: 0.01 / T,
        C0=0.01, C1=B * math.sqrt(n), C2=0.03,
    )

    def fn(i, t, y, ybar, z_i, z, zbar):
        out = _sum_of_squares(z_i)
        out *= 0.5 * gamma
        return out

    def xi(w):
        w = np.clip(w[:, 0], -B, B)
        return np.repeat(w[:, None], n, axis=1)

    def oracle(t, w):
        base = w[..., 0] + 0.5 * gamma * (T - t)
        y = np.repeat(base[..., None], n, axis=-1)
        z = np.ones(w.shape[:-1] + (n, 1))
        return y, z

    return BenchmarkCase(
        name="colehopf",
        generator=Generator(fn=fn, params=params, name="colehopf"),
        terminal=TerminalCondition(g=xi, bound=B * math.sqrt(n), params=params),
        oracle=oracle,
        y0_exact=0.5 * gamma * T,
    )


def case_loggrowth(
    gamma: float = 1.0, kappa: float = 0.05, T: float = 1.0, clamp_mult: float = 6.0
) -> BenchmarkCase:
    """Two components coupled through logarithmic growth in the other row.

    f^1 = (gamma/2)|z^1|^2 + kappa*log(1 + |z^2|) and symmetrically for f^2,
    terminal (clamped W_T, clamped W_T).  On the clamp approximation of
    ``case_colehopf_diagonal``, Z^i = 1 makes each row's driver the constant
    gamma/2 + kappa*log 2, so Y^i_t = W_t + (gamma/2 + kappa*log 2)(T - t).
    The case does not carry that oracle yet: it is scored by the structural
    checks (H1/H2/H4), the convergence of the solve, and the explicit
    sup-norm/BMO ceilings.
    """
    if kappa <= 0.0:
        raise ConfigError(f"kappa must be positive, got {kappa}")
    B = clamp_mult * math.sqrt(T)
    params = ModelParams(
        n=2, d=1, T=T, gamma=gamma, K=kappa, delta=0.0,
        phi=lambda r: max(0.5 * gamma, kappa),
        a=lambda t: 0.01 / T,
        alpha=lambda t: 0.01 / T,
        beta=lambda t: 0.01 / T,
        eta=lambda t: kappa,
        C0=0.01, C1=B * math.sqrt(2.0),
        C2=0.02 + kappa * math.log1p(kappa) * T + 0.01,
    )

    def fn(i, t, y, ybar, z_i, z, zbar):
        out = _sum_of_squares(z_i)
        np.sqrt(out, out=out)                         # |z^i|
        np.square(out, out=out)
        out *= 0.5 * gamma
        cross = _sum_of_squares(z[..., 1 - i, :])
        np.sqrt(cross, out=cross)                     # |z^(1-i)|
        np.log1p(cross, out=cross)
        cross *= kappa
        out += cross
        return out

    def xi(w):
        w = np.clip(w[:, 0], -B, B)
        return np.column_stack([w, w])

    return BenchmarkCase(
        name="loggrowth",
        generator=Generator(fn=fn, params=params, name="loggrowth"),
        terminal=TerminalCondition(g=xi, bound=B * math.sqrt(2.0), params=params),
        oracle=None,
        y0_exact=None,
    )


CATALOG: dict[str, Callable[..., BenchmarkCase]] = {
    "zero": case_zero,
    "meanfield_linear": case_meanfield_linear,
    "colehopf": case_colehopf_diagonal,
    "loggrowth": case_loggrowth,
}


def make_case(name: str, **kwargs) -> BenchmarkCase:
    """Build a catalog case by name, passing factory keyword overrides."""
    try:
        factory = CATALOG[name]
    except KeyError:
        raise ConfigError(
            f"unknown case {name!r}; available: {', '.join(sorted(CATALOG))}"
        ) from None
    return factory(**kwargs)
