"""Benchmark catalog: models with independent closed-form oracles.

Each case packages a generator, bounded terminal data, the declared structural
budgets, and (where one exists) an exact solution used to score the solver.
Construction runs a one-step residual self-check of the oracle against the
discrete backward relation, so a typo in either the generator or the oracle
fails fast rather than polluting downstream error measurements.

The declared budgets are deliberately not the minimal ones: strictly positive
phi and integral budgets keep the constants ledger non-degenerate (a zero
envelope would make the guaranteed window length meaningless).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import Ensemble, TimeGrid, generate_ensemble
from .errors import ConfigError
from .model import Generator, ModelParams, TerminalCondition

_SELF_CHECK_M = 200
_SELF_CHECK_N = 10_000
_SELF_CHECK_SEED = 93


@dataclass(frozen=True, eq=False)
class BenchmarkCase:
    """A solvable model plus its exact reference fields.

    ``oracle(t, w)`` maps a node time and states (..., d) to exact values
    (Y (..., n), Z (..., n, d)); None when the case has no closed form.
    """

    name: str
    params: ModelParams
    generator: Generator
    terminal: TerminalCondition
    oracle: Callable[[float, np.ndarray], tuple[np.ndarray, np.ndarray]] | None
    y0_exact: float | None
    description: str = ""


def oracle_fields(case: BenchmarkCase, ens: Ensemble) -> tuple[np.ndarray, np.ndarray]:
    """Exact (Y, Z) evaluated on the ensemble's nodes: (N, M+1, n), (N, M, n, d)."""
    if case.oracle is None:
        raise ValueError(f"case {case.name!r} has no oracle")
    p = case.params
    M = ens.grid.M
    Y = np.zeros((ens.N, M + 1, p.n))
    Z = np.zeros((ens.N, M, p.n, p.d))
    for k in range(M + 1):
        y, z = case.oracle(float(ens.grid.nodes[k]), ens.cumulative[:, k, :])
        Y[:, k] = y
        if k < M:
            Z[:, k] = z
    return Y, Z


def oracle_errors(
    case: BenchmarkCase, Y: np.ndarray, Z: np.ndarray, ens: Ensemble
) -> tuple[np.ndarray, np.ndarray]:
    """Per-node RMS (over particles) error of solved fields against the oracle.

    Returns (err_y (M+1,), err_z (M,)); err_y uses the Euclidean norm over
    components, err_z the Frobenius norm over the (n, d) block.
    """
    Yx, Zx = oracle_fields(case, ens)
    dy = ((Y - Yx) ** 2).sum(axis=2).mean(axis=0)
    dz = ((Z - Zx) ** 2).sum(axis=(2, 3)).mean(axis=0)
    return np.sqrt(dy), np.sqrt(dz)


def residual_self_check(
    case: BenchmarkCase,
    M: int = _SELF_CHECK_M,
    N: int = _SELF_CHECK_N,
    seed: int = _SELF_CHECK_SEED,
) -> tuple[float, float]:
    """One-step residual of the oracle against the discrete backward relation.

    For every step k the particle mean of
        Y_k - Y_{k+1} - f(t_k, Y_k, E[Y_k], Z_k, E[Z_k]) dt + Z_k dW_k
    must vanish up to the time-discretization error of the oracle itself plus
    Monte Carlo noise.  Returns (worst observed mean residual, threshold).
    """
    p = case.params
    grid = TimeGrid.make(M, p.T)
    ens = generate_ensemble(grid, N, p.d, seed)
    Yx, Zx = oracle_fields(case, ens)
    mY, mZ = Yx.mean(axis=0), Zx.mean(axis=0)
    worst = 0.0
    for k in range(M):
        f = case.generator.eval(float(grid.nodes[k]), Yx[:, k], mY[k], Zx[:, k], mZ[k])
        incr = (Zx[:, k] * ens.increments[:, k, None, :]).sum(axis=-1)
        resid = Yx[:, k] - Yx[:, k + 1] - f * grid.dt + incr
        worst = max(worst, float(np.abs(resid.mean(axis=0)).max()))
    threshold = 10.0 * grid.dt**2 + 5.0 * grid.dt / math.sqrt(N)
    return worst, threshold


def _check_oracle(case: BenchmarkCase) -> BenchmarkCase:
    if case.oracle is not None:
        worst, threshold = residual_self_check(case)
        if worst > threshold:
            raise ConfigError(
                f"oracle self-check failed for case {case.name!r}: one-step "
                f"residual {worst:.3e} exceeds {threshold:.3e}"
            )
    return case


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

    def fn(t, y, ybar, z, zbar):
        return np.zeros(np.asarray(y, dtype=float).shape)

    def xi(paths):
        return np.full((paths.shape[0], n), c)

    def oracle(t, w):
        y = np.full(w.shape[:-1] + (n,), c)
        z = np.zeros(w.shape[:-1] + (n, d))
        return y, z

    return _check_oracle(BenchmarkCase(
        name="zero",
        params=params,
        generator=Generator(fn=fn, params=params, name="zero"),
        terminal=TerminalCondition(g=xi, bound=abs(c) * math.sqrt(n), params=params),
        oracle=oracle,
        y0_exact=c,
        description="f = 0 with constant terminal; solver output is exact",
    ))


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

    def fn(t, y, ybar, z, zbar):
        y = np.asarray(y, dtype=float)
        return a * y + b * np.broadcast_to(np.asarray(ybar, dtype=float), y.shape)

    def xi(paths):
        return np.full((paths.shape[0], n), c)

    def oracle(t, w):
        y = np.full(w.shape[:-1] + (n,), c * math.exp((a + b) * (T - t)))
        z = np.zeros(w.shape[:-1] + (n, d))
        return y, z

    return _check_oracle(BenchmarkCase(
        name="meanfield_linear",
        params=params,
        generator=Generator(fn=fn, params=params, name="meanfield_linear"),
        terminal=TerminalCondition(g=xi, bound=abs(c) * math.sqrt(n), params=params),
        oracle=oracle,
        y0_exact=c * math.exp((a + b) * T),
        description="deterministic linear mean-field drift, ODE oracle",
    ))


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

    def fn(t, y, ybar, z, zbar):
        z = np.asarray(z, dtype=float)
        return 0.5 * gamma * (z * z).sum(axis=-1)

    def xi(paths):
        w = np.clip(paths[:, -1, 0], -B, B)
        return np.repeat(w[:, None], n, axis=1)

    def oracle(t, w):
        base = w[..., 0] + 0.5 * gamma * (T - t)
        y = np.repeat(base[..., None], n, axis=-1)
        z = np.ones(w.shape[:-1] + (n, 1))
        return y, z

    return _check_oracle(BenchmarkCase(
        name="colehopf",
        params=params,
        generator=Generator(fn=fn, params=params, name="colehopf"),
        terminal=TerminalCondition(g=xi, bound=B * math.sqrt(n), params=params),
        oracle=oracle,
        y0_exact=0.5 * gamma * T,
        description="diagonal quadratic driver with exponential-transform oracle",
    ))


def case_loggrowth(
    gamma: float = 1.0, kappa: float = 0.05, T: float = 1.0, clamp_mult: float = 6.0
) -> BenchmarkCase:
    """Two components coupled through logarithmic growth in the other row.

    f^1 = (gamma/2)|z^1|^2 + kappa*log(1 + |z^2|) and symmetrically for f^2,
    terminal (clamped W_T, clamped W_T).  No closed-form oracle exists; the
    case is scored by the assumption checkers, the residual of the solved
    pair, and the explicit sup-norm/BMO ceilings.
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

    def fn(t, y, ybar, z, zbar):
        z = np.asarray(z, dtype=float)
        rows = np.sqrt((z * z).sum(axis=-1))
        return 0.5 * gamma * rows**2 + kappa * np.log1p(rows[..., ::-1])

    def xi(paths):
        w = np.clip(paths[:, -1, 0], -B, B)
        return np.column_stack([w, w])

    return BenchmarkCase(
        name="loggrowth",
        params=params,
        generator=Generator(fn=fn, params=params, name="loggrowth"),
        terminal=TerminalCondition(g=xi, bound=B * math.sqrt(2.0), params=params),
        oracle=None,
        y0_exact=None,
        description="logarithmic cross-row coupling, property-based scoring only",
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
