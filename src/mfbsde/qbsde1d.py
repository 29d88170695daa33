"""One-dimensional quadratic BSDE solving with explicit sup-norm bounds.

A frozen environment (the other components' fields and the mean fields) turns
one row of the system into a scalar BSDE whose generator is at most quadratic
in its own z-row.  That scalar equation admits explicit bounds

    |Y_t|      <=  bound_y(t)
    E[ integral_t^T |Z|^2 | F_t ]  <=  bound_z(t)

expressed through the growth envelope of the frozen generator, and those
bounds drive both the truncation radius of the regression Z estimate and the
blow-up guard of the backward recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import LOG2, c_delta_k_n
from .engine import Ensemble, RegressionBasis, project
from .errors import BlowUpError

# Beyond this the square in bound_z overflows; treated as "no truncation".
_TRUNC_CAP = 1e154


@dataclass(frozen=True, eq=False)
class GrowthEnvelope:
    """Envelope data of a frozen scalar generator.

    |g(t, z)| <= a_integral-density + phi(u_norm) + (gamma/2)|z|^2
                 + K * (coupling terms bounded through v_norm),
    where u_norm / v_norm are sup bounds on the frozen environment.
    a_integral(t) must return integral_t^T of the time density, including any
    coupling budget already folded in by the caller.
    """

    gamma: float
    K: float
    delta: float
    n: int
    T: float
    phi: Callable[[float], float]
    a_integral: Callable[[float], float]
    eta_bound: float


@dataclass(frozen=True, eq=False)
class FrozenGenerator1D:
    """Scalar generator: g(k_abs, Z) with Z of shape (N, d) -> (N,)."""

    g: Callable[[int, np.ndarray], np.ndarray]
    envelope: GrowthEnvelope
    u_norm: float
    v_norm: float


def bound_y(env: GrowthEnvelope, t: float, u_norm: float, v_norm: float) -> float:
    """A priori sup bound on the scalar solution at time t."""
    if not 0.0 <= t <= env.T * (1 + 1e-12):
        raise ValueError(f"t = {t} outside [0, {env.T}]")
    q = (1.0 + env.delta) / (1.0 - env.delta)
    cdkn = c_delta_k_n(env.delta, env.K, env.n)
    horizon = env.T - min(t, env.T)
    return (
        LOG2 / env.gamma
        + env.eta_bound
        + env.a_integral(t)
        + env.phi(u_norm) * horizon
        + env.gamma**q * cdkn * v_norm ** (2.0 * q) * horizon
    )


def bound_z(env: GrowthEnvelope, t: float, y_norm: float, u_norm: float, v_norm: float) -> float:
    """A priori bound on the conditional remaining quadratic variation of Z at t."""
    if not 0.0 <= t <= env.T * (1 + 1e-12):
        raise ValueError(f"t = {t} outside [0, {env.T}]")
    q = (1.0 + env.delta) / (1.0 - env.delta)
    cdkn = c_delta_k_n(env.delta, env.K, env.n)
    horizon = env.T - min(t, env.T)
    with np.errstate(over="ignore"):
        # saturation to inf is the honest answer for enormous y_norm
        lead = np.exp(2.0 * env.gamma * env.eta_bound) / env.gamma**2
        body = np.exp(2.0 * env.gamma * y_norm) / env.gamma
    budget = (
        1.0
        + 2.0 * env.a_integral(t)
        + 2.0 * env.phi(u_norm) * horizon
        + 2.0 * cdkn * v_norm ** (2.0 * q) * horizon
    )
    return float(lead + body * budget)


def truncation_radius(z_bound: float, mult: float = 3.0) -> float:
    """Row-norm clip radius for the regression Z estimate.

    A safety multiple of sqrt(z_bound): the true Z cannot concentrate more
    quadratic variation than z_bound in any remaining window, so rows far
    outside that scale are regression noise.
    """
    if z_bound < 0.0 or not np.isfinite(z_bound):
        return _TRUNC_CAP
    return float(min(mult * np.sqrt(z_bound), _TRUNC_CAP))


@dataclass(eq=False)
class Solve1DResult:
    Y: np.ndarray                     # (N, L+1)
    Z: np.ndarray                     # (N, L, d)
    k_lo: int
    k_hi: int
    truncation_hits: int


def solve_1d(
    eta: np.ndarray,
    g: FrozenGenerator1D,
    ens: Ensemble,
    basis: RegressionBasis,
    trunc_R: float,
    k_lo: int = 0,
    k_hi: int | None = None,
    blowup_guard: float | None = None,
) -> Solve1DResult:
    """Backward regression scheme for one scalar row on nodes [k_lo, k_hi].

    Per backward step at node k (local index j):
        m_k  = Ehat[ Y_{k+1} | W_{t_k} ]
        Z_k  = Ehat[ (Y_{k+1} - m_k) dW_k^T | W_{t_k} ] / dt, row-clipped at trunc_R
        Y_k  = m_k + g(k, Z_k) dt

    The centered martingale-increment estimator makes Z exactly zero whenever
    Y_{k+1} is constant across particles, so deterministic rows stay
    deterministic.  Exceeding blowup_guard in sup norm aborts with
    BlowUpError.
    """
    M = ens.grid.M
    k_hi = M if k_hi is None else k_hi
    if not 0 <= k_lo < k_hi <= M:
        raise ValueError(f"bad window [{k_lo}, {k_hi}] for M = {M}")
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (ens.N,):
        raise ValueError(f"eta must have shape ({ens.N},), got {eta.shape}")
    if not np.all(np.isfinite(eta)):
        raise ValueError("terminal data must be finite")

    L = k_hi - k_lo
    dt = ens.grid.dt
    Y = np.zeros((ens.N, L + 1))
    Z = np.zeros((ens.N, L, ens.d))
    Y[:, L] = eta
    if blowup_guard is None:
        blowup_guard = 10.0 * bound_y(
            g.envelope, ens.grid.nodes[k_lo], g.u_norm, g.v_norm
        )
    hits = 0

    for j in range(L - 1, -1, -1):
        k = k_lo + j
        y_next = Y[:, j + 1]
        m, _ = project(y_next, k, ens, basis)
        if np.ptp(y_next) == 0.0:
            # Constant continuation: the martingale increment is exactly zero.
            zk = np.zeros((ens.N, ens.d))
        else:
            targets = (y_next - m)[:, None] * ens.increments[:, k, :]
            zk, _ = project(targets, k, ens, basis)
            zk = zk / dt
            norms = np.sqrt((zk * zk).sum(axis=1))
            over = norms > trunc_R
            if over.any():
                hits += int(over.sum())
                zk[over] *= (trunc_R / norms[over])[:, None]
        Z[:, j, :] = zk
        Y[:, j] = m + g.g(k, zk) * dt
        worst = float(np.abs(Y[:, j]).max())
        if not np.isfinite(worst) or worst > blowup_guard:
            raise BlowUpError(node=k, value=worst, guard=float(blowup_guard))

    return Solve1DResult(Y=Y, Z=Z, k_lo=k_lo, k_hi=k_hi, truncation_hits=hits)
