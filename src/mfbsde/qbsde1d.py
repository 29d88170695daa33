"""One-dimensional quadratic BSDE solving with explicit sup-norm bounds.

A frozen environment (the other components' fields and the mean fields) turns
one row of the system into a scalar BSDE whose generator is at most quadratic
in its own z-row.  That scalar equation admits explicit bounds

    |Y_t|      <=  bound_y(t)
    E[ integral_t^T |Z|^2 | F_t ]  <=  bound_z(t)

expressed through the growth envelope of the frozen generator, and those
bounds drive both the truncation radius of the regression Z estimate and the
blow-up guard of the backward recursion.

The rows of one frozen environment are independent, so ``solve_1d`` takes
either one row (terminal data (N,)) or a block of n rows (terminal data
(N, n), fields (N, L+1, n) and (N, L, n, d)) and steps them backward
together: each node's two projections serve every row, and each row keeps
its own truncation radius and guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import LOG2, c_delta_k_n
from .engine import Ensemble, RegressionBasis, _sum_of_squares, project
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
    """Frozen generator of a block of scalar rows: g(k_abs, Z) -> drift.

    For a single row Z has shape (N, d) and g returns (N,); for a block of n
    rows Z has shape (N, n, d) and g returns (N, n), row i depending only on
    Z[:, i].  ``envelope`` must dominate every row of the block.
    """

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
    Y: np.ndarray                     # (N, L+1), or (N, L+1, n) for a block
    Z: np.ndarray                     # (N, L, d), or (N, L, n, d) for a block
    k_lo: int
    k_hi: int
    truncation_hits: int              # total over the rows
    row_hits: tuple[int, ...]         # per row


def _per_row(value, n: int, name: str) -> np.ndarray:
    """A scalar or one value per row, as an (n,) float array."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a scalar or have shape ({n},), got {arr.shape}")
    return arr


def solve_1d(
    eta: np.ndarray,
    g: FrozenGenerator1D,
    ens: Ensemble,
    basis: RegressionBasis,
    trunc_R: float | np.ndarray,
    k_lo: int = 0,
    k_hi: int | None = None,
    blowup_guard: float | np.ndarray | None = None,
) -> Solve1DResult:
    """Backward regression scheme for scalar rows on nodes [k_lo, k_hi].

    eta is (N,) for one row or (N, n) for a block of n independent rows that
    share every node's regressions; trunc_R and blowup_guard are a scalar or
    one value per row, shape (n,).  Per backward step at node k (local
    index j), for every row at once:
        m_k  = Ehat[ Y_{k+1} | W_{t_k} ]
        Z_k  = Ehat[ (Y_{k+1} - m_k) dW_k^T | W_{t_k} ] / dt, row-clipped at trunc_R
        Y_k  = m_k + g(k, Z_k) dt
    The continuation of all rows is one projection of an (N, n) target and
    the martingale increments of the non-constant rows one projection of an
    (N, n_live * d) target.  The working state is the current node only, as
    a contiguous (n, N) block, so every per-row reduction reads contiguous
    memory.

    The centered martingale-increment estimator makes Z exactly zero whenever
    Y_{k+1} is constant across particles, so deterministic rows stay
    deterministic.  A row exceeding its blowup_guard (default: ten times
    ``bound_y`` of the envelope at t_{k_lo}) in sup norm aborts with
    BlowUpError at the first node reached backward; when several rows exceed
    at that node the lowest row index is reported, as ``component`` for a
    block.
    """
    M = ens.grid.M
    k_hi = M if k_hi is None else k_hi
    if not 0 <= k_lo < k_hi <= M:
        raise ValueError(f"bad window [{k_lo}, {k_hi}] for M = {M}")
    eta = np.asarray(eta, dtype=float)
    block = eta.ndim == 2
    if eta.ndim not in (1, 2) or eta.shape[0] != ens.N or eta.size == 0:
        raise ValueError(f"eta must have shape ({ens.N},) or ({ens.N}, n >= 1), got {eta.shape}")
    if not np.all(np.isfinite(eta)):
        raise ValueError("terminal data must be finite")
    N, d = ens.N, ens.d
    n = eta.shape[1] if block else 1
    radius = _per_row(trunc_R, n, "trunc_R")
    if blowup_guard is None:
        blowup_guard = 10.0 * bound_y(g.envelope, ens.grid.nodes[k_lo], g.u_norm, g.v_norm)
    guard = _per_row(blowup_guard, n, "blowup_guard")

    L = k_hi - k_lo
    dt = ens.grid.dt
    Y = np.empty((N, L + 1, n))
    Z = np.empty((N, L, n, d))
    Y[:, L, :] = eta.reshape(N, n)
    cur = np.ascontiguousarray(eta.reshape(N, n).T)   # (n, N): Y_{k+1} of every row
    hits = np.zeros(n, dtype=np.int64)

    for j in range(L - 1, -1, -1):
        k = k_lo + j
        m, _ = project(cur.T, k, ens, basis)          # (N, n)
        live = np.flatnonzero(np.ptp(cur, axis=1) != 0.0)
        if live.size == n:
            zk, clipped = _live_z(cur, m, live, k, ens, basis, radius)
        else:
            # Constant rows have a zero martingale increment: Z stays +0.0.
            zk, clipped = np.zeros((N, n, d)), 0
            if live.size:
                zk[:, live], clipped = _live_z(cur, m, live, k, ens, basis, radius)
        hits[live] += clipped
        drift = np.asarray(g.g(k, zk if block else zk[:, 0, :]), dtype=float)
        if drift.shape != ((N, n) if block else (N,)):
            raise ValueError(f"frozen generator returned shape {drift.shape} at node {k}")
        m += drift.reshape(N, n) * dt                 # Y_k
        Z[:, j] = zk
        Y[:, j] = m
        cur = np.ascontiguousarray(m.T)
        worst = np.abs(cur).max(axis=1)
        bad = np.flatnonzero(~np.isfinite(worst) | (worst > guard))
        if bad.size:
            i = int(bad[0])
            raise BlowUpError(node=k, value=float(worst[i]), guard=float(guard[i]),
                              component=i if block else None)

    if not block:
        Y, Z = Y[:, :, 0], Z[:, :, 0, :]
    return Solve1DResult(Y=Y, Z=Z, k_lo=k_lo, k_hi=k_hi, truncation_hits=int(hits.sum()),
                         row_hits=tuple(int(h) for h in hits))


def _live_z(cur, m, live, k, ens, basis, radius):
    """Regression Z at node k of the rows ``live`` of the (n, N) block cur,
    whose continuation is m (N, n): one projection of their (N, n_live * d)
    martingale targets, each row clipped in norm at its radius.  Returns Z
    (N, n_live, d) and the number of clipped particles of each row."""
    N, d = ens.N, ens.d
    targets = np.empty((live.size, d, N))
    resid = cur[live] - m.T[live]                     # (n_live, N)
    np.multiply(resid[:, None, :], ens.increments[:, k, :].T[None], out=targets)
    fit, _ = project(targets.reshape(live.size * d, N).T, k, ens, basis)
    z = fit.reshape(N, live.size, d)
    z /= ens.grid.dt
    norms = np.sqrt(_sum_of_squares(z))               # (N, n_live)
    R = np.broadcast_to(radius[live], norms.shape)
    over = norms > R
    z[over] *= (R[over] / norms[over])[:, None]
    return z, over.sum(axis=0)
