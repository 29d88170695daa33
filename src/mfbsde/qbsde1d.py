"""One-dimensional quadratic BSDE solving with explicit sup-norm bounds.

A frozen environment (the other components' fields and the mean fields) turns
one row of the system into a scalar BSDE whose generator is at most quadratic
in its own z-row.  On a window [t_lo, t_hi] that scalar equation admits
explicit bounds

    sup_t |Y_t|                        <=  bound_y
    E[ integral_t^t_hi |Z|^2 | F_t ]   <=  bound_z

read at the window start, where the a priori estimate is largest.  Both are
built from the model's growth parameters (gamma, K, delta, n, phi), the
window's horizon t_hi - t_lo, its drift budget (the integral of a over the
window plus the mean-field coupling K * sum_j |E[Z_j]|^{1+delta} dt) and the
row's terminal sup.  They fix the truncation radius of the regression Z
estimate and the blow-up guard of the backward recursion, which the caller
passes per row.

The rows of one frozen environment are independent, so ``solve_1d`` takes a
block of n rows (terminal data (N, n), fields (N, L+1, n) and (N, L, n, d);
one row is the block n = 1) and steps them backward together: each node's
two projections serve every row, and each row keeps its own truncation
radius and guard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import LOG2, c_delta_k_n
from .engine import Ensemble, RegressionBasis, _sum_of_squares, project
from .errors import BlowUpError
from .model import ModelParams

# Beyond this the square in bound_z overflows; treated as "no truncation".
_TRUNC_CAP = 1e154
# Clip radius of the regression Z estimate, in multiples of sqrt(bound_z).
_TRUNC_MULT = 3.0


def bound_y(p: ModelParams, horizon: float, budget: float, eta_bound: float,
            u_norm: float, v_norm: float) -> float:
    """A priori sup bound on the scalar solution over a window of length
    horizon, read at its start, where it is largest."""
    q = (1.0 + p.delta) / (1.0 - p.delta)
    cdkn = c_delta_k_n(p.delta, p.K, p.n)
    return (
        LOG2 / p.gamma
        + eta_bound
        + budget
        + p.phi(u_norm) * horizon
        + p.gamma**q * cdkn * v_norm ** (2.0 * q) * horizon
    )


def bound_z(p: ModelParams, horizon: float, budget: float, eta_bound: float,
            y_norm: float, u_norm: float, v_norm: float) -> float:
    """A priori bound on the conditional quadratic variation of Z over a
    window of length horizon, read at its start."""
    q = (1.0 + p.delta) / (1.0 - p.delta)
    cdkn = c_delta_k_n(p.delta, p.K, p.n)
    with np.errstate(over="ignore"):
        # saturation to inf is the honest answer for enormous y_norm
        lead = np.exp(2.0 * p.gamma * eta_bound) / p.gamma**2
        body = np.exp(2.0 * p.gamma * y_norm) / p.gamma
    total = (
        1.0
        + 2.0 * budget
        + 2.0 * p.phi(u_norm) * horizon
        + 2.0 * cdkn * v_norm ** (2.0 * q) * horizon
    )
    return float(lead + body * total)


def truncation_radius(z_bound: float) -> float:
    """Row-norm clip radius for the regression Z estimate.

    _TRUNC_MULT times sqrt(z_bound): the true Z cannot concentrate more
    quadratic variation than z_bound in any remaining window, so rows far
    outside that scale are regression noise.
    """
    if z_bound < 0.0 or not np.isfinite(z_bound):
        return _TRUNC_CAP
    return float(min(_TRUNC_MULT * np.sqrt(z_bound), _TRUNC_CAP))


@dataclass(eq=False)
class Solve1DResult:
    Y: np.ndarray                     # (N, L+1, n)
    Z: np.ndarray                     # (N, L, n, d)
    truncation_hits: int              # total over the rows
    row_hits: tuple[int, ...]         # per row


def _per_row(value, n: int, name: str) -> np.ndarray:
    """One value per row, as an (n,) float array."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    return arr


def solve_1d(
    eta: np.ndarray,
    drift: Callable[[int, np.ndarray], np.ndarray],
    ens: Ensemble,
    basis: RegressionBasis,
    trunc_R: np.ndarray,
    blowup_guard: np.ndarray,
    k_lo: int = 0,
    k_hi: int | None = None,
) -> Solve1DResult:
    """Backward regression scheme for a block of scalar rows on nodes [k_lo, k_hi].

    eta is (N, n): the terminal data of n independent rows that share every
    node's regressions.  drift(k, Z) maps the rows' Z at node k, (N, n, d),
    to their frozen generator values (N, n), row i depending only on
    Z[:, i].  trunc_R and blowup_guard hold one value per row, shape (n,).
    Per backward step at node k (local index j), for every row at once:
        m_k  = Ehat[ Y_{k+1} | W_{t_k} ]
        Z_k  = Ehat[ (Y_{k+1} - m_k) dW_k^T | W_{t_k} ] / dt, row-clipped at trunc_R
        Y_k  = m_k + drift(k, Z_k) dt
    The continuation of all rows is one projection of an (N, n) target and
    the martingale increments of the non-constant rows one projection of an
    (N, n_live * d) target.  The working state is the current node only, as
    a contiguous (n, N) block, so every per-row reduction reads contiguous
    memory.

    The centered martingale-increment estimator makes Z exactly zero whenever
    Y_{k+1} is constant across particles (the continuation projection flags
    such rows), so deterministic rows stay deterministic.  A row exceeding
    its blowup_guard in sup norm aborts with BlowUpError at the first node
    reached backward; when several rows exceed at that node the lowest row
    index is reported as ``component``.
    """
    M = ens.grid.M
    k_hi = M if k_hi is None else k_hi
    if not 0 <= k_lo < k_hi <= M:
        raise ValueError(f"bad window [{k_lo}, {k_hi}] for M = {M}")
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 2 or eta.shape[0] != ens.N or eta.size == 0:
        raise ValueError(f"eta must have shape ({ens.N}, n >= 1), got {eta.shape}")
    if not np.all(np.isfinite(eta)):
        raise ValueError("terminal data must be finite")
    N, d = ens.N, ens.d
    n = eta.shape[1]
    radius = _per_row(trunc_R, n, "trunc_R")
    guard = _per_row(blowup_guard, n, "blowup_guard")

    L = k_hi - k_lo
    dt = ens.grid.dt
    Y = np.empty((N, L + 1, n))
    Z = np.empty((N, L, n, d))
    Y[:, L, :] = eta
    cur = np.ascontiguousarray(eta.T)                 # (n, N): Y_{k+1} of every row
    hits = np.zeros(n, dtype=np.int64)

    for j in range(L - 1, -1, -1):
        k = k_lo + j
        m, info = project(cur.T, k, ens, basis)       # (N, n)
        live = np.flatnonzero(~info.constant)
        if live.size == n:
            zk, clipped = _live_z(cur, m, live, k, ens, basis, radius)
        else:
            # Constant rows have a zero martingale increment: Z stays +0.0.
            zk, clipped = np.zeros((N, n, d)), 0
            if live.size:
                zk[:, live], clipped = _live_z(cur, m, live, k, ens, basis, radius)
        hits[live] += clipped
        g = np.asarray(drift(k, zk), dtype=float)
        if g.shape != (N, n):
            raise ValueError(f"frozen generator returned shape {g.shape} at node {k}")
        m += g * dt                                   # Y_k
        Z[:, j] = zk
        Y[:, j] = m
        cur = np.ascontiguousarray(m.T)
        worst = np.abs(cur).max(axis=1)
        bad = np.flatnonzero(~np.isfinite(worst) | (worst > guard))
        if bad.size:
            i = int(bad[0])
            raise BlowUpError(node=k, value=float(worst[i]), guard=float(guard[i]),
                              component=i)

    return Solve1DResult(Y=Y, Z=Z, truncation_hits=int(hits.sum()),
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
