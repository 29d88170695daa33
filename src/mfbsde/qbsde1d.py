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
projections serve every row, and each row keeps its own truncation radius
and guard.  The pass also measures what it produces while each node is at
hand: the sup proxy of Y at each node and the BMO profile of Z, the same
numbers ``engine.sup_norm_estimate`` and ``engine.bmo_profile`` give for the
result.  It writes that result over the caller's pair, means included, one
node behind the backward pass, and measures how far each slice moved in
the slice itself, before the new values go in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import LOG2, c_delta_k_n
from .engine import (
    Ensemble,
    NodeRegression,
    ProcessPair,
    RegressionBasis,
    _node_mean,
    _sum_of_squares,
    _tail_step,
    sup_norm_estimate,
)
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
    row_hits: tuple[int, ...]         # clipped particles of each row's Z, per row
    diff_y: float                     # max |new - old| over pair.Y
    diff_z: float                     # max |new - old| over pair.Z
    sup_nodes: np.ndarray             # sup_norm_estimate of each node of Y, (L+1,)
    bmo_nodes: np.ndarray             # bmo_profile of (Y, Z), (L+1,)

    @property
    def truncation_hits(self) -> int:
        return sum(self.row_hits)


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
    pair: ProcessPair,
    k_lo: int = 0,
) -> Solve1DResult:
    """Backward regression scheme for a block of scalar rows on the L+1 nodes
    k_lo..k_hi of ``pair``, k_hi = k_lo + L.

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

    The result overwrites the pair, Y (N, L+1, n) and Z (N, L, n, d), each
    node block with its mean, bitwise the index-order ``_node_mean`` of the
    block: Z_j and mean_Z[j] as soon as drift(k_lo + j, .) returns, Y_{j+1}
    and mean_Y[j+1] only after that same call (the terminal node after node
    L-1, node 0 after the loop).  So a drift call at local node j may read the pair at
    nodes j and j+1, means included, and sees their old contents.  Each
    overwrite first turns its slice into |old - new|, takes the max and then
    writes the new block over it, with no node-sized temporary: ``diff_y``
    and ``diff_z`` are bitwise the full-array sup distances between the old
    and new contents.  eta may be a view of the pair (it is copied first).
    After a BlowUpError the pair's contents are undefined.

    The pass measures its result as it goes: ``sup_nodes`` is the (L+1,)
    largest row norm of Y at each node (the terminal one included), and
    ``bmo_nodes`` the (L+1,) BMO profile, whose tail
    sum_{i >= j} |Z_i|^2 dt is added and projected at node j.  Each node has
    one ``NodeRegression``, so its design is built once for the
    continuation, the Z targets and the tail; every target keeps a
    projection of its own.

    The centered martingale-increment estimator makes Z exactly zero whenever
    Y_{k+1} is constant across particles (the continuation projection flags
    such rows), so deterministic rows stay deterministic.  A row exceeding
    its blowup_guard in sup norm aborts with BlowUpError at the first node
    reached backward; when several rows exceed at that node the lowest row
    index is reported as ``component``.
    """
    M = ens.grid.M
    L = pair.Z.shape[1]
    if not 0 <= k_lo < k_lo + L <= M:
        raise ValueError(f"bad window [{k_lo}, {k_lo + L}] for M = {M}")
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 2 or eta.shape[0] != ens.N or eta.size == 0:
        raise ValueError(f"eta must have shape ({ens.N}, n >= 1), got {eta.shape}")
    if not np.all(np.isfinite(eta)):
        raise ValueError("terminal data must be finite")
    N, d = ens.N, ens.d
    n = eta.shape[1]
    radius = _per_row(trunc_R, n, "trunc_R")
    guard = _per_row(blowup_guard, n, "blowup_guard")

    fields = {"Y": (N, L + 1, n), "Z": (N, L, n, d), "mean_Y": (L + 1, n), "mean_Z": (L, n, d)}
    for name, shape in fields.items():
        arr = getattr(pair, name)
        if arr.shape != shape:
            raise ValueError(f"pair.{name} must have shape {shape}, got {arr.shape}")
        if not arr.flags.writeable:
            raise ValueError(f"solve_1d overwrites its pair in place; pair.{name} must be writable")
    if np.may_share_memory(eta, pair.Y):              # the terminal write reads eta after
        eta = eta.copy()                              # turning its slot into a diff
    dt = ens.grid.dt
    y_next = eta                                      # Y_{j+1}, (N, n), not yet written
    cur = np.ascontiguousarray(eta.T)                 # (n, N): Y_{k+1} of every row
    hits = np.zeros(n, dtype=np.int64)
    diff_y = diff_z = 0.0
    sup_nodes = np.zeros(L + 1)
    sup_nodes[L] = sup_norm_estimate(eta)
    tail = np.zeros(N)                                # sum_{i >= j} |Z_i|^2 dt
    bmo_nodes = np.zeros(L + 1)

    for j in range(L - 1, -1, -1):
        k = k_lo + j
        op = NodeRegression(ens, basis, k)
        m, constant = op.project(cur.T)               # (N, n)
        live = np.flatnonzero(~constant)
        if live.size == n:
            zk, clipped = _live_z(cur, m, live, op, radius)
        else:
            # Constant rows have a zero martingale increment: Z stays +0.0.
            zk, clipped = np.zeros((N, n, d)), 0
            if live.size:
                zk[:, live], clipped = _live_z(cur, m, live, op, radius)
        hits[live] += clipped
        g = np.asarray(drift(k, zk), dtype=float)
        if g.shape != (N, n):
            raise ValueError(f"frozen generator returned shape {g.shape} at node {k}")
        diff_z = max(diff_z, _overwrite(pair.Z, pair.mean_Z, j, zk))
        diff_y = max(diff_y, _overwrite(pair.Y, pair.mean_Y, j + 1, y_next))
        m += g * dt                                   # Y_k
        y_next = m
        cur = np.ascontiguousarray(m.T)
        worst = np.abs(cur).max(axis=1)
        bad = np.flatnonzero(~np.isfinite(worst) | (worst > guard))
        if bad.size:
            i = int(bad[0])
            raise BlowUpError(node=k, value=float(worst[i]), guard=float(guard[i]),
                              component=i)
        sup_nodes[j] = sup_norm_estimate(m)
        bmo_nodes[j] = _tail_step(tail, zk, dt, op)

    diff_y = max(diff_y, _overwrite(pair.Y, pair.mean_Y, 0, y_next))
    return Solve1DResult(row_hits=tuple(int(h) for h in hits), diff_y=diff_y, diff_z=diff_z,
                         sup_nodes=sup_nodes, bmo_nodes=bmo_nodes)


def _overwrite(fld: np.ndarray, mean: np.ndarray, j: int, new: np.ndarray) -> float:
    """Write new and its mean over node j; return the largest |new - old| there,
    measured in the slot itself (|old - new| is bitwise |new - old|)."""
    slot = fld[:, j]
    np.subtract(slot, new, out=slot)
    np.abs(slot, out=slot)
    diff = float(slot.max())
    slot[...] = new
    mean[j] = _node_mean(new)
    return diff


def _live_z(cur, m, live, op, radius):
    """Regression Z at the node of ``op`` of the rows ``live`` of the (n, N)
    block cur, whose continuation is m (N, n): one projection of their
    (N, n_live * d) martingale targets with that node's operator, each row
    clipped in norm at its radius.  The clip goes one row at a time: the
    row's norms are compared with its radius, the hits counted, and only
    the hit particles scaled back onto the radius.  Returns Z
    (N, n_live, d) and the number of clipped particles of each row,
    (n_live,) int64."""
    ens, k = op.ens, op.k
    N, d = ens.N, ens.d
    targets = np.empty((live.size, d, N))
    resid = cur - m.T if live.size == len(cur) else cur[live] - m.T[live]  # (n_live, N)
    np.multiply(resid[:, None, :], ens.increments[:, k, :].T[None], out=targets)
    fit, _ = op.project(targets.reshape(live.size * d, N).T)
    z = fit.reshape(N, live.size, d)
    z /= ens.grid.dt
    norms = np.sqrt(_sum_of_squares(z))               # (N, n_live)
    hits = np.zeros(live.size, dtype=np.int64)
    for r, i in enumerate(live):
        over = norms[:, r] > radius[i]
        hits[r] = np.count_nonzero(over)
        if hits[r]:
            z[over, r] *= (radius[i] / norms[over, r])[:, None]
    return z, hits
