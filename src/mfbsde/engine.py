"""Ensemble simulation and regression conditional expectations.

Everything here is a pure function of its inputs and the seed.  Conditional
expectations are least-squares projections of particle values onto a basis of
functions of the Markovian state W_{t_k}; at the root node (k = 0) the
projection degenerates to the plain sample mean.  Constant targets bypass the
solver entirely so that deterministic fields are reproduced bitwise.

The projection at a node is one fixed linear operator per (ensemble, basis,
node), ``NodeRegression``.  Its factor -- the p x p triangular R of a thin QR
of the design matrix, with the design's rank and condition number -- is
built on first use and cached on the ensemble, so every later operator at
that node (every sweep and window) only rebuilds the design once.  A
backward pass builds one operator per node, which holds the N x p design
while the pass is at that node and serves all of its projections (the
continuation, the Z targets and the BMO tail) with two triangular solves
each; the fitted values equal those of a fresh ``lstsq`` to round-off.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

log = logging.getLogger(__name__)

# Attached to every report that quotes sup/BMO figures.
PROXY_CAVEAT = (
    "sup_abs_Y and bmo values are discrete ensemble proxies of the S-infinity "
    "and BMO norms (finite particles, finite regression basis, finite grid); "
    "they can under-estimate the continuous-time norms."
)


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_M = T."""

    M: int
    T: float
    dt: float
    nodes: np.ndarray = field(repr=False)

    @classmethod
    def make(cls, M: int, T: float) -> "TimeGrid":
        if M < 1:
            raise ValueError(f"M must be >= 1, got {M}")
        if T <= 0.0:
            raise ValueError(f"T must be positive, got {T}")
        dt = T / M
        nodes = np.linspace(0.0, T, M + 1)
        return cls(M=M, T=float(T), dt=float(dt), nodes=nodes)


@dataclass(frozen=True, eq=False)
class Ensemble:
    """N Brownian paths on a grid: increments (N, M, d) and cumulative (N, M+1, d).

    ``factors`` caches the regression factor of each (basis, node) that a
    ``NodeRegression`` has used on these paths; it starts empty.
    """

    grid: TimeGrid
    N: int
    d: int
    seed: int
    increments: np.ndarray = field(repr=False)
    cumulative: np.ndarray = field(repr=False)
    factors: dict = field(default_factory=dict, init=False, repr=False)


def generate_ensemble(grid: TimeGrid, N: int, d: int, seed: int) -> Ensemble:
    """Draw N paths of a d-dimensional Brownian motion on the grid, reproducibly."""
    if N < 2:
        raise ValueError(f"need at least 2 particles for regression, got N = {N}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    increments = rng.standard_normal((N, grid.M, d)) * np.sqrt(grid.dt)
    cumulative = np.zeros((N, grid.M + 1, d))
    np.cumsum(increments, axis=1, out=cumulative[:, 1:, :])
    return Ensemble(grid=grid, N=N, d=d, seed=seed, increments=increments, cumulative=cumulative)


@dataclass(frozen=True)
class RegressionBasis:
    """Design-matrix recipe for state regression: all monomials of total
    degree <= degree in the d state coordinates."""

    degree: int = 3

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")

    def design(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        N, d = states.shape
        # Each monomial column is its parent column (the combination minus
        # its last coordinate) times that coordinate, in place; as 1 * x == x,
        # it is bitwise the product 1 * s_a * s_b * ... taken left to right.
        combos = [
            combo
            for deg in range(1, self.degree + 1)
            for combo in itertools.combinations_with_replacement(range(d), deg)
        ]
        column = {}
        X = np.empty((N, len(combos) + 1), order="F")
        X[:, 0] = 1.0
        for idx, combo in enumerate(combos, start=1):
            column[combo] = idx
            if len(combo) == 1:
                X[:, idx] = states[:, combo[0]]
            else:
                np.multiply(X[:, column[combo[:-1]]], X[:, column[combo[-1:]]],
                            out=X[:, idx])
        return X


def default_basis(d: int) -> RegressionBasis:
    """House default: cubic polynomials for a scalar state, quadratic tensor above."""
    return RegressionBasis(degree=3 if d == 1 else 2)


@dataclass(frozen=True, eq=False)
class RegressionInfo:
    cond: float
    fallback: bool
    constant: np.ndarray    # (m,) bool: target columns reproduced bitwise as constants


@dataclass(frozen=True, eq=False)
class RegressionFactor:
    """The cached operator of one (basis, node): R of a thin QR of the design
    X (so R^T R = X^T X), with the rank and condition number of X read off
    the singular values of R under ``lstsq``'s default cut-off."""

    R: np.ndarray = field(repr=False)
    rank: int
    cond: float

    @property
    def full_rank(self) -> bool:
        return self.rank == self.R.shape[1]


def _factorize(X: np.ndarray) -> RegressionFactor:
    """Factor a design matrix; singular values at or below
    eps * max(N, p) * sigma_max count as zero, as in ``np.linalg.lstsq``."""
    R = np.linalg.qr(X, mode="r")
    sv = np.linalg.svd(R, compute_uv=False)
    cut = np.finfo(float).eps * max(X.shape) * sv[0]
    rank = int((sv > cut).sum())
    full = rank == X.shape[1]
    cond = float(sv[0] / sv[-1]) if full else float("inf")
    return RegressionFactor(R=R, rank=rank, cond=cond)


def regression_summary(ens: Ensemble, basis: RegressionBasis) -> dict:
    """What the cached factors of ``basis`` on ``ens`` say about conditioning:
    nodes factored, max condition number over the full-rank ones (None when
    there are none) and the rank-deficient nodes, which fall back to the mean."""
    mine = {k: f for (b, k), f in ens.factors.items() if b == basis}
    conds = [f.cond for f in mine.values() if f.full_rank]
    return {
        "nodes_factored": len(mine),
        "max_cond": max(conds) if conds else None,
        "rank_deficient_nodes": sorted(k for k, f in mine.items() if not f.full_rank),
    }


class NodeRegression:
    """The regression operator of one (ensemble, basis, node): least-squares
    projection onto basis functions of W_{t_k}.

    A backward pass builds one per node and makes every projection at that
    node with it.  The N x p design is built on the first target that needs
    it (one with a non-constant column, at a non-root node) and is kept for
    the operator's life, and its factor is looked up in, or added to,
    ``ens.factors``; each projection is then two triangular solves.
    """

    def __init__(self, ens: Ensemble, basis: RegressionBasis, k: int):
        if not 0 <= k <= ens.grid.M:
            raise ValueError(f"node index {k} outside grid 0..{ens.grid.M}")
        self.ens, self.basis, self.k = ens, basis, k
        self._X: np.ndarray | None = None
        self._factor: RegressionFactor | None = None

    def _design(self) -> tuple[np.ndarray, RegressionFactor]:
        if self._X is None:
            ens, basis, k = self.ens, self.basis, self.k
            self._X = basis.design(ens.cumulative[:, k, :])
            factor = ens.factors.get((basis, k))
            if factor is None:
                factor = ens.factors[(basis, k)] = _factorize(self._X)
            self._factor = factor
        return self._X, self._factor

    def project(self, values: np.ndarray):
        """Fitted values of (N,) values, or of the m targets of (N, m) values.

        Returns (fitted, RegressionInfo).  Constant columns are reproduced
        bitwise and flagged in ``info.constant`` (one flag per target column,
        a single one for (N,) values); k = 0 yields the sample mean; a
        rank-deficient design falls back to the sample mean with a logged
        warning.
        """
        vals = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("regression targets must be finite")
        single = vals.ndim == 1
        V = vals[:, None] if single else vals
        if V.shape[0] != self.ens.N:
            raise ValueError(f"{V.shape[0]} values for {self.ens.N} particles")

        const_cols = np.ptp(V, axis=0) == 0.0
        if const_cols.all():
            out = V.copy()
            return (out[:, 0] if single else out), RegressionInfo(1.0, False, const_cols)

        def _mean_fallback(cond, flag):
            out = np.broadcast_to(V.mean(axis=0), V.shape).copy()
            out[:, const_cols] = V[0:1, const_cols]
            return (out[:, 0] if single else out), RegressionInfo(cond, flag, const_cols)

        if self.k == 0:
            return _mean_fallback(1.0, False)

        X, factor = self._design()
        if not factor.full_rank:
            log.warning(
                "rank-deficient regression design at node %d (rank %d < %d); "
                "falling back to the sample mean",
                self.k, factor.rank, X.shape[1],
            )
            return _mean_fallback(float("inf"), True)
        # Normal equations R^T R coef = X^T V, by two triangular solves.
        coef = solve_triangular(factor.R, X.T @ V, trans="T")
        coef = solve_triangular(factor.R, coef, overwrite_b=True)
        out = X @ coef
        out[:, const_cols] = V[0:1, const_cols]
        return (out[:, 0] if single else out), RegressionInfo(factor.cond, False, const_cols)


@dataclass(eq=False)
class ProcessPair:
    """Solution fields on L+1 consecutive grid nodes: Y (N, L+1, n) and
    Z (N, L, n, d), with their per-node particle means carried alongside.
    A solve fills one pair on all M+1 grid nodes in place, each window on
    its ``window``; after a BlowUpError its contents are undefined."""

    Y: np.ndarray
    Z: np.ndarray
    mean_Y: np.ndarray
    mean_Z: np.ndarray

    @classmethod
    def from_fields(cls, Y: np.ndarray, Z: np.ndarray) -> "ProcessPair":
        Y = np.asarray(Y, dtype=float)
        Z = np.asarray(Z, dtype=float)
        if Y.ndim != 3 or Z.ndim != 4:
            raise ValueError(f"expected Y (N, L+1, n) and Z (N, L, n, d), got {Y.shape}, {Z.shape}")
        if Z.shape[0] != Y.shape[0] or Z.shape[1] != Y.shape[1] - 1 or Z.shape[2] != Y.shape[2]:
            raise ValueError(f"inconsistent field shapes {Y.shape}, {Z.shape}")
        return cls(Y=Y, Z=Z, mean_Y=Y.mean(axis=0), mean_Z=Z.mean(axis=0))

    @classmethod
    def empty(cls, N: int, L: int, n: int, d: int) -> "ProcessPair":
        """Uninitialised storage on L+1 nodes, for a solve to fill in place."""
        return cls(Y=np.empty((N, L + 1, n)), Z=np.empty((N, L, n, d)),
                   mean_Y=np.empty((L + 1, n)), mean_Z=np.empty((L, n, d)))

    def window(self, k_lo: int, k_hi: int) -> "ProcessPair":
        """Views of nodes k_lo..k_hi: neighbouring windows share a seam node."""
        return ProcessPair(Y=self.Y[:, k_lo : k_hi + 1], Z=self.Z[:, k_lo:k_hi],
                           mean_Y=self.mean_Y[k_lo : k_hi + 1], mean_Z=self.mean_Z[k_lo:k_hi])

    def refresh_means(self) -> None:
        """Recompute mean_Y and mean_Z from Y and Z, into their storage."""
        np.mean(self.Y, axis=0, out=self.mean_Y)
        np.mean(self.Z, axis=0, out=self.mean_Z)


def _sum_of_squares(a: np.ndarray) -> np.ndarray:
    """Sum of squares over the last axis, added left to right.

    numpy adds fewer than 8 terms sequentially too, so for such axes this is
    bitwise ``(a * a).sum(axis=-1)``, without the per-element cost of a
    reduction over a short axis.
    """
    out = a[..., 0] * a[..., 0]
    for c in range(1, a.shape[-1]):
        out += a[..., c] * a[..., c]
    return out


def sup_norm_estimate(Y: np.ndarray) -> float:
    """Max over every particle and node of the Euclidean norm of Y's last
    axis: Y is (..., n), one node's (N, n) block or a pair's (N, L+1, n)."""
    return float(np.sqrt((Y * Y).sum(axis=-1)).max())


def _tail_step(tail: np.ndarray, z: np.ndarray, dt: float, op: NodeRegression) -> float:
    """One backward step of the BMO tail at the node of ``op``: add the
    node's |Z|^2 dt, z being (N, n, d), to the running (N,) tail in place,
    project it and return the square root of its worst-particle estimate."""
    tail += _sum_of_squares(z.reshape(z.shape[0], -1)) * dt
    est, _ = op.project(tail)
    return math.sqrt(max(float(est.max()), 0.0))


def bmo_profile(pair: ProcessPair, ens: Ensemble, basis: RegressionBasis, k_lo: int = 0) -> np.ndarray:
    """Per-node remaining quadratic variation proxy of Z, (L+1,), for a pair
    on the L+1 grid nodes k_lo..k_lo+L.

    Entry j < L is the square root of the worst-particle regression estimate
    of E[ sum_{j <= i < L} |Z_i|^2 dt | W_{t_{k_lo+j}} ]; entry L is zero.
    The discrete BMO proxy of Z on those nodes is the profile's max.
    ``qbsde1d.solve_1d`` takes the same steps inside its backward pass.
    """
    L = pair.Z.shape[1]
    if not 0 <= k_lo <= ens.grid.M - L:
        raise ValueError(f"{L} steps from node {k_lo} overrun the grid 0..{ens.grid.M}")
    tail = np.zeros(ens.N)
    out = np.zeros(L + 1)
    for j in range(L - 1, -1, -1):
        out[j] = _tail_step(tail, pair.Z[:, j], ens.grid.dt, NodeRegression(ens, basis, k_lo + j))
    return out
