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
continuation, the Z targets and the BMO tail) with two LAPACK ``dtrtrs``
solves each on the cached factor, after one max/min pass over the targets
that checks them finite and flags their constant columns; the fitted values
equal those of a fresh ``lstsq`` to round-off.

``dtrtrs`` comes from scipy's compiled LAPACK wrapper ``scipy.linalg._flapack``,
loaded by itself: importing it through ``scipy.linalg`` would run that
package's init, which loads the whole of ``scipy.linalg`` and, through
scipy's array-API layer, ``numpy.f2py``, ``numpy.testing`` and ``numpy.ma``,
at more than the cost of all the rest of ``import mfbsde``.  It is the same
``dtrtrs`` that ``scipy.linalg.lapack`` uses, whichever of the two loads
first.
"""

from __future__ import annotations

import itertools
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np
import numpy.random  # noqa: F401  -- lazy in numpy; load it here, not in the first solve
import scipy  # its init runs the distributor hook that may locate scipy's bundled LAPACK

log = logging.getLogger(__name__)


def _load_flapack():
    """``dtrtrs`` of scipy's LAPACK extension, loaded without ``scipy.linalg``'s
    package init.  The ``sys.modules`` entry the load makes is dropped, so a
    later ``scipy.linalg`` import loads the extension itself and sets its
    ``_flapack`` attribute; its ``dtrtrs`` is this same object."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name].dtrtrs
    where = os.path.join(scipy.__path__[0], "linalg")
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no compiled _flapack extension in {where}", name=name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module.dtrtrs


dtrtrs = _load_flapack()

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
        if not (math.isfinite(T) and T > 0.0):
            raise ValueError(f"T must be finite and positive, got {T}")
        dt = T / M
        nodes = np.linspace(0.0, T, M + 1)
        return cls(M=M, T=float(T), dt=float(dt), nodes=nodes)


_DRAW_CHUNK = 256      # particles per standard_normal draw of generate_ensemble
_CHECKPOINT_EVERY = 10  # nodes between the stored path checkpoints of an Ensemble


def _advance(prev: np.ndarray, increments: np.ndarray, k: int, out: np.ndarray) -> None:
    """Write node k of the paths into ``out`` from node k-1 ``prev``, in
    ``np.cumsum``'s order: node 1 is the first increment itself, and node k
    is node k-1 plus increment k-1.  ``increments`` is (N, M, d)."""
    if k == 1:
        np.copyto(out, increments[:, 0])
    else:
        np.add(prev, increments[:, k - 1], out=out)


@dataclass(frozen=True, eq=False, init=False)
class Ensemble:
    """N Brownian paths on a grid: increments (N, M, d) and path checkpoints
    (N, M // c + 1, d), c = ``_CHECKPOINT_EVERY``, the states at nodes 0, c, 2c, ...

    The full (N, M+1, d) path array is never stored.  ``node(k)`` serves the
    states W_{t_k} of one node, rebuilding the block of nodes between two
    checkpoints forward from the first with ``generate_ensemble``'s own adds,
    so every node is bitwise the running sum.  The block stays cached until
    another block is rebuilt or a pass walks out through the block's far end,
    so a backward or forward pass costs one N x d add per node and leaves no
    block behind.  ``cumulative`` allocates and returns the full path array
    on every access.  Nothing in the package reads it or passes it to the
    constructor; both stay for callers outside the solve.

    Built by keyword, an Ensemble takes its paths either in full
    (``cumulative``, which must be bitwise the running sums of the increments,
    as ``np.cumsum`` forms them, from a zero node 0; a read-only copy of its
    checkpoint nodes is kept) or as ``checkpoints`` (the form
    ``generate_ensemble`` and ``dataclasses.replace`` pass, taken as given).
    Arrays may have any layout; ``generate_ensemble`` stores them node-major
    and these are views, so each node's (N, d) block is contiguous,
    ``.tobytes()`` gives the logical bytes, and particle-major memory takes
    an explicit copy.
    ``factors`` caches the regression factor of each (basis, node) a
    ``NodeRegression`` used; it starts empty.
    """

    grid: TimeGrid
    N: int
    d: int
    seed: int
    increments: np.ndarray = field(repr=False)
    checkpoints: np.ndarray = field(repr=False)
    factors: dict = field(init=False, repr=False)

    def __init__(self, grid: TimeGrid, N: int, d: int, seed: int, increments: np.ndarray,
                 cumulative: np.ndarray | None = None, checkpoints: np.ndarray | None = None):
        if (cumulative is None) == (checkpoints is None):
            raise ValueError("give the paths either as cumulative or as checkpoints")
        paths = (("cumulative", cumulative, grid.M + 1) if checkpoints is None
                 else ("checkpoints", checkpoints, grid.M // _CHECKPOINT_EVERY + 1))
        for name, array, nodes in (("increments", increments, grid.M), paths):
            if np.shape(array) != (N, nodes, d):
                raise ValueError(f"{name} must have shape {(N, nodes, d)}, got {np.shape(array)}")
        if checkpoints is None:
            checkpoints = _checkpoints_of(cumulative, increments)
        stored = dict(grid=grid, N=N, d=d, seed=seed, increments=increments,
                      checkpoints=checkpoints, factors={}, _block=(None, None, None))
        for name, value in stored.items():
            object.__setattr__(self, name, value)

    def node(self, k: int) -> np.ndarray:
        """The (N, d) block of W_{t_k}: a checkpoint, or a read-only node of
        the block rebuilt from the checkpoint before it.  A block is never
        overwritten, so a node held across later calls stays valid."""
        if not 0 <= k <= self.grid.M:
            raise ValueError(f"node index {k} outside grid 0..{self.grid.M}")
        b, r = divmod(k, _CHECKPOINT_EVERY)
        if r == 0:
            return self.checkpoints[:, b]
        cached, block, last = self._block
        if cached != b:
            lo = b * _CHECKPOINT_EVERY
            block = np.empty((min(_CHECKPOINT_EVERY - 1, self.grid.M - lo), self.N, self.d))
            prev = self.checkpoints[:, b]
            for j in range(len(block)):
                _advance(prev, self.increments, lo + 1 + j, block[j])
                prev = block[j]
            block.flags.writeable = False
            last = None
        # A pass that steps onto the block's first node going down, or its
        # last going up, is leaving the block: the cache lets it go.
        leaving = last is not None and abs(k - last) == 1 and r in (1, len(block))
        object.__setattr__(self, "_block", (None, None, None) if leaving else (b, block, k))
        return block[r - 1]

    @property
    def cumulative(self) -> np.ndarray:
        """The full (N, M+1, d) path array, node-major; allocated anew on every access."""
        paths = np.empty((self.grid.M + 1, self.N, self.d))
        paths[0] = self.checkpoints[:, 0]
        for k in range(1, self.grid.M + 1):
            _advance(paths[k - 1], self.increments, k, paths[k])
        return paths.swapaxes(0, 1)


def _checkpoints_of(cumulative: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """The checkpoint nodes of full paths, copied node-major, after checking
    that node 0 is zero and every other node is bitwise the running sum."""
    N, nodes, d = np.shape(cumulative)
    given = np.asarray(cumulative)
    wrong = "cumulative must be the running sums of increments from zero"
    if np.any(given[:, 0]):
        raise ValueError(f"{wrong}: node 0 is not zero")
    node = np.empty((N, d))
    for k in range(1, nodes):
        _advance(node, increments, k, node)
        if not np.array_equal(node.view(np.int64), np.asarray(given[:, k], dtype=float).view(np.int64)):
            raise ValueError(f"{wrong}: node {k} differs")
    checkpoints = np.ascontiguousarray(given[:, ::_CHECKPOINT_EVERY].swapaxes(0, 1), dtype=float)
    checkpoints.flags.writeable = False
    return checkpoints.swapaxes(0, 1)


def generate_ensemble(grid: TimeGrid, N: int, d: int, seed: int) -> Ensemble:
    """Draw N paths of a d-dimensional Brownian motion on the grid, reproducibly:
    bitwise those of one (N, M, d) draw, drawn in particle chunks and stored
    node-major, with the paths kept at their checkpoint nodes only."""
    if N < 2:
        raise ValueError(f"need at least 2 particles for regression, got N = {N}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    increments = np.empty((grid.M, N, d))
    draw = np.empty((min(N, _DRAW_CHUNK), grid.M, d))
    for lo in range(0, N, _DRAW_CHUNK):
        part = draw[: min(_DRAW_CHUNK, N - lo)]
        rng.standard_normal(out=part)
        part *= np.sqrt(grid.dt)
        increments[:, lo : lo + len(part)] = part.swapaxes(0, 1)
    increments = increments.swapaxes(0, 1)
    checkpoints = np.zeros((grid.M // _CHECKPOINT_EVERY + 1, N, d))
    node = np.zeros((N, d))
    for k in range(1, grid.M + 1):
        _advance(node, increments, k, node)
        if k % _CHECKPOINT_EVERY == 0:
            checkpoints[k // _CHECKPOINT_EVERY] = node
    checkpoints.flags.writeable = False
    return Ensemble(grid=grid, N=N, d=d, seed=seed, increments=increments,
                    checkpoints=checkpoints.swapaxes(0, 1))


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

    def solve(self, B: np.ndarray, trans: int) -> np.ndarray:
        """R^T x = B (trans=0) or R x = B (trans=1) for a finite p x m B, by
        ``dtrtrs`` on the lower triangle R.T (F-ordered, so read without a
        copy), overwriting B where its layout allows: the very call
        ``scipy.linalg.solve_triangular(R, B, trans=1 - trans)`` makes for a
        C-ordered R, without its per-call checks and wrappers, and the same
        ``_flapack.dtrtrs`` object, loaded without ``scipy.linalg``."""
        x, info = dtrtrs(self.R.T, B, lower=1, trans=trans, overwrite_b=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"singular matrix: resolution failed at diagonal {info - 1}")
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
        return x


def _factorize(X: np.ndarray) -> RegressionFactor:
    """Factor a design matrix; singular values at or below
    eps * max(N, p) * sigma_max count as zero, as in ``np.linalg.lstsq``.
    A design whose R is not finite is refused here, so the solves on the
    cached factor need not check it again."""
    R = np.linalg.qr(X, mode="r")                  # C-ordered, so R.T is F-ordered
    if not np.isfinite(R).all():
        raise ValueError("regression design must be finite")
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
            self._X = basis.design(ens.node(k))
            factor = ens.factors.get((basis, k))
            if factor is None:
                factor = ens.factors[(basis, k)] = _factorize(self._X)
            self._factor = factor
        return self._X, self._factor

    def project(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fitted values of (N,) values, or of the m targets of (N, m) values.

        Returns (fitted, constant), ``constant`` the (m,) bool mask of the
        target columns reproduced bitwise as constants (a single flag for
        (N,) values).  k = 0 yields the sample mean; a rank-deficient design
        falls back to the sample mean with a logged warning, and its rank
        and condition number stay on the cached factor.
        """
        vals = np.asarray(values, dtype=float)
        single = vals.ndim == 1
        V = vals[:, None] if single else vals
        if V.shape[0] != self.ens.N:
            raise ValueError(f"{V.shape[0]} values for {self.ens.N} particles")
        # One max/min pass: NaN propagates into both and +-inf lands in one,
        # so the targets are finite exactly when both are; hi - lo is np.ptp.
        hi, lo = V.max(axis=0), V.min(axis=0)
        if not (np.isfinite(hi).all() and np.isfinite(lo).all()):
            raise ValueError("regression targets must be finite")
        constant = hi - lo == 0.0
        if constant.all():
            out = V.copy()
        else:
            out = self._fit(V)
            out[:, constant] = V[0:1, constant]
        return (out[:, 0] if single else out), constant

    def _fit(self, V: np.ndarray) -> np.ndarray:
        """Least-squares fitted values of the (N, m) targets V, or their
        sample mean at the root node and on a rank-deficient design."""
        if self.k > 0:
            X, factor = self._design()
            if factor.full_rank:
                # Normal equations R^T R coef = X^T V, by two triangular solves.
                rhs = X.T @ V
                if not np.isfinite(rhs).all():
                    raise ValueError("regression normal equations overflow: X^T V is not finite")
                return X @ factor.solve(factor.solve(rhs, trans=0), trans=1)
            log.warning(
                "rank-deficient regression design at node %d (rank %d < %d); "
                "falling back to the sample mean",
                self.k, factor.rank, X.shape[1],
            )
        return np.broadcast_to(V.mean(axis=0), V.shape).copy()


@dataclass(eq=False)
class ProcessPair:
    """Solution fields on L+1 consecutive grid nodes: Y (N, L+1, n) and
    Z (N, L, n, d), with their per-node particle means carried alongside.
    A solve fills one pair on all M+1 grid nodes in place, each window on
    its ``window``; after a BlowUpError its contents are undefined.
    ``empty`` stores the fields node-major and Y and Z are views, as in
    ``Ensemble``, so each node's block is contiguous."""

    Y: np.ndarray
    Z: np.ndarray
    mean_Y: np.ndarray
    mean_Z: np.ndarray

    @classmethod
    def empty(cls, N: int, L: int, n: int, d: int) -> "ProcessPair":
        """Uninitialised node-major storage on L+1 nodes, for a solve to fill in place."""
        return cls(Y=np.empty((L + 1, N, n)).swapaxes(0, 1), mean_Y=np.empty((L + 1, n)),
                   Z=np.empty((L, N, n, d)).swapaxes(0, 1), mean_Z=np.empty((L, n, d)))

    def window(self, k_lo: int, k_hi: int) -> "ProcessPair":
        """Views of nodes k_lo..k_hi, node blocks contiguous; windows share a seam node."""
        return ProcessPair(Y=self.Y[:, k_lo : k_hi + 1], Z=self.Z[:, k_lo:k_hi],
                           mean_Y=self.mean_Y[k_lo : k_hi + 1], mean_Z=self.mean_Z[k_lo:k_hi])


def _node_mean(block: np.ndarray) -> np.ndarray:
    """Particle mean of a node's (N, ...) block, added in index order as ``np.mean(axis=0)``
    of C-contiguous particle-major memory does, whatever the block's layout."""
    return np.add.accumulate(block, axis=0)[-1] / block.shape[0]


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
    axis: Y is (..., n), one node's (N, n) block or a pair's (N, L+1, n).

    The squares are added left to right (``_sum_of_squares``), so for n < 8
    this is bitwise ``np.sqrt((Y * Y).sum(-1)).max()``; for n >= 8 numpy's
    pairwise sum can differ in the last bits.
    """
    return float(np.sqrt(_sum_of_squares(Y)).max())


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
