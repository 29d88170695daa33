"""Fixed-point iteration of the decoupling map over frozen environments.

One application of the map takes an environment pair (U, V) together with its
empirical mean fields, freezes every slot of the system generator except the
own z-row of one component, and solves the resulting n scalar quadratic
equations backward on a window of the grid, all in one pass.  Iterating from a cheap initial
guess converges, inside the guaranteed ball and step size, at a contraction
rate with an explicit coefficient.

Every pair here is window-local: on the L+1 nodes k_lo..k_hi of its
``BallSpec``, local node j being grid node k_lo + j, and owned by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ConstantsLedger, contraction_coefficients
from .engine import Ensemble, ProcessPair, RegressionBasis, TimeGrid, _node_mean, sup_norm_estimate
from .model import Generator, _integrate
from .qbsde1d import Solve1DResult, bound_y, bound_z, solve_1d, truncation_radius

# Slack applied to the theoretical ball radii before flagging an iterate as
# escaping: regression noise may overshoot the exact radius slightly.
BALL_SLACK = 1.05


@dataclass(frozen=True)
class BallSpec:
    """Invariant-ball description for one solve window.

    The iteration lives in {sup |Y| <= 2*k1, bmo(Z)^2 <= 2*k2} on grid nodes
    [k_lo, k_hi]; ``within_guarantee`` records whether the window length is
    inside the proven step-size budget.  The ball is the only record of
    where its window sits in the grid: the window's pairs hold its nodes
    only.
    """

    k_lo: int
    k_hi: int
    eps: float
    k1: float
    k2: float
    within_guarantee: bool

    def __post_init__(self):
        if not 0 <= self.k_lo < self.k_hi:
            raise ValueError(f"bad window [{self.k_lo}, {self.k_hi}]")
        if not (self.eps > 0.0 and self.k1 > 0.0 and self.k2 > 0.0):
            raise ValueError("eps, k1 and k2 must be positive")

    @property
    def steps(self) -> int:
        return self.k_hi - self.k_lo

    @classmethod
    def full_interval(cls, grid: TimeGrid, ledger: ConstantsLedger) -> "BallSpec":
        """The whole grid as one window, guaranteed only when T fits in eps0."""
        return cls(
            k_lo=0,
            k_hi=grid.M,
            eps=float(grid.T),
            k1=ledger.k1,
            k2=ledger.k2,
            within_guarantee=bool(grid.T <= ledger.eps0 * (1 + 1e-12)),
        )


def _check_eta(eta: np.ndarray, N: int, n: int) -> None:
    if np.shape(eta) != (N, n):
        raise ValueError(f"terminal array must have shape ({N}, {n}), got {np.shape(eta)}")


def apply_gamma(
    pair: ProcessPair,
    gen: Generator,
    eta: np.ndarray,
    ens: Ensemble,
    basis: RegressionBasis,
    ball: BallSpec,
    u_norm: float,
    v_norm: float,
) -> Solve1DResult:
    """One application of the decoupling map on the window of ``ball``,
    advancing ``pair`` in place.

    ``pair`` is the environment on the window's L+1 nodes.  u_norm and
    v_norm are its sup and BMO proxies; they set the a priori bounds of
    every frozen equation.  The sweep consumes the environment: its
    ``solve_1d`` pass overwrites the pair, means included, one node behind
    the backward pass (the frozen generator at node j reads only nodes j and
    j+1, before they are overwritten), and rejects a read-only pair before
    writing; after a BlowUpError the pair's contents are undefined.

    For each component i the system generator is frozen: y-slots and the time
    argument at the step midpoint (average of the two endpoint nodes, which
    makes the fixed point satisfy a trapezoid-accurate relation in y), z-slots
    at the left endpoint, with the own row i substituted by the regression
    estimate.  Given the frozen environment the n scalar equations are
    independent, so they are solved together in one backward ``solve_1d``
    pass over the (N, n) block of rows, sharing each node's projections; each
    row keeps its own truncation radius (``truncation_radius`` of its
    ``bound_z``) and guard (ten times its ``bound_y``), both read at the
    window start from the model's growth parameters, the window's horizon
    and drift budget, and the row's terminal sup.  Row i's drift is
    ``gen.component`` i with the regression estimate as its own row and V's
    (N, n, d) node block itself, uncopied, as the environment.
    A BlowUpError names the first node reached backward at which any row
    exceeds its guard, and the lowest such row there.  The sweep returns
    the ``Solve1DResult`` of that pass as it is.
    """
    p = gen.params
    n, N = p.n, ens.N
    U, V = pair.Y, pair.Z
    mean_U, mean_V = pair.mean_Y, pair.mean_Z
    k_lo, k_hi = ball.k_lo, ball.k_hi
    nodes = ens.grid.nodes
    dt = ens.grid.dt
    L = ball.steps
    if U.shape[1] != L + 1:
        raise ValueError(f"environment has {U.shape[1]} nodes; window [{k_lo}, {k_hi}] has {L + 1}")
    _check_eta(eta, N, n)

    # Deterministic drift budget of the window, summed from its last step
    # backward: the integrable density plus the mean-field coupling of the
    # frozen environment.  The bounds read it at the window start.
    a_steps = _integrate(p.a, nodes[k_lo:k_hi], nodes[k_lo + 1:k_hi + 1]).tolist()
    budget = 0.0
    for j in range(L - 1, -1, -1):
        mz = float(np.sqrt((mean_V[j] * mean_V[j]).sum()))
        budget += a_steps[j] + p.K * mz ** (1.0 + p.delta) * dt
    horizon = float(nodes[k_hi]) - float(nodes[k_lo])

    eta_bounds = np.abs(eta).max(axis=0)
    y_bounds, radii = [], []
    for i in range(n):
        eta_i = float(eta_bounds[i])
        y_bound_i = bound_y(p, horizon, budget, eta_i, u_norm, v_norm)
        z_bound_i = bound_z(p, horizon, budget, eta_i, y_bound_i, u_norm, v_norm)
        y_bounds.append(y_bound_i)
        radii.append(truncation_radius(z_bound_i))

    def g_rows(k: int, zk: np.ndarray) -> np.ndarray:
        j = k - k_lo
        t_mid = 0.5 * (nodes[k] + nodes[k + 1])
        u_mid = 0.5 * (U[:, j] + U[:, j + 1])
        mu_mid = 0.5 * (mean_U[j] + mean_U[j + 1])
        g = np.empty((N, n))
        for i in range(n):
            g[:, i] = gen.component(i, t_mid, u_mid, mu_mid, zk[:, i], V[:, j], mean_V[j])
        return g

    return solve_1d(eta, g_rows, ens, basis, np.array(radii), 10.0 * np.array(y_bounds), pair,
                    k_lo=k_lo)


@dataclass(eq=False)
class PicardTrace:
    """A window's sweeps in order, each the ``Solve1DResult`` its
    ``apply_gamma`` returned.  The last sweep measured the final iterate,
    so its per-node sup and BMO profiles, (L+1,), are the trace's."""

    iterations: list[Solve1DResult]
    converged: bool
    ball: BallSpec

    @property
    def truncation_hits(self) -> int:
        return sum(it.truncation_hits for it in self.iterations)

    @property
    def sup_nodes(self) -> np.ndarray:
        return self.iterations[-1].sup_nodes

    @property
    def bmo_nodes(self) -> np.ndarray:
        return self.iterations[-1].bmo_nodes

    def in_ball_throughout(self) -> bool:
        """Every sweep's sup and squared BMO proxy within the slackened radii
        2*k1*BALL_SLACK and 2*k2*BALL_SLACK."""
        sup_cap, bmo_cap = 2.0 * self.ball.k1 * BALL_SLACK, 2.0 * self.ball.k2 * BALL_SLACK
        for it in self.iterations:
            bmo = float(it.bmo_nodes.max())
            if not (float(it.sup_nodes.max()) <= sup_cap and bmo * bmo <= bmo_cap):
                return False
        return True


def picard_solve(
    gen: Generator,
    eta: np.ndarray,
    ens: Ensemble,
    basis: RegressionBasis,
    ball: BallSpec,
    pair: ProcessPair,
    tol: float = 1e-3,
    max_iter: int = 25,
    init: str = "terminal-flat",
) -> PicardTrace:
    """Iterate the decoupling map on one window, from its (N, n) terminal
    data ``eta``, until successive sweeps agree.

    Convergence is declared when both the sup distance of Y and of Z between
    consecutive sweeps fall below tol.  The solve allocates no pair: the
    initial guess is written into the caller's ``pair`` on the window's L+1
    nodes, and each sweep consumes its environment and overwrites it with
    the next iterate, measuring in the same backward pass its distance from
    the environment, its sup and its BMO proxy.  The trace keeps each
    sweep's ``Solve1DResult`` as it is, and its sup and BMO proxy set the
    bounds of the next sweep; the final iterate is left in ``pair``.  The
    initial guess (Y the terminal data at every node, "terminal-flat", or
    zero, "zero"; Z = 0) is measured from its definition: its sup and means
    are those of its last node and its BMO profile is zero.  A BlowUpError
    propagates from the sweep that raised it, leaving the pair's contents
    undefined.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if init not in ("terminal-flat", "zero"):
        raise ValueError(f"unknown init {init!r}; expected 'zero' or 'terminal-flat'")
    _check_eta(eta, ens.N, gen.params.n)
    y0 = eta if init == "terminal-flat" else np.zeros_like(eta)
    pair.Y[:] = y0[:, None, :]
    pair.mean_Y[:] = _node_mean(y0)
    pair.Z[:] = 0.0
    pair.mean_Z[:] = 0.0
    sup_y, bmo = sup_norm_estimate(pair.Y[:, -1]), 0.0

    iterations: list[Solve1DResult] = []
    for _ in range(max_iter):
        info = apply_gamma(pair, gen, eta, ens, basis, ball, sup_y, bmo)
        iterations.append(info)
        converged = bool(info.diff_y < tol and info.diff_z < tol)
        if converged:
            break
        sup_y, bmo = float(info.sup_nodes.max()), float(info.bmo_nodes.max())
    return PicardTrace(iterations=iterations, converged=converged, ball=ball)


@dataclass(frozen=True)
class ContractionReport:
    coef_u: float
    coef_v: float
    contracting_predicted: bool
    observed_ratios_y: tuple[float, ...]
    observed_ratios_z: tuple[float, ...]
    observed_contracting: bool


def contraction_report(trace: PicardTrace, ledger: ConstantsLedger) -> ContractionReport:
    """Predicted vs observed contraction of the iteration.

    The predicted coefficients use the window length of the trace; observed
    ratios start at the third sweep, after the transient of the initial guess
    has washed out.  Finite ratios strictly below one on every later sweep
    count as observed contraction.
    """
    if len(trace.iterations) < 3:
        raise ValueError("need at least 3 sweeps to assess contraction")
    coef_u, coef_v = contraction_coefficients(
        trace.ball.eps, trace.ball.k1, trace.ball.k2, ledger.params
    )

    def ratios(diffs: list[float]) -> tuple[float, ...]:
        # sweep r's distance over sweep r-1's, for r >= 3; 0/0 is 0, x/0 inf
        return tuple((0.0 if cur == 0.0 else math.inf) if prev == 0.0 else cur / prev
                     for prev, cur in zip(diffs[1:], diffs[2:]))

    ry = ratios([it.diff_y for it in trace.iterations])
    rz = ratios([it.diff_z for it in trace.iterations])
    observed = all(r < 1.0 for r in ry) and all(r < 1.0 for r in rz)
    return ContractionReport(
        coef_u=coef_u,
        coef_v=coef_v,
        contracting_predicted=bool(max(coef_u, coef_v) < 1.0),
        observed_ratios_y=ry,
        observed_ratios_z=rz,
        observed_contracting=bool(observed),
    )
