"""Fixed-point iteration of the decoupling map over frozen environments.

One application of the map takes an environment pair (U, V) together with its
empirical mean fields, freezes every slot of the system generator except the
own z-row of one component, and solves the resulting n scalar quadratic
equations backward on a window of the grid, all in one pass.  Iterating from a cheap initial
guess converges, inside the guaranteed ball and step size, at a contraction
rate with an explicit coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.integrate import quad

from .constants import ConstantsLedger, contraction_coefficients
from .engine import (
    Ensemble,
    ProcessPair,
    RegressionBasis,
    TimeGrid,
    bmo_profile,
    sup_norm_estimate,
)
from .model import Generator, TerminalCondition, terminal_values
from .qbsde1d import (
    FrozenGenerator1D,
    GrowthEnvelope,
    bound_y,
    bound_z,
    solve_1d,
    truncation_radius,
)

# Slack applied to the theoretical ball radii before flagging an iterate as
# escaping: regression noise may overshoot the exact radius slightly.
BALL_SLACK = 1.05


@dataclass(frozen=True)
class BallSpec:
    """Invariant-ball description for one solve window.

    The iteration lives in {sup |Y| <= 2*k1, bmo(Z)^2 <= 2*k2} on grid nodes
    [k_lo, k_hi]; ``within_guarantee`` records whether the window length is
    inside the proven step-size budget.
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
    def from_ledger(
        cls, grid: TimeGrid, ledger: ConstantsLedger, eps: float | None = None, k_hi: int | None = None
    ) -> "BallSpec":
        """Largest window ending at k_hi that fits inside eps (default min(eps0, T))."""
        k_hi = grid.M if k_hi is None else k_hi
        if eps is None:
            eps = min(ledger.eps0, grid.nodes[k_hi])
        steps = int(math.floor(eps / grid.dt + 1e-12))
        if steps < 1:
            raise ValueError(
                f"window budget {eps:.6g} shorter than one grid step {grid.dt:.6g}; "
                "refine the grid or use a full-interval solve"
            )
        steps = min(steps, k_hi)
        length = steps * grid.dt
        return cls(
            k_lo=k_hi - steps,
            k_hi=k_hi,
            eps=float(length),
            k1=ledger.k1,
            k2=ledger.k2,
            within_guarantee=bool(length <= ledger.eps0 * (1 + 1e-12)),
        )

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


@dataclass(frozen=True)
class ComponentInfo:
    index: int
    eta_bound: float
    y_bound: float
    trunc_R: float
    truncation_hits: int


@dataclass(frozen=True)
class ApplyInfo:
    u_norm: float
    v_norm: float
    components: tuple[ComponentInfo, ...]

    @property
    def truncation_hits(self) -> int:
        return sum(c.truncation_hits for c in self.components)


def _resolve_eta(terminal, ens: Ensemble, n: int) -> np.ndarray:
    if isinstance(terminal, TerminalCondition):
        return terminal_values(terminal, ens.cumulative)
    eta = np.asarray(terminal, dtype=float)
    if eta.shape != (ens.N, n):
        raise ValueError(f"terminal array must have shape ({ens.N}, {n}), got {eta.shape}")
    return eta


def apply_gamma(
    pair: ProcessPair,
    gen: Generator,
    terminal,
    ens: Ensemble,
    basis: RegressionBasis,
    ball: BallSpec,
    u_norm: float,
    v_norm: float,
    safety: float = 3.0,
) -> tuple[ProcessPair, ApplyInfo]:
    """One application of the decoupling map on the window of ``ball``.

    u_norm and v_norm are the sup and BMO proxies of the environment ``pair``
    on the window; they set the envelope bounds of every frozen equation.

    For each component i the system generator is frozen: y-slots and the time
    argument at the step midpoint (average of the two endpoint nodes, which
    makes the fixed point satisfy a trapezoid-accurate relation in y), z-slots
    at the left endpoint, with the own row i substituted by the regression
    estimate.  Given the frozen environment the n scalar equations are
    independent, so they are solved together in one backward ``solve_1d``
    pass over the (N, n) block of rows, sharing each node's projections; each
    row keeps its own truncation radius and guard (ten times its
    ``bound_y``) derived from the frozen envelope.  The generator is
    evaluated once per node on a stacked (N, n, n, d) block whose slice i is
    V with row i substituted, and row i's drift is the diagonal entry (i, i).
    A BlowUpError names the first node reached backward at which any row
    exceeds its guard, and the lowest such row there.
    """
    p = gen.params
    n, N, d = p.n, ens.N, ens.d
    U, V = pair.Y, pair.Z
    mean_U, mean_V = pair.mean_Y, pair.mean_Z
    k_lo, k_hi = ball.k_lo, ball.k_hi
    nodes = ens.grid.nodes
    dt = ens.grid.dt
    L = ball.steps

    eta = _resolve_eta(terminal, ens, n)

    # Deterministic drift budget on the window: the integrable density plus
    # the mean-field coupling of the frozen environment, as suffix sums.
    step_cost = np.empty(L)
    for j in range(L):
        k = k_lo + j
        a_step = quad(p.a, nodes[k], nodes[k + 1], limit=200)[0]
        mz = float(np.sqrt((mean_V[k] * mean_V[k]).sum()))
        step_cost[j] = a_step + p.K * mz ** (1.0 + p.delta) * dt
    suffix = np.zeros(L + 1)
    suffix[:L] = step_cost[::-1].cumsum()[::-1]
    window_nodes = nodes[k_lo : k_hi + 1]

    def a_integral(t: float) -> float:
        return float(np.interp(t, window_nodes, suffix))

    env = GrowthEnvelope(
        gamma=p.gamma,
        K=p.K,
        delta=p.delta,
        n=n,
        T=float(nodes[k_hi]),
        phi=p.phi,
        a_integral=a_integral,
        eta_bound=0.0,  # per-component value substituted below
    )

    t_lo = float(nodes[k_lo])
    eta_bounds = np.abs(eta).max(axis=0)
    y_bounds, radii = [], []
    for i in range(n):
        env_i = replace(env, eta_bound=float(eta_bounds[i]))
        y_bound_i = bound_y(env_i, t_lo, u_norm, v_norm)
        z_bound_i = bound_z(env_i, t_lo, y_bound_i, u_norm, v_norm)
        y_bounds.append(y_bound_i)
        radii.append(truncation_radius(z_bound_i, mult=safety))

    diag = np.arange(n)

    def g_rows(k: int, z: np.ndarray) -> np.ndarray:
        t_mid = 0.5 * (nodes[k] + nodes[k + 1])
        u_mid = 0.5 * (U[:, k] + U[:, k + 1])
        mu_mid = 0.5 * (mean_U[k] + mean_U[k + 1])
        vsub = np.repeat(V[:, k, None], n, axis=1)     # (N, n, n, d)
        vsub[:, diag, diag] = z
        y = np.broadcast_to(u_mid[:, None, :], (N, n, n))
        return gen.eval(t_mid, y, mu_mid, vsub, mean_V[k])[:, diag, diag]

    frozen = FrozenGenerator1D(
        g=g_rows, envelope=replace(env, eta_bound=float(eta_bounds.max())),
        u_norm=u_norm, v_norm=v_norm,
    )
    res = solve_1d(eta, frozen, ens, basis, np.array(radii), k_lo=k_lo, k_hi=k_hi,
                   blowup_guard=10.0 * np.array(y_bounds))
    if (k_lo, k_hi) == (0, ens.grid.M):
        Y_full, Z_full = res.Y, res.Z
    else:
        Y_full = np.zeros((N, ens.grid.M + 1, n))
        Z_full = np.zeros((N, ens.grid.M, n, d))
        Y_full[:, k_lo : k_hi + 1] = res.Y
        Z_full[:, k_lo:k_hi] = res.Z
    infos = tuple(
        ComponentInfo(
            index=i,
            eta_bound=float(eta_bounds[i]),
            y_bound=y_bounds[i],
            trunc_R=radii[i],
            truncation_hits=res.row_hits[i],
        )
        for i in range(n)
    )
    out = ProcessPair.from_fields(Y_full, Z_full)
    return out, ApplyInfo(u_norm=u_norm, v_norm=v_norm, components=infos)


@dataclass(frozen=True)
class PicardIteration:
    """One sweep of the decoupling map with its distance and ball diagnostics."""

    index: int
    diff_y: float
    diff_z: float
    sup_y: float
    bmo_sq: float
    in_ball_y: bool
    in_ball_z: bool
    ratio_y: float | None
    ratio_z: float | None


@dataclass(eq=False)
class PicardTrace:
    iterations: list[PicardIteration]
    converged: bool
    pair: ProcessPair
    ball: BallSpec
    init: str
    tol: float
    truncation_hits: int
    bmo_nodes: np.ndarray = field(repr=False)   # bmo_profile of pair on the window

    def in_ball_throughout(self) -> bool:
        return all(it.in_ball_y and it.in_ball_z for it in self.iterations)


def _ratio(prev: float | None, cur: float) -> float | None:
    if prev is None:
        return None
    if prev == 0.0:
        return 0.0 if cur == 0.0 else float("inf")
    return cur / prev


def _initial_pair(init: str, eta: np.ndarray, ens: Ensemble, n: int, ball: BallSpec) -> ProcessPair:
    Y = np.zeros((ens.N, ens.grid.M + 1, n))
    Z = np.zeros((ens.N, ens.grid.M, n, ens.d))
    if init == "terminal-flat":
        Y[:, ball.k_lo : ball.k_hi + 1, :] = eta[:, None, :]
    elif init != "zero":
        raise ValueError(f"unknown init {init!r}; expected 'zero' or 'terminal-flat'")
    return ProcessPair.from_fields(Y, Z)


def _norms(pair: ProcessPair, ens: Ensemble, basis: RegressionBasis, ball: BallSpec):
    """(sup, BMO, BMO profile) proxies of pair on the window of ball."""
    sup = sup_norm_estimate(pair, ball.k_lo, ball.k_hi)
    profile = bmo_profile(pair, ens, basis, ball.k_lo, ball.k_hi)
    return sup, float(profile.max()), profile


def picard_solve(
    gen: Generator,
    terminal,
    ens: Ensemble,
    basis: RegressionBasis,
    ball: BallSpec,
    tol: float = 1e-3,
    max_iter: int = 25,
    init: str = "terminal-flat",
    safety: float = 3.0,
) -> PicardTrace:
    """Iterate the decoupling map on one window until successive sweeps agree.

    Convergence is declared when both the sup distance of Y and of Z between
    consecutive sweeps fall below tol on the window.  Every sweep records its
    ball membership against the slackened radii (2*k1, 2*k2) * BALL_SLACK.
    The sup and BMO proxies of each iterate are measured once and serve both
    that record and the envelope of the next sweep; the trace keeps the BMO
    profile of its final pair.
    """
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    p = gen.params
    eta = _resolve_eta(terminal, ens, p.n)
    cur = _initial_pair(init, eta, ens, p.n, ball)
    sup_y, bmo, profile = _norms(cur, ens, basis, ball)
    k_lo, k_hi = ball.k_lo, ball.k_hi

    iterations: list[PicardIteration] = []
    hits = 0
    prev_dy: float | None = None
    prev_dz: float | None = None
    converged = False

    for r in range(1, max_iter + 1):
        nxt, info = apply_gamma(cur, gen, eta, ens, basis, ball, sup_y, bmo, safety=safety)
        hits += info.truncation_hits
        diff_y = float(np.abs(nxt.Y - cur.Y)[:, k_lo : k_hi + 1].max())
        diff_z = float(np.abs(nxt.Z - cur.Z)[:, k_lo:k_hi].max())
        sup_y, bmo, profile = _norms(nxt, ens, basis, ball)
        iterations.append(
            PicardIteration(
                index=r,
                diff_y=diff_y,
                diff_z=diff_z,
                sup_y=sup_y,
                bmo_sq=bmo * bmo,
                in_ball_y=bool(sup_y <= 2.0 * ball.k1 * BALL_SLACK),
                in_ball_z=bool(bmo * bmo <= 2.0 * ball.k2 * BALL_SLACK),
                ratio_y=_ratio(prev_dy, diff_y),
                ratio_z=_ratio(prev_dz, diff_z),
            )
        )
        prev_dy, prev_dz = diff_y, diff_z
        cur = nxt
        if diff_y < tol and diff_z < tol:
            converged = True
            break

    return PicardTrace(
        iterations=iterations,
        converged=converged,
        pair=cur,
        ball=ball,
        init=init,
        tol=tol,
        truncation_hits=hits,
        bmo_nodes=profile,
    )


@dataclass(frozen=True)
class ContractionReport:
    coef_u: float
    coef_v: float
    contracting_predicted: bool
    observed_ratios_y: tuple[float, ...]
    observed_ratios_z: tuple[float, ...]
    observed_contracting: bool


def contraction_report(
    trace: PicardTrace,
    ledger: ConstantsLedger,
    c1: float = 1.0,
    c2: float = 1.0,
    L4: float = 1.0,
) -> ContractionReport:
    """Predicted vs observed contraction of the iteration.

    The predicted coefficients use the window length of the trace; observed
    ratios start at the third sweep, after the transient of the initial guess
    has washed out.  Finite ratios strictly below one on every later sweep
    count as observed contraction.
    """
    if len(trace.iterations) < 3:
        raise ValueError("need at least 3 sweeps to assess contraction")
    coef_u, coef_v = contraction_coefficients(
        trace.ball.eps, trace.ball.k1, trace.ball.k2, ledger.params, c1=c1, c2=c2, L4=L4
    )
    ry = tuple(it.ratio_y for it in trace.iterations[2:] if it.ratio_y is not None)
    rz = tuple(it.ratio_z for it in trace.iterations[2:] if it.ratio_z is not None)
    observed = all(r < 1.0 for r in ry) and all(r < 1.0 for r in rz)
    return ContractionReport(
        coef_u=coef_u,
        coef_v=coef_v,
        contracting_predicted=bool(max(coef_u, coef_v) < 1.0),
        observed_ratios_y=ry,
        observed_ratios_z=rz,
        observed_contracting=bool(observed),
    )
