"""Global solve by backward stitching of guaranteed local windows.

The a priori sup bound lambda dominates the solution on the whole interval,
so every window of length at most t_lambda admits the fixed-point iteration
inside the enlarged ball built from lambda.  Solving windows from the
terminal backward, each window's left edge becomes the next window's
terminal data, bitwise; when that cannot be done, the plan is one
full-interval window with the reason.  A solve allocates one solution pair
on the whole grid, and each window is solved in place on a view of its own
nodes, so neighbouring windows share their seam node; the verification step
checks that pair against the explicit sup-norm and BMO ceilings.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .constants import ConstantsLedger, compute_ledger, local_ball
from .engine import (
    Ensemble,
    ProcessPair,
    RegressionBasis,
    TimeGrid,
    bmo_profile,
    regression_summary,
    sup_norm_estimate,
)
from .errors import ConfigError, StitchError
from .model import Generator, TerminalCondition, _check_ensemble, terminal_values
from .picard import BallSpec, PicardTrace, picard_solve

# Slack of every sup check against lambda: relative on the terminal data and
# each stitched left edge, relative and absolute in verify_apriori.
APRIORI_SLACK = 1e-9


@dataclass(frozen=True)
class StitchPlan:
    """The windows a solve runs, each as the ball it is solved in, latest
    first: a backward tiling into guaranteed windows of at most ``steps``
    steps, each in the ball built with lambda as terminal bound, or, when
    ``reason`` says why the grid cannot be stitched, the one full-interval
    window (0, M)."""

    t_lambda: float
    steps: int
    windows: tuple[BallSpec, ...]   # latest window first
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "t_lambda": self.t_lambda,
            "steps_per_window": self.steps,
            "windows": [[b.k_lo, b.k_hi] for b in self.windows],
        }


def _full_interval_plan(grid: TimeGrid, ledger: ConstantsLedger, reason: str) -> StitchPlan:
    return StitchPlan(t_lambda=float(ledger.t_lambda), steps=grid.M,
                      windows=(BallSpec.full_interval(grid, ledger),), reason=reason)


def plan_stitch(grid: TimeGrid, ledger: ConstantsLedger) -> StitchPlan:
    """Tile [0, T] backward from T into windows no longer than t_lambda, each
    in the ball whose radii are built with C1 replaced by lambda, or plan the
    full interval, with the reason, when t_lambda is not positive or shorter
    than one grid step.  A t_lambda too long to count in grid steps is one
    stitched window of M steps."""
    t_lam = ledger.t_lambda
    if not t_lam > 0.0:
        return _full_interval_plan(grid, ledger, f"guaranteed window length t_lambda = {t_lam} "
                                   "is not positive; the stitched solve has no admissible step")
    ratio = t_lam / grid.dt + 1e-12
    steps = int(math.floor(ratio)) if math.isfinite(ratio) else grid.M
    if steps < 1:
        return _full_interval_plan(grid, ledger, f"t_lambda = {t_lam:.6g} is shorter than one grid "
                                   f"step dt = {grid.dt:.6g}; refine the grid below dt <= t_lambda")
    k1, k2 = local_ball(replace(ledger.params, C1=ledger.lam))
    windows = []
    k_hi = grid.M
    while k_hi > 0:
        k_lo = max(0, k_hi - steps)
        length = (k_hi - k_lo) * grid.dt
        windows.append(BallSpec(k_lo=k_lo, k_hi=k_hi, eps=float(length), k1=k1, k2=k2,
                                within_guarantee=bool(length <= t_lam * (1 + 1e-12))))
        k_hi = k_lo
    return StitchPlan(t_lambda=float(t_lam), steps=steps, windows=tuple(windows))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one explicit-bound verification."""

    name: str
    passed: bool
    observed: float
    bound: float
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def verify_apriori(sup: float, ledger: ConstantsLedger) -> CheckResult:
    """Check the sup proxy ``sup`` of Y against lambda, up to APRIORI_SLACK.

    ``sup`` is ``sup_norm_estimate`` of the solution's Y over the whole grid,
    the max of its per-node sup profile.
    """
    sup = float(sup)
    lam = ledger.lam
    passed = sup <= lam * (1.0 + APRIORI_SLACK) + APRIORI_SLACK
    return CheckResult(
        name="apriori_sup",
        passed=bool(passed),
        observed=sup,
        bound=lam,
        detail=f"sup |Y| = {sup:.6g} vs lambda = {lam:.6g}",
    )


def _log_bmo_ceiling(ledger: ConstantsLedger) -> float:
    """log of the explicit BMO-squared ceiling, evaluated without overflow."""
    p = ledger.params
    g, n, C1, C2, T = p.gamma, p.n, p.C1, p.C2, p.T
    lam = ledger.lam
    inner = (lam + 2.0) * C2 + (lam * g + 1.0 + 4.0 * n / g) * (C2 + 2.0 * T)
    # ceiling = 4 * [ n/g^2 * e^{g C1} + n/g * e^{g lam} * inner ]
    term1 = math.log(n) - 2.0 * math.log(g) + g * C1
    term2 = math.log(n) - math.log(g) + g * lam + math.log(inner)
    return math.log(4.0) + np.logaddexp(term1, term2)


def verify_bmo_membership(bmo: float, ledger: ConstantsLedger) -> CheckResult:
    """Check the squared BMO proxy ``bmo`` of Z against its explicit ceiling.

    ``bmo`` is the max of the solution's ``bmo_profile`` over the whole grid.
    The ceiling routinely overflows a float (it carries e^{gamma*lambda}), so
    the comparison runs in log space; the reported bound saturates to inf.
    """
    bmo = float(bmo)
    log_ceiling = _log_bmo_ceiling(ledger)
    if bmo == 0.0:
        passed = True
    else:
        passed = 2.0 * math.log(bmo) <= log_ceiling + 1e-12
    try:
        ceiling = math.exp(log_ceiling)
    except OverflowError:
        ceiling = float("inf")
    return CheckResult(
        name="bmo_membership",
        passed=bool(passed),
        observed=bmo * bmo,
        bound=ceiling,
        detail=f"bmo^2 = {bmo * bmo:.6g} vs log-ceiling = {log_ceiling:.6g}",
    )


@dataclass(eq=False)
class GlobalReport:
    """Assembled global solve with its plan, per-window traces and checks."""

    pair: ProcessPair
    ledger: ConstantsLedger
    plan: StitchPlan
    windows: tuple[dict, ...]      # one row per window, as to_dict writes it
    checks: tuple[CheckResult, ...]
    sup_nodes: np.ndarray = field(repr=False)   # per-node sup_norm_estimate of pair.Y, out of to_dict()
    bmo_nodes: np.ndarray = field(repr=False)   # bmo_profile of pair, out of to_dict()
    regression: dict               # engine.regression_summary after verification
    converged: bool
    continuity_ok: bool | None     # None for a full-interval plan, which has no seam
    traces: tuple[PicardTrace, ...] = field(repr=False)

    @property
    def mode(self) -> str:
        return "stitched" if self.plan.reason is None else "full-interval-fallback"

    def all_checks_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "converged": self.converged,
            "continuity_ok": self.continuity_ok,
            "plan": self.plan.to_dict() if self.plan.reason is None else None,
            "windows": [dict(w) for w in self.windows],
            "checks": [c.to_dict() for c in self.checks],
            "regression": self.regression,
            "constants": self.ledger.to_dict(),
        }


def _window_row(idx: int, trace: PicardTrace, grid: TimeGrid) -> dict:
    b = trace.ball
    return {"index": idx, "k_lo": b.k_lo, "k_hi": b.k_hi,
            "t_lo": float(grid.nodes[b.k_lo]), "t_hi": float(grid.nodes[b.k_hi]),
            "iterations": len(trace.iterations), "converged": trace.converged,
            "truncation_hits": trace.truncation_hits, "in_ball": trace.in_ball_throughout()}


def _solve_plan(plan: StitchPlan, gen: Generator, eta: np.ndarray, ens: Ensemble,
                basis: RegressionBasis, ledger: ConstantsLedger,
                tol: float, max_iter: int, init: str) -> GlobalReport:
    """Solve the plan's windows, latest first, and verify the solution.

    Each window is solved in its planned ball, in place on its view of the
    one solution pair, from the terminal data ``eta`` or the left edge of
    the window after it.  A stitched window raises StitchError when it does
    not converge or its left edge, read off its last sweep's sup profile,
    escapes lambda; the seam check compares the node it wrote at its right
    edge with the terminal it was solved from.  The sup profile is each
    window's last-sweep profile at its nodes, a seam node holding one value;
    one window's BMO profile is the solution's, and several windows get one
    full-grid BMO pass."""
    lam = ledger.lam
    stitched = plan.reason is None
    solution = ProcessPair.empty(ens.N, ens.grid.M, gen.params.n, ens.d)
    cur_terminal = eta
    traces = []
    continuity_ok = True
    for idx, ball in enumerate(plan.windows):
        k_lo, k_hi = ball.k_lo, ball.k_hi
        trace = picard_solve(
            gen, cur_terminal, ens, basis, ball, solution.window(k_lo, k_hi),
            tol=tol, max_iter=max_iter, init=init,
        )
        traces.append(trace)
        if not stitched:
            continue
        if not trace.converged:
            raise StitchError(
                f"window {idx} (nodes {k_lo}..{k_hi}) did not converge within "
                f"{max_iter} sweeps (tol {tol:g})"
            )
        continuity_ok = continuity_ok and np.array_equal(solution.Y[:, k_hi], cur_terminal)
        cur_terminal = solution.Y[:, k_lo].copy()
        edge_sup = float(trace.sup_nodes[0])
        if edge_sup > lam * (1.0 + APRIORI_SLACK):
            raise StitchError(
                f"window {idx} left edge norm {edge_sup:.6g} exceeds "
                f"lambda = {lam:.6g}; stitched terminal is inadmissible"
            )

    sup_nodes = np.empty(ens.grid.M + 1)
    for t in traces:
        sup_nodes[t.ball.k_lo : t.ball.k_hi + 1] = t.sup_nodes
    bmo_nodes = traces[0].bmo_nodes if len(traces) == 1 else bmo_profile(solution, ens, basis)
    checks = (
        verify_apriori(sup_nodes.max(), ledger),
        verify_bmo_membership(bmo_nodes.max(), ledger),
    )
    return GlobalReport(
        pair=solution, ledger=ledger, plan=plan, checks=checks,
        sup_nodes=sup_nodes, bmo_nodes=bmo_nodes,
        windows=tuple(_window_row(i, t, ens.grid) for i, t in enumerate(traces)),
        converged=all(t.converged for t in traces),
        continuity_ok=continuity_ok if stitched else None,
        regression=regression_summary(ens, basis), traces=tuple(traces),
    )


def solve_auto(
    gen: Generator,
    terminal: TerminalCondition,
    ens: Ensemble,
    basis: RegressionBasis,
    ledger: ConstantsLedger | None = None,
    tol: float = 1e-3,
    max_iter: int = 25,
    init: str = "terminal-flat",
) -> GlobalReport:
    """Solve on [0, T] by the plan of ``plan_stitch``.

    An ensemble on another horizon or dimension than ``gen.params``, or a
    ledger of other params, is a ValueError before any work.  The terminal
    map runs once, on the states at T, ``ens.node(M)``; its data is a
    ValueError unless (N, n), and a ConfigError above lambda, both raised
    before any pair is allocated.
    A stitched window's failure re-plans the full interval, with that
    failure as reason, on a fresh solution pair: the failed attempt's pair,
    held by its traceback until the StitchError is handled, is freed first,
    and none of its writes reach the result.  After a BlowUpError the
    solution's contents are undefined, and it is not returned."""
    if not isinstance(terminal, TerminalCondition):
        raise TypeError(f"terminal must be a TerminalCondition, got {type(terminal).__name__}")
    _check_ensemble(gen.params, ens)
    if ledger is None:
        ledger = compute_ledger(gen.params)
    elif ledger.params is not gen.params:
        raise ValueError("ledger was computed for other params than the generator's; "
                         "pass compute_ledger(gen.params)")
    eta = terminal_values(terminal, ens.node(ens.grid.M)[:, None])
    if eta.shape != (ens.N, gen.params.n):
        raise ValueError(f"terminal data has shape {eta.shape}, expected {(ens.N, gen.params.n)}")
    eta_sup = sup_norm_estimate(eta)
    if eta_sup > ledger.lam * (1.0 + APRIORI_SLACK):
        raise ConfigError(f"terminal data norm {eta_sup:.6g} exceeds the a priori radius "
                          f"lambda = {ledger.lam:.6g}")
    args = (gen, eta, ens, basis, ledger, tol, max_iter, init)
    try:
        return _solve_plan(plan_stitch(ens.grid, ledger), *args)
    except StitchError as exc:
        reason = str(exc)
    return _solve_plan(_full_interval_plan(ens.grid, ledger, reason), *args)
