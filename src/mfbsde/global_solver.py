"""Global solve by backward stitching of guaranteed local windows.

The a priori sup bound lambda dominates the solution on the whole interval,
so every window of length at most t_lambda admits the fixed-point iteration
inside the enlarged ball built from lambda.  Solving windows from the
terminal backward, each window's left edge becomes the next window's
terminal data, bitwise.  A solve allocates one solution pair on the whole
grid, and each window is solved in place on a view of its own nodes, so
neighbouring windows share their seam node; the verification step checks
that pair against the explicit sup-norm and BMO ceilings.
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
)
from .errors import ConfigError, StitchError
from .model import Generator
from .picard import BallSpec, PicardTrace, _resolve_eta, picard_solve

# Relative and absolute slack of the a priori sup check against lambda.
APRIORI_SLACK = 1e-9


@dataclass(frozen=True)
class StitchPlan:
    """Backward tiling of the grid into windows of at most ``steps`` nodes."""

    t_lambda: float
    steps: int
    windows: tuple[tuple[int, int], ...]   # (k_lo, k_hi), latest window first

    def to_dict(self) -> dict:
        return {
            "t_lambda": self.t_lambda,
            "steps_per_window": self.steps,
            "windows": [list(w) for w in self.windows],
        }


def plan_stitch(grid: TimeGrid, ledger: ConstantsLedger) -> StitchPlan:
    """Tile [0, T] backward from T into windows no longer than t_lambda."""
    t_lam = ledger.t_lambda
    if not t_lam > 0.0:
        raise StitchError(
            f"guaranteed window length t_lambda = {t_lam} is not positive; "
            "the stitched solve has no admissible step"
        )
    steps = int(math.floor(t_lam / grid.dt + 1e-12))
    if steps < 1:
        raise StitchError(
            f"t_lambda = {t_lam:.6g} is shorter than one grid step "
            f"dt = {grid.dt:.6g}; refine the grid below dt <= t_lambda"
        )
    windows = []
    k_hi = grid.M
    while k_hi > 0:
        k_lo = max(0, k_hi - steps)
        windows.append((k_lo, k_hi))
        k_hi = k_lo
    return StitchPlan(t_lambda=float(t_lam), steps=steps, windows=tuple(windows))


def lambda_ball(
    grid: TimeGrid, ledger: ConstantsLedger, k_lo: int, k_hi: int
) -> BallSpec:
    """Ball spec for one stitched window, radii built with C1 replaced by lambda."""
    lam_params = replace(ledger.params, C1=ledger.lam)
    k1l, k2l = local_ball(lam_params)
    length = (k_hi - k_lo) * grid.dt
    return BallSpec(
        k_lo=k_lo,
        k_hi=k_hi,
        eps=float(length),
        k1=k1l,
        k2=k2l,
        within_guarantee=bool(length <= ledger.t_lambda * (1 + 1e-12)),
    )


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


@dataclass(frozen=True)
class WindowSummary:
    index: int
    k_lo: int
    k_hi: int
    t_lo: float
    t_hi: float
    iterations: int
    converged: bool
    truncation_hits: int
    in_ball: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(eq=False)
class GlobalReport:
    """Assembled global solve with its plan, per-window traces and checks."""

    mode: str                      # "stitched" or "full-interval-fallback"
    pair: ProcessPair
    ledger: ConstantsLedger
    windows: tuple[WindowSummary, ...]
    checks: tuple[CheckResult, ...]
    sup_nodes: np.ndarray = field(repr=False)   # per-node sup_norm_estimate of pair.Y, out of to_dict()
    bmo_nodes: np.ndarray = field(repr=False)   # bmo_profile of pair, out of to_dict()
    regression: dict               # engine.regression_summary after verification
    converged: bool
    continuity_ok: bool | None = None
    plan: StitchPlan | None = None
    traces: tuple[PicardTrace, ...] = field(default=(), repr=False)

    def all_checks_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "converged": self.converged,
            "continuity_ok": self.continuity_ok,
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "windows": [w.to_dict() for w in self.windows],
            "checks": [c.to_dict() for c in self.checks],
            "regression": self.regression,
            "constants": self.ledger.to_dict(),
        }


def _window_summary(idx: int, trace: PicardTrace, grid: TimeGrid) -> WindowSummary:
    b = trace.ball
    return WindowSummary(
        index=idx,
        k_lo=b.k_lo,
        k_hi=b.k_hi,
        t_lo=float(grid.nodes[b.k_lo]),
        t_hi=float(grid.nodes[b.k_hi]),
        iterations=len(trace.iterations),
        converged=trace.converged,
        truncation_hits=trace.truncation_hits,
        in_ball=trace.in_ball_throughout(),
    )


def _verified_report(pair: ProcessPair, traces: tuple[PicardTrace, ...], ens: Ensemble,
                     basis: RegressionBasis, ledger: ConstantsLedger, **fields) -> GlobalReport:
    """The report of a solve whose windows, tiling the grid latest first,
    were solved in place on ``pair``, the solution as it is: their
    summaries, the checks against the sup and BMO ceilings and the
    conditioning of the regression factors cached on the ensemble.

    The sup profile is each window's last-sweep profile at its nodes (a
    seam node holds one value, so either window's sup there is the same).
    One window spans the grid and its BMO profile is the solution's;
    several windows get one full-grid BMO pass."""
    sup_nodes = np.empty(ens.grid.M + 1)
    for t in traces:
        sup_nodes[t.ball.k_lo : t.ball.k_hi + 1] = t.sup_nodes
    bmo_nodes = traces[0].bmo_nodes if len(traces) == 1 else bmo_profile(pair, ens, basis)
    checks = (
        verify_apriori(sup_nodes.max(), ledger),
        verify_bmo_membership(bmo_nodes.max(), ledger),
    )
    return GlobalReport(
        pair=pair, ledger=ledger, checks=checks, sup_nodes=sup_nodes, bmo_nodes=bmo_nodes,
        windows=tuple(_window_summary(i, t, ens.grid) for i, t in enumerate(traces)),
        converged=all(t.converged for t in traces),
        regression=regression_summary(ens, basis), traces=traces, **fields,
    )


def solve_global(
    gen: Generator,
    terminal,
    ens: Ensemble,
    basis: RegressionBasis,
    ledger: ConstantsLedger | None = None,
    tol: float = 1e-3,
    max_iter: int = 25,
    init: str = "terminal-flat",
) -> GlobalReport:
    """Solve on [0, T] by stitching guaranteed windows backward from T.

    Raises StitchError when t_lambda does not cover a single grid step, when
    a window fails to converge, or when a stitched terminal escapes lambda.
    The solution pair is allocated once these checks have passed, and each
    window is solved on a view of its nodes; the seam check compares the
    node a window wrote at its right edge with the terminal it started from.
    """
    p = gen.params
    if ledger is None:
        ledger = compute_ledger(p)
    plan = plan_stitch(ens.grid, ledger)
    lam = ledger.lam

    eta = _resolve_eta(terminal, ens, p.n)
    eta_sup = float(np.sqrt((eta * eta).sum(axis=1)).max())
    if eta_sup > lam * (1.0 + 1e-9):
        raise ConfigError(
            f"terminal data norm {eta_sup:.6g} exceeds the a priori radius "
            f"lambda = {lam:.6g}"
        )

    solution = ProcessPair.empty(ens.N, ens.grid.M, p.n, ens.d)
    cur_terminal = eta
    traces = []
    continuity_ok = True

    for idx, (k_lo, k_hi) in enumerate(plan.windows):
        ball = lambda_ball(ens.grid, ledger, k_lo, k_hi)
        trace = picard_solve(
            gen, cur_terminal, ens, basis, ball, solution.window(k_lo, k_hi),
            tol=tol, max_iter=max_iter, init=init,
        )
        if not trace.converged:
            raise StitchError(
                f"window {idx} (nodes {k_lo}..{k_hi}) did not converge within "
                f"{max_iter} sweeps (tol {tol:g})"
            )
        continuity_ok = continuity_ok and np.array_equal(solution.Y[:, k_hi], cur_terminal)
        traces.append(trace)

        cur_terminal = solution.Y[:, k_lo].copy()
        edge_sup = float(np.sqrt((cur_terminal * cur_terminal).sum(axis=1)).max())
        if edge_sup > lam * (1.0 + 1e-9):
            raise StitchError(
                f"window {idx} left edge norm {edge_sup:.6g} exceeds "
                f"lambda = {lam:.6g}; stitched terminal is inadmissible"
            )

    return _verified_report(
        solution, tuple(traces), ens, basis, ledger,
        mode="stitched",
        continuity_ok=continuity_ok,
        plan=plan,
    )


def solve_auto(
    gen: Generator,
    terminal,
    ens: Ensemble,
    basis: RegressionBasis,
    ledger: ConstantsLedger | None = None,
    tol: float = 1e-3,
    max_iter: int = 25,
    init: str = "terminal-flat",
) -> GlobalReport:
    """Stitched solve when the guaranteed window covers a grid step, else a
    single full-interval fixed-point solve outside the guarantee, on a fresh
    solution pair once the StitchError is handled: the failed attempt's pair,
    which its traceback holds until then, is freed first and none of its
    writes reach the result.  After a BlowUpError the solution's contents
    are undefined, and it is not returned."""
    if ledger is None:
        ledger = compute_ledger(gen.params)
    try:
        return solve_global(
            gen, terminal, ens, basis, ledger,
            tol=tol, max_iter=max_iter, init=init,
        )
    except StitchError:
        pass
    solution = ProcessPair.empty(ens.N, ens.grid.M, gen.params.n, ens.d)
    trace = picard_solve(
        gen, terminal, ens, basis, BallSpec.full_interval(ens.grid, ledger), solution,
        tol=tol, max_iter=max_iter, init=init,
    )
    return _verified_report(solution, (trace,), ens, basis, ledger, mode="full-interval-fallback")
