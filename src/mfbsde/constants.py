"""Explicit constants ledger for the local and global solvability theory.

Every quantity the solver promises (ball radii, local window length, uniform
sup bound, contraction coefficients) is computed here in closed form from the
declared model parameters, in plain binary64.  The only numerical liberty
taken is algebraic refactoring of products such as exp(-4*gamma*k1) * k2 so
that intermediate factors do not overflow when the final value is moderate;
the refactored expressions are identical in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .model import ModelParams

LOG2 = math.log(2.0)

# Energy (c2) and moment (L4) comparison constants of the contraction
# estimate, taken as 1.0.
CONTRACTION_C2 = 1.0
CONTRACTION_L4 = 1.0

# Human-readable formula text, printed by the CLI alongside the numbers.
FORMULAS = {
    "c_dkn": "0.5*(1-delta) * (1+delta)**((1+delta)/(1-delta)) * (n*K)**(2/(1-delta))",
    "k1": "(n/gamma)*log(2) + 1/2 + n*(C0 + C1)",
    "k2": "(n/gamma**2)*exp(2*gamma*C1) + (n/gamma)*exp(4*gamma*k1)*(2 + 2*C0)",
    "eps0": "min( k1 / (n*phi(2*k1) + (n*gamma**q + 1)*c_dkn*(2*k2)**q),"
    " (gamma/n)*exp(-4*gamma*k1)*k2 / (2*phi(2*k1) + 4*c_dkn*(2*k2)**q) )"
    "  with q = (1+delta)/(1-delta)",
    "c3": "(n/gamma)*log(2*exp(gamma*C1) + 2) + 2*n*(1 + 2*n/gamma)*(C2 + 2*T) + 4*n*C2",
    "lambda": "c3 * exp(2*n*C2*(gamma + 1) + 4*n*gamma*T)",
    "t_lambda": "eps0 re-evaluated with the terminal bound C1 replaced by lambda",
}


def _exp(x: float) -> float:
    """exp that saturates to +inf instead of raising OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def c_delta_k_n(delta: float, K: float, n: int) -> float:
    """Constant absorbing the power-(1+delta) off-row coupling into a quadratic term.

    Equals 0 when the coupling strength K is 0.  Defined only for 0 <= delta < 1;
    the sub-quadratic exponent degenerates at delta = 1.
    """
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    if K < 0.0:
        raise ValueError(f"K must be nonnegative, got {K}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if K == 0.0:
        return 0.0
    q = (1.0 + delta) / (1.0 - delta)
    return 0.5 * (1.0 - delta) * (1.0 + delta) ** q * (n * K) ** (2.0 / (1.0 - delta))


def _k1(n: int, gamma: float, C0: float, C1: float) -> float:
    return (n / gamma) * LOG2 + 0.5 + n * (C0 + C1)


def local_ball(p: "ModelParams") -> tuple[float, float]:
    """Radii (k1, k2) of the sup-norm / squared-BMO ball preserved by the local map."""
    k1 = _k1(p.n, p.gamma, p.C0, p.C1)
    k2 = (p.n / p.gamma**2) * _exp(2.0 * p.gamma * p.C1) + (p.n / p.gamma) * _exp(
        4.0 * p.gamma * k1
    ) * (2.0 + 2.0 * p.C0)
    return k1, k2


def local_step(p: "ModelParams", terminal_bound: float | None = None) -> float:
    """Length of the time window on which the fixed-point map is self-consistent.

    ``terminal_bound`` overrides the declared C1 (used to derive the stitching
    window from the uniform a priori bound).  The second branch is evaluated in
    the factored form (gamma/n) * [ (n/gamma^2)*exp(2*gamma*C1 - 4*gamma*k1)
    + (n/gamma)*(2+2*C0) ] / denom, which equals (gamma/n)*exp(-4*gamma*k1)*k2
    / denom exactly but stays finite when exp(4*gamma*k1) alone would overflow.
    A return of 0.0 means the true value underflowed binary64.
    """
    C1 = p.C1 if terminal_bound is None else float(terminal_bound)
    if C1 < 0.0 or not math.isfinite(C1):
        raise ValueError(f"terminal bound must be finite and nonnegative, got {C1}")
    n, gamma, delta, K, C0 = p.n, p.gamma, p.delta, p.K, p.C0
    k1 = _k1(n, gamma, C0, C1)
    q = (1.0 + delta) / (1.0 - delta)
    c_dkn = c_delta_k_n(delta, K, n)
    phi2k1 = float(p.phi(2.0 * k1))
    if phi2k1 < 0.0:
        raise ValueError("phi returned a negative value")

    if c_dkn > 0.0:
        # (2*k2)**q via logs; overflow here means the power term is genuinely
        # astronomical and the window honestly underflows.
        log_k2 = np.logaddexp(
            math.log(n / gamma**2) + 2.0 * gamma * C1,
            math.log((n / gamma) * (2.0 + 2.0 * C0)) + 4.0 * gamma * k1,
        )
        coupling = c_dkn * _exp(q * (LOG2 + float(log_k2)))
    else:
        coupling = 0.0

    denom1 = n * phi2k1 + (n * gamma**q + 1.0) * coupling
    denom2 = 2.0 * phi2k1 + 4.0 * coupling
    if denom1 == 0.0 or denom2 == 0.0:
        raise ValueError(
            "degenerate window bound: phi(2*k1) and the coupling constant are both zero"
        )
    branch1 = k1 / denom1
    decayed_k2 = (n / gamma**2) * _exp(2.0 * gamma * C1 - 4.0 * gamma * k1) + (
        n / gamma
    ) * (2.0 + 2.0 * C0)
    branch2 = (gamma / n) * decayed_k2 / denom2
    return min(branch1, branch2)


def apriori_lambda(p: "ModelParams") -> tuple[float, float]:
    """(c3, lambda): the log-free constant and the uniform sup bound on [0, T].

    log(2*exp(gamma*C1) + 2) is evaluated as log2 + gamma*C1 + log1p(exp(-gamma*C1))
    so large gamma*C1 cannot overflow the intermediate exponential.
    """
    n, gamma = p.n, p.gamma
    log_term = LOG2 + gamma * p.C1 + math.log1p(_exp(-gamma * p.C1))
    c3 = (n / gamma) * log_term + 2.0 * n * (1.0 + 2.0 * n / gamma) * (
        p.C2 + 2.0 * p.T
    ) + 4.0 * n * p.C2
    lam = c3 * _exp(2.0 * n * p.C2 * (gamma + 1.0) + 4.0 * n * gamma * p.T)
    return c3, lam


def contraction_coefficients(
    eps: float, k1: float, k2: float, p: "ModelParams"
) -> tuple[float, float]:
    """Coefficients (coef_U, coef_V) of the one-step contraction estimate,
    with the comparison constants CONTRACTION_C2 and CONTRACTION_L4."""
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    c2, L4 = CONTRACTION_C2, CONTRACTION_L4
    n, delta, T = p.n, p.delta, p.T
    phi_sq = float(p.phi(2.0 * k1)) ** 2
    coef_u = 64.0 * n * eps * phi_sq * (T + 16.0 * c2**2 * k2 + 8.0 * k2)
    coef_v = (
        96.0
        * math.sqrt(3.0)
        * n
        * eps ** (1.0 - delta)
        * phi_sq
        * (1.0 + n * L4**2 * c2**2)
        * (T**delta + 8.0 + 12.0 * L4**2 * c2**2 * k2 + 4.0 * k2)
    )
    return coef_u, coef_v


@dataclass(frozen=True)
class ConstantsLedger:
    """All closed-form constants for one model, as binary64 numbers.

    ``t_lambda`` may be 0.0: the window derived from the uniform bound is
    mathematically positive but can underflow binary64 for strongly coupled
    models; the stitching planner then plans one full-interval window, whose
    reason says t_lambda is not positive.
    """

    c_dkn: float
    k1: float
    k2: float
    eps0: float
    c3: float
    lam: float
    t_lambda: float
    params: "ModelParams" = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "c_dkn": self.c_dkn,
            "k1": self.k1,
            "k2": self.k2,
            "eps0": self.eps0,
            "c3": self.c3,
            "lambda": self.lam,
            "t_lambda": self.t_lambda,
        }

    def validate(self) -> list[str]:
        """Return ledger fields that are not strictly positive and finite.

        c_dkn = 0 is legitimate for uncoupled models (K = 0) and is not
        reported; t_lambda = 0.0 is reported, since the stitching planner
        then plans the full interval, outside the guarantee.
        """
        bad = []
        for key, value in self.to_dict().items():
            if key == "c_dkn" and value == 0.0 and self.params.K == 0.0:
                continue
            if not (value > 0.0 and math.isfinite(value)):
                bad.append(key)
        return bad


def compute_ledger(p: "ModelParams") -> ConstantsLedger:
    """Evaluate the full constants ledger for one set of model parameters."""
    c_dkn = c_delta_k_n(p.delta, p.K, p.n)
    k1, k2 = local_ball(p)
    eps0 = local_step(p)
    c3, lam = apriori_lambda(p)
    t_lambda = local_step(p, terminal_bound=lam)
    return ConstantsLedger(
        c_dkn=c_dkn, k1=k1, k2=k2, eps0=eps0, c3=c3, lam=lam, t_lambda=t_lambda, params=p
    )
