"""Problem data and falsification-oriented assumption checks.

A model is (n, d, T), a generator f(t, y, ybar, z, zbar) -> R^n with a
diagonally quadratic structure, bounded terminal data, and the scalar budgets
(gamma, K, delta, phi, a, alpha, beta, eta, C0, C1, C2) that the structural
inequalities are declared against.  The check_* functions sample random
tuples and hunt for violations of those inequalities; they can refute a
declaration, never prove it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import TerminalBoundError

# Slack applied to sampled inequalities so that declarations met with exact
# equality do not flag on floating-point reassociation.
_INEQ_RTOL = 1e-9

# Half-widths of the sampled boxes: y and ybar uniform in [-_BOX_Y, _BOX_Y]^n,
# z and zbar uniform in [-_BOX_Z, _BOX_Z]^(n x d).
_BOX_Y = 5.0
_BOX_Z = 5.0


def _sample_fn(fn: Callable[[float], float], ts: np.ndarray) -> np.ndarray:
    return np.array([float(fn(float(t))) for t in ts])


@dataclass(frozen=True)
class ModelParams:
    """Declared structure of one mean-field model.

    phi must be nondecreasing and nonnegative; a, alpha, beta, eta are
    deterministic nonnegative functions of time; C0 bounds the integral of a,
    C1 bounds the terminal data, C2 bounds the integral of
    alpha + beta + eta*log(1+eta).  The budgets C0, C1, C2 may be zero (the
    degenerate edge is exercised by the constants ledger).
    """

    n: int
    d: int
    T: float
    gamma: float
    K: float
    delta: float
    phi: Callable[[float], float]
    a: Callable[[float], float]
    alpha: Callable[[float], float]
    beta: Callable[[float], float]
    eta: Callable[[float], float]
    C0: float
    C1: float
    C2: float

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive integers")
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"T must be finite and positive, got {self.T}")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and positive, got {self.gamma}")
        if not 0.0 <= self.K < math.inf:
            raise ValueError(f"K must be finite and nonnegative, got {self.K}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")
        for name in ("C0", "C1", "C2"):
            v = getattr(self, name)
            if v < 0.0 or not math.isfinite(v):
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")

        ts = np.linspace(0.0, self.T, 201)
        for name in ("a", "alpha", "beta", "eta"):
            vals = _sample_fn(getattr(self, name), ts)
            if np.any(vals < -1e-12):
                raise ValueError(f"{name}(t) must be nonnegative on [0, T]")

        # phi nondecreasing and nonnegative on a sampled grid reaching past
        # the ball radius 2*k1 for any plausible window.
        r_max = max(10.0, 4.0 * self.n * (self.C0 + self.C1 + 1.0))
        rs = np.linspace(0.0, r_max, 201)
        pv = _sample_fn(self.phi, rs)
        if np.any(pv < -1e-12):
            raise ValueError("phi must map [0, inf) into [0, inf)")
        if np.any(np.diff(pv) < -1e-9 * (1.0 + np.abs(pv[:-1]))):
            raise ValueError("phi must be nondecreasing")

        slack = 1e-8
        a_int = quad(self.a, 0.0, self.T, limit=200)[0]
        if a_int > self.C0 + slack * max(1.0, self.C0):
            raise ValueError(
                f"integral of a over [0, T] is {a_int:.6g}, exceeding C0 = {self.C0:.6g}"
            )
        mix = lambda t: self.alpha(t) + self.beta(t) + self.eta(t) * math.log1p(self.eta(t))
        mix_int = quad(mix, 0.0, self.T, limit=200)[0]
        if mix_int > self.C2 + slack * max(1.0, self.C2):
            raise ValueError(
                f"integral of alpha + beta + eta*log(1+eta) is {mix_int:.6g}, "
                f"exceeding C2 = {self.C2:.6g}"
            )


@dataclass(frozen=True, eq=False)
class Generator:
    """Vectorized driver f(t, y, ybar, z, zbar) -> R^n.

    ``fn`` must broadcast: t scalar or (B,), y and ybar (..., n), z and zbar
    (..., n, d), returning (..., n).  Mean arguments may be passed unbatched
    ((n,) and (n, d)) and are broadcast against the sample axis.
    """

    fn: Callable[..., np.ndarray]
    params: ModelParams
    name: str = ""

    def eval(self, t, y, ybar, z, zbar) -> np.ndarray:
        """fn at the given arguments; raises ValueError unless the result has
        the broadcast shape of y, ybar and the rows of z and zbar."""
        y, ybar, z, zbar = (np.asarray(a, dtype=float) for a in (y, ybar, z, zbar))
        out = np.asarray(self.fn(t, y, ybar, z, zbar), dtype=float)
        expected = np.broadcast_shapes(y.shape, ybar.shape, z.shape[:-1], zbar.shape[:-1])
        if out.shape != expected:
            raise ValueError(
                f"generator {self.name!r} returned shape {out.shape}, expected {expected}"
            )
        return out

    def component(self, i: int, t, y, ybar, z, zbar) -> np.ndarray:
        """The i-th coordinate of eval (0-based)."""
        if not 0 <= i < self.params.n:
            raise IndexError(f"component index {i} out of range for n = {self.params.n}")
        return self.eval(t, y, ybar, z, zbar)[..., i]


@dataclass(frozen=True, eq=False)
class TerminalCondition:
    """Bounded terminal data: a map from the discrete Brownian path to R^n.

    ``g`` receives the cumulative path array (N, M+1, d) and returns (N, n).
    ``bound`` caps the Euclidean norm per particle; evaluation rejects any
    sample exceeding it.  When params are attached the bound must respect C1.
    """

    g: Callable[[np.ndarray], np.ndarray]
    bound: float
    params: ModelParams | None = None

    def __post_init__(self):
        if not self.bound > 0.0:
            raise ValueError(f"terminal bound must be positive, got {self.bound}")
        if self.params is not None and self.bound > self.params.C1 * (1.0 + 1e-12):
            raise ValueError(
                f"terminal bound {self.bound:.6g} exceeds declared C1 = {self.params.C1:.6g}"
            )


def terminal_values(tc: TerminalCondition, paths: np.ndarray) -> np.ndarray:
    """Evaluate terminal data on cumulative paths (N, M+1, d), enforcing the bound."""
    vals = np.asarray(tc.g(np.asarray(paths, dtype=float)), dtype=float)
    if vals.ndim != 2 or vals.shape[0] != paths.shape[0]:
        raise ValueError(f"terminal map returned shape {vals.shape}, expected (N, n)")
    norms = np.sqrt((vals * vals).sum(axis=1))
    worst = float(norms.max())
    if worst > tc.bound * (1.0 + 1e-12):
        raise TerminalBoundError(
            f"terminal sample norm {worst:.6g} exceeds declared bound {tc.bound:.6g}"
        )
    return vals


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of one sampled structural check. Deterministic given the seed."""

    name: str
    passed: bool
    samples: int
    seed: int
    violations: int
    worst_margin: float
    first_violation: dict | None

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (
            f"{self.name}: {status} ({self.samples} samples, "
            f"{self.violations} violations, worst margin {self.worst_margin:.3e})"
        )

    def to_dict(self) -> dict:
        return asdict(self)


def _draw(rng, p: ModelParams, samples: int):
    t = rng.uniform(0.0, p.T, samples)
    y = rng.uniform(-_BOX_Y, _BOX_Y, (samples, p.n))
    ybar = rng.uniform(-_BOX_Y, _BOX_Y, (samples, p.n))
    z = rng.uniform(-_BOX_Z, _BOX_Z, (samples, p.n, p.d))
    zbar = rng.uniform(-_BOX_Z, _BOX_Z, (samples, p.n, p.d))
    return t, y, ybar, z, zbar


def _vec_norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt((x * x).sum(axis=-1))


def _frob(x: np.ndarray) -> np.ndarray:
    return np.sqrt((x * x).sum(axis=(-2, -1)))


def _report(name, margins, samples, seed, payload) -> AssumptionReport:
    """Assemble a report from elementwise margins rhs - lhs with scaled slack."""
    lhs, rhs = payload["lhs"], payload["rhs"]
    tol = _INEQ_RTOL * (1.0 + np.abs(rhs))
    viol = margins < -tol
    n_viol = int(viol.sum())
    first = None
    if n_viol:
        flat = np.argwhere(viol)
        b, i = (int(v) for v in flat[0])
        first = {
            "sample": b,
            "component": i,
            "lhs": float(lhs[b, i]),
            "rhs": float(rhs[b, i]),
            "margin": float(margins[b, i]),
        }
        for key, arr in payload.get("tuple", {}).items():
            first[key] = np.asarray(arr[b]).tolist()
    return AssumptionReport(
        name=name,
        passed=n_viol == 0,
        samples=samples,
        seed=seed,
        violations=n_viol,
        worst_margin=float(margins.min()),
        first_violation=first,
    )


def check_h1(
    gen: Generator,
    p: ModelParams,
    samples: int = 10_000,
    rng_seed: int = 0,
) -> AssumptionReport:
    """Sampled check of the componentwise growth envelope.

    |f_i| <= a(t) + phi(|y| v |ybar|) + (gamma/2)|z_i|^2
             + K*(sum_{j != i} |z_j|^(1+delta) + |zbar|^(1+delta)).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(rng_seed)
    t, y, ybar, z, zbar = _draw(rng, p, samples)
    f = gen.eval(t, y, ybar, z, zbar)
    a_t = _sample_fn(p.a, t)
    phi_t = _sample_fn(p.phi, np.maximum(_vec_norm(y), _vec_norm(ybar)))
    row_sq = (z * z).sum(axis=-1)                       # (B, n)
    row_pow = row_sq ** (0.5 * (1.0 + p.delta))
    off_diag = row_pow.sum(axis=1, keepdims=True) - row_pow
    rhs = (
        a_t[:, None]
        + phi_t[:, None]
        + 0.5 * p.gamma * row_sq
        + p.K * (off_diag + _frob(zbar)[:, None] ** (1.0 + p.delta))
    )
    lhs = np.abs(f)
    return _report(
        "H1",
        rhs - lhs,
        samples,
        rng_seed,
        {"lhs": lhs, "rhs": rhs, "tuple": {"t": t, "y": y, "ybar": ybar, "z": z, "zbar": zbar}},
    )


def check_h2(
    gen: Generator,
    p: ModelParams,
    samples: int = 10_000,
    rng_seed: int = 0,
) -> AssumptionReport:
    """Sampled check of the local Lipschitz envelope between pairs of tuples.

    Pairs share t; the second tuple perturbs the first at a log-uniform scale
    in [1e-4, max(_BOX_Y, _BOX_Z)], so discontinuities are probed at all
    distances, including nearly coincident points.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(rng_seed)
    t, y1, ybar1, z1, zbar1 = _draw(rng, p, samples)
    scale = np.exp(rng.uniform(math.log(1e-4), math.log(max(_BOX_Y, _BOX_Z)), samples))
    y2 = y1 + scale[:, None] * rng.uniform(-1.0, 1.0, y1.shape)
    ybar2 = ybar1 + scale[:, None] * rng.uniform(-1.0, 1.0, ybar1.shape)
    z2 = z1 + scale[:, None, None] * rng.uniform(-1.0, 1.0, z1.shape)
    zbar2 = zbar1 + scale[:, None, None] * rng.uniform(-1.0, 1.0, zbar1.shape)

    f1 = gen.eval(t, y1, ybar1, z1, zbar1)
    f2 = gen.eval(t, y2, ybar2, z2, zbar2)
    lhs = np.abs(f1 - f2)

    big_y = np.maximum(
        np.maximum(_vec_norm(y1), _vec_norm(ybar1)),
        np.maximum(_vec_norm(y2), _vec_norm(ybar2)),
    )
    phi_t = _sample_fn(p.phi, big_y)
    zn1, zbn1, zn2, zbn2 = _frob(z1), _frob(zbar1), _frob(z2), _frob(zbar2)
    dy = _vec_norm(y1 - y2)
    dybar = _vec_norm(ybar1 - ybar2)
    drow = _vec_norm(z1 - z2)                            # (B, n) per-row differences
    dzbar = _frob(zbar1 - zbar2)
    off_sum = drow.sum(axis=1, keepdims=True) - drow

    lin_weight = 1.0 + zn1 + zbn1 + zn2 + zbn2
    pow_weight = 1.0 + zn1**p.delta + zbn1**p.delta + zn2**p.delta + zbn2**p.delta
    rhs = phi_t[:, None] * (
        lin_weight[:, None] * (dy[:, None] + dybar[:, None] + drow)
        + pow_weight[:, None] * (dzbar[:, None] + off_sum)
    )
    return _report(
        "H2",
        rhs - lhs,
        samples,
        rng_seed,
        {
            "lhs": lhs,
            "rhs": rhs,
            "tuple": {
                "t": t,
                "y1": y1, "ybar1": ybar1, "z1": z1, "zbar1": zbar1,
                "y2": y2, "ybar2": ybar2, "z2": z2, "zbar2": zbar2,
            },
        },
    )


def check_h4(
    gen: Generator,
    p: ModelParams,
    samples: int = 10_000,
    rng_seed: int = 0,
) -> AssumptionReport:
    """Sampled check of the signed (one-sided) growth envelope.

    sign(y_i) * f_i <= alpha(t) + beta(t)*(|y| v |ybar|)
                       + eta(t)*log(|z| + 1) + (gamma/2)|z_i|^2.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(rng_seed)
    t, y, ybar, z, zbar = _draw(rng, p, samples)
    f = gen.eval(t, y, ybar, z, zbar)
    lhs = np.sign(y) * f
    alpha_t = _sample_fn(p.alpha, t)
    beta_t = _sample_fn(p.beta, t)
    eta_t = _sample_fn(p.eta, t)
    row_sq = (z * z).sum(axis=-1)
    rhs = (
        alpha_t[:, None]
        + beta_t[:, None] * np.maximum(_vec_norm(y), _vec_norm(ybar))[:, None]
        + eta_t[:, None] * np.log1p(_frob(z))[:, None]
        + 0.5 * p.gamma * row_sq
    )
    return _report(
        "H4",
        rhs - lhs,
        samples,
        rng_seed,
        {"lhs": lhs, "rhs": rhs, "tuple": {"t": t, "y": y, "ybar": ybar, "z": z, "zbar": zbar}},
    )


def run_checks(
    gen: Generator,
    p: ModelParams,
    samples: int = 10_000,
    rng_seed: int = 0,
) -> dict[str, AssumptionReport]:
    """Run all sampled structural checks and key the reports by name."""
    return {
        "H1": check_h1(gen, p, samples, rng_seed),
        "H2": check_h2(gen, p, samples, rng_seed),
        "H4": check_h4(gen, p, samples, rng_seed),
    }
