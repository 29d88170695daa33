"""Problem data and falsification-oriented assumption checks.

A model is (n, d, T), a generator f(t, y, ybar, z, zbar) -> R^n with a
diagonally quadratic structure, bounded terminal data, and the scalar budgets
(gamma, K, delta, phi, a, alpha, beta, eta, C0, C1, C2) that the structural
inequalities are declared against.  ``run_checks`` samples random tuples and
hunts for violations of those inequalities (H1, H2, H4); it can refute a
declaration, never prove it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import TerminalBoundError

# Slack applied to sampled inequalities so that declarations met with exact
# equality do not flag on floating-point reassociation.
_INEQ_RTOL = 1e-9

# Half-widths of the sampled boxes: y and ybar uniform in [-_BOX_Y, _BOX_Y]^n,
# z and zbar uniform in [-_BOX_Z, _BOX_Z]^(n x d).
_BOX_Y = 5.0
_BOX_Z = 5.0

# QUADPACK's 21-point Gauss-Kronrod rule (dqk21) on [-1, 1]: the positive
# Kronrod abscissae, outermost first, and their weights, the centre's last;
# the embedded 10-point Gauss rule uses abscissae 1, 3, ..., 9 (0-based).
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208024907260, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936740796367,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)

# scipy.integrate.quad's defaults: absolute and relative tolerance, and the
# most panels one integral may be split into.
_QUAD_EPSABS = 1.49e-8
_QUAD_EPSREL = 1.49e-8
_QUAD_LIMIT = 200


def _sample_fn(fn: Callable, ts: np.ndarray) -> np.ndarray:
    """fn called once on the float array ts, a scalar result broadcast to ts.shape."""
    return np.broadcast_to(np.asarray(fn(ts), dtype=float), ts.shape)


def _sample_budget(name: str, fn: Callable, ts: np.ndarray) -> np.ndarray:
    """``_sample_fn`` for the declared budget ``name``; ValueError unless fn
    broadcasts over ts and every sample is finite."""
    try:
        vals = _sample_fn(fn, ts)
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"{name} must accept a float array and return its shape or a scalar: {exc}"
        ) from exc
    if not np.isfinite(vals).all():
        raise ValueError(f"{name} must be finite on its sampled grid")
    return vals


def _kronrod21(fn: Callable, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QUADPACK's dqk21 on each panel [lo_i, hi_i]: the 21-point Kronrod
    result and its error estimate, with fn called once on all 21 nodes of
    every panel.  The sums run in dqk21's order (centre, then abscissae 1, 3,
    ..., 9, then 0, 2, ..., 8), so each result is bitwise the routine's."""
    centr = 0.5 * (lo + hi)
    hlgth = 0.5 * (hi - lo)
    absc = hlgth[:, None] * _XGK
    x = np.concatenate([centr[:, None] - absc, centr[:, None] + absc, centr[:, None]], axis=1)
    f = _sample_fn(fn, x.ravel()).reshape(x.shape)
    f1, f2, fc = f[:, :10], f[:, 10:20], f[:, 20]
    with np.errstate(all="ignore"):     # non-finite values flow into the result
        resg = np.zeros_like(centr)
        resk = _WGK[10] * fc
        resabs = np.abs(resk)
        for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
            fsum = f1[:, j] + f2[:, j]
            if j % 2:
                resg = resg + _WG[j // 2] * fsum
            resk = resk + _WGK[j] * fsum
            resabs = resabs + _WGK[j] * (np.abs(f1[:, j]) + np.abs(f2[:, j]))
        reskh = resk * 0.5
        resasc = _WGK[10] * np.abs(fc - reskh)
        for j in range(10):
            resasc = resasc + _WGK[j] * (np.abs(f1[:, j] - reskh) + np.abs(f2[:, j] - reskh))
        dhlgth = np.abs(hlgth)
        resabs = resabs * dhlgth
        resasc = resasc * dhlgth
        err = np.abs((resk - resg) * hlgth)
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
        err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
        floor = (_EPMACH * 50.0) * resabs
        err = np.where(resabs > _UFLOW / (50.0 * _EPMACH), np.maximum(floor, err), err)
    return resk * hlgth, err


def _converged(result, err) -> bool | np.ndarray:
    """quad's acceptance test, failed by a non-finite result or estimate."""
    return np.isfinite(result) & (err <= np.maximum(_QUAD_EPSABS, _QUAD_EPSREL * np.abs(result)))


def _integrate(fn: Callable, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integral of fn over each [lo_i, hi_i], for 1-D float arrays lo, hi.

    Each interval is first one dqk21 panel, all in one call of fn; where that
    passes quad's acceptance test the result is bitwise
    ``scipy.integrate.quad(fn, lo_i, hi_i, limit=200)[0]``.  An interval that
    fails it is bisected globally: the panel with the largest error estimate
    is halved until the summed estimate passes the test.  ValueError when an
    integral is not finite or needs more than _QUAD_LIMIT panels.
    """
    result, err = _kronrod21(fn, lo, hi)
    for i in np.flatnonzero(~_converged(result, err)):
        result[i] = _bisect(fn, lo[i], hi[i])
    return result


def _bisect(fn: Callable, lo: float, hi: float) -> float:
    """Global adaptive dqk21 quadrature of fn over [lo, hi] (see _integrate)."""
    edges = np.array([lo, hi])
    res, err = _kronrod21(fn, edges[:-1], edges[1:])
    while not _converged(res.sum(), err.sum()):
        if not np.isfinite(res).all():
            raise ValueError("is not finite")
        if res.size == _QUAD_LIMIT:
            raise ValueError(f"did not converge within {_QUAD_LIMIT} panels")
        k = int(np.argmax(err))
        edges = np.insert(edges, k + 1, 0.5 * (edges[k] + edges[k + 1]))
        res, err = np.insert(res, k, 0.0), np.insert(err, k, 0.0)
        res[k:k + 2], err[k:k + 2] = _kronrod21(fn, edges[k:k + 2], edges[k + 1:k + 3])
    return float(res.sum())


def _budget_integral(name: str, fn: Callable, T: float) -> float:
    """_integrate of fn over [0, T]; its ValueError names the integral."""
    try:
        return float(_integrate(fn, np.zeros(1), np.array([T]))[0])
    except ValueError as exc:
        raise ValueError(f"{name} {exc}") from exc


@dataclass(frozen=True)
class ModelParams:
    """Declared structure of one mean-field model.

    phi must be nondecreasing and nonnegative; a, alpha, beta, eta are
    deterministic nonnegative functions of time.  Each of phi, a, alpha, beta
    and eta must accept a 1-D float array and return an array of its shape or
    a scalar, which is broadcast; the integrals call them on such arrays too.
    Construction samples each on a (201,) grid and rejects one that does not
    broadcast or is not finite there.  C0 bounds the integral of a, C1 bounds
    the terminal data, C2 bounds the integral of alpha + beta + eta*log(1+eta);
    construction also rejects either integral over [0, T] when it is not
    finite or does not converge within _QUAD_LIMIT panels.
    The budgets C0, C1, C2 may be zero (the degenerate edge is exercised by
    the constants ledger).
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
            vals = _sample_budget(name, getattr(self, name), ts)
            if np.any(vals < -1e-12):
                raise ValueError(f"{name}(t) must be nonnegative on [0, T]")

        # phi nondecreasing and nonnegative on a sampled grid reaching past
        # the ball radius 2*k1 for any plausible window.
        r_max = max(10.0, 4.0 * self.n * (self.C0 + self.C1 + 1.0))
        if not math.isfinite(r_max):
            raise ValueError(f"phi's sampling radius 4*n*(C0 + C1 + 1) is {r_max} for C0 = "
                             f"{self.C0:.6g}, C1 = {self.C1:.6g}; it must be finite")
        rs = np.linspace(0.0, r_max, 201)
        pv = _sample_budget("phi", self.phi, rs)
        if np.any(pv < -1e-12):
            raise ValueError("phi must map [0, inf) into [0, inf)")
        if np.any(np.diff(pv) < -1e-9 * (1.0 + np.abs(pv[:-1]))):
            raise ValueError("phi must be nondecreasing")

        slack = 1e-8
        a_int = _budget_integral("integral of a over [0, T]", self.a, self.T)
        if a_int > self.C0 + slack * max(1.0, self.C0):
            raise ValueError(
                f"integral of a over [0, T] is {a_int:.6g}, exceeding C0 = {self.C0:.6g}"
            )

        def mix(t):
            eta = self.eta(t)
            return self.alpha(t) + self.beta(t) + eta * np.log1p(eta)

        mix_int = _budget_integral("integral of alpha + beta + eta*log(1+eta)", mix, self.T)
        if mix_int > self.C2 + slack * max(1.0, self.C2):
            raise ValueError(
                f"integral of alpha + beta + eta*log(1+eta) is {mix_int:.6g}, "
                f"exceeding C2 = {self.C2:.6g}"
            )


@dataclass(frozen=True, eq=False)
class Generator:
    """Vectorized driver f(t, y, ybar, z, zbar) -> R^n, given row by row.

    ``fn(i, t, y, ybar, z_i, z, zbar)`` returns f^i over the leading axes:
    t scalar or (B,), y and ybar (..., n), z_i (..., d) the own row, z and
    zbar (..., n, d).  z is the frozen environment: f^i is evaluated with
    row i of z replaced by z_i, so fn must not read z's row i.  Mean
    arguments may be passed unbatched ((n,) and (n, d)) and are broadcast
    against the sample axis.
    """

    fn: Callable[..., np.ndarray]
    params: ModelParams
    name: str = ""

    def component(self, i: int, t, y, ybar, z_i, z, zbar) -> np.ndarray:
        """f^i (0-based) with own row z_i in the environment z; raises
        ValueError unless the result has the broadcast shape of the leading
        axes of y, ybar, z_i, z and zbar."""
        if not 0 <= i < self.params.n:
            raise IndexError(f"component index {i} out of range for n = {self.params.n}")
        y, ybar, z_i, z, zbar = (np.asarray(a, dtype=float) for a in (y, ybar, z_i, z, zbar))
        out = np.asarray(self.fn(i, t, y, ybar, z_i, z, zbar), dtype=float)
        expected = np.broadcast_shapes(y.shape[:-1], ybar.shape[:-1], z_i.shape[:-1],
                                       z.shape[:-2], zbar.shape[:-2])
        if out.shape != expected:
            raise ValueError(
                f"generator {self.name!r} returned shape {out.shape}, expected {expected}"
            )
        return out

    def eval(self, t, y, ybar, z, zbar) -> np.ndarray:
        """All n components at z, stacked on a last axis: component i with
        z_i = z[..., i, :]."""
        z = np.asarray(z, dtype=float)
        return np.stack([self.component(i, t, y, ybar, z[..., i, :], z, zbar)
                         for i in range(self.params.n)], axis=-1)


@dataclass(frozen=True, eq=False)
class TerminalCondition:
    """Bounded terminal data xi = g(W_T): ``g`` maps the (N, d) states at T to
    (N, n).  The solver projects onto functions of W_{t_k} alone, so terminal
    data that read the rest of the path could not be solved without bias.
    ``bound`` caps the Euclidean norm per particle; evaluation rejects any
    sample exceeding it or not finite.  When params are attached the bound
    must respect C1.
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
    """Evaluate terminal data on the last node of paths (N, K, d), enforcing the
    bound; a solve passes ``ens.node(M)[:, None]``, which gives full paths' bytes."""
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 3 or paths.shape[1] == 0:
        raise ValueError(f"terminal paths must have shape (N, K >= 1, d), got {paths.shape}")
    vals = np.asarray(tc.g(paths[:, -1]), dtype=float)
    if vals.ndim != 2 or vals.shape[0] != paths.shape[0]:
        raise ValueError(f"terminal map returned shape {vals.shape}, expected (N, n)")
    norms = np.sqrt((vals * vals).sum(axis=1))
    worst = float(norms.max())
    if not worst <= tc.bound * (1.0 + 1e-12):        # NaN fails too
        raise TerminalBoundError(
            f"terminal sample norm {worst:.6g} is not within the declared bound {tc.bound:.6g}"
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


def _vec_norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt((x * x).sum(axis=-1))


def _frob(x: np.ndarray) -> np.ndarray:
    return np.sqrt((x * x).sum(axis=(-2, -1)))


def _report(name, lhs, rhs, samples, seed, tuples: dict) -> AssumptionReport:
    """Report on the elementwise margins rhs - lhs, each with scaled slack; the
    first violation records its sample of every array in ``tuples``."""
    margins = rhs - lhs
    tol = _INEQ_RTOL * (1.0 + np.abs(rhs))
    viol = ~(margins >= -tol)           # a NaN margin is a violation
    n_viol = int(viol.sum())
    first = None
    if n_viol:
        b, i = (int(v) for v in np.argwhere(viol)[0])
        first = {
            "sample": b,
            "component": i,
            "lhs": float(lhs[b, i]),
            "rhs": float(rhs[b, i]),
            "margin": float(margins[b, i]),
        }
        for key, arr in tuples.items():
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


def run_checks(
    gen: Generator,
    p: ModelParams,
    samples: int = 10_000,
    rng_seed: int = 0,
) -> dict[str, AssumptionReport]:
    """Sampled checks of the structural inequalities, keyed by name.

    All three share one draw of ``samples`` tuples (t, y, ybar, z, zbar), with
    t uniform on [0, T] and the rest uniform on the boxes above:

    H1  |f_i| <= a(t) + phi(|y| v |ybar|) + (gamma/2)|z_i|^2
                 + K*(sum_{j != i} |z_j|^(1+delta) + |zbar|^(1+delta));
    H2  the local Lipschitz envelope between each tuple and a second one that
        shares t and perturbs the rest at a log-uniform scale in
        [1e-4, max(_BOX_Y, _BOX_Z)], so discontinuities are probed at all
        distances, including nearly coincident points;
    H4  sign(y_i) * f_i <= alpha(t) + beta(t)*(|y| v |ybar|)
                           + eta(t)*log(|z| + 1) + (gamma/2)|z_i|^2.

    The generator is evaluated on the draw and on its perturbation, nothing
    else; the perturbation continues the draw's rng stream.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(rng_seed)
    t = rng.uniform(0.0, p.T, samples)
    y = rng.uniform(-_BOX_Y, _BOX_Y, (samples, p.n))
    ybar = rng.uniform(-_BOX_Y, _BOX_Y, (samples, p.n))
    z = rng.uniform(-_BOX_Z, _BOX_Z, (samples, p.n, p.d))
    zbar = rng.uniform(-_BOX_Z, _BOX_Z, (samples, p.n, p.d))
    scale = np.exp(rng.uniform(math.log(1e-4), math.log(max(_BOX_Y, _BOX_Z)), samples))
    y2 = y + scale[:, None] * rng.uniform(-1.0, 1.0, y.shape)
    ybar2 = ybar + scale[:, None] * rng.uniform(-1.0, 1.0, ybar.shape)
    z2 = z + scale[:, None, None] * rng.uniform(-1.0, 1.0, z.shape)
    zbar2 = zbar + scale[:, None, None] * rng.uniform(-1.0, 1.0, zbar.shape)
    f = gen.eval(t, y, ybar, z, zbar)
    f2 = gen.eval(t, y2, ybar2, z2, zbar2)

    big_y = np.maximum(_vec_norm(y), _vec_norm(ybar))
    zn, zbn = _frob(z), _frob(zbar)
    row_sq = (z * z).sum(axis=-1)                       # (B, n)
    quad = 0.5 * p.gamma * row_sq
    tuples = {"t": t, "y": y, "ybar": ybar, "z": z, "zbar": zbar}

    row_pow = row_sq ** (0.5 * (1.0 + p.delta))
    off_diag = row_pow.sum(axis=1, keepdims=True) - row_pow
    rhs1 = (
        _sample_fn(p.a, t)[:, None]
        + _sample_fn(p.phi, big_y)[:, None]
        + quad
        + p.K * (off_diag + zbn[:, None] ** (1.0 + p.delta))
    )

    big_y2 = np.maximum(big_y, np.maximum(_vec_norm(y2), _vec_norm(ybar2)))
    zn2, zbn2 = _frob(z2), _frob(zbar2)
    dy, dybar, dzbar = _vec_norm(y - y2), _vec_norm(ybar - ybar2), _frob(zbar - zbar2)
    drow = _vec_norm(z - z2)                            # (B, n) per-row differences
    off_sum = drow.sum(axis=1, keepdims=True) - drow
    lin_weight = 1.0 + zn + zbn + zn2 + zbn2
    pow_weight = 1.0 + zn**p.delta + zbn**p.delta + zn2**p.delta + zbn2**p.delta
    rhs2 = _sample_fn(p.phi, big_y2)[:, None] * (
        lin_weight[:, None] * (dy[:, None] + dybar[:, None] + drow)
        + pow_weight[:, None] * (dzbar[:, None] + off_sum)
    )

    rhs4 = (
        _sample_fn(p.alpha, t)[:, None]
        + _sample_fn(p.beta, t)[:, None] * big_y[:, None]
        + _sample_fn(p.eta, t)[:, None] * np.log1p(zn)[:, None]
        + quad
    )
    return {
        "H1": _report("H1", np.abs(f), rhs1, samples, rng_seed, tuples),
        "H2": _report("H2", np.abs(f - f2), rhs2, samples, rng_seed, {
            "t": t,
            "y1": y, "ybar1": ybar, "z1": z, "zbar1": zbar,
            "y2": y2, "ybar2": ybar2, "z2": z2, "zbar2": zbar2,
        }),
        "H4": _report("H4", np.sign(y) * f, rhs4, samples, rng_seed, tuples),
    }
