"""Shared fixtures, and the test-local helpers that build pairs, balls and
log-inequality gaps the way the theory states them."""

import math
import sys

import numpy as np
import pytest

from mfbsde import engine
from mfbsde.model import terminal_values
from mfbsde.picard import BallSpec


def pair_from_fields(Y, Z) -> engine.ProcessPair:
    """A pair holding Y (N, L+1, n) and Z (N, L, n, d), layout kept, with each
    node's mean from ``engine._node_mean``: the reference the means a solve
    writes node by node are held to."""
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if Y.ndim != 3 or Z.ndim != 4:
        raise ValueError(f"expected Y (N, L+1, n) and Z (N, L, n, d), got {Y.shape}, {Z.shape}")
    if Z.shape[0] != Y.shape[0] or Z.shape[1] != Y.shape[1] - 1 or Z.shape[2] != Y.shape[2]:
        raise ValueError(f"inconsistent field shapes {Y.shape}, {Z.shape}")
    pair = engine.ProcessPair(Y=Y, Z=Z, mean_Y=np.empty(Y.shape[1:]), mean_Z=np.empty(Z.shape[1:]))
    for fld, mean in ((Y, pair.mean_Y), (Z, pair.mean_Z)):
        for j in range(fld.shape[1]):
            mean[j] = engine._node_mean(fld[:, j])
    return pair


def terminal_eta(terminal, ens) -> np.ndarray:
    """The (N, n) terminal data ``solve_auto`` hands its windows: the map of
    ``terminal`` on the states at T, read here off the ensemble's full paths."""
    return terminal_values(terminal, ens.cumulative)


def ball_from_ledger(grid, ledger, eps=None, k_hi=None) -> BallSpec:
    """The local theorem's ball: the largest window ending at k_hi (default
    the last node) that fits inside eps (default min(eps0, T))."""
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
    return BallSpec(
        k_lo=k_hi - steps,
        k_hi=k_hi,
        eps=float(length),
        k1=ledger.k1,
        k2=ledger.k2,
        within_guarantee=bool(length <= ledger.eps0 * (1 + 1e-12)),
    )


def log_inequality_gap(x, y, C):
    """Slack of C*log(1+x) <= x**2/y + C*log(1+C*y), the inequality behind the
    a priori estimate; nonnegative for positive inputs, which it requires.
    Scalars or arrays (broadcast)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    C = np.asarray(C, dtype=float)
    if np.any(x <= 0.0) or np.any(y <= 0.0) or np.any(C <= 0.0):
        raise ValueError("log_inequality_gap requires strictly positive x, y, C")
    gap = x * x / y + C * np.log1p(C * y) - C * np.log1p(x)
    return float(gap) if gap.ndim == 0 else gap


def _record_passes(monkeypatch, name):
    """Record the pair of every call of ``engine.<name>``, wherever the
    package calls it.

    Every module of the package that binds the engine function gets a
    recording wrapper, so a new call site is counted without editing this.
    """
    passes = []
    original = getattr(engine, name)

    def recording(*args, **kwargs):
        passes.append(args[0])
        return original(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "mfbsde" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, recording)
    return passes


@pytest.fixture
def bmo_passes(monkeypatch):
    """One entry per BMO regression pass (``bmo_profile``)."""
    return _record_passes(monkeypatch, "bmo_profile")


@pytest.fixture
def sup_passes(monkeypatch):
    """One entry per sup pass (``sup_norm_estimate``)."""
    return _record_passes(monkeypatch, "sup_norm_estimate")


@pytest.fixture
def projections(monkeypatch):
    """(node, target shape) of every projection, in call order.

    Every projection of the package goes through
    ``engine.NodeRegression.project``, so this one wrapper sees them all.
    """
    calls = []
    original = engine.NodeRegression.project

    def recording(self, values):
        calls.append((self.k, np.shape(values)))
        return original(self, values)

    monkeypatch.setattr(engine.NodeRegression, "project", recording)
    return calls
