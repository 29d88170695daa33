"""Shared fixtures."""

import sys

import numpy as np
import pytest

from mfbsde import engine


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
