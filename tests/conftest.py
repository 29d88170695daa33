"""Shared fixtures."""

import sys

import pytest

from mfbsde import engine


@pytest.fixture
def bmo_passes(monkeypatch):
    """Record one entry per BMO regression pass, wherever the package calls it.

    Every module of the package that binds ``engine.bmo_profile`` gets a
    counting wrapper, so a new call site is counted without editing this.
    """
    passes = []
    original = engine.bmo_profile

    def counting(*args, **kwargs):
        passes.append(args[0])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "mfbsde" and getattr(module, "bmo_profile", None) is original:
            monkeypatch.setattr(module, "bmo_profile", counting)
    return passes
