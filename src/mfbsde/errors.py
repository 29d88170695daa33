"""Exception types shared across the solver stack."""

from __future__ import annotations


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration (CLI exit code 2)."""


class BlowUpError(RuntimeError):
    """Backward induction escaped its a priori sup-norm guard (CLI exit code 3)."""

    def __init__(self, node: int, value: float, guard: float, component: int):
        self.node = node
        self.value = value
        self.guard = guard
        self.component = component
        super().__init__(
            f"solution blow-up: component {component}, node {node}: max |Y| = {value:.6g} "
            f"exceeds guard {guard:.6g}"
        )


class StitchError(RuntimeError):
    """A stitched window did not converge or its left edge escaped lambda;
    ``solve_auto`` then plans the full interval with this message as reason."""


class TerminalBoundError(ValueError):
    """Terminal data (or a stitched terminal field) violates its declared sup bound."""
