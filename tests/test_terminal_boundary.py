"""Only the modules that define, build and evaluate the terminal condition
refer to it: ``model``, ``benchmarks``, ``global_solver`` and ``__init__``.
``solve_auto`` evaluates the map, and every layer below it takes the (N, n)
terminal data as an array, so the choice of terminal form stays in one
place.  The map reads the states at T, so no module reads an ensemble's
full path array, ``Ensemble.cumulative``: a solve never holds it."""

import ast
from pathlib import Path

import mfbsde

PACKAGE = Path(mfbsde.__file__).resolve().parent
TERMINAL_NAMES = {"TerminalCondition", "terminal_values"}
KNOW_THE_TERMINAL = {"model", "benchmarks", "global_solver", "__init__"}


def terminal_references(source: str) -> set[str]:
    """The names of TERMINAL_NAMES that ``source`` imports, or refers to as
    a name, an attribute or a string annotation."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = {node.value}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {alias.name.rpartition(".")[2] for alias in node.names}
        else:
            continue
        found |= names & TERMINAL_NAMES
    return found


def test_only_the_terminal_layer_refers_to_the_terminal_condition():
    refs = {path.stem: terminal_references(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}
    offenders = {stem: sorted(names) for stem, names in refs.items()
                 if names and stem not in KNOW_THE_TERMINAL}
    assert not offenders, offenders
    assert refs["global_solver"] == TERMINAL_NAMES


def test_the_check_sees_every_form_of_reference():
    for source in ("from .model import Generator, TerminalCondition",
                   "from . import model\nx = model.terminal_values",
                   "import mfbsde.model.terminal_values",
                   "def f(t: 'TerminalCondition'): pass",
                   "isinstance(t, TerminalCondition)"):
        assert terminal_references(source), source
    assert not terminal_references("from .model import Generator, _integrate")


def cumulative_reads(source: str) -> list[int]:
    """The lines of ``source`` that read an attribute ``cumulative``, by name
    or through ``getattr``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "cumulative":
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant) and node.args[1].value == "cumulative"):
            lines.append(node.lineno)
    return lines


def test_no_module_reads_the_full_path_array():
    reads = {path.stem: cumulative_reads(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    offenders = {stem: lines for stem, lines in reads.items() if lines}
    assert not offenders, offenders


def test_the_path_check_sees_every_read():
    for source in ("eta = g(ens.cumulative[:, -1])",
                   "parts = [chunk.cumulative for chunk in chunks]",
                   "paths = getattr(ens, 'cumulative')"):
        assert cumulative_reads(source), source
    assert not cumulative_reads("Ensemble(grid, N, d, seed, increments, cumulative=paths)")
    assert not cumulative_reads("raise ValueError('give the paths as cumulative')")
