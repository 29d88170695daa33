"""Only the modules that define, build and evaluate the terminal condition
refer to it: ``model``, ``benchmarks``, ``global_solver`` and ``__init__``.
``solve_auto`` evaluates the map, and every layer below it takes the (N, n)
terminal data as an array, so the choice of terminal form stays in one
place."""

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
