"""Every function, class and method of the package has a caller inside it."""

import ast
from collections import defaultdict
from pathlib import Path

import mfbsde

PACKAGE = Path(mfbsde.__file__).resolve().parent

# Uncalled names that stay, each with its reason.
ALLOWED = {
    "picard.contraction_report": "ROADMAP item 4 may give it a production caller",
}


def definitions(tree: ast.Module):
    """(qualified name, name, node) of every module-level function and class
    and every non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item.name, item


def uncalled(package: Path) -> set[str]:
    """Definitions in the package's modules, ``__init__.py`` left out, whose
    name no ``ast.Name`` or ``ast.Attribute`` anywhere in the package refers
    to outside the definition's own body."""
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))}
    references = defaultdict(set)      # name -> ids of the nodes that refer to it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references[node.id].add(id(node))
            elif isinstance(node, ast.Attribute):
                references[node.attr].add(id(node))
    found = set()
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for qualname, name, node in definitions(tree):
            own = {id(inner) for inner in ast.walk(node)}
            if not references[name] - own:
                found.add(f"{path.stem}.{qualname}")
    return found


def test_package_code_has_callers_in_the_package():
    # a helper that only tests call moves into the tests; the allow-list
    # names each exception and goes stale as soon as one gains a caller
    found = uncalled(PACKAGE)
    assert found == set(ALLOWED), sorted(found ^ set(ALLOWED))

