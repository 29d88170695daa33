"""Every function, class and method of the package has a caller inside it,
every field of its dataclasses has a reader in the package or the benchmark
worker, and every name the package namespace re-exports has a reader
outside it."""

import ast
from collections import defaultdict
from pathlib import Path

import mfbsde
from test_readme import library_example

PACKAGE = Path(mfbsde.__file__).resolve().parent
ROOT = PACKAGE.parent.parent

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


# Unread fields that stay, each with its reason.
_REPORTED = "ROADMAP item 4 plans to report it in the run record"
_CONTRACTION = "the report of contraction_report, which ROADMAP item 4 plans to report"
ALLOWED_FIELDS = {
    "picard.BallSpec.within_guarantee": _REPORTED,
    "picard.PicardIteration.sup_y": _REPORTED,
    "picard.PicardIteration.bmo_sq": _REPORTED,
    "picard.ContractionReport.coef_u": _CONTRACTION,
    "picard.ContractionReport.coef_v": _CONTRACTION,
    "picard.ContractionReport.contracting_predicted": _CONTRACTION,
    "picard.ContractionReport.observed_ratios_y": _CONTRACTION,
    "picard.ContractionReport.observed_ratios_z": _CONTRACTION,
    "picard.ContractionReport.observed_contracting": _CONTRACTION,
}


def _named(node: ast.expr, name: str) -> bool:
    """Whether a decorator or callee is ``name`` or ``<module>.name``."""
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def unread_fields(package: Path, readers: list[Path]) -> set[str]:
    """Fields of the package's dataclasses whose name no ``ast.Attribute``
    in load context in the package or ``readers`` reads.  A class that
    serialises itself with ``asdict`` reads all of its fields."""
    paths = sorted(package.glob("*.py"))
    read = {node.attr for path in paths + readers for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = set()
    for path in paths:
        for cls in ast.parse(path.read_text()).body:
            if (not isinstance(cls, ast.ClassDef)
                    or not any(_named(d, "dataclass") for d in cls.decorator_list)
                    or any(isinstance(n, ast.Call) and _named(n, "asdict") for n in ast.walk(cls))):
                continue
            found.update(f"{path.stem}.{cls.name}.{item.target.id}" for item in cls.body
                         if isinstance(item, ast.AnnAssign) and item.target.id not in read)
    return found


def test_package_fields_have_readers():
    # data a solve builds only for the tests leaves the package; the
    # allow-list names each exception and goes stale as soon as one is read
    found = unread_fields(PACKAGE, [ROOT / "perfbench" / "worker.py"])
    assert found == set(ALLOWED_FIELDS), sorted(found ^ set(ALLOWED_FIELDS))


def reexports() -> set[str]:
    """The names ``__init__.py`` imports from the package's modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names}


def namespace_reads(source: str) -> set[str]:
    """The names `source` imports ``from mfbsde`` or reads as ``mfbsde.<name>``
    or ``mb.<name>``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "mfbsde":
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in ("mfbsde", "mb")):
            names.add(node.attr)
    return names


def test_package_namespace_names_have_readers():
    # __init__.py carries the names the README's library example, the tests
    # and the benchmark worker use; a name none of them reads leaves it
    sources = [library_example(), (ROOT / "perfbench" / "worker.py").read_text()]
    sources += [path.read_text() for path in sorted((ROOT / "tests").rglob("*.py"))]
    read = set().union(*map(namespace_reads, sources))
    assert not reexports() - read, sorted(reexports() - read)
