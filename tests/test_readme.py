"""The README's library example, config table and call signatures match the code."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import mfbsde

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The one ```python block of the README's Library section."""
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, f"expected one python block under ## Library, got {len(blocks)}"
    return blocks[0]


def test_readme_library_example_runs(capsys):
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.converged and report.all_checks_passed()
    out = capsys.readouterr().out
    assert "apriori_sup" in out and "bmo_membership" in out


def config_table() -> dict[str, dict[str, tuple[str, str]]]:
    """section -> key -> (default text, accepted-values text), from the
    README's config table."""
    table = README.read_text().split("| section | key |", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines()[2:]:
        section, key, _, default, accepted = (cell.strip() for cell in line.strip("|").split("|"))
        rows.setdefault(section.strip("`[]"), {})[key.strip("`")] = (default, accepted)
    return rows


def test_readme_config_table_matches_the_schema():
    from mfbsde.cli import SCHEMA
    from mfbsde.engine import default_basis

    rows = config_table()
    assert set(rows.pop("case")) == {"name", "parameters"}
    assert {section: {key: accepted for key, (_, accepted) in keys.items()}
            for section, keys in rows.items()} == {
        section: {key: spec.expect for key, spec in keys.items()}
        for section, keys in SCHEMA.items()}
    # the default column is the schema's default, read with the key's caster;
    # the one unset default is the basis chosen by the state dimension
    for section, keys in SCHEMA.items():
        for key, spec in keys.items():
            default = rows[section][key][0]
            if spec.default is None:
                assert (section, key, default) == ("basis", "degree", "3 for d = 1, else 2")
                assert [default_basis(d).degree for d in (1, 2, 3)] == [3, 2, 2]
            else:
                assert spec.cast(default) == spec.default, (section, key, default)


def test_solver_defaults_are_one_set():
    # the [solver] defaults of the config are those of the library calls
    from mfbsde.cli import SCHEMA

    solver = {key: spec.default for key, spec in SCHEMA["solver"].items()}
    assert solver == {"tol": 1e-3, "max_iter": 25, "init": "terminal-flat"}
    for fn in (mfbsde.solve_auto, mfbsde.picard_solve):
        params = inspect.signature(fn).parameters
        assert {key: params[key].default for key in solver} == solver, fn.__name__


# Backticked calls that name a convention, not a callable of the package.
CONVENTIONS = {"drift"}


def readme_calls() -> list[tuple[str, list[str], dict]]:
    """(name, parameter names, defaults) of every backticked call
    `name(a, b, c=1)` in the README prose, code blocks left out."""
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    calls = []
    for span in re.findall(r"(?<!`)`([^`]+)`(?!`)", text):
        try:
            node = ast.parse(" ".join(span.split()), mode="eval").body
        except SyntaxError:
            continue
        if not (isinstance(node, ast.Call) and all(isinstance(a, ast.Name) for a in node.args)
                and re.fullmatch(r"[\w.]+", ast.unparse(node.func))):
            continue
        names = [a.id for a in node.args] + [k.arg for k in node.keywords]
        defaults = {k.arg: ast.literal_eval(k.value) for k in node.keywords}
        calls.append((ast.unparse(node.func), names, defaults))
    return calls


def resolve(name: str):
    """The public object a dotted README name refers to: looked up in the
    package namespace, then in each module of the package; None if none."""
    owners = [mfbsde] + [importlib.import_module(f"mfbsde.{m.name}")
                         for m in pkgutil.iter_modules(mfbsde.__path__)]
    head, *rest = name.split(".")
    for owner in owners:
        obj = getattr(owner, head, None) if not head.startswith("_") else None
        if obj is not None:
            for attr in rest:
                obj = getattr(obj, attr, None)
            return obj
    return None


def test_readme_call_signatures_match_the_code():
    # every backticked call in the README names a public callable with
    # exactly these parameters, in this order, and these defaults
    checked = set()
    for name, params, defaults in readme_calls():
        if name.split(".")[0] in CONVENTIONS:
            continue
        obj = resolve(name)
        assert callable(obj), f"README names `{name}(...)`, which is no public mfbsde callable"
        sig = {p.name: p for p in inspect.signature(obj).parameters.values() if p.name != "self"}
        assert params == list(sig), f"README `{name}{tuple(params)}` vs {inspect.signature(obj)}"
        for key, value in defaults.items():
            assert sig[key].default == value, f"README `{name}` default {key}={value!r}"
        checked.add(name)
    assert {"picard_solve", "apply_gamma", "solve_1d", "ProcessPair.window",
            "NodeRegression"} <= checked
