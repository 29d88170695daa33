"""The README's library example runs as written."""

import re
from pathlib import Path

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


def config_table() -> dict[str, dict[str, str]]:
    """section -> key -> accepted-values text, from the README's config table."""
    table = README.read_text().split("| section | key |", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines()[2:]:
        section, key, _, _, accepted = (cell.strip() for cell in line.strip("|").split("|"))
        rows.setdefault(section.strip("`[]"), {})[key.strip("`")] = accepted
    return rows


def test_readme_config_table_matches_the_schema():
    from mfbsde.cli import SCHEMA

    rows = config_table()
    assert set(rows.pop("case")) == {"name", "parameters"}
    assert rows == {section: {key: spec.expect for key, spec in keys.items()}
                    for section, keys in SCHEMA.items()}
