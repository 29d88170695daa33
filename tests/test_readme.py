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
