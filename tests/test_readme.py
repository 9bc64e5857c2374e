"""README's instance document and Library example run as written."""

import re
from pathlib import Path

from reserves import parse_instance

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(lang: str, section: str = "") -> str:
    """The first ``lang`` code block at or after the ``section`` heading."""
    text = README[README.index(section):]
    return re.search(rf"```{lang}\n(.*?)```", text, re.S).group(1)


def test_library_example_runs_on_the_instance_document(tmp_path, monkeypatch):
    doc = fenced("json")
    parse_instance(doc)
    (tmp_path / "inst.json").write_text(doc)
    monkeypatch.chdir(tmp_path)
    exec(compile(fenced("python", "## Library"), "README.md", "exec"), {})
