"""The README's Python API block runs and prints what its comments say."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_api_block() -> str:
    section = README.read_text().split("## Python API", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_python_api_prints_its_comments():
    code = python_api_block()
    comments = [
        line.rsplit("# ", 1)[1]
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(comments) == 7
    for line, comment in zip(printed, comments):
        assert comment.startswith(line), (line, comment)
