"""The Python examples of README.md run as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=lambda source: source.splitlines()[0])
def test_readme_example_runs(source):
    exec(compile(source, str(README), "exec"), {})
