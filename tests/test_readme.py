"""The Python and CLI examples of README.md run as written."""

import pathlib
import re
import shlex

import pytest

from algflow import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)
# The `algflow ...` lines of the sh blocks, without their trailing comments.  A line
# that names an input .json file is skipped: the README does not give the file.
COMMANDS = [line.split("#")[0].strip()
            for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)
            for line in block.splitlines()
            if line.startswith("algflow ") and ".json" not in line]
# The example that injects a tolerance too tight to pass exits 1 (check failed).
EXIT_CODES = {"algflow verify-theorems --only kce --tol kce=1e-20": 1}


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=lambda source: source.splitlines()[0])
def test_readme_example_runs(source):
    exec(compile(source, str(README), "exec"), {})


def test_readme_has_cli_examples():
    assert len(COMMANDS) == 7 and set(EXIT_CODES) <= set(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_readme_cli_example_exits_as_documented(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(shlex.split(command)[1:]) == EXIT_CODES.get(command, 0)
