"""The README's examples, run: each `schuprod ...` line followed by `# -> ...`
lines is passed to cli.main and its stdout compared with those lines, and
the Python snippet is executed and its stdout compared with its own `# ->`
lines."""

import re
import shlex
from itertools import takewhile
from pathlib import Path

import pytest

import schuprod
from schuprod.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
ARROW = "# -> "


def _blocks(lang):
    """The bodies of the README's fenced code blocks in lang."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def _expected(lines):
    return "".join(line[len(ARROW):] + "\n" for line in lines if line.startswith(ARROW))


def _examples():
    examples = []
    for block in _blocks("sh"):
        lines = block.splitlines()
        for j, line in enumerate(lines):
            shown = list(takewhile(lambda text: text.startswith(ARROW), lines[j + 1:]))
            if line.startswith("schuprod ") and shown:
                examples.append(pytest.param(shlex.split(line)[1:], _expected(shown), id=line))
    return examples


def test_readme_shows_examples():
    assert len(_examples()) >= 4 and len(_blocks("python")) == 1


@pytest.mark.parametrize("argv, expected", _examples())
def test_readme_command(capsys, argv, expected):
    code = main(argv)
    assert (code, capsys.readouterr().out) == (0, expected)


def test_readme_python_snippet(capsys):
    (snippet,) = _blocks("python")
    exec(snippet, {})
    assert capsys.readouterr().out == _expected(snippet.splitlines())


def test_readme_names_every_export():
    # Named in code: a fenced block or an inline `span` of the prose.
    prose = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    code = "\n".join(_blocks(r"\w*") + re.findall(r"`([^`]+)`", prose))
    missing = [name for name in schuprod.__all__ if not re.search(rf"\b{name}\b", code)]
    assert missing == []
