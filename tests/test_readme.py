"""README's examples run, and its sample output is what the CLI prints."""

import re
from pathlib import Path

import pytest

from ctcbox.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(after: str, language: str) -> str:
    """The first ``language`` code block that follows the text ``after``."""
    start = README.index(after)
    return re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(README, start)[1]


def test_library_example_runs():
    pytest.importorskip("numpy")  # the example runs the quantum loop
    code = fenced_block("## Library\n", "python")
    exec(compile(code, "README.md", "exec"), {})


def test_scan_example_lines_are_printed(capsys):
    lines = fenced_block("prints one line per direction", "text").splitlines()
    assert lines[0].startswith("direction alice -> bob,charlie: 2/4 ")
    assert lines[-1].startswith("overall: 1/9 directions signal; ")
    assert main(["analyze", "--box", "svetlichny", "--ctc", "alice"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert all(line in printed for line in lines), lines
