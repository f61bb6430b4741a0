"""numpy is loaded only for the quantum loop.

The classical subcommands and a plain ``import ctcbox`` must work on a
Python without numpy; each check runs in a fresh interpreter, because
this test process has numpy loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctcbox
from ctcbox import deutsch
from ctcbox.cli import main
from ctcbox.deutsch_defaults import EXAMPLE_NAMES

SRC = str(Path(ctcbox.__file__).resolve().parents[1])
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
# a None entry in sys.modules makes every import of numpy raise ImportError
BLOCK_NUMPY = "import sys\nsys.modules['numpy'] = None\n"
CLASSICAL_COMMANDS = [["list"], ["show", "--box", "pr", "--ctc", "bob"], ["verify"],
                      ["reproduce", "--all"],
                      ["analyze", "--box", "svetlichny", "--ctc", "alice"]]


def python(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          env=ENV, timeout=60)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv", CLASSICAL_COMMANDS, ids=" ".join)
def test_classical_commands_run_without_numpy(capsys, argv, json_flag):
    argv = argv + json_flag
    proc = python(BLOCK_NUMPY + "from ctcbox.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n", *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


@pytest.mark.parametrize("module", ["ctcbox", "ctcbox.cli"])
def test_import_does_not_load_numpy(module):
    proc = python(f"import sys, {module}\nprint('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.split() == [b"False"]


def test_lazy_names_are_listed_and_resolve():
    # dir() lists the deutsch names before they are loaded, and each one
    # resolves to the object deutsch defines
    proc = python("import sys, ctcbox\n"
                  "print(set(ctcbox.__all__) <= set(dir(ctcbox)))\n"
                  "print('numpy' in sys.modules)\n")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.split() == [b"True", b"False"]
    for name in ctcbox.__all__:
        assert getattr(ctcbox, name) is not None
    for name in ("fixed_point", "example", "FixedPointResult"):
        assert getattr(ctcbox, name) is getattr(deutsch, name)
    with pytest.raises(AttributeError):
        ctcbox.no_such_name


def test_example_names_match_the_builders():
    assert tuple(deutsch.EXAMPLES) == EXAMPLE_NAMES
    assert deutsch.EXAMPLE_NAMES is EXAMPLE_NAMES
