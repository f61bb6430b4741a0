"""What each entry point loads, and the records it builds without dataclasses.

numpy is loaded only for the quantum loop, and ``signaling`` only for
``analyze``: the classical subcommands and a plain ``import ctcbox`` must
work on a Python without numpy, and every subcommand without dataclasses.
Each check runs in a fresh interpreter, because this test process has
loaded all of these already.
"""

import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType

import pytest

import ctcbox
from ctcbox import boxes, signaling
from ctcbox.boxes import SignalingWitness, is_no_signaling, named_box
from ctcbox.cli import main
from ctcbox.ctc import constrain
from ctcbox.deutsch_defaults import EXAMPLE_NAMES
from ctcbox.forms import BooleanForm
from ctcbox.signaling import _Analysis, _Coalition, analyze
from ctcbox.tables import SCENARIOS, verify_scenario

SRC = str(Path(ctcbox.__file__).resolve().parents[1])
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
# a None entry in sys.modules makes every import of that module raise ImportError
BLOCK_DATACLASSES = "import sys\nsys.modules['dataclasses'] = None\n"
BLOCK_NUMPY = BLOCK_DATACLASSES + "sys.modules['numpy'] = None\n"
RUN_MAIN = "from ctcbox.cli import main\nsys.exit(main(sys.argv[1:]))\n"
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
    proc = python(BLOCK_NUMPY + RUN_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


def test_deutsch_runs_without_dataclasses(capsys):
    pytest.importorskip("numpy")
    argv = ["deutsch", "--example", "swap", "--crosscheck"]
    proc = python(BLOCK_DATACLASSES + RUN_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert main(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


def test_deutsch_without_numpy_is_a_usage_error():
    proc = python(BLOCK_NUMPY + RUN_MAIN, "deutsch", "--example", "swap")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr == b"error: the deutsch subcommand needs numpy\n"


def test_deutsch_raises_the_import_error_of_its_own_module(monkeypatch):
    # with numpy present, a module that fails to import is no usage error
    pytest.importorskip("numpy")
    monkeypatch.setitem(sys.modules, "ctcbox.deutsch", None)
    with pytest.raises(ImportError) as err:
        main(["deutsch", "--example", "swap"])
    assert err.value.name == "ctcbox.deutsch"


@pytest.mark.parametrize("argv", CLASSICAL_COMMANDS + [["deutsch", "--example", "swap"]],
                         ids=" ".join)
def test_only_analyze_loads_signaling(argv):
    if argv[0] == "deutsch":
        pytest.importorskip("numpy")
    proc = python("import contextlib, io, sys\nfrom ctcbox.cli import main\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    main(sys.argv[1:])\n"
                  "print('ctcbox.signaling' in sys.modules)\n", *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.split() == [str(argv[0] == "analyze").encode()]


def test_import_loads_no_submodule():
    # a submodule, like a name, resolves as an attribute on first access
    proc = python("import sys, ctcbox\n"
                  "print(*[name for name in sys.modules if name.startswith('ctcbox.')])\n"
                  "print(ctcbox.tables.__name__,\n"
                  "      *sorted(ctcbox.__dict__.keys() & {'tables', 'signaling'}))\n")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.splitlines() == [b"", b"ctcbox.tables tables"]


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
    with pytest.raises(AttributeError):
        ctcbox.no_such_name
    # every name but the quantum loop's resolves without numpy
    classical = [name for name in ctcbox.__all__ if ctcbox._MODULE_OF[name] != "deutsch"]
    proc = python(BLOCK_NUMPY + "import ctcbox\n"
                  "for name in sys.argv[1:]:\n"
                  "    getattr(ctcbox, name)\n", *classical)
    assert proc.returncode == 0, proc.stderr.decode()
    pytest.importorskip("numpy")
    from ctcbox import deutsch
    for name in ctcbox.__all__:
        assert getattr(ctcbox, name) is not None
    for name in ("fixed_point", "example", "FixedPointResult"):
        assert getattr(ctcbox, name) is getattr(deutsch, name)
    # each class or function is listed under the module that defines it
    for module, names in ctcbox._EXPORTS.items():
        for name in names:
            value = getattr(ctcbox, name)
            if isinstance(value, (type, FunctionType)):
                assert value.__module__ == f"ctcbox.{module}", name


def test_test_only_helpers_are_not_in_the_package():
    # the Fraction marginal, the constant forms and the one-setting read
    # live in the test oracle
    for name in ("marginal", "MarginalDistribution", "project_outcomes"):
        assert name not in ctcbox.__all__
        assert not hasattr(boxes, name), name
    assert not hasattr(BooleanForm, "zero") and not hasattr(BooleanForm, "one")
    assert "analyze_setting" not in ctcbox.__all__
    assert not hasattr(signaling, "analyze_setting")
    # an entry is built from a direction's record, not from one analysis
    assert not hasattr(_Coalition, "line")
    assert not hasattr(_Analysis, "rule") and not hasattr(_Analysis, "success")
    # the verdict's distribution ids last one call; a scan's coalition
    # projects rows with the same function and inherits nothing
    assert not hasattr(boxes, "CoalitionMarginals")
    assert _Coalition.__bases__ == (object,)


def test_example_names_match_the_builders():
    pytest.importorskip("numpy")
    from ctcbox import deutsch
    assert tuple(deutsch.EXAMPLES) == EXAMPLE_NAMES
    assert deutsch.EXAMPLE_NAMES is EXAMPLE_NAMES


def _crosscheck():
    pytest.importorskip("numpy")
    from ctcbox import deutsch
    return deutsch.classical_consistency_crosscheck(*deutsch.example("swap"))


RECORDS = {
    "BooleanForm": lambda: BooleanForm.from_monomials(2, [[0, 1]]),
    "SignalingWitness": lambda: SignalingWitness((0,), (0, 0), (0, 1), {}, {}),
    "NoSignalingVerdict": lambda: is_no_signaling(named_box("pr")),
    "ConstrainedRow": lambda: constrain(named_box("pr"), [1]).rows[0, 0],
    "SignalingEntry": lambda: analyze(constrain(named_box("pr"), [1]), 1, [0])[0],
    "Scenario": lambda: SCENARIOS["I"],
    "ScenarioCheck": lambda: verify_scenario(SCENARIOS["I"]),
    "FixedPointResult": lambda: _crosscheck().solve,
    "ClassicalCrosscheck": _crosscheck,
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.no_such_field = None


def test_a_record_holding_a_dict_is_unhashable():
    with pytest.raises(TypeError):
        hash(RECORDS["ConstrainedRow"]())
