"""Mutated inputs never crash the command line.

A derandomized Hypothesis search mutates valid inputs one value at a
time and runs each through ``cli.main``.  The inputs are table and
constraint specs, ``deutsch`` problems, and the party lists of
``--ctc``, ``--sender`` and ``--receivers``.  Every run must return 0, 1
or 2 and raise nothing; a run that returns 2 prints nothing to stdout
and one ``error:`` message to stderr.  Every input stays small, so each
run is quick: at most 6 parties, matrices of dimension at most 16 and
at most 2,000 solver iterations.  Options that argparse converts get
numbers only, since argparse's own refusal ends the process.
"""

import contextlib
import functools
import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ctcbox.boxes import box_to_spec, named_box
from ctcbox.cli import main


def table_spec(name: str) -> dict:
    box = named_box(name)
    return {"parties": box.n,
            "table": [{"in": list(inputs), "out": list(outputs), "p": str(row[outputs])}
                      for inputs, row in box.rows.items() for outputs in sorted(row)]}


def permutation_problem(d_cr: int, d_loop: int, step: int) -> dict:
    """A basis permutation i -> step * i + 1 on CR (x) loop, CR starting in |0>."""
    dim = d_cr * d_loop
    return {"unitary": [[[1, 0] if (step * c + 1) % dim == r else [0, 0] for c in range(dim)]
                        for r in range(dim)],
            "rho_cr": [[[1 if r == c == 0 else 0, 0] for c in range(d_cr)]
                       for r in range(d_cr)],
            "d_loop": d_loop}


@functools.cache
def problems() -> list[dict]:
    """The solver problems the ``deutsch`` cases mutate: two built-in
    examples, which need numpy, and two permutations."""
    pytest.importorskip("numpy")
    from ctcbox.deutsch import example, matrix_to_json

    def example_problem(name: str) -> dict:
        u, rho, d_loop = example(name)
        return {"unitary": matrix_to_json(u), "rho_cr": matrix_to_json(rho), "d_loop": d_loop}

    return [example_problem("swap"), example_problem("grandfather"),
            permutation_problem(2, 8, 5), permutation_problem(4, 3, 7)]


SPECS = [box_to_spec(named_box("pr")), box_to_spec(named_box("mermin2")),
         {"parties": 5, "constraint": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]},
         {"parties": 6, "constraint": [[0, 1, 2], [3, 4], [5]]},
         table_spec("pr"), table_spec("svetlichny")]
# no int between 6 and 10: a box of more parties than 6 is valid, and slow
HOSTILE = [None, True, False, 0, 1, 2, 3, 6, -1, 11, 10 ** 30, 0.5, 1e308, float("nan"),
           "", "0", "1/2", "1/0", "-1/2", "abc", "1/" + "3" * 5000, [], [[]], [0, 1],
           [[1, 0]], {}, {"in": [0, 0]}]
PARTIES = ["alice", "bob", "charlie", "dave", "0", "1", "2", "5", "0,1", "alice,bob",
           "bob charlie", "alice,alice", "", ",", "-1", "1.0", "²", "٣", "10" * 12]
NAMES = ["pr", "PR", "svetlichny", "mermin1", "mermin2", "spec:-", "nope", "", "²"]


@st.composite
def mutated(draw, value):
    """``value`` with one part replaced by a hostile value, removed or
    repeated: the value itself, or a part of one of its items or fields."""
    if isinstance(value, (list, dict)) and value and draw(st.booleans()):
        key = draw(st.sampled_from(range(len(value)) if isinstance(value, list)
                                   else sorted(value)))
        copy = value.copy()
        action = draw(st.sampled_from(["mutate", "remove", "repeat"]))
        if action == "mutate":
            copy[key] = draw(mutated(value[key]))
        elif action == "remove":
            del copy[key]
        elif isinstance(copy, list):
            copy.insert(key, value[key])
        else:
            copy["extra"] = value[key]
        return copy
    return draw(st.sampled_from(HOSTILE))


def json_input(bases):
    """A base unchanged or mutated, as JSON text."""
    base = st.sampled_from(bases)
    return st.one_of(base, base.flatmap(mutated)).map(json.dumps)


parties = st.one_of(st.sampled_from(PARTIES),
                    st.text(alphabet="abcdehilor0123456789, -²", max_size=12))


@st.composite
def box_commands(draw):
    """A ``show``, ``verify`` or ``analyze`` command line and its stdin."""
    command = draw(st.sampled_from(["show", "verify", "analyze"]))
    box = draw(st.one_of(st.just("--spec=-"), st.sampled_from(NAMES).map("--box={}".format)))
    argv = [command, box]
    if command != "verify" and draw(st.booleans()):
        argv.append(f"--ctc={draw(parties)}")
    if command == "analyze" and draw(st.booleans()):
        argv += [f"--sender={draw(parties)}", f"--receivers={draw(parties)}"]
    if draw(st.booleans()):
        argv.append("--json")
    return argv, draw(json_input(SPECS))


@st.composite
def deutsch_commands(draw):
    """A ``deutsch`` command line and its stdin."""
    source = draw(st.one_of(st.just("--file=-"),
                            st.sampled_from(["swap", "SWAP", "cnot", "product", "nope", "", "²"])
                            .map("--example={}".format)))
    # a usable budget half the time, else one the solver refuses or cannot meet
    max_iter = draw(st.one_of(st.just("2000"), st.sampled_from(["0", "1", "-1", "50"])))
    tol = draw(st.one_of(st.just("1e-10"), st.sampled_from(["1e-3", "0", "-1", "nan", "inf",
                                                            "1e-300"])))
    argv = ["deutsch", source, f"--max-iter={max_iter}", f"--tol={tol}"]
    if draw(st.booleans()):
        argv.append("--crosscheck")
    if draw(st.booleans()):
        argv.append("--json")
    return argv, draw(json_input(problems()))


def run(argv: list[str], stdin: str) -> tuple[int, str, str]:
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def check_exit(argv: list[str], stdin: str) -> None:
    code, out, err = run(argv, stdin)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(box_commands())
def test_mutated_box_commands_exit_cleanly(command):
    check_exit(*command)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(deutsch_commands())
def test_mutated_deutsch_problems_exit_cleanly(command):
    check_exit(*command)
