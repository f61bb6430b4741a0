import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from ctcbox import cli, deutsch
from ctcbox.boxes import box_from_spec, named_box
from ctcbox.cli import main
from ctcbox.deutsch import example, matrix_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_text_and_json(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert "pr" in out and "svetlichny" in out
    code, out, _ = run(capsys, "list", "--json")
    data = json.loads(out)
    assert [b["name"] for b in data["boxes"]] == ["pr", "svetlichny",
                                                  "mermin1", "mermin2"]
    assert data["deutsch_examples"] == ["swap", "grandfather", "cnot", "product"]


def test_show_json_round_trips(capsys):
    code, out, _ = run(capsys, "show", "--box", "pr", "--json")
    assert code == 0
    assert box_from_spec(json.loads(out)) == named_box("pr")


def test_show_constrained_rows(capsys):
    code, out, _ = run(capsys, "show", "--box", "pr", "--ctc", "alice,bob",
                       "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows[0]["outcomes"] == [{"out": [0, 0], "p": "1"}]
    assert rows[1]["paradox"] is True
    code, out, _ = run(capsys, "show", "--box", "pr", "--ctc", "bob")
    assert "PARADOX" not in out and "w.p. 1" in out


def test_verify_ok_and_failure(capsys, tmp_path):
    code, out, _ = run(capsys, "verify", "--box", "pr")
    assert code == 0 and "no-signaling OK" in out and "CHSH value 4" in out

    mapping = {(0, 0): (0, 0), (0, 1): (1, 1), (1, 0): (0, 0), (1, 1): (0, 1)}
    spec = {"parties": 2,
            "table": [{"in": list(i), "out": list(o), "p": "1"}
                      for i, o in mapping.items()]}
    path = tmp_path / "leaky.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "verify", "--spec", str(path), "--json")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    witness = data["results"][0]["witness"]
    assert witness["coalition"] == ["alice"]
    assert witness["inputs_a"] == [0, 0] and witness["inputs_b"] == [0, 1]


def test_verify_all_builtins(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert out.count("no-signaling OK") == 4


def test_verify_accepts_named_check(capsys):
    code, out, _ = run(capsys, "verify", "no-signaling", "--box", "svetlichny")
    assert code == 0 and "no-signaling OK" in out
    with pytest.raises(SystemExit):
        run(capsys, "verify", "positivity", "--box", "svetlichny")


def test_box_spec_prefix_loads_file(capsys, tmp_path):
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"parties": 2, "constraint": [[0, 1]]}))
    code, out, _ = run(capsys, "show", "--box", f"spec:{path}", "--json")
    assert code == 0
    assert box_from_spec(json.loads(out)) == named_box("pr")


def test_analyze_json_report(capsys):
    code, out, _ = run(capsys, "analyze", "--box", "svetlichny",
                       "--ctc", "alice", "--sender", "alice",
                       "--receivers", "bob,charlie", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["summary"]["dependent_settings"] == 2
    dependent = [e for e in data["entries"] if e["dependent"]]
    assert [e["setting"] for e in dependent] == [[0, 0], [1, 1]]
    assert dependent[0]["rule"] == {"00": 0, "01": 1, "10": 1, "11": 0}
    assert dependent[1]["rule"] == {"00": 1, "01": 0, "10": 0, "11": 1}
    notes = [e["note"] for e in data["entries"] if not e["dependent"]]
    assert all(note for note in notes)


def test_analyze_text_mentions_notes(capsys):
    code, out, _ = run(capsys, "analyze", "--box", "svetlichny",
                       "--ctc", "alice", "--sender", "alice",
                       "--receivers", "bob,charlie")
    assert code == 0
    assert "note:" in out and "summary: 2/4" in out


def test_analyze_scan_text(capsys):
    code, out, _ = run(capsys, "analyze", "--box", "pr", "--ctc", "bob")
    assert code == 0
    assert "direction alice -> bob: 0/2 settings dependent (0/4 cases)" in out
    assert "direction bob -> alice: 1/2 settings dependent (2/4 cases)" in out
    assert ("overall: 1/2 directions signal; 1/4 settings dependent "
            "(2/8 cases)") in out


def test_analyze_scan_json(capsys):
    code, out, _ = run(capsys, "analyze", "--box", "svetlichny",
                       "--ctc", "bob,charlie", "--json")
    assert code == 0
    data = json.loads(out)
    summary = data["summary"]
    assert summary["directions"] == 9
    assert summary["dependent_directions"] == 4
    assert summary["settings"] == 24 and summary["dependent_settings"] == 8
    assert summary["cases"] == 48 and summary["dependent_cases"] == 16
    directions = {(r["sender"], tuple(r["coalition"])): r["summary"]
                  for r in data["reports"]}
    # the looped pair cannot be reached, but each of them reaches alice
    for coalition in (("bob",), ("charlie",), ("bob", "charlie")):
        assert directions[("alice", coalition)]["dependent_settings"] == 0
    bob_to_pair = directions[("bob", ("alice", "charlie"))]
    assert bob_to_pair["dependent_settings"] == 2
    assert bob_to_pair["dependent_cases"] == 4
    assert bob_to_pair["impractical"] is True
    assert directions[("bob", ("alice",))]["dependent_settings"] == 2
    assert directions[("bob", ("alice",))]["impractical"] is False


@pytest.mark.parametrize("direction", [[], ["--sender", "alice", "--receivers", "bob"]],
                         ids=["scan", "one-direction"])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_analyze_names_the_direction_a_paradox_row_stops(capsys, direction, fmt):
    code, out, err = run(capsys, "analyze", "--box", "svetlichny", "--ctc", "0,1,2",
                         *direction, *fmt)
    assert (code, out) == (2, "")
    assert err == ("error: direction alice -> bob: observation undefined: "
                   "paradox row at inputs (0, 0, 1)\n")


def test_analyze_names_the_first_paradox_row_of_the_line(capsys):
    # the line of bob's y = 0 reads charlie's bit 0 first: (1, 0, 0)
    # comes before (0, 0, 1)
    code, out, err = run(capsys, "analyze", "--box", "mermin2", "--ctc", "alice,bob,charlie",
                         "--sender", "charlie", "--receivers", "bob")
    assert (code, out) == (2, "")
    assert err == ("error: direction charlie -> bob: observation undefined: "
                   "paradox row at inputs (1, 0, 0)\n")


def test_analyze_rejects_overlapping_roles(capsys):
    code, _, err = run(capsys, "analyze", "--box", "pr", "--ctc", "bob",
                       "--sender", "alice", "--receivers", "alice")
    assert code == 2 and "error:" in err


def test_analyze_rejects_half_specified_direction(capsys):
    code, _, err = run(capsys, "analyze", "--box", "pr", "--ctc", "bob",
                       "--sender", "alice")
    assert code == 2 and "go together" in err
    code, _, err = run(capsys, "analyze", "--box", "pr", "--ctc", "bob",
                       "--receivers", "alice")
    assert code == 2 and "go together" in err


def test_analyze_requires_box(capsys):
    code, _, err = run(capsys, "analyze", "--sender", "alice",
                       "--receivers", "bob")
    assert code == 2 and "error:" in err


def test_spec_from_stdin(capsys, monkeypatch):
    spec = json.dumps({"parties": 2, "constraint": [[0, 1]]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
    code, out, _ = run(capsys, "show", "--spec", "-", "--json")
    assert code == 0
    assert json.loads(out) == {"parties": 2, "constraint": [[0, 1]]}


def test_bad_spec_file_reports_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "show", "--spec", str(path))
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "show", "--spec", str(tmp_path / "missing.json"))
    assert code == 2 and "error:" in err
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"parties": 2, "table": [
        {"in": [0, 0], "out": [0, 0], "p": 0.5}]}))
    code, _, err = run(capsys, "show", "--spec", str(path))
    assert code == 2 and "error:" in err


def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    for argv in (["show", "--spec", str(path)], ["deutsch", "--file", str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "not valid JSON" in err


LONG_INTEGER = b"[" + b"1" * 5000 + b"]"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on integer string conversion")
@pytest.mark.parametrize("argv", [("show", "--spec"), ("show", "--spec", "-"),
                                  ("deutsch", "--file")], ids=["spec", "stdin", "deutsch"])
@pytest.mark.parametrize("data", [b"\xff{}", LONG_INTEGER], ids=["not-utf-8", "long-integer"])
def test_unreadable_json_is_refused_by_name(capsys, tmp_path, monkeypatch, argv, data):
    if argv[-1] == "-":
        path = "stdin"  # as every output labels it
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    else:
        path = tmp_path / "input.json"
        path.write_bytes(data)
        argv = (*argv, str(path))
    # the default limit, whatever the interpreter was started with
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as limit:
            int("1" * 5000)
        code, out, err = run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(saved)
    reason = (limit.value if data == LONG_INTEGER
              else "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte")
    assert code == 2 and out == ""
    assert err == f"error: {path} is not valid JSON: {reason}\n"


def test_deutsch_example_json(capsys):
    code, out, _ = run(capsys, "deutsch", "--example", "swap",
                       "--crosscheck", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["converged"] and data["iterations"] <= 2
    assert data["sigma"][0][0] == [0.75, 0.0]
    assert data["crosscheck"]["permutation"] == [0, 2, 1, 3]
    assert data["crosscheck"]["prediction_match"] is True
    assert data["ok"] is True


def test_deutsch_problem_file(capsys, tmp_path):
    u, rho, d_loop = example("grandfather")
    problem = {"unitary": matrix_to_json(u), "rho_cr": matrix_to_json(rho),
               "d_loop": d_loop}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "deutsch", "--file", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert np.asarray(data["sigma"])[:, :, 0] == pytest.approx(np.eye(2) / 2)


def test_deutsch_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "deutsch")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "deutsch", "--example", "bogus")
    assert code == 2
    code, _, err = run(capsys, "deutsch", "--example", "swap",
                       "--file", "x.json")
    assert code == 2
    code, _, err = run(capsys, "deutsch", "--example", "product",
                       "--crosscheck")
    assert code == 2 and "permutation" in err
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps({"unitary": matrix_to_json(np.eye(2))}))
    code, _, err = run(capsys, "deutsch", "--file", str(path))
    assert code == 2


def oscillating_problem(tmp_path):
    """Problem file for a permutation map that converges at step 1 through
    the averaged iterates."""
    perm = [2, 5, 0, 8, 11, 1, 3, 6, 9, 4, 7, 10]
    u = np.zeros((12, 12))
    for source, target in enumerate(perm):
        u[target, source] = 1
    rho = np.diag([0.5, 0.5, 0, 0])
    problem = {"unitary": matrix_to_json(u), "rho_cr": matrix_to_json(rho),
               "d_loop": 3}
    path = tmp_path / "oscillating.json"
    path.write_text(json.dumps(problem))
    return path


def test_deutsch_max_iter_budget(capsys, tmp_path):
    code, _, _ = run(capsys, "deutsch", "--example", "swap", "--max-iter", "5")
    assert code == 0

    # a zero budget stops before step 1 and must be reported as a failed check
    path = oscillating_problem(tmp_path)
    code, out, _ = run(capsys, "deutsch", "--file", str(path),
                       "--max-iter", "0")
    assert code == 1 and "DID NOT CONVERGE" in out
    code, out, _ = run(capsys, "deutsch", "--file", str(path), "--json")
    data = json.loads(out)
    assert code == 0 and data["converged"] and data["from_average"]


def test_crosscheck_checks_the_printed_solve(capsys, tmp_path):
    # the crosscheck judges the unconverged solve printed above it: the
    # uniform start, whose diagonal the map moves by 2/3 in L1 norm
    path = oscillating_problem(tmp_path)
    code, out, _ = run(capsys, "deutsch", "--file", str(path),
                       "--max-iter", "0", "--crosscheck")
    assert code == 1 and "DID NOT CONVERGE" in out
    assert "invariance residual 6.667e-01" in out
    assert "crosscheck FAILED" in out and "crosscheck OK" not in out


def test_deutsch_crosscheck_solves_once(capsys, monkeypatch):
    calls = []
    real = deutsch.fixed_point

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(deutsch, "fixed_point", counting)
    code, _, _ = run(capsys, "deutsch", "--example", "swap", "--crosscheck")
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("d_loop", [2.5, True])
def test_deutsch_rejects_non_integer_loop_dimension(capsys, tmp_path, d_loop):
    # with a 2 x 2 unitary and a qubit CR state, d_loop = 1 would be valid
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"unitary": matrix_to_json(np.eye(2)),
                                "rho_cr": matrix_to_json(np.eye(2) / 2),
                                "d_loop": d_loop}))
    code, out, err = run(capsys, "deutsch", "--file", str(path))
    assert code == 2 and out == "" and "positive integer" in err


def test_reproduce_single_and_all(capsys):
    code, out, _ = run(capsys, "reproduce", "--table", "I")
    assert code == 0 and "scenario I:" in out and "overall: OK" in out
    assert "scenario II:" not in out
    code, out_all, _ = run(capsys, "reproduce", "--all")
    assert code == 0
    code, out_table_all, _ = run(capsys, "reproduce", "--table", "all")
    assert code == 0
    assert out_all == out_table_all
    for key in ("I", "II", "III", "IV"):
        assert f"scenario {key}:" in out_all


def test_reproduce_json(capsys):
    code, out, _ = run(capsys, "reproduce", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert [s["key"] for s in data["scenarios"]] == ["I", "II", "III", "IV"]
    rows = {tuple(r["in"]): tuple(r["out"]) for r in data["scenarios"][0]["rows"]}
    assert rows == {(0, 0): (0, 0), (0, 1): (1, 1), (1, 0): (0, 0), (1, 1): (0, 1)}


def test_reproduce_rejects_unknown_table(capsys):
    code, _, err = run(capsys, "reproduce", "--table", "V")
    assert code == 2 and "error:" in err


def test_box_and_spec_together_are_rejected(capsys, tmp_path):
    path = tmp_path / "box.json"
    path.write_text(json.dumps({"parties": 2, "constraint": [[0, 1]]}))
    for command in ("show", "verify", "analyze"):
        code, out, err = run(capsys, command, "--box", "pr", "--spec", str(path))
        assert code == 2 and out == "" and "not both" in err


def test_printed_party_names_round_trip(capsys, tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps({"parties": 4, "constraint": [[0, 1], [1, 2, 3]]}))
    code, out, _ = run(capsys, "analyze", "--spec", str(path), "--ctc", "party1",
                       "--sender", "party1", "--receivers", "party0,party2",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ctc"] == ["party1"] and data["sender"] == "party1"
    assert data["coalition"] == ["party0", "party2"]
    code, same, _ = run(capsys, "analyze", "--spec", str(path), "--ctc", "bob",
                        "--sender", "bob", "--receivers", "alice,charlie",
                        "--json")
    assert code == 0 and same == out


@pytest.mark.parametrize("spec", [{"parties": 64, "constraint": [[0, 1]]},
                                  {"parties": 11, "table": []}])
def test_oversized_box_spec_is_a_usage_error(capsys, tmp_path, spec):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, "show", "--spec", str(path))
    assert code == 2 and out == "" and "parties" in err


def test_exponent_probability_fails_fast(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"parties": 1, "table": [
        {"in": [0], "out": [0], "p": "1e99999999"},
        {"in": [1], "out": [0], "p": "1"}]}))
    proc = subprocess.run([sys.executable, "-m", "ctcbox.cli", "show", "--spec",
                           str(path)], capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and "error:" in proc.stderr


@pytest.mark.parametrize("p", ["1/0", "3/00"])
def test_zero_denominator_is_named_in_the_error(capsys, tmp_path, p):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"parties": 1, "table": [
        {"in": [0], "out": [0], "p": "1"}, {"in": [1], "out": [0], "p": p}]}))
    code, out, err = run(capsys, "show", "--spec", str(path))
    assert code == 2 and out == ""
    assert err == f"error: table[1]: probability '{p}' has a zero denominator\n"


@pytest.mark.parametrize("command, data, message", [
    ("show", {"parties": 1, "constraint": []},
     "constraint: parity boxes need at least 2 parties"),
    ("show", {"parties": 2, "constraint": "x"},
     "field 'constraint' must be a list of index lists"),
    ("show", {"parties": 2, "table": [1]}, "table[0]: entry must be an object"),
    ("show", {"parties": 2, "table": [{"in": [10 ** 400, 0.5], "out": [0, 0], "p": "1"}]},
     f"table[0]: expected a bit (0 or 1), got {10 ** 400}"),
    ("deutsch", [1], "problem file must be a JSON object"),
    ("deutsch", {"unitary": [[[1, 0], [0, 0]], [[0, 0]]], "rho_cr": [[[1, 0]]],
                 "d_loop": 2}, "unitary row 1 is not a list of the right length"),
], ids=["one-party-constraint", "constraint-not-a-list", "table-entry",
        "huge-bit-beside-float-bit", "problem-not-an-object", "short-unitary-row"])
def test_malformed_files_are_refused_by_name(capsys, tmp_path, command, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    flag = "--file" if command == "deutsch" else "--spec"
    code, out, err = run(capsys, command, flag, str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on integer string conversion")
def test_unprintable_conditioned_row_is_named_in_the_error(capsys, tmp_path):
    # every entry's denominator has about 2,200 digits, but conditioning on
    # out0 == in0 keeps 1/D1, 1/D2 and 1/D3 and divides by their sum, which
    # gives terms of about 4,400 digits, more than str() will write
    dens = [10 ** 2200 + k for k in (1, 3, 7)]
    table = []
    for code in range(8):
        ins = [code >> 2, (code >> 1) & 1, code & 1]
        for den, rest in zip(dens, ([0, 0], [0, 1], [1, 0])):
            table.append({"in": ins, "out": [ins[0], *rest], "p": f"1/{den}"})
            table.append({"in": ins, "out": [1 - ins[0], *rest],
                          "p": f"{den - 3}/{3 * den}"})
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"parties": 3, "table": table}))
    # the default limit, whatever the interpreter was started with
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError) as limit:
            str(10 ** 4300)
        code, out, err = run(capsys, "show", "--spec", str(path), "--ctc", "0")
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 2 and out == ""
    assert err == f"error: inputs (0, 0, 0): {limit.value}\n"


@pytest.mark.parametrize("party", ["dave", "²"])
def test_an_unknown_party_is_named(capsys, party):
    # "²" is a digit to str.isdigit(), but no integer to int()
    code, out, err = run(capsys, "show", "--box", "pr", "--ctc", party)
    assert code == 2 and out == ""
    assert err == f"error: unknown party '{party}'; use an index or one of alice, bob, charlie\n"


def test_a_dependent_setting_carries_positive_information(capsys, tmp_path):
    # bob reads 0 with probability 5/11 when alice's input is 0 and 5/11 +
    # 10^-10 when it is 1: the two entropies agree to about 1e-16, so their
    # float difference cancels, while the sum of per-output terms, each >= 0,
    # is about 1e-20 / (8 ln 2 (5/11)(6/11))
    p = {0: Fraction(5, 11), 1: Fraction(5, 11) + Fraction(1, 10 ** 10)}
    table = [{"in": [x, y], "out": [0, b], "p": str(p[x] if b == 0 else 1 - p[x])}
             for x in (0, 1) for y in (0, 1) for b in (0, 1)]
    path = tmp_path / "near.json"
    path.write_text(json.dumps({"parties": 2, "table": table}))
    argv = ("analyze", "--spec", str(path), "--sender", "0", "--receivers", "1")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    rule = "dependent; guess 0->1, 1->0; success 10000000001/20000000000"
    assert out == (f"box {path} (2 parties): explicit table\n"
                   "self-consistent parties: none\n"
                   "sender: alice; receivers: bob\n"
                   f"setting y=0: {rule}; information 0.000000 bits\n"
                   f"setting y=1: {rule}; information 0.000000 bits\n"
                   "summary: 2/2 settings dependent (4/4 cases); max success "
                   "10000000001/20000000000; mean information 0.000000 bits\n")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    info = 7.273587497681842e-21
    entry = {"sender": "alice", "coalition": ["bob"], "dependent": True,
             "rule": {"0": 1, "1": 0}, "success": "10000000001/20000000000",
             "mi_bits": info, "impractical": False, "note": None}
    assert json.loads(out) == {
        "box": str(path), "ctc": [], "sender": "alice", "coalition": ["bob"],
        "entries": [{**entry, "setting": [y]} for y in (0, 1)],
        "summary": {"settings": 2, "dependent_settings": 2, "cases": 4,
                    "dependent_cases": 4, "impractical": False,
                    "max_success": "10000000001/20000000000", "mean_mi_bits": info}}


@pytest.mark.parametrize("option", ["--max-iter=-1", "--tol=nan", "--tol=inf",
                                    "--tol=0", "--tol=-1e-9"])
def test_deutsch_rejects_meaningless_budgets(capsys, option):
    code, out, err = run(capsys, "deutsch", "--example", "swap", option, "--json")
    assert code == 2 and out == "" and "error:" in err


def test_deutsch_rejects_non_finite_matrix_entries(capsys, tmp_path):
    u, rho, d_loop = example("swap")
    unitary = matrix_to_json(u)
    unitary[0][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"unitary": unitary, "rho_cr": matrix_to_json(rho),
                                "d_loop": d_loop}))
    code, out, err = run(capsys, "deutsch", "--file", str(path), "--max-iter", "10")
    assert code == 2 and out == "" and "finite" in err


def test_seed_variable_is_inert():
    argv = [sys.executable, "-m", "ctcbox.cli", "analyze", "--box", "mermin2",
            "--ctc", "alice", "--sender", "alice", "--receivers", "bob,charlie",
            "--json"]
    env = dict(os.environ)
    env["NONLOCAL_CTC_SEED"] = "12345"
    with_seed = subprocess.run(argv, capture_output=True, env=env)
    env["NONLOCAL_CTC_SEED"] = "99999"
    other_seed = subprocess.run(argv, capture_output=True, env=env)
    assert with_seed.returncode == other_seed.returncode == 0
    assert with_seed.stdout == other_seed.stdout


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    # the 7-party table is about 200 KB, more than a pipe buffer holds
    spec = tmp_path / "seven.json"
    spec.write_text(json.dumps({"parties": 7, "constraint": [
        [0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 0]]}))
    with subprocess.Popen([sys.executable, "-m", "ctcbox.cli", "show", "--spec",
                           str(spec), "--ctc", "0"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"box ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=30) == 141
    assert b"Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--spec", ""], ["verify", "--box", ""], ["show", "--spec", ""],
    ["analyze", "--box", "pr", "--sender", "", "--receivers", ""],
    ["deutsch", "--example", ""], ["deutsch", "--file", ""]],
    ids=lambda argv: " ".join(arg or "''" for arg in argv))
def test_empty_option_value_is_a_usage_error(capsys, argv):
    # an empty value is a value: verify must not fall back to the built-in
    # boxes, nor analyze to the full scan
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "error:" in err


@pytest.mark.parametrize("half", [["--sender", "alice"], ["--receivers", "bob"]])
def test_half_given_direction_is_refused_before_the_box_loads(capsys, monkeypatch,
                                                              half):
    def load_box(args):
        raise AssertionError("the box was loaded")

    monkeypatch.setattr(cli, "_load_box", load_box)
    code, out, err = run(capsys, "analyze", "--box", "pr", *half)
    assert code == 2 and out == "" and "go together" in err


def test_reproduce_table_all_ignores_case(capsys):
    _, expected, _ = run(capsys, "reproduce", "--all")
    for key in ("ALL", "All", "all"):
        code, out, _ = run(capsys, "reproduce", "--table", key)
        assert code == 0 and out == expected


@pytest.mark.parametrize("key", ["V", "I", "all"])
def test_reproduce_refuses_a_table_beside_all(capsys, key):
    code, out, err = run(capsys, "reproduce", "--table", key, "--all")
    assert code == 2 and out == "" and "not both" in err


def test_help_epilog_names_every_exit_code(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    epilog = capsys.readouterr().out.split("Exit codes:")[1]
    codes = [value for name, value in vars(cli).items() if name.startswith("EXIT_")]
    assert sorted(codes) == [0, 1, 2, 141]
    for code in codes:
        assert re.search(rf"\b{code}\b", epilog), code


@pytest.mark.parametrize("argv", [
    ["list"], ["verify"], ["verify", "--spec", "leaky.json"],
    ["show", "--box", "pr", "--ctc", "bob"],
    ["deutsch", "--example", "swap", "--crosscheck"],
    ["deutsch", "--file", "oscillating.json"],
    ["deutsch", "--file", "oscillating.json", "--crosscheck"],
    ["reproduce", "--all"],
    ["analyze", "--box", "svetlichny", "--ctc", "alice", "--sender", "alice",
     "--receivers", "bob,charlie"],
    ["analyze", "--box", "svetlichny", "--ctc", "bob,charlie"]], ids=" ".join)
def test_renderers_read_only_the_json(tmp_path, monkeypatch, argv):
    # the text must come from the payload as --json prints it, so that a
    # payload read back from JSON renders to the same lines
    leaky = {(0, 0): (0, 0), (0, 1): (1, 1), (1, 0): (0, 0), (1, 1): (0, 1)}
    (tmp_path / "leaky.json").write_text(json.dumps({"parties": 2, "table": [
        {"in": list(i), "out": list(o), "p": "1"} for i, o in leaky.items()]}))
    oscillating_problem(tmp_path)
    monkeypatch.chdir(tmp_path)
    args = cli.build_parser().parse_args(argv)
    payload, render = args.func(args)
    lines = list(render(payload))
    assert lines and list(render(json.loads(json.dumps(payload)))) == lines


def traced_phases(capsys, monkeypatch, *argv):
    monkeypatch.setenv("CTCBOX_TRACE", "1")
    code, _, err = run(capsys, *argv)
    return code, [json.loads(line) for line in err.splitlines() if line.startswith("{")]


def test_only_on_demand_imports_write_an_import_phase(capsys, monkeypatch):
    _, phases = traced_phases(capsys, monkeypatch, "list")
    assert [phase["phase"] for phase in phases] == ["build", "render"]
    _, phases = traced_phases(capsys, monkeypatch, "deutsch", "--example", "swap")
    assert [phase["phase"] for phase in phases] == ["import", "build", "solve", "render"]
    _, phases = traced_phases(capsys, monkeypatch, "analyze", "--box", "pr", "--sender",
                              "alice")
    assert [phase["phase"] for phase in phases] == ["import"]


def test_a_traced_scan_counts_its_rows_settings_and_shared_work(capsys, monkeypatch):
    code, phases = traced_phases(capsys, monkeypatch, "analyze", "--box", "pr", "--ctc", "bob")
    assert code == 0
    counts = {phase.pop("phase"): phase for phase in phases}
    assert all(phase.pop("ms") >= 0 for phase in counts.values())
    assert counts["constrain"] == {"rows": 4, "distinct_rows": 3, "paradox_rows": 0}
    # two lines a direction; alice -> bob at y = 0 and bob -> alice at x = 1
    # read the same line, which both coalitions of size 1 share, and so
    # observe the same bucket pair
    assert counts["analyze"] == {"directions": 2, "settings": 4, "dependent_settings": 1,
                                 "lines": 3, "buckets": 2, "analyses": 3}
    code, phases = traced_phases(capsys, monkeypatch, "analyze", "--box", "pr", "--ctc",
                                 "alice,bob", "--sender", "bob", "--receivers", "alice")
    assert code == 2  # paradox rows are counted before the report stops at one
    assert phases[-1] == {"phase": "constrain", "ms": phases[-1]["ms"], "rows": 4,
                          "distinct_rows": 2, "paradox_rows": 3}
    code, phases = traced_phases(capsys, monkeypatch, "analyze", "--box", "svetlichny",
                                 "--sender", "alice", "--receivers", "bob,charlie")
    assert code == 0
    assert {key: phases[-2][key] for key in phases[-2] if key != "ms"} == {
        "phase": "analyze", "directions": 1, "settings": 4, "dependent_settings": 0}
