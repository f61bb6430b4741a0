"""Command line front end.

Subcommands:

    list        built-in boxes, reference scenarios, solver examples
    show        print a box table, optionally under a constraint pattern
    verify      complete no-signaling check of a box
    analyze     signaling report for a sender/receiver split
    deutsch     solve the loop fixed-point equation for a small system
    reproduce   rebuild the reference scenario tables and compare

Each subcommand builds one JSON payload and a text renderer for it;
``main`` prints either the payload (``--json``) or the rendered lines.
Only ``deutsch`` loads numpy, when it runs; the other subcommands never do.

Exit codes: 0 on success, 1 when a requested check fails (signaling
witness found, scenario mismatch, solver did not converge), 2 on usage
or input errors, 141 (128 + SIGPIPE, as a shell reports a process the
signal ended) when stdout is closed before the output is written, as by
``| head``.  All output is deterministic; the NONLOCAL_CTC_SEED
environment variable is accepted for interface compatibility but has
no effect, since every computation here is exact or derived from fixed
starting points.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from typing import Callable, Iterator

from .boxes import (NAMED_FORMS, BoxName, NoSignalBox, box_from_spec, box_to_spec,
                    chsh_value, is_no_signaling, named_box, parity_equation)
from .ctc import constrain, constrained_to_json, parse_pattern
from .deutsch_defaults import EXAMPLE_NAMES, MAX_ITERATIONS, RESIDUAL_TOL
from .forms import input_names, output_names, party_names
from .signaling import report_json, scan_report_json
from .tables import (SCENARIO_KEYS, SCENARIOS, Scenario, scenario,
                     scenario_relation, verify_scenario)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141

Render = Callable[[dict], Iterator[str]]


def _read_json(path: str) -> tuple[object, str]:
    """Parsed JSON from a file, or from stdin for '-', and its label."""
    try:
        if path == "-":
            return json.load(sys.stdin), "stdin"
        with open(path) as handle:
            return json.load(handle), path
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err}") from err
    except (json.JSONDecodeError, RecursionError) as err:
        raise ValueError(f"{path} is not valid JSON: {err}") from err


def _load_box(args) -> NoSignalBox:
    if args.box and args.spec:
        raise ValueError("give either --box or --spec, not both")
    path = args.spec
    if args.box:
        name = args.box.lower()
        if not name.startswith("spec:"):
            return named_box(name)
        path = args.box[len("spec:"):]
    if not path:
        raise ValueError("give a box with --box NAME, --box spec:FILE "
                         "or --spec FILE")
    data, label = _read_json(path)
    return box_from_spec(data, label=label)


def _parties(text: str | None, n: int) -> tuple[int, ...]:
    """Party indices from comma- or space-separated names or indices."""
    return parse_pattern(n, (text or "").replace(",", " ").split())


def _bits(bits) -> str:
    return " ".join(map(str, bits))


def _describe_box(box: NoSignalBox) -> str:
    kind = "explicit table" if box.form is None else parity_equation(box.form)
    return f"box {box.label} ({box.n} parties): {kind}"


def _scenario_ctc(s: Scenario) -> list[str]:
    names = party_names(NAMED_FORMS[s.box].n)
    return [names[i] for i in s.pattern]


def cmd_list(args) -> tuple[dict, Render]:
    payload = {
        "boxes": [{"name": name.value,
                   "parties": form.n,
                   "relation": parity_equation(form),
                   "constraint": [list(m) for m in form.sorted_monomials()]}
                  for name, form in NAMED_FORMS.items()],
        "scenarios": [{"key": s.key, "box": s.box.value, "ctc": _scenario_ctc(s)}
                      for s in SCENARIOS.values()],
        "deutsch_examples": list(EXAMPLE_NAMES),
    }
    return payload, _render_list


def _render_list(payload: dict) -> Iterator[str]:
    yield "boxes:"
    for info in payload["boxes"]:
        yield f"  {info['name']:<12} {info['parties']} parties   {info['relation']}"
    yield "scenarios:"
    for info in payload["scenarios"]:
        yield (f"  {info['key']:<4} {info['box']} with self-consistent "
               f"parties: {', '.join(info['ctc'])}")
    yield "deutsch examples:"
    yield f"  {', '.join(payload['deutsch_examples'])}"


def cmd_show(args) -> tuple[dict, Render]:
    box = _load_box(args)
    pattern = _parties(args.ctc, box.n)
    if not pattern:
        return box_to_spec(box), partial(_render_box, box)
    names = party_names(box.n)
    payload = {
        "box": box.label,
        "ctc": [names[i] for i in pattern],
        "rows": constrained_to_json(constrain(box, pattern)),
    }
    return payload, partial(_render_constrained, box)


def _render_box(box: NoSignalBox, payload: dict) -> Iterator[str]:
    """The full table; the spec payload of a parity box lists no rows."""
    yield _describe_box(box)
    yield f"{' '.join(input_names(box.n))} | {' '.join(output_names(box.n))} : p"
    for inputs in sorted(box.rows):
        for outputs in sorted(box.rows[inputs]):
            yield f"{_bits(inputs)} | {_bits(outputs)} : {box.rows[inputs][outputs]}"


def _render_constrained(box: NoSignalBox, payload: dict) -> Iterator[str]:
    yield _describe_box(box)
    yield f"self-consistent parties: {', '.join(payload['ctc'])}"
    in_syms = input_names(box.n)
    outs = " ".join(output_names(box.n))
    for row in payload["rows"]:
        left = " ".join(f"{nm}={b}" for nm, b in zip(in_syms, row["inputs"]))
        if row["paradox"]:
            yield f"{left} : PARADOX (no self-consistent outcome)"
            continue
        parts = [f"({outs})=({_bits(o['out'])}) w.p. {o['p']}" for o in row["outcomes"]]
        yield f"{left} : {'; '.join(parts)}"


def cmd_verify(args) -> tuple[dict, Render]:
    targets = ([_load_box(args)] if args.box or args.spec
               else [named_box(name) for name in BoxName])
    results = []
    for box in targets:
        verdict = is_no_signaling(box)
        info = {"box": box.label, "no_signaling": verdict.ok}
        if box.n == 2:
            info["chsh"] = str(chsh_value(box))
        if not verdict.ok:
            w = verdict.witness
            names = party_names(box.n)
            info["witness"] = {
                "coalition": [names[i] for i in w.coalition],
                "inputs_a": list(w.inputs_a),
                "inputs_b": list(w.inputs_b),
                "marginal_a": {"".join(map(str, k)): str(v)
                               for k, v in sorted(w.marginal_a.items())},
                "marginal_b": {"".join(map(str, k)): str(v)
                               for k, v in sorted(w.marginal_b.items())},
            }
        results.append(info)
    payload = {"results": results,
               "ok": all(info["no_signaling"] for info in results)}
    return payload, _render_verify


def _render_verify(payload: dict) -> Iterator[str]:
    for info in payload["results"]:
        if info["no_signaling"]:
            extra = f" (CHSH value {info['chsh']})" if "chsh" in info else ""
            yield f"{info['box']}: no-signaling OK{extra}"
        else:
            w = info["witness"]
            yield (f"{info['box']}: SIGNALING for coalition "
                   f"({', '.join(w['coalition'])}): inputs {w['inputs_a']} "
                   f"vs {w['inputs_b']} give different marginals")


def cmd_analyze(args) -> tuple[dict, Render]:
    box = _load_box(args)
    pattern = _parties(args.ctc, box.n)
    cbox = constrain(box, pattern)
    if bool(args.sender) != bool(args.receivers):
        raise ValueError("--sender and --receivers go together; "
                         "give both or neither")
    names = party_names(box.n)
    header = [_describe_box(box), "self-consistent parties: "
              + (", ".join(names[i] for i in pattern) or "none")]
    if not args.sender:
        return scan_report_json(box.label, cbox), partial(_render_scan, header)
    sender_ids = _parties(args.sender, box.n)
    if len(sender_ids) != 1:
        raise ValueError("--sender takes exactly one party")
    coalition = _parties(args.receivers, box.n)
    payload = report_json(box.label, cbox, sender_ids[0], coalition)
    setting_names = [input_names(box.n)[i] for i in coalition]
    return payload, partial(_render_report, header, setting_names)


def _counts(s: dict) -> str:
    return (f"{s['dependent_settings']}/{s['settings']} settings dependent "
            f"({s['dependent_cases']}/{s['cases']} cases)")


def _render_report(header: list[str], setting_names: list[str],
                   payload: dict) -> Iterator[str]:
    yield from header
    yield (f"sender: {payload['sender']}; receivers: "
           f"{', '.join(payload['coalition'])}")
    for entry in payload["entries"]:
        setting = " ".join(f"{nm}={b}" for nm, b in
                           zip(setting_names, entry["setting"]))
        if entry["dependent"]:
            rule = ", ".join(f"{obs}->{guess}"
                             for obs, guess in entry["rule"].items())
            line = (f"setting {setting}: dependent; guess {rule}; "
                    f"success {entry['success']}; "
                    f"information {entry['mi_bits']:.6f} bits")
        else:
            line = f"setting {setting}: independent"
        if entry["impractical"]:
            line += " [receiver inside the constrained loop]"
        yield line
        if entry["note"]:
            yield f"  note: {entry['note']}"
    s = payload["summary"]
    yield (f"summary: {_counts(s)}; max success {s['max_success']}; "
           f"mean information {s['mean_mi_bits']:.6f} bits")


def _render_scan(header: list[str], payload: dict) -> Iterator[str]:
    yield from header
    for report in payload["reports"]:
        s = report["summary"]
        line = (f"direction {report['sender']} -> "
                f"{','.join(report['coalition'])}: {_counts(s)}")
        if s["impractical"]:
            line += " [receiver inside the constrained loop]"
        yield line
    s = payload["summary"]
    yield (f"overall: {s['dependent_directions']}/{s['directions']} directions "
           f"signal; {_counts(s)}")


def _load_problem(path: str):
    from .deutsch import matrix_from_json

    data, label = _read_json(path)
    if not isinstance(data, dict):
        raise ValueError("problem file must be a JSON object")
    try:
        u = matrix_from_json(data["unitary"], name="unitary")
        rho = matrix_from_json(data["rho_cr"], name="rho_cr")
        d_loop = data["d_loop"]
    except KeyError as err:
        raise ValueError(f"problem file is missing field {err}") from err
    return u, rho, d_loop, label


def cmd_deutsch(args) -> tuple[dict, Render]:
    # numpy is imported here, not at module level, so that the classical
    # subcommands start without it
    from .deutsch import (classical_consistency_crosscheck, cr_output, example,
                          fixed_point, matrix_to_json)

    if args.example and args.file:
        raise ValueError("give either --example or --file, not both")
    if args.example:
        u, rho, d_loop = example(args.example)
        label = args.example.lower()
    elif args.file:
        u, rho, d_loop, label = _load_problem(args.file)
    else:
        raise ValueError("give a problem with --example NAME or --file FILE")

    budget = {"tol": args.tol, "max_iterations": args.max_iter}
    check = (classical_consistency_crosscheck(u, rho, d_loop, **budget)
             if args.crosscheck else None)
    result = check.solve if check else fixed_point(u, rho, d_loop, **budget)
    payload = {
        "problem": label,
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
        "from_average": result.from_average,
        "sigma": matrix_to_json(result.sigma),
        "cr_output": matrix_to_json(cr_output(u, rho, result.sigma)),
    }
    if check:
        payload["crosscheck"] = {
            "permutation": check.permutation,
            "diagonal": check.diagonal,
            "invariance_residual": check.invariance_residual,
            "consistent_sets": {str(k): list(v) for k, v in
                                sorted(check.consistent_sets.items())},
            "prediction": check.prediction,
            "prediction_match": check.prediction_match,
            "ok": check.ok,
        }
    payload["ok"] = check.ok if check else result.converged
    return payload, _render_deutsch


def _matrix_lines(matrix: list) -> Iterator[str]:
    for row in matrix:
        yield f"  [{', '.join(f'{re:+.6f}{im:+.6f}j' for re, im in row)}]"


def _render_deutsch(payload: dict) -> Iterator[str]:
    yield (f"problem {payload['problem']}: CR dim {len(payload['cr_output'])}, "
           f"loop dim {len(payload['sigma'])}")
    status = "converged" if payload["converged"] else "DID NOT CONVERGE"
    source = "averaged iterates" if payload["from_average"] else "raw iterate"
    yield (f"{status} after {payload['iterations']} iteration(s), "
           f"residual {payload['residual']:.3e} ({source})")
    yield "loop state sigma*:"
    yield from _matrix_lines(payload["sigma"])
    yield "CR output state:"
    yield from _matrix_lines(payload["cr_output"])
    check = payload.get("crosscheck")
    if check is None:
        return
    yield (f"crosscheck: permutation {check['permutation']}; "
           f"diagonal {'ok' if check['diagonal'] else 'FAILED'}; "
           f"invariance residual {check['invariance_residual']:.3e}")
    sets = "; ".join(f"{k}:{{{','.join(map(str, v))}}}"
                     for k, v in check["consistent_sets"].items())
    yield f"consistent loop values per CR value: {sets}"
    if check["prediction"] is None:
        yield ("conditioning prediction: none (some branch has no "
               "self-consistent value)")
    else:
        pred = ", ".join(f"{x:.6f}" for x in check["prediction"])
        verdict = "matches" if check["prediction_match"] else "DIFFERS"
        yield f"conditioning prediction: [{pred}] {verdict}"
    yield f"crosscheck {'OK' if check['ok'] else 'FAILED'}"


def cmd_reproduce(args) -> tuple[dict, Render]:
    choice = "all" if args.all else args.table
    chosen = SCENARIOS.values() if choice == "all" else [scenario(choice)]
    scenarios = []
    for s in chosen:
        check = verify_scenario(s)
        scenarios.append({
            "key": s.key,
            "box": s.box.value,
            "ctc": _scenario_ctc(s),
            "relation": scenario_relation(s),
            "rows": [{"in": list(i), "out": list(o)}
                     for i, o in sorted((check.computed or {}).items())],
            "ok": check.ok,
        })
    payload = {"scenarios": scenarios, "ok": all(s["ok"] for s in scenarios)}
    return payload, _render_reproduce


def _render_reproduce(payload: dict) -> Iterator[str]:
    for s in payload["scenarios"]:
        yield (f"scenario {s['key']}: box {s['box']}, "
               f"self-consistent parties: {', '.join(s['ctc'])}")
        yield f"induced relation: {s['relation']}"
        # a deterministic map has a row for every input, so no rows means
        # the constrained box was not deterministic
        if not s["rows"]:
            yield "check: FAIL (constrained box is not deterministic)"
            yield ""
            continue
        n = len(s["rows"][0]["in"])
        ins = " ".join(input_names(n))
        outs = " ".join(output_names(n))
        yield f"{ins} | {outs}"
        yield "-" * (len(ins) + len(outs) + 3)
        for row in s["rows"]:
            yield f"{_bits(row['in'])} | {_bits(row['out'])}"
        yield (f"check: {'OK' if s['ok'] else 'FAIL'} "
               f"(computed table {'matches' if s['ok'] else 'differs from'} "
               f"the frozen reference)")
        yield ""
    yield f"overall: {'OK' if payload['ok'] else 'FAIL'}"


def build_parser() -> argparse.ArgumentParser:
    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", action="store_true",
                          help="print the JSON payload instead of text")
    box_opt = argparse.ArgumentParser(add_help=False)
    box_opt.add_argument("--box", metavar="NAME",
                         help="built-in box name "
                              f"({', '.join(b.value for b in BoxName)})")
    box_opt.add_argument("--spec", metavar="FILE",
                         help="JSON box spec file, or - for stdin")
    ctc_opt = argparse.ArgumentParser(add_help=False)
    ctc_opt.add_argument("--ctc", metavar="PARTIES",
                         help="comma-separated self-consistent parties "
                              "(names or indices)")

    parser = argparse.ArgumentParser(
        prog="ctcbox",
        description="exact analysis of correlation boxes under "
                    "self-consistency constraints",
        epilog="NONLOCAL_CTC_SEED is accepted in the environment for "
               "interface compatibility and ignored: all computations are "
               "deterministic. Exit codes: 0 ok, 1 check failed, 2 bad input.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=[*parents, json_opt])
        p.set_defaults(func=func)
        return p

    command("list", cmd_list, "list built-in boxes and scenarios")
    command("show", cmd_show, "print a box table", box_opt, ctc_opt)

    p_verify = command("verify", cmd_verify,
                       "check the no-signaling conditions", box_opt)
    p_verify.add_argument("check", nargs="?", default="no-signaling",
                          choices=["no-signaling"],
                          help="property to verify (default: no-signaling)")

    p_analyze = command("analyze", cmd_analyze, "signaling report",
                        box_opt, ctc_opt)
    p_analyze.add_argument("--sender", metavar="PARTY",
                           help="signaling party; omit both --sender and "
                                "--receivers to scan every split")
    p_analyze.add_argument("--receivers", metavar="PARTIES",
                           help="comma-separated receiving coalition")

    p_deutsch = command("deutsch", cmd_deutsch,
                        "solve the loop fixed-point equation")
    p_deutsch.add_argument("--example", metavar="NAME",
                           help=f"built-in instance ({', '.join(EXAMPLE_NAMES)})")
    p_deutsch.add_argument("--file", metavar="FILE",
                           help="JSON problem with unitary, rho_cr, d_loop")
    p_deutsch.add_argument("--tol", type=float, default=RESIDUAL_TOL,
                           help="residual tolerance, positive and finite")
    p_deutsch.add_argument("--max-iter", type=int, default=MAX_ITERATIONS,
                           metavar="N", help="iteration budget for the solver")
    p_deutsch.add_argument("--crosscheck", action="store_true",
                           help="compare against classical conditioning "
                                "(permutation unitaries only)")

    p_rep = command("reproduce", cmd_reproduce,
                    "rebuild the reference scenario tables")
    p_rep.add_argument("--table", default="all", metavar="KEY",
                       help=f"one of {', '.join(SCENARIO_KEYS)} or all")
    p_rep.add_argument("--all", action="store_true",
                       help="rebuild every scenario (same as --table all)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, render = args.func(args)
    except ValueError as err:  # every input or usage problem (exit code 2)
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            for line in render(payload):
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; without this the interpreter's last flush
        # of the stdout buffer would fail again on the way out
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return EXIT_OK if payload.get("ok", True) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
