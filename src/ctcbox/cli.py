"""Command line front end.

Subcommands, and the module that builds and renders each one's payload:

    list        built-in boxes, reference scenarios, solver examples  (here)
    show        print a box table                                     boxes
                ... under a constraint pattern (--ctc)                ctc
    verify      complete no-signaling check of a box                  boxes
    analyze     signaling report for one split, or for every split    signaling
    deutsch     solve the loop fixed-point equation                   deutsch
    reproduce   rebuild the reference scenario tables and compare     tables

This module parses arguments, loads inputs, dispatches, and prints: the
payload with ``--json``, else the lines its renderer yields.  Of a payload
it reads only the top-level "ok", false for exit code 1.  Every subcommand
loads forms, boxes, ctc and tables, which the parser's help text needs;
``analyze`` alone loads signaling, and ``deutsch`` alone loads deutsch and
numpy, each when it runs.

With CTCBOX_TRACE=1 in the environment, each phase a subcommand runs
writes one JSON line to stderr when it ends, {"phase": name, "ms": wall
time, ...}: import (the modules ``analyze`` and ``deutsch`` load when they
run), load (reading an input file), build (the box, the solver problem,
or a payload that needs neither), constrain, analyze (a verdict or
signaling report), solve, and render (printing the output).  A phase's
time runs from the end of the one before, the first one's from the start
of ``main``, and leaves out the trace's own work.  Some phases also carry
counts (``COUNTS``): constrain its rows, distinct rows and paradox rows;
a signaling report's analyze its directions, settings and dependent
settings, and for a full scan the distinct lines, buckets and analyses
the scan built, each counted per coalition size.  Stdout and exit codes
are the same either way; with the variable unset, tracing costs one
environment lookup and a call of an empty function per phase, and no
count is taken.

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
                    named_box, parity_equation, render_table, render_verify,
                    verify_json)
from .ctc import constrain, parse_pattern, render_constrained, show_json
from .deutsch_defaults import EXAMPLE_NAMES, MAX_ITERATIONS, RESIDUAL_TOL
from .tables import (SCENARIO_KEYS, SCENARIOS, render_reproduce, reproduce_json,
                     scenario_head)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141

Render = Callable[[dict], Iterator[str]]
PHASES = ("import", "load", "build", "constrain", "analyze", "solve", "render")
# the counts a phase's line may carry, each a non-negative int
COUNTS = {"constrain": ("rows", "distinct_rows", "paradox_rows"),
          "analyze": ("directions", "settings", "dependent_settings",
                      "lines", "buckets", "analyses")}
Counts = Callable[[], dict]


class _Trace:
    """Writes each phase's JSON line to stderr as the phase ends."""

    def __init__(self) -> None:
        from time import perf_counter
        self.clock = perf_counter
        self.since = perf_counter()

    def __call__(self, phase: str, counts: Counts | None = None) -> None:
        line = {"phase": phase, "ms": round(1e3 * (self.clock() - self.since), 3)}
        if counts:
            line.update(counts())
        print(json.dumps(line), file=sys.stderr)
        self.since = self.clock()


def _untraced(phase: str, counts: Counts | None = None) -> None:
    """A phase ends, with tracing off: its counts are not taken."""


def _constrained(cbox) -> Counts:
    """The counts of a constrain phase."""
    return lambda: {"rows": len(cbox.row_ids), "distinct_rows": len(cbox.integer_rows),
                    "paradox_rows": len(cbox.paradox_inputs)}


def _read_json(path: str) -> tuple[object, str]:
    """Parsed JSON from a file, or from stdin for '-', and its label, which
    its errors name."""
    label = "stdin" if path == "-" else path
    try:
        if path == "-":
            return json.load(sys.stdin), label
        with open(path, encoding="utf-8") as handle:
            return json.load(handle), label
    except OSError as err:
        raise ValueError(f"cannot read {label}: {err}") from err
    # besides a JSON syntax error: bytes that are not UTF-8, or an integer
    # longer than the interpreter converts
    except (ValueError, RecursionError) as err:
        raise ValueError(f"{label} is not valid JSON: {err}") from err


def _load_box(args) -> NoSignalBox:
    if args.box is not None and args.spec is not None:
        raise ValueError("give either --box or --spec, not both")
    path = args.spec
    if args.box is not None and not args.box.lower().startswith("spec:"):
        box = named_box(args.box.lower())
    else:
        if args.box is not None:
            path = args.box[len("spec:"):]
        if path is None:
            raise ValueError("give a box with --box NAME, --box spec:FILE "
                             "or --spec FILE")
        data, label = _read_json(path)
        args.phase("load")
        box = box_from_spec(data, label=label)
    args.phase("build")
    return box


def _parties(text: str | None, n: int) -> tuple[int, ...]:
    """Party indices from comma- or space-separated names or indices."""
    return parse_pattern(n, (text or "").replace(",", " ").split())


def cmd_list(args) -> tuple[dict, Render]:
    payload = {
        "boxes": [{"name": name.value,
                   "parties": form.n,
                   "relation": parity_equation(form),
                   "constraint": [list(m) for m in form.sorted_monomials()]}
                  for name, form in NAMED_FORMS.items()],
        "scenarios": [scenario_head(s) for s in SCENARIOS.values()],
        "deutsch_examples": list(EXAMPLE_NAMES),
    }
    args.phase("build")
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
        return box_to_spec(box), lambda payload: render_table(box)
    cbox = constrain(box, pattern)
    payload = show_json(cbox)
    args.phase("constrain", _constrained(cbox))
    return payload, partial(render_constrained, box)


def cmd_verify(args) -> tuple[dict, Render]:
    if args.box is not None or args.spec is not None:
        boxes = [_load_box(args)]
    else:
        boxes = [named_box(name) for name in BoxName]
        args.phase("build")
    payload = verify_json(boxes)
    args.phase("analyze")
    return payload, render_verify


def cmd_analyze(args) -> tuple[dict, Render]:
    # imported here, so that the other subcommands do not compile it
    from .signaling import _scan_report, render_report, render_scan, report_json
    args.phase("import")

    # checked first: loading and constraining a large box takes seconds
    if (args.sender is None) != (args.receivers is None):
        raise ValueError("--sender and --receivers go together; "
                         "give both or neither")
    box = _load_box(args)
    cbox = constrain(box, _parties(args.ctc, box.n))
    args.phase("constrain", _constrained(cbox))
    if args.sender is None:
        payload, built = _scan_report(box.label, cbox)
        render = partial(render_scan, box)
    else:
        sender_ids = _parties(args.sender, box.n)
        if len(sender_ids) != 1:
            raise ValueError("--sender takes exactly one party")
        payload = report_json(box.label, cbox, sender_ids[0],
                              _parties(args.receivers, box.n))
        render = partial(render_report, box)
        built = {}  # one direction fills no store of a scan: no count of one
    summary = payload["summary"]  # one direction's has no count of directions
    args.phase("analyze", lambda: {"directions": summary.get("directions", 1),
                                   "settings": summary["settings"],
                                   "dependent_settings": summary["dependent_settings"],
                                   **built})
    return payload, render


def cmd_deutsch(args) -> tuple[dict, Render]:
    # numpy is imported here, not at module level, so that the classical
    # subcommands start without it.  Without numpy this is a usage error;
    # numpy is tried on its own only after a failed import, since loading
    # it before deutsch is compiled raises the call's peak RSS by 1.6 MB
    try:
        from .deutsch import (classical_consistency_crosscheck, example, fixed_point,
                              problem_from_json, render_solve, solve_json)
    except ImportError:
        try:
            import numpy
        except ImportError:
            raise ValueError("the deutsch subcommand needs numpy") from None
        raise
    args.phase("import")

    if args.example is not None and args.file is not None:
        raise ValueError("give either --example or --file, not both")
    if args.example is not None:
        u, rho, d_loop = example(args.example)
        label = args.example.lower()
    elif args.file is not None:
        data, label = _read_json(args.file)
        args.phase("load")
        u, rho, d_loop = problem_from_json(data)
    else:
        raise ValueError("give a problem with --example NAME or --file FILE")
    args.phase("build")

    budget = {"tol": args.tol, "max_iterations": args.max_iter}
    check = (classical_consistency_crosscheck(u, rho, d_loop, **budget)
             if args.crosscheck else None)
    result = check.solve if check else fixed_point(u, rho, d_loop, **budget)
    payload = solve_json(label, u, rho, result, check)
    args.phase("solve")
    return payload, render_solve


def cmd_reproduce(args) -> tuple[dict, Render]:
    if args.all and args.table is not None:
        raise ValueError("give either --table or --all, not both")
    payload = reproduce_json("all" if args.table is None else args.table)
    args.phase("build")
    return payload, render_reproduce


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
               "deterministic. Exit codes: "
               f"{EXIT_OK} ok, {EXIT_CHECK_FAILED} check failed, {EXIT_USAGE} bad "
               f"input, {EXIT_BROKEN_PIPE} stdout closed before the output was "
               "written.")
    parser.set_defaults(phase=_untraced)
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
    p_rep.add_argument("--table", metavar="KEY",
                       help=f"one of {', '.join(SCENARIO_KEYS)} or all (default: all)")
    p_rep.add_argument("--all", action="store_true",
                       help="rebuild every scenario (same as --table all)")
    return parser


def main(argv: list[str] | None = None) -> int:
    trace = _Trace() if os.environ.get("CTCBOX_TRACE") == "1" else None
    args = build_parser().parse_args(argv)
    if trace:
        args.phase = trace
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
    args.phase("render")
    return EXIT_OK if payload.get("ok", True) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
