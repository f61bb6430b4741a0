"""cli_session: scripted ``python -m ctcbox.cli`` calls, and the cli probes."""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import parity_oracle
from classical_scale import check_scan, mixture_entries, random_monomials
from harness import CaseFailed, Session

SPEC_FILES = {"spec_a.json": 4, "spec_b.json": 5, "spec_c.json": 4}
CLI_COMMANDS = [
    ["list"],
    ["show", "--box", "pr", "--ctc", "bob"],
    ["verify"],
    ["analyze", "--box", "svetlichny", "--ctc", "alice"],
    ["analyze", "--spec", "spec_a.json", "--ctc", "alice"],
    ["analyze", "--spec", "spec_b.json", "--ctc", "alice"],
    ["analyze", "--spec", "spec_c.json", "--ctc", "alice"],
    ["reproduce", "--all"],
    ["deutsch", "--example", "swap", "--crosscheck"],
]


class CliSession:
    """Scripted ``python -m ctcbox.cli`` calls, text and --json."""

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed * 7919 + 2)
        self.cwd = tmp / "cli"
        self.cwd.mkdir(parents=True)
        self.components = {}
        for fname, n in SPEC_FILES.items():
            if fname == "spec_c.json":
                # a table spec: two parity boxes mixed with ~1e18 weights
                den = rng.randrange(10 ** 18, 2 * 10 ** 18)
                w = Fraction(rng.randrange(1, den), den)
                comps = [(w, random_monomials(rng, n, 0)),
                         (1 - w, random_monomials(rng, n, 0))]
                spec = {"parties": n, "table": mixture_entries(n, comps)}
            else:
                comps = [(Fraction(1), random_monomials(rng, n, 0))]
                spec = {"parties": n, "constraint": [list(m) for m in comps[0][1]]}
            self.components[fname] = (n, comps)
            (self.cwd / fname).write_text(json.dumps(spec))
        self.commands = [argv + extra for argv in CLI_COMMANDS
                         for extra in ([], ["--json"])]

    def run_pass(self, s: Session):
        for argv in self.commands:
            key = "cli:" + " ".join(argv)
            with contextlib.suppress(CaseFailed):
                s.op(key, "cli.subprocess", lambda: subprocess.run(
                    [sys.executable, "-m", "ctcbox.cli", *argv], cwd=self.cwd,
                    capture_output=True, check=False),
                    lambda proc: self.check(s, key, argv, proc.returncode, proc.stdout),
                    command=argv[0])

    def check(self, s, key, argv, code, stdout: bytes):
        if code != 0:
            return ("wrong", f"exit code {code}")
        spec = next((a for a in argv if a in SPEC_FILES), None)
        found = s.golden(key, stdout, spec is not None)
        if found or spec is None:
            return found
        n, comps = self.components[spec]
        expected = parity_oracle.expected_scan(n, comps, 0)
        if "--json" in argv:
            return check_scan(json.loads(stdout), n, comps, 0)
        settings = sum(len(e) for _, _, e in expected)
        dependent = sum(d for _, _, e in expected for d, _ in e)
        signal = sum(any(d for d, _ in e) for _, _, e in expected)
        want = (f"overall: {signal}/{len(expected)} directions signal; "
                f"{dependent}/{settings} settings dependent")
        last = stdout.decode().rstrip("\n").rsplit("\n", 1)[-1]
        return None if last.startswith(want) else ("wrong", f"summary line {last!r}")


CLI_PROBE = ("import contextlib, io, sys\n"
             "from ctcbox.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    main(sys.argv[1:])\n"
             "print('numpy' in sys.modules)\n")
CLASSICAL_COMMANDS = {"list": ["list"], "show": ["show", "--box", "pr", "--ctc", "bob"],
                      "verify": ["verify"],
                      "analyze": ["analyze", "--box", "svetlichny", "--ctc", "alice"],
                      "reproduce": ["reproduce", "--all"]}
MAIN_COMMANDS = {**CLASSICAL_COMMANDS,
                 "deutsch": ["deutsch", "--example", "swap", "--crosscheck"]}
PROBE_REPEATS = 5


def cli_probes(s: Session, cwd: Path) -> dict:
    """Start-up floor, import cost, numpy loading and in-process main()."""
    from ctcbox.cli import main
    from ctcbox.tables import SCENARIOS, verify_scenario

    def subprocess_ms(argv):
        times = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, *argv], cwd=cwd, check=True,
                           capture_output=True)
            times.append((time.perf_counter() - start) * 1e3)
        return statistics.median(times)

    floor = subprocess_ms(["-c", "pass"])
    metrics = {"cli.startup_floor_ms": floor,
               "cli.import_ms": subprocess_ms(["-c", "import ctcbox.cli"]) - floor}
    loaded = 0
    for argv in CLASSICAL_COMMANDS.values():
        proc = subprocess.run([sys.executable, "-c", CLI_PROBE, *argv], cwd=cwd,
                              capture_output=True, text=True, check=True)
        loaded += proc.stdout.strip() == "True"
    metrics["cli.numpy_loaded_cmds"] = loaded
    for name, argv in MAIN_COMMANDS.items():
        times = []
        for _ in range(PROBE_REPEATS):
            out = io.StringIO()
            start = time.perf_counter()
            with s.tracer.span(f"cli.main.{name}"), contextlib.redirect_stdout(out):
                code = main(argv)
            times.append((time.perf_counter() - start) * 1e3)
            key = "cli:" + " ".join(argv)
            found = (("wrong", f"exit code {code}") if code != 0
                     else s.golden(key, out.getvalue().encode()))
            if found:
                s.problem(found[0], f"main {key}", found[1])
        metrics[f"cli.main.{name}_ms"] = statistics.median(times)
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        checks = [verify_scenario(sc) for sc in SCENARIOS.values()]
        times.append((time.perf_counter() - start) * 1e3)
        if not all(c.ok for c in checks):
            s.problem("wrong", "verify_scenario", "a reference scenario failed")
    metrics["tables.verify_scenario.ms"] = statistics.median(times)
    return metrics


WORKLOAD = CliSession
