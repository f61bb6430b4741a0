"""Recorded command-line runs: scan digests, traced counts, solver counts,
and the verdicts and errors of large or hostile inputs.  Input files keep
their recorded bytes and names, since stdout carries a box's path.  A run
with a time bound is a ``python -m ctcbox.cli`` child killed after that many
seconds; the rest call ``main`` in process.  No numpy is imported here, so
without numpy only the solver cases skip."""

import functools
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import ctcbox
from ctcbox.cli import main
from test_cli_golden import GOLDEN, run_case

SRC = str(Path(ctcbox.__file__).resolve().parents[1])
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}

needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                       reason="no limit on integer string conversion")


def cycle_spec(n: int) -> str:
    """The cycle box: a parity constraint on each pair of neighbours."""
    pairs = ",".join(f"[{i},{(i + 1) % n}]" for i in range(n))
    return f'{{"parties": {n}, "constraint": [{pairs}]}}\n'


@functools.cache
def primes(above: int, below: int) -> list[int]:
    sieve = bytearray([1]) * below
    for p in range(2, math.isqrt(below) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(sieve[p * p::p]))
    return [p for p in range(above + 1, below) if sieve[p]]


def table_spec(parties: int, prob, reverse_every_third: bool = False) -> str:
    """Every entry of ``prob(inputs, outputs)`` that is not 0, row by row;
    every third row, from the first, in reverse entry order if asked."""
    bits = list(product((0, 1), repeat=parties))
    table = []
    for k, x in enumerate(bits):
        row = [{"in": list(x), "out": list(out), "p": str(p)}
               for out in bits for p in [prob(x, out)] if p]
        table += row[::-1] if reverse_every_third and k % 3 == 0 else row
    return json.dumps({"parties": parties, "table": table})


def parity_mixture(den: int, numerators: list[int], forms):
    """Parity boxes mixed with weights n/den and the rest: box i's outputs
    sum to form i of the inputs mod 2.  The second form is the first plus 1,
    so every row has all outcomes."""
    weights = [Fraction(n, den) for n in numerators]
    weights.append(1 - sum(weights))

    def prob(x, out):
        rhs = [sum(all(x[i] for i in m) for m in f) % 2 for f in forms]
        return sum(w for w, r in zip(weights, rhs) if sum(out) % 2 == r) / 2 ** (len(x) - 1)
    return prob


def prime_rows(parties: int, per_row: int, row_primes: list[int]) -> str:
    """Row k puts 1/p on ``per_row`` outcomes, over primes of its own, and
    the rest on one more; its outcomes are k + m * 2^parties / (per_row + 1)."""
    bits = [list(t) for t in product((0, 1), repeat=parties)]
    stride = len(bits) // (per_row + 1)
    table = []
    for k, inputs in enumerate(bits):
        ps = [Fraction(1, row_primes[per_row * k + m]) for m in range(per_row)]
        ps.append(1 - sum(ps))
        table += [{"in": inputs, "out": bits[(k + stride * m) % len(bits)], "p": str(p)}
                  for m, p in enumerate(ps)]
    return json.dumps({"parties": parties, "table": table})


def local(x, out, parties) -> Fraction:
    """These parties on their own, each over a prime of its own per input."""
    ps = primes(1000, 2000)
    return math.prod(Fraction(p // 3 if out[i] else p - p // 3, p)
                     for i in parties for p in [ps[2 * i + x[i]]])


def problem_json(u, rho_cr, d_loop: int) -> str:
    from ctcbox.deutsch import matrix_to_json
    return json.dumps({"unitary": matrix_to_json(u), "rho_cr": matrix_to_json(rho_cr),
                       "d_loop": d_loop})


def nonconv() -> str:
    """A 12-dimensional permutation whose loop never settles on its own."""
    perm = [2, 5, 0, 8, 11, 1, 3, 6, 9, 4, 7, 10]
    unitary = [[[1, 0] if perm[c] == r else [0, 0] for c in range(12)] for r in range(12)]
    rho_cr = [[[1 if r == c == 0 else 0, 0] for c in range(4)] for r in range(4)]
    return json.dumps({"unitary": unitary, "rho_cr": rho_cr, "d_loop": 3})


def weak_rot() -> str:
    """expm(-0.02i SWAP) (I (x) expm(-0.7i X)), spectral gap about 2e-4."""
    import numpy as np

    def expm_hermitian(h, t):
        w, v = np.linalg.eigh(h)
        return (v * np.exp(-1j * t * w)) @ v.conj().T
    swap = np.eye(4)[[0, 2, 1, 3]]
    flip = np.array([[0, 1], [1, 0]])
    u = expm_hermitian(swap, 0.02) @ np.kron(np.eye(2), expm_hermitian(flip, 0.7))
    return problem_json(u, np.diag([1.0, 0.0]) + 0j, 2)


def haar(seed: int, d_cr: int, d_loop: int) -> str:
    """A Haar-random unitary and a random state of the CR system."""
    import numpy as np
    rng = np.random.default_rng(seed)
    z = (rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    g = rng.normal(size=(d_cr, d_cr)) + 1j * rng.normal(size=(d_cr, d_cr))
    rho = g @ g.conj().T
    return problem_json(q * (np.diag(r) / np.abs(np.diag(r))), rho / np.trace(rho).real, d_loop)


FILES = {
    "cycle7.json": lambda: cycle_spec(7),
    "cycle8.json": lambda: cycle_spec(8),
    # three parity boxes over a ~1e18 denominator, so rows repeat
    "mix5.json": lambda: table_spec(5, parity_mixture(
        10 ** 18 + 9, [387_420_489, 10 ** 17 + 3],
        [[(0, 1), (2, 3)], [(), (0, 1), (2, 3)], [(0, 4), (1, 2, 3)]])),
    # no two rows repeat, so no marginal, bucket or pair is shared
    "distinct5.json": lambda: prime_rows(5, 3, primes(100, 2000)),
    "mix6.json": lambda: table_spec(6, parity_mixture(
        10 ** 18 + 3, [282_475_249, 3 * 10 ** 17 + 7],
        [[(0, 1), (2, 3), (4, 5)], [(), (0, 1), (2, 3), (4, 5)], [(0, 5), (1, 2, 3)]]),
        reverse_every_third=True),
    # every party on its own: coalition marginals are equal only in lowest terms
    "local6.json": lambda: table_spec(6, lambda x, out: local(x, out, range(6)),
                                      reverse_every_third=True),
    # a ^ b = z beside the local parties 2..5: no party alone sees z, and z
    # moves the marginal of parties 0 and 1
    "pair6.json": lambda: table_spec(6, lambda x, out: (Fraction(1, 2) * (out[0] ^ out[1] == x[2])
                                                        * local(x, out, range(2, 6))),
                                     reverse_every_third=True),
    "hostile.json": lambda: prime_rows(8, 15, primes(10 ** 5, 10 ** 6)),
    "nonconv.json": nonconv,
    "weak_rot.json": weak_rot,
    "haar2x8.json": lambda: haar(30, 2, 8),
    "haar8x2.json": lambda: haar(41, 8, 2),
}


def run_child(directory: Path, argv: str, timeout: float, stdin: bytes = b"",
              **env: str) -> subprocess.CompletedProcess:
    """``python -m ctcbox.cli`` in a fresh interpreter, from a directory
    holding the files that ``argv`` names, stopped after ``timeout`` s."""
    for name in argv.split():
        if name in FILES:
            (directory / name).write_text(FILES[name]())
    return subprocess.run([sys.executable, "-m", "ctcbox.cli", *argv.split()], input=stdin,
                          capture_output=True, cwd=directory, env={**ENV, **env},
                          timeout=timeout)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the file a run's stdout was recorded as -> (argv, time bound in s, exit
# code, sha256 of stdout), each recorded before an engine change it guards
RECORDED = {
    "scan7.json": ("analyze --spec cycle7.json --ctc 0 --json", 10, 0,
                   "9fb5b95745ec17c42bd3d27206ebbf2a507ae68c705bb5bf827594733eb29a2b"),
    "scan8.txt": ("analyze --spec cycle8.json --ctc 0", 30, 0,
                  "ea8501bc79ff9604e4aea1d9519083a7b76fe292f68021eb0f6bea6b402c6a98"),
    "scan8.json": ("analyze --spec cycle8.json --ctc 0 --json", 30, 0,
                   "3a29afc5db5860969accc826fe7a8c617e706af94e25ef5357c73a60e0221e3c"),
    "mix5_scan.json": ("analyze --spec mix5.json --ctc 0 --json", 20, 0,
                       "9286c622a6f4b37b7634ff6777dae709848b9c91288078ac6d9dd3dc683cdf3f"),
    "mix5_verify.json": ("verify --spec mix5.json --json", 20, 0,
                         "813becbb61be87fa41c3e5f9a245fd8402f0ed14b09283af1675fcd103ab73bf"),
    "distinct5_scan.json": ("analyze --spec distinct5.json --ctc 0 --json", 20, 0,
                            "777692053abdeaa8d5980fde7d9c69effd810481faff56c1d90a5cf934135e22"),
    "mix6_show.txt": ("show --spec mix6.json", 20, 0,
                      "36de5afc2f477f5c17d6fe8b41f81cb3ad35ec035c1bf768df08bf73adc8c9f8"),
    "mix6_verify.json": ("verify --spec mix6.json --json", 20, 0,
                         "ad0a6b2c0d6f7d548f2a6c011f1a272725b62bf67113644c169b1a4cd6765e6f"),
    "mix6_scan.json": ("analyze --spec mix6.json --ctc 0 --json", 20, 0,
                       "4768db3cd0e6701e9158f8bd15b00b57ca792bf6d39f43bc76aea3b13b4e0dd7"),
    "local6_verify.txt": ("verify --spec local6.json", 20, 0,
                          "3788fc33a3953483a01a10b08737f625620f4643808e848dea823525f01168d5"),
    "local6_verify.json": ("verify --spec local6.json --json", 20, 0,
                           "7b842c6b86ea4eb2cb95c71edd8adcc6f2abd3f4c741a2821bed4287b33dce66"),
    "pair6_verify.txt": ("verify --spec pair6.json", 20, 1,
                         "b40fcf36046fef9f0e59336b97dc3a8f07e5e80857a86bae77204f22950fbce8"),
    "pair6_verify.json": ("verify --spec pair6.json --json", 20, 1,
                          "8b58ccd1b3d867efa2e2dbeedd4369ae0829a198f99dc9f7073bef3438771df8"),
}


@pytest.mark.parametrize("name", list(RECORDED))
def test_a_run_is_byte_for_byte_the_recorded_one(name, tmp_path):
    argv, timeout, code, digest = RECORDED[name]
    proc = run_child(tmp_path, argv, timeout)
    assert proc.returncode == code, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_a_traced_scan_keeps_its_bytes_and_counts_its_work(tmp_path):
    argv, _, _, digest = RECORDED["scan7.json"]
    proc = run_child(tmp_path, argv, 20, CTCBOX_TRACE="1")
    assert proc.returncode == 0 and hashlib.sha256(proc.stdout).hexdigest() == digest
    phases = {phase["phase"]: phase for phase in map(json.loads, proc.stderr.splitlines())}
    assert phases["analyze"].items() >= {"directions": 441, "settings": 5096, "lines": 1097,
                                         "buckets": 106, "analyses": 190}.items()


# Runs the command after its first two arguments, its stdout to the file
# the first names, killed after the seconds the second gives, and prints
# its exit code and its peak RSS as os.wait4 reads them: this process's
# own, where RUSAGE_CHILDREN would read the largest child waited for yet.
# On Linux a process's peak includes that of the memory it was started
# from, so the test process, large after other tests, starts this small
# one, which starts the command.
PEAK_OF = """
import os, signal, subprocess, sys, time
with open(sys.argv[1], "wb") as out:
    proc = subprocess.Popen(sys.argv[3:], stdout=out, stderr=subprocess.DEVNULL)
deadline = time.monotonic() + float(sys.argv[2])
while not (reaped := os.wait4(proc.pid, os.WNOHANG))[0]:
    if time.monotonic() > deadline:
        os.kill(proc.pid, signal.SIGKILL)
    time.sleep(0.02)
proc.returncode = os.waitstatus_to_exitcode(reaped[1])
print(proc.returncode, reaped[2].ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="no os.wait4 to read one child's usage")
def test_a_ten_party_text_scan_builds_no_entry(tmp_path):
    # a text scan prints each direction's summary, so it builds none of the
    # 196,820 entry dicts of the --json payload: about 30 MB on Linux, where
    # building them took 433 MB
    (tmp_path / "cycle10.json").write_text(cycle_spec(10))
    proc = subprocess.run([sys.executable, "-c", PEAK_OF, "scan10.txt", "60", sys.executable,
                           "-m", "ctcbox.cli", "analyze", "--spec", "cycle10.json", "--ctc", "0"],
                          capture_output=True, check=True, cwd=tmp_path, env=ENV, timeout=90)
    code, peak = map(int, proc.stdout.split())
    assert code == 0
    assert (hashlib.sha256((tmp_path / "scan10.txt").read_bytes()).hexdigest()
            == "f606afa2ea4a3650bc594191e3bba2ef5ebd073296b6cd5b71ec7867eac5f9f2")
    assert peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10) < 100  # MB


# the file a solve's stdout was written to -> (argv, time bound in s, exit
# code, its line of stdout); 1,500, 766 and 1,100 stop in the first long
# window (steps 1279-2302), the last two after two and three full blocks;
# 8 x 2 converges inside the first window, steps 0-30
SOLVES = {
    "nonconv.txt": ("deutsch --file nonconv.json", 60, 1, "DID NOT CONVERGE after 100000 "
                    "iteration(s), residual 6.667e-06 (averaged iterates)"),
    "nonconv1500.txt": ("deutsch --file nonconv.json --max-iter 1500", 20, 1, "DID NOT CONVERGE"
                        " after 1500 iteration(s), residual 4.441e-04 (averaged iterates)"),
    "nonconv766.txt": ("deutsch --file nonconv.json --max-iter 766", 20, 1, "DID NOT CONVERGE"
                       " after 766 iteration(s), residual 8.692e-04 (averaged iterates)"),
    "nonconv1100.txt": ("deutsch --file nonconv.json --max-iter 1100", 20, 1, "DID NOT CONVERGE"
                        " after 1100 iteration(s), residual 6.055e-04 (averaged iterates)"),
    "weak_rot.txt": ("deutsch --file weak_rot.json", 20, 0,
                     "converged after 54159 iteration(s), residual 9.999e-11 (raw iterate)"),
    "haar2x8.txt": ("deutsch --file haar2x8.json", 20, 0,
                    "converged after 40 iteration(s), residual 9.819e-11 (raw iterate)"),
    "haar8x2.txt": ("deutsch --file haar8x2.json", 20, 0,
                    "converged after 17 iteration(s), residual 4.958e-11 (raw iterate)"),
}


@pytest.mark.parametrize("name", list(SOLVES))
def test_a_solve_keeps_its_count_and_residual(name, tmp_path):
    pytest.importorskip("numpy")
    argv, timeout, code, line = SOLVES[name]
    proc = run_child(tmp_path, argv, timeout)
    assert proc.returncode == code, proc.stderr.decode()
    assert line in proc.stdout.decode().splitlines()


CLASSICAL = ["list", "verify", "reproduce --all", "show --box pr --ctc bob",
             "analyze --box svetlichny --ctc alice"]


@pytest.mark.parametrize("argv", [argv + flag for argv in CLASSICAL for flag in ("", " --json")])
def test_a_classical_subcommand_keeps_its_output(argv, tmp_path, monkeypatch, capsys):
    assert run_case(argv, tmp_path, monkeypatch, capsys)[:2] == GOLDEN[argv]


def test_the_eight_party_cycle_signals_once_party0_is_looped(tmp_path, monkeypatch, capsys):
    spec = cycle_spec(8)
    assert run_child(tmp_path, "verify --spec -", 60, spec.encode()).returncode == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(spec))
    code, out, _ = run(capsys, "show", "--spec", "-", "--ctc", "0", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    (tmp_path / "looped_table.json").write_text(json.dumps({"parties": 8, "table": [
        {"in": r["inputs"], "out": o["out"], "p": o["p"]} for r in rows for o in r["outcomes"]]}))
    proc = run_child(tmp_path, "verify --spec looped_table.json", 60)
    assert proc.returncode == 1
    assert (b"SIGNALING for coalition (party1, party2, party3, party4, party5, party6, party7)"
            in proc.stdout)


@needs_digit_limit
def test_a_hostile_scan_fails_fast_and_names_its_direction(tmp_path):
    # the scan stops at str()'s default 4,300-digit limit; with no limit it
    # runs for seconds and exits 0
    proc = run_child(tmp_path, "analyze --spec hostile.json", 20, PYTHONINTMAXSTRDIGITS="4300")
    assert proc.returncode == 2
    assert b"direction party0 -> party1: " in proc.stderr


def first_in_order_table() -> dict:
    """Three parties: p(a, b, c | x) = (1/2 +- 1/d)(1/4 +- 1/e), + when a = 0
    and + when b = c, where d = 10^1100 + 2k + 1 and e = 10^2200 + 2k + 1
    for input code k.  A success of bob -> alice, the first direction a
    scan reads that fails, or of alice -> bob,charlie, the first in report
    order, has a denominator of more than 4,300 digits; alice -> bob's is
    1/2."""
    table = []
    for k in range(8):
        d, e = 10 ** 1100 + 2 * k + 1, 10 ** 2200 + 2 * k + 1
        for out in range(8):
            a, b, c = out >> 2, (out >> 1) & 1, out & 1
            p = ((Fraction(1, 2) + Fraction(1 if a == 0 else -1, d))
                 * (Fraction(1, 4) + Fraction(1 if b == c else -1, e)))
            table.append({"in": [k >> 2, (k >> 1) & 1, k & 1], "out": [a, b, c], "p": str(p)})
    return {"parties": 3, "table": table}


@needs_digit_limit
def test_a_scan_error_names_the_first_failing_direction_in_report_order(capsys, tmp_path):
    path = tmp_path / "first_in_order.json"
    path.write_text(json.dumps(first_in_order_table()))
    # the default limit, whatever the interpreter was started with
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        scan = run(capsys, "analyze", "--spec", str(path))
        direction = run(capsys, "analyze", "--spec", str(path),
                        "--sender", "alice", "--receivers", "bob")
    finally:
        sys.set_int_max_str_digits(saved)
    code, out, err = scan
    assert code == 2 and out == ""
    assert err.startswith("error: direction alice -> bob,charlie: Exceeds the limit (4300 digits)")
    code, out, err = direction
    assert code == 0 and err == ""
    assert "summary: 0/2 settings dependent (0/4 cases); max success 1/2" in out


def test_masses_too_small_for_a_float_carry_no_information(capsys, tmp_path):
    # 1/10^400 is 0.0 as a float, and its entropy term x log2 x tends to 0
    den = 10 ** 400
    table = []
    for ins in ([0, 0], [0, 1], [1, 0], [1, 1]):
        table += [{"in": ins, "out": [0, 0], "p": f"1/{den}"},
                  {"in": ins, "out": [1, 1], "p": f"{den - 1}/{den}"}]
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"parties": 2, "table": table}))
    code, out, err = run(capsys, "analyze", "--spec", str(path))
    assert (code, err) == (0, "")
    assert out == (f"box {path} (2 parties): explicit table\n"
                   "self-consistent parties: none\n"
                   "direction alice -> bob: 0/2 settings dependent (0/4 cases)\n"
                   "direction bob -> alice: 0/2 settings dependent (0/4 cases)\n"
                   "overall: 0/2 directions signal; 0/4 settings dependent (0/8 cases)\n")
    code, out, err = run(capsys, "analyze", "--spec", str(path), "--sender", "0",
                         "--receivers", "1")
    assert (code, err) == (0, "")
    assert out == (f"box {path} (2 parties): explicit table\n"
                   "self-consistent parties: none\n"
                   "sender: alice; receivers: bob\n"
                   "setting y=0: independent\n"
                   "setting y=1: independent\n"
                   "summary: 0/2 settings dependent (0/4 cases); max success 1/2; "
                   "mean information 0.000000 bits\n")
    code, out, _ = run(capsys, "analyze", "--spec", str(path), "--sender", "0",
                       "--receivers", "1", "--json")
    assert code == 0
    assert [entry["mi_bits"] for entry in json.loads(out)["entries"]] == [0.0, 0.0]
