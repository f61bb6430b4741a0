"""Acceptance gate: twelve criteria, one pass/fail line each.

Expected tables and rules are frozen literally in this file so the gate
compares the engine against fixed data, not against itself.  Exact
quantities use rational equality; information values use a 1e-12
absolute tolerance and solver residuals a 1e-10 trace-norm tolerance.

Run with `pytest tests/test_acceptance.py`; the per-criterion verdicts
are printed in an "acceptance criteria" section at the end of the run
(see conftest.py).  Only criterion 10, the quantum loop, needs numpy: on
a Python without it that criterion is skipped, and reads SKIP.
"""

import functools
import math
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import record_acceptance
from ctcbox.boxes import (BoxName, NAMED_FORMS, all_bit_tuples, chsh_value,
                          is_no_signaling, named_box)
from ctcbox.ctc import constrain
from ctcbox.signaling import analyze

MI_TOL = 1e-12
RESIDUAL_TOL = 1e-10

TABLE_I = {
    (0, 0): (0, 0),
    (0, 1): (1, 1),
    (1, 0): (0, 0),
    (1, 1): (0, 1),
}

TABLE_II = {
    (0, 0, 0): (0, 0, 0),
    (0, 0, 1): (1, 0, 1),
    (0, 1, 0): (1, 1, 0),
    (0, 1, 1): (1, 1, 1),
    (1, 0, 0): (0, 0, 0),
    (1, 0, 1): (0, 0, 1),
    (1, 1, 0): (0, 1, 0),
    (1, 1, 1): (1, 1, 1),
}

TABLE_III = {
    (0, 0, 0): (0, 0, 0),
    (0, 0, 1): (1, 0, 1),
    (0, 1, 0): (1, 1, 0),
    (0, 1, 1): (0, 1, 1),
    (1, 0, 0): (0, 0, 0),
    (1, 0, 1): (0, 0, 1),
    (1, 1, 0): (0, 1, 0),
    (1, 1, 1): (0, 1, 1),
}

TABLE_IV = {
    (0, 0, 0): (0, 0, 0),
    (0, 0, 1): (0, 0, 0),
    (0, 1, 0): (0, 1, 1),
    (0, 1, 1): (0, 1, 1),
    (1, 0, 0): (1, 0, 1),
    (1, 0, 1): (1, 0, 0),
    (1, 1, 0): (1, 1, 1),
    (1, 1, 1): (1, 1, 0),
}

PARITY_RULE = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
INVERTED_PARITY_RULE = {(0, 0): 1, (0, 1): 0, (1, 0): 0, (1, 1): 1}


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except pytest.skip.Exception:
                record_acceptance(number, description, "SKIP")
                raise
            except BaseException:
                record_acceptance(number, description, "FAIL")
                raise
            record_acceptance(number, description, "PASS")
        return wrapper
    return decorate


def deterministic_rows(box_name, pattern):
    cbox = constrain(named_box(box_name), pattern)
    rows = {}
    for inputs, row in cbox.rows.items():
        assert not row.paradox, (inputs, "unexpected paradox row")
        assert len(row.outcomes) == 1, (inputs, "row is not deterministic")
        ((out, p),) = row.outcomes.items()
        assert p == Fraction(1), (inputs, p)
        rows[inputs] = out
    return rows


@criterion(1, "pr with bob looped gives the frozen 4-row deterministic table")
def test_criterion_01_pr_bob_table():
    assert deterministic_rows("pr", (1,)) == TABLE_I


@criterion(2, "svetlichny with bob+charlie looped gives the frozen 8-row table")
def test_criterion_02_svetlichny_table():
    computed = deterministic_rows("svetlichny", (1, 2))
    assert set(computed.items()) == set(TABLE_II.items())


@criterion(3, "mermin1 with bob+charlie and with alice+bob give the frozen tables")
def test_criterion_03_mermin_tables():
    assert set(deterministic_rows("mermin1", (1, 2)).items()) == set(TABLE_III.items())
    assert set(deterministic_rows("mermin1", (0, 1)).items()) == set(TABLE_IV.items())


@criterion(4, "all four built-in boxes pass the exhaustive no-signaling check")
def test_criterion_04_no_signaling_baseline():
    for name in BoxName:
        verdict = is_no_signaling(named_box(name))
        assert verdict.ok, (name, verdict.witness)


@criterion(5, "chsh(pr) is exactly 4, above 2*sqrt(2), above 2")
def test_criterion_05_chsh():
    value = chsh_value(named_box("pr"))
    assert value == Fraction(4)
    assert float(value) > 2 * math.sqrt(2) > 2


@criterion(6, "pr+bob: success 1 and 1 bit at x=0; chance and 0 bits at x=1")
def test_criterion_06_pr_bob_signaling():
    cbox = constrain(named_box("pr"), (1,))
    entries = {e.setting: e for e in analyze(cbox, sender=1, coalition=[0])}
    e0 = entries[(0,)]
    assert e0.dependent and e0.success == Fraction(1)
    assert abs(e0.mi_bits - 1.0) <= MI_TOL
    e1 = entries[(1,)]
    assert not e1.dependent and e1.success == Fraction(1, 2)
    assert abs(e1.mi_bits) <= MI_TOL


@criterion(7, "svetlichny+alice: perfect parity readout iff y=z; y!=z chance + note")
def test_criterion_07_svetlichny_alice():
    cbox = constrain(named_box("svetlichny"), (0,))
    entries = {e.setting: e for e in analyze(cbox, sender=0, coalition=[1, 2])}
    assert sorted(s for s, e in entries.items() if e.dependent) == [(0, 0), (1, 1)]
    assert entries[(0, 0)].rule == PARITY_RULE
    assert entries[(1, 1)].rule == INVERTED_PARITY_RULE
    assert entries[(0, 0)].success == entries[(1, 1)].success == Fraction(1)
    for setting in ((0, 1), (1, 0)):
        e = entries[setting]
        assert e.success == Fraction(1, 2)
        assert e.note, "independent correlated settings must carry a note"


@criterion(8, "mermin1: alice readable iff y=z (2 of 4); bob readable iff x=0 via a^c")
def test_criterion_08_mermin1():
    cbox = constrain(named_box("mermin1"), (0,))
    entries = analyze(cbox, sender=0, coalition=[1, 2])
    dependent = [e.setting for e in entries if e.dependent]
    assert dependent == [(0, 0), (1, 1)] and len(entries) == 4

    cbox = constrain(named_box("mermin1"), (1,))
    entries = {e.setting: e for e in analyze(cbox, sender=1, coalition=[0, 2])}
    for (x, z), e in entries.items():
        assert e.dependent == (x == 0)
        if e.dependent:
            assert e.rule == PARITY_RULE and e.success == Fraction(1)


@criterion(9, "mermin2+alice: readable iff y.z=0 (3 of 4) via the b^c rule")
def test_criterion_09_mermin2():
    cbox = constrain(named_box("mermin2"), (0,))
    entries = {e.setting: e for e in analyze(cbox, sender=0, coalition=[1, 2])}
    for (y, z), e in entries.items():
        assert e.dependent == (y * z == 0)
        if e.dependent:
            assert e.rule == PARITY_RULE and e.success == Fraction(1)
        else:
            assert e.success == Fraction(1, 2)


@criterion(10, "loop solver: swap copies rho (10 random states), flip gives I/2, "
              "grandfather crosscheck passes")
def test_criterion_10_deutsch():
    np = pytest.importorskip("numpy")
    from ctcbox.deutsch import (classical_consistency_crosscheck, example, fixed_point,
                                trace_norm)

    swap, _, d = example("swap")
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho)
        result = fixed_point(swap, rho, d)
        assert result.converged and result.residual < RESIDUAL_TOL
        assert trace_norm(result.sigma - rho) < RESIDUAL_TOL

    flip_u, flip_rho, d = example("grandfather")
    result = fixed_point(flip_u, flip_rho, d)
    assert result.converged
    assert trace_norm(result.sigma - np.eye(2) / 2) < RESIDUAL_TOL
    assert classical_consistency_crosscheck(flip_u, flip_rho, d).ok


@criterion(11, "constrained parity boxes: row counts and paradox pattern exact")
def test_criterion_11_structure():
    for name in BoxName:
        box = named_box(name)
        form = NAMED_FORMS[name]
        n = box.n
        for size in range(n + 1):
            for pattern in combinations(range(n), size):
                cbox = constrain(box, pattern)
                for inputs in all_bit_tuples(n):
                    row = cbox.rows[inputs]
                    if size == n:
                        consistent = (form.evaluate(inputs)
                                      == sum(inputs) % 2)
                        assert row.paradox == (not consistent), (name, inputs)
                        continue
                    assert not row.paradox, (name, pattern, inputs)
                    expected = 2 ** (n - 1 - size)
                    assert len(row.outcomes) == expected
                    assert set(row.outcomes.values()) == {Fraction(1, expected)}


@criterion(12, "reproduce --all output is byte-identical across two runs")
def test_criterion_12_determinism():
    argv = [sys.executable, "-m", "ctcbox.cli", "reproduce", "--all"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout and first.stdout == second.stdout
