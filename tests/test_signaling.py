import copy
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from ctcbox import boxes, forms, signaling
from ctcbox.boxes import (BoxName, NoSignalBox, all_bit_tuples, is_no_signaling, named_box,
                          parity_box, shared_bits)
from ctcbox.ctc import constrain
from ctcbox.forms import BooleanForm, bit_string
from ctcbox.signaling import analyze, full_scan, mean_mi_bits, report_json, scan_report_json
from signaling_oracle import (analyze_setting, engine_observation, entropy_bits, entry_to_json,
                              map_rule, marginal, mutual_information_bits, per_coalition_full_scan,
                              per_coalition_scan_report, receiver_observation, rule_success,
                              spread, success_probability, xor_bits)
from test_boxes import CountingRows
from test_shared_rows import shared_row_tables

MI_TOL = 1e-12
PARITY_RULE = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}


def test_entropy_bits():
    assert entropy_bits({}) == 0
    assert entropy_bits({(0,): Fraction(1)}) == 0
    uniform = {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    assert math.isclose(entropy_bits(uniform), 1.0)


def test_xor_bits():
    assert xor_bits([]) == 0
    assert xor_bits([1, 1, 1]) == 1
    assert xor_bits((1, 0, 1, 0)) == 0


def test_receiver_observation_pr():
    cbox = constrain(named_box("pr"), [1])
    for observation in (engine_observation, receiver_observation):
        assert observation(cbox, 1, [0], (0,), 0) == {(0,): Fraction(1)}
        assert observation(cbox, 1, [0], (0,), 1) == {(1,): Fraction(1)}


def test_receiver_observation_averages_bystanders():
    # bob constrained, bob sends, alice alone receives; charlie is averaged
    cbox = constrain(named_box("mermin1"), [1])
    for x in (0, 1):
        for y in (0, 1):
            for observation in (engine_observation, receiver_observation):
                obs = observation(cbox, 1, [0], (x,), y)
                assert sum(obs.values()) == 1
                # a = x.y ^ x.z ^ y ^ c; averaging over z and c leaves a uniform
                assert obs == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}


def test_observation_rejects_paradox_rows():
    cbox = constrain(named_box("pr"), [0, 1])
    with pytest.raises(ValueError, match="paradox"):
        analyze_setting(cbox, 0, [1], (1,))
    # x ^ y ^ z = x.y.z fails at the inputs of weight 1: a setting raises
    # only when one of its own rows is one of them
    cbox = constrain(named_box("mermin2"), [0, 1, 2])
    assert analyze_setting(cbox, 0, [1, 2], (1, 1)).rule == {(1, 1): 0}
    with pytest.raises(ValueError, match=r"paradox row at inputs \(1, 0, 0\)$"):
        analyze_setting(cbox, 0, [1, 2], (0, 0))


def test_a_report_names_the_direction_a_paradox_row_stops():
    # x ^ y = x.y holds only at (0, 0): bob's setting y = 0 is undefined
    # once alice sends 1
    cbox = constrain(named_box("pr"), [0, 1])
    named = r"^direction alice -> bob: observation undefined: paradox row at inputs \(1, 0\)$"
    with pytest.raises(ValueError, match=named):
        report_json("pr", cbox, 0, [1])
    with pytest.raises(ValueError, match=named):
        scan_report_json("pr", cbox)
    # one direction's own analysis keeps the plain message
    with pytest.raises(ValueError, match=r"^observation undefined: paradox row"):
        analyze(cbox, 0, [1])


def test_a_paradox_row_is_named_in_line_order():
    # charlie -> bob, setting y = 0: its line is charlie's bit 0 with
    # x = 0, 1, then charlie's bit 1 with x = 0, 1, so the first paradox
    # row in line order is (1, 0, 0), where in row order it is (0, 0, 1)
    cbox = constrain(named_box("mermin2"), [0, 1, 2])
    with pytest.raises(ValueError, match=r"^observation undefined: paradox row at inputs "
                                         r"\(1, 0, 0\)$"):
        analyze(cbox, 2, [1])
    with pytest.raises(ValueError, match=r"^direction charlie -> bob: observation undefined: "
                                         r"paradox row at inputs \(1, 0, 0\)$"):
        report_json("mermin2", cbox, 2, [1])


def test_paradox_rows_are_raised_per_bucket():
    # x ^ y = x.y holds only at (0, 0): setting y = 0 with x = 0 is
    # observable, x = 1 is not
    cbox = constrain(named_box("pr"), [0, 1])
    assert engine_observation(cbox, 0, [1], (0,), 0) == {(0,): 1}
    with pytest.raises(ValueError, match=r"paradox row at inputs \(1, 0\)"):
        analyze_setting(cbox, 0, [1], (0,))
    with pytest.raises(ValueError, match=r"paradox row at inputs \(1, 0\)"):
        analyze(cbox, 0, [1])


class RecordingRows(list):
    """A row-id list that records the input code of every row id read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.touched = []

    def __getitem__(self, code):
        self.touched.append(code)
        return super().__getitem__(code)

    def __iter__(self):
        self.touched.extend(range(len(self)))
        return super().__iter__()


def _looped_cycle(n: int):
    """f = x0.x1 ^ x1.x2 ^ ... ^ x(n-1).x0 with party 0 looped."""
    cycle = BooleanForm.from_monomials(n, [[i, (i + 1) % n] for i in range(n)])
    return constrain(parity_box(cycle), [0])


def test_a_setting_reads_only_its_own_rows():
    n = 6
    cbox = _looped_cycle(n)
    # rows are shared, so a row is read through the row id of each input code
    rows = cbox.row_ids = RecordingRows(cbox.row_ids)
    # sender x0 = 1, setting (x1..x4) = (1, 0, 1, 1), either value of x5
    engine_observation(cbox, 0, range(1, 5), (1, 0, 1, 1), 1)
    assert sorted(rows.touched) == [0b110110, 0b110111]
    rows.touched.clear()
    analyze_setting(cbox, 0, range(1, 5), (1, 0, 1, 1))
    assert sorted(rows.touched) == [0b010110, 0b010111, 0b110110, 0b110111]
    rows.touched.clear()
    analyze(cbox, 0, range(1, 5))  # every code exactly once
    assert sorted(rows.touched) == list(range(2 ** n))


def test_a_scan_reads_each_input_once_per_coalition():
    n = 5
    cbox = _looped_cycle(n)
    rows = cbox.row_ids = RecordingRows(cbox.row_ids)
    integer_rows = cbox.integer_rows = CountingRows(cbox.integer_rows)
    payload = scan_report_json("cycle", cbox)
    coalitions = 2 ** n - 2
    assert payload["summary"]["directions"] == n * (2 ** (n - 1) - 1) > coalitions
    # whichever of its senders sends, a coalition reads every input once and
    # projects each distinct row once
    assert Counter(rows.touched) == {code: coalitions for code in range(2 ** n)}
    assert integer_rows.reads == coalitions * len(integer_rows)


@pytest.mark.parametrize("looped", [[0], [0, 1], [0, 1, 2]], ids=["one", "two", "three"])
def test_a_verdict_reads_only_the_inputs_it_compares(monkeypatch, looped):
    # party 0 looped: the witness has n - 1 parties, found by a condition;
    # two parties: n - 2, found by the probe; three: n - 3, by the ascending loop
    n = 6
    cycle = BooleanForm.from_monomials(n, [[i, (i + 1) % n] for i in range(n)])
    cbox = constrain(parity_box(cycle), looped)
    table = NoSignalBox(n, {x: row.outcomes for x, row in cbox.rows.items()})
    codes = shared_bits(n)[1]
    expected = []  # the input codes the documented search compares, in order

    def moves(coalition, senders):
        # coalition inputs, then sender patterns, lexicographic; every other
        # bit 0; stop at the first pair whose marginals differ
        for fixed in all_bit_tuples(len(coalition)):
            base = [0] * n
            for i, bit in zip(coalition, fixed):
                base[i] = bit
            expected.append(codes[tuple(base)])
            for pattern in all_bit_tuples(len(senders))[1:]:
                trial = list(base)
                for i, bit in zip(senders, pattern):
                    trial[i] = bit
                expected.append(codes[tuple(trial)])
                if marginal(table, coalition, base) != marginal(table, coalition, trial):
                    return expected[-2:]
        return None

    def first_failure(signaling_, sizes):
        for size in sizes:
            for coalition in combinations(range(n), size):
                senders = [i for i in signaling_ if i not in coalition]
                move = senders and moves(coalition, senders)
                if move:
                    return move

    # the n conditions, then the coalitions of n - 2 parties; the ascending
    # loop runs only after one of those fails, and when none does the
    # witness is the last signaling party's condition
    conditions = [moves([i for i in range(n) if i != j], [j]) for j in range(n)]
    signaling_ = [j for j in range(n) if conditions[j]]
    probe = first_failure(signaling_, [n - 2])
    witness = (first_failure(signaling_, range(1, n - 2)) or probe if probe
               else conditions[signaling_[-1]])
    calls = []  # the coalition of each _first_change call, in order
    projections = []  # (calls begun, inside a call, row id, projection), in order
    inside = [False]
    row_id_of = {id(row): row_id for row_id, row in enumerate(table.integer_rows)}
    first_change, projected = boxes._first_change, boxes.projected

    def recorded_call(box, coal, senders):
        calls.append(coal)
        inside[0] = True
        try:
            return first_change(box, coal, senders)
        finally:
            inside[0] = False

    def recorded_projection(row, project):
        projections.append((len(calls), inside[0], row_id_of[id(row)], project))
        return projected(row, project)

    monkeypatch.setattr(boxes, "_first_change", recorded_call)
    monkeypatch.setattr(boxes, "projected", recorded_projection)
    row_ids = table.row_ids
    rows = table.row_ids = RecordingRows(row_ids)
    integer_rows = table.integer_rows = CountingRows(table.integer_rows)
    verdict = is_no_signaling(table)
    assert len(verdict.witness.coalition) == n - len(looped)
    assert [codes[verdict.witness.inputs_a], codes[verdict.witness.inputs_b]] == witness
    # the witness's two rows are read once more, to decode their marginals
    assert rows.touched == expected + witness
    # every read of a row is a projection: each compared row once per call,
    # then the witness's two rows once more, after the last call, with the
    # witness coalition's projection
    assert integer_rows.reads == len(projections)
    *compared, (call_a, in_a, row_a, project_a), (call_b, in_b, row_b, project_b) = projections
    assert all(within for _, within, _, _ in compared)
    compared = [(call, row_id) for call, _, row_id, _ in compared]
    assert max(Counter(compared).values()) == 1
    assert call_a == call_b == len(calls) and not in_a and not in_b
    assert project_a is project_b is boxes.projection(n, verdict.witness.coalition)
    assert [row_a, row_b] == [row_ids[code] for code in witness]
    # the call for the witness coalition compared both of them
    call = calls.index(verdict.witness.coalition) + 1
    assert calls.count(verdict.witness.coalition) == 1
    assert {(call, row_a), (call, row_b)} <= set(compared)


def test_a_one_party_loop_verdict_builds_two_states_a_party(monkeypatch):
    # n conditions and the n - 1 coalitions of n - 2 free parties decide
    # the witness of the n - 1 free parties; the ascending search made 135 calls
    n = 8
    cbox = _looped_cycle(n)
    table = NoSignalBox(n, {x: row.outcomes for x, row in cbox.rows.items()})
    calls = []
    first_change = boxes._first_change

    def counted(box, coal, senders):
        calls.append(coal)
        return first_change(box, coal, senders)

    monkeypatch.setattr(boxes, "_first_change", counted)
    verdict = is_no_signaling(table)
    assert verdict.witness.coalition == tuple(range(1, n))
    assert len(calls) <= 2 * n - 1


def test_scan_does_not_project_setting_by_setting(monkeypatch):
    # the scan sums integer buckets: it builds no Fraction, not even for a success
    def boom(*args):
        raise AssertionError("Fraction built")

    cbox = constrain(named_box("svetlichny"), [0])
    for module in (boxes, signaling):
        monkeypatch.setattr(module, "Fraction", boom)
    payload = scan_report_json("svetlichny", cbox)
    assert payload["summary"]["dependent_settings"] == 2


def _primes(low: int, high: int) -> list[int]:
    sieve = bytearray([1]) * high
    primes = []
    for p in range(2, high):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(sieve[p * p::p]))
            if p > low:
                primes.append(p)
    return primes


def _row_local_box(primes: list[int]) -> NoSignalBox:
    """8 parties; row k has 15 outcomes 1/p over its own primes, and the rest."""
    n = 8
    outcomes = all_bit_tuples(n)
    rows = {}
    for k, inputs in enumerate(all_bit_tuples(n)):
        # outcome codes k, k + 16, ... mod 256: both values of the first bit
        row = {outcomes[(k + 16 * m) % 256]: Fraction(1, primes[15 * k + m])
               for m in range(15)}
        row[outcomes[(k + 240) % 256]] = 1 - sum(row.values())
        rows[inputs] = row
    return NoSignalBox(n, rows)


def test_row_denominators_stay_local():
    # every row over its own 15 primes above 1000: one denominator for the
    # whole table would be a product of 3,840 primes, ~5 kB per numerator
    box = _row_local_box(_primes(1000, 40000))
    cbox = constrain(box, [0])
    # the loop table: each row conditioned on party 0's output, none a paradox
    loop_table = NoSignalBox(box.n, {x: row.outcomes for x, row in cbox.rows.items()})
    results = []
    for run in (lambda: analyze(cbox, 0, range(1, 7)),
                lambda: is_no_signaling(box), lambda: is_no_signaling(loop_table)):
        tracemalloc.start()
        try:
            results.append(run())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20
    assert not results[1].ok and not results[2].ok


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no limit on integer string conversion")
def test_unprintable_direction_stops_the_scan_and_is_named(monkeypatch):
    # averaged over 64 rows of six-digit primes, a success probability of
    # party0 -> party1 has a denominator of more than 4,300 digits
    cbox = constrain(_row_local_box(_primes(10 ** 5, 10 ** 6)), [])
    named = r"^direction party0 -> party1: .*digits"
    analysed = []  # the directions the scan analysed
    analyse_direction = signaling._analyse_direction

    def analyse_once(shared, sender):
        analysed.append((sender, shared.coal))
        assert len(analysed) == 1, "the scan went on past an unprintable direction"
        return analyse_direction(shared, sender)

    # the default limit, whatever the interpreter was started with
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError, match=named):
            report_json("hostile", cbox, 0, [1])
        monkeypatch.setattr(signaling, "_analyse_direction", analyse_once)
        with pytest.raises(ValueError, match=named):
            scan_report_json("hostile", cbox)
    finally:
        sys.set_int_max_str_digits(saved)
    assert analysed == [(0, (1,))]


@pytest.mark.parametrize("call", [
    lambda cbox: analyze_setting(cbox, 1, [0], (2,)),
    lambda cbox: analyze_setting(cbox, 1, [0, 2], (0, 2)),
    lambda cbox: analyze_setting(cbox, 1, [0], (5,)),
    lambda cbox: analyze(cbox, 2.5, [1.2]),
    lambda cbox: analyze(cbox, 1, [0.5]),
], ids=["setting-2", "second-setting-bit-2", "setting-5", "float-parties",
        "float-coalition"])
def test_non_bit_and_non_integer_arguments_raise_value_error(call):
    with pytest.raises(ValueError):
        call(constrain(named_box("svetlichny"), [1]))


def test_bool_setting_is_a_bit():
    cbox = constrain(named_box("svetlichny"), [1])
    entry = analyze_setting(cbox, 1, [0], (True,))
    assert entry == analyze_setting(cbox, 1, [0], (1,))
    assert json.dumps(entry_to_json(entry, 3)["setting"]) == "[1]"


def test_scenario_validation():
    cbox = constrain(named_box("pr"), [1])
    with pytest.raises(ValueError):
        analyze(cbox, 0, [0])
    with pytest.raises(ValueError):
        analyze(cbox, 0, [])
    with pytest.raises(ValueError):
        analyze(cbox, 5, [0])
    with pytest.raises(ValueError):
        analyze_setting(cbox, 1, [0], (0, 1))


def test_map_rule_breaks_ties_toward_zero():
    same = {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    assert map_rule(same, same) == {(0,): 0, (1,): 0}
    p1 = {(0,): Fraction(1, 4), (1,): Fraction(3, 4)}
    assert map_rule(same, p1) == {(0,): 0, (1,): 1}


def test_success_probability_formula():
    p0 = {(0,): Fraction(1)}
    p1 = {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    assert success_probability(p0, p1) == Fraction(3, 4)
    assert success_probability(p0, p0) == Fraction(1, 2)


def test_mutual_information_extremes():
    p0 = {(0,): Fraction(1)}
    p1 = {(1,): Fraction(1)}
    assert math.isclose(mutual_information_bits(p0, p1), 1.0)
    assert abs(mutual_information_bits(p0, p0)) <= MI_TOL


def near_table(p0, p1):
    """Bob reads 0 with probability p0 when alice's input is 0, p1 when it
    is 1; alice always reads 0."""
    p = {0: p0, 1: p1}
    return boxes.box_from_spec({"parties": 2, "table": [
        {"in": [x, y], "out": [0, b], "p": str(p[x] if b == 0 else 1 - p[x])}
        for x in (0, 1) for y in (0, 1) for b in (0, 1)]})


def test_dependent_settings_carry_positive_information():
    # distributions 10^-1 .. 10^-39 apart: the float entropies cancel from
    # about 10^-8 on, while I = delta^2 / (8 ln 2 p (1 - p)) (1 + O(delta))
    for base in (Fraction(1, 2), Fraction(1, 3), Fraction(5, 11), Fraction(99, 100)):
        for k in range(1, 40):
            delta = Fraction(1, 10 ** k)
            other = base + delta if base + delta < 1 else base - delta
            cbox = constrain(near_table(base, other), [])
            for entry in analyze(cbox, sender=0, coalition=[1]):
                assert entry.dependent and entry.success > Fraction(1, 2)
                assert entry.mi_bits > 0
                if k >= 6:
                    approx = float(delta) ** 2 / (8 * math.log(2) * base * (1 - base))
                    assert entry.mi_bits == pytest.approx(approx, rel=1e-3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 10 ** 30), min_size=2, max_size=6),
       st.lists(st.integers(0, 10 ** 30), min_size=2, max_size=6))
def test_information_by_outputs_is_the_entropy_difference(a, b):
    # the two forms agree wherever the entropy difference is not cancelled
    size = max(len(a), len(b))
    a, b = a + [0] * (size - len(a)), b + [0] * (size - len(b))
    if not sum(a) or not sum(b):
        return
    den = sum(a) * sum(b)
    p0 = {out: n * sum(b) for out, n in enumerate(a) if n}
    p1 = {out: n * sum(a) for out, n in enumerate(b) if n}
    by_outputs = signaling._information_by_outputs(p0, p1, range(size), den)
    assert by_outputs >= 0
    difference = signaling._mutual_information(p0, p1, range(size), den)
    assert by_outputs == pytest.approx(difference, rel=1e-9, abs=1e-13)


def test_pr_bob_entries():
    cbox = constrain(named_box("pr"), [1])
    entries = analyze(cbox, sender=1, coalition=[0])
    by_setting = {e.setting: e for e in entries}
    e0 = by_setting[(0,)]
    assert e0.dependent and e0.success == 1 and math.isclose(e0.mi_bits, 1.0)
    assert e0.rule == {(0,): 0, (1,): 1}
    e1 = by_setting[(1,)]
    assert not e1.dependent and e1.success == Fraction(1, 2)
    assert abs(e1.mi_bits) <= MI_TOL
    assert math.isclose(mean_mi_bits(entries), 0.5)


def test_three_measures_agree_in_kind():
    for name, pattern, sender, coalition in [
        ("pr", [1], 1, [0]),
        ("svetlichny", [0], 0, [1, 2]),
        ("mermin1", [0], 0, [1, 2]),
        ("mermin1", [1], 1, [0, 2]),
        ("mermin2", [0], 0, [1, 2]),
    ]:
        cbox = constrain(named_box(name), pattern)
        for e in analyze(cbox, sender, coalition):
            assert e.dependent == (e.success > Fraction(1, 2))
            assert e.dependent == (e.mi_bits > MI_TOL)


def test_parity_note_on_independent_correlated_settings():
    cbox = constrain(named_box("svetlichny"), [0])
    entries = analyze(cbox, 0, [1, 2])
    for e in entries:
        if e.setting in ((0, 1), (1, 0)):
            assert not e.dependent
            assert e.note is not None and "XOR = 0" in e.note
        else:
            assert e.dependent and e.note is None


def test_impractical_flag():
    cbox = constrain(named_box("svetlichny"), [0])
    assert not analyze_setting(cbox, 0, [1, 2], (0, 0)).impractical
    assert analyze_setting(cbox, 1, [0, 2], (0, 0)).impractical


def test_entry_to_json_uses_bitstring_rule_keys():
    cbox = constrain(named_box("svetlichny"), [0])
    entry = analyze_setting(cbox, 0, [1, 2], (0, 0))
    data = entry_to_json(entry, 3)
    assert data["sender"] == "alice"
    assert data["coalition"] == ["bob", "charlie"]
    assert data["rule"] == {"00": 0, "01": 1, "10": 1, "11": 0}
    assert data["success"] == "1"
    assert data["impractical"] is False
    # the oracle renders the entry as the report payload does
    assert data == report_json("svetlichny", cbox, 0, [1, 2])["entries"][0]


def test_report_json_summary():
    cbox = constrain(named_box("svetlichny"), [0])
    report = report_json("svetlichny", cbox, 0, [1, 2])
    assert report["ctc"] == ["alice"]
    assert len(report["entries"]) == 4
    summary = report["summary"]
    assert summary["settings"] == 4
    assert summary["dependent_settings"] == 2
    assert summary["max_success"] == "1"
    assert math.isclose(summary["mean_mi_bits"], 0.5)
    assert summary["impractical"] is False


def test_mean_mi_requires_entries():
    with pytest.raises(ValueError):
        mean_mi_bits([])


def test_mean_mi_adds_left_to_right_on_every_python():
    # a compensated sum, as sum() of floats is from Python 3.12 on, keeps both
    # 1e-16 and reads 0.3333333333333334
    entries = [SimpleNamespace(mi_bits=bits) for bits in (1.0, 1e-16, 1e-16)]
    assert repr(mean_mi_bits(entries)) == "0.3333333333333333"


def test_unconstrained_box_never_signals():
    for name in ("pr", "svetlichny"):
        box = named_box(name)
        cbox = constrain(box, [])
        n = box.n
        for sender in range(n):
            receivers = [i for i in range(n) if i != sender]
            for e in analyze(cbox, sender, receivers):
                assert not e.dependent
                assert e.success == Fraction(1, 2)


def test_full_scan_of_unconstrained_boxes_finds_nothing():
    for name in ("pr", "svetlichny", "mermin1", "mermin2"):
        cbox = constrain(named_box(name), [])
        for sender, coalition, entries in full_scan(cbox):
            assert sender not in coalition
            for e in entries:
                assert not e.dependent
                assert e.success == Fraction(1, 2)
                assert e.mi_bits == 0.0


def test_full_scan_direction_order():
    cbox = constrain(named_box("svetlichny"), [])
    pairs = [(s, c) for s, c, _ in full_scan(cbox)]
    assert pairs == [
        (0, (1,)), (0, (2,)), (0, (1, 2)),
        (1, (0,)), (1, (2,)), (1, (0, 2)),
        (2, (0,)), (2, (1,)), (2, (0, 1)),
    ]


def test_scan_keeps_nothing_it_has_reported():
    cbox = _looped_cycle(6)
    cbox.integer_rows  # built once, before the measurement
    tracemalloc.start()
    try:
        payload = scan_report_json("cycle", cbox)
        final, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert payload["summary"]["directions"] == 6 * (2 ** 5 - 1)
    assert peak - final < 0.25 * 2 ** 20


def test_each_coalition_shares_one_state_from_its_first_direction_to_its_last(
        monkeypatch):
    n = 4
    cbox = _looped_cycle(n)
    made = []  # (coalition, weak reference to its state), in order of creation
    stores = []  # weak references to the stores, in order of creation
    coalition_state = signaling._Coalition

    def recorded(cbox, coalition, store):
        state = coalition_state(cbox, coalition, store)
        made.append((coalition, weakref.ref(state)))
        return state

    class TracedStore(signaling._Store):
        """A store that a weak reference can follow."""

        def __init__(self):
            super().__init__()
            stores.append(weakref.ref(self))

    # (the direction's coalition, the coalitions whose state is referenced,
    # whether the direction's store is the only one referenced)
    alive = []
    analyse_direction = signaling._analyse_direction

    def recording(shared, sender):
        alive.append((shared.coal, {coal for coal, state in made if state() is not None},
                      [store() for store in stores if store() is not None] == [shared.store]))
        return analyse_direction(shared, sender)

    monkeypatch.setattr(signaling, "_Coalition", recorded)
    monkeypatch.setattr(signaling, "_Store", TracedStore)
    monkeypatch.setattr(signaling, "_analyse_direction", recording)
    payload = scan_report_json("cycle", cbox)
    coalitions = [coal for coal, _ in made]
    assert len(coalitions) == len(set(coalitions)) == 2 ** n - 2
    assert len(stores) == n - 1  # one a coalition size
    assert all(state() is None for _, state in made)
    assert all(store() is None for store in stores)
    # made at a coalition's first direction, dropped after its last sender's
    assert len(alive) == payload["summary"]["directions"] == n * (2 ** (n - 1) - 1)
    span = {}  # coalition -> (its first direction, its last)
    for k, (coal, _, _) in enumerate(alive):
        span[coal] = span.get(coal, (k, k))[0], k
    for k, (coal, coals, one_store) in enumerate(alive):
        assert coals == {c for c, (first, last) in span.items() if first <= k <= last}
        # once a size is done, neither its store nor a state of its size is referenced
        assert one_store and {len(other) for other in coals} == {len(coal)}


def test_a_line_is_analysed_once_whichever_party_sends(monkeypatch):
    cbox = _looped_cycle(7)
    calls = Counter()

    def counted(name, function):
        def call(*args):
            calls[name] += 1
            return function(*args)
        return call

    monkeypatch.setattr(signaling._Coalition, "bucket",
                        counted("bucket", signaling._Coalition.bucket))
    monkeypatch.setattr(signaling, "_Coalition", counted("state", signaling._Coalition))
    monkeypatch.setattr(signaling, "_Analysis", counted("analysis", signaling._Analysis))
    payload = scan_report_json("cycle", cbox)
    assert payload["summary"]["directions"] == 441
    # 126 coalitions, whose directions see 1,097 distinct lines, counted
    # once a coalition size (1,371 if each coalition kept its own): each
    # line reads its two buckets once, whichever coalition of its size and
    # whichever sender meets it first, and the 190 distinct bucket pairs of
    # the coalitions' sizes are analysed once each (439 if each coalition
    # kept its own)
    assert calls == {"state": 126, "bucket": 2 * 1097, "analysis": 190}


def test_coalitions_of_one_size_share_an_analysis_and_keep_their_own_flag(monkeypatch):
    # bob echoes his input: alice -> bob at y = 0 and bob -> alice at x = 1
    # both observe outcome 0 for either sender bit, but only bob is looped
    cbox = constrain(named_box("pr"), [1])
    seen = {}  # (sender, coalition) -> its analyses
    analyse_direction = signaling._analyse_direction

    def recording(shared, sender):
        seen[sender, shared.coal] = analyse_direction(shared, sender)
        return seen[sender, shared.coal]

    monkeypatch.setattr(signaling, "_analyse_direction", recording)
    payload = scan_report_json("pr", cbox)
    assert seen[0, (1,)][0] is seen[1, (0,)][1]
    flags = {(r["sender"], r["coalition"][0]): [e["impractical"] for e in r["entries"]]
             for r in payload["reports"]}
    assert flags == {("alice", "bob"): [True, True], ("bob", "alice"): [False, False]}
    scanned = {(sender, coal): [e.impractical for e in entries]
               for sender, coal, entries in full_scan(cbox)}
    assert scanned == {(0, (1,)): [True, True], (1, (0,)): [False, False]}
    assert [e.impractical for e in analyze(cbox, 0, [1])] == [True, True]
    assert [e.impractical for e in analyze(cbox, 1, [0])] == [False, False]


def _seeded_table(rng, n):
    """A parity box, a mixture of three over a ~1e18 denominator, or a
    table whose rows are drawn from a pool of four with small supports."""
    def form():
        return BooleanForm.from_monomials(n, [rng.sample(range(n), rng.randint(0, min(n, 3)))
                                              for _ in range(rng.randint(0, n))])
    kind = rng.randrange(3)
    if kind == 0:
        return parity_box(form())
    outcomes = all_bit_tuples(n)
    if kind == 1:
        den = rng.randrange(10 ** 18, 2 * 10 ** 18)
        a = rng.randrange(1, den - 1)
        b = rng.randrange(1, den - a)
        weights = (Fraction(a, den), Fraction(b, den), Fraction(den - a - b, den))
        rows = {x: {} for x in outcomes}
        for w, box in zip(weights, (parity_box(form()) for _ in range(3))):
            for x, row in box.rows.items():
                for out, p in row.items():
                    rows[x][out] = rows[x].get(out, 0) + w * p
        return NoSignalBox(n, rows)
    pool = []
    for _ in range(4):
        support = rng.sample(outcomes, rng.randint(1, 3))
        weights = [rng.randint(1, 5) for _ in support]
        pool.append({out: Fraction(w, sum(weights)) for out, w in zip(support, weights)})
    return NoSignalBox(n, {x: rng.choice(pool) for x in outcomes})


def _scan_or_error(scan):
    try:
        return scan()
    except ValueError as err:
        return f"ValueError: {err}"


def _distinct_table(rng, n):
    """A table of 2^n distinct rows, each with all 2^n outcomes over its own
    odd denominator near 2^61."""
    outcomes = all_bit_tuples(n)
    rows = {}
    for x in outcomes:
        den = rng.randrange(2 ** 61 - 2 ** 40, 2 ** 61) | 1
        cuts = sorted(rng.sample(range(1, den), 2 ** n - 1))
        rows[x] = {out: Fraction(b - a, den)
                   for out, a, b in zip(outcomes, [0, *cuts], [*cuts, den])}
    return NoSignalBox(n, rows)


def _scan_case(case):
    """A seeded table, looped at random; the table of distinct rows; or
    mermin2 with every party looped, which leaves paradox rows."""
    if case == "distinct":
        return constrain(_distinct_table(random.Random(2061), 5), [0])
    if case == "paradox":
        return constrain(named_box("mermin2"), [0, 1, 2])
    rng = random.Random(case)
    n = 2 + case % 5
    box = _seeded_table(rng, n)
    # looping every party of a small-support table leaves paradox rows
    return constrain(box, rng.sample(range(n), rng.randint(0, n)))


@pytest.mark.parametrize("case", [*range(15), "distinct", "paradox"])
def test_stores_shared_by_size_scan_as_a_store_per_coalition(case):
    cbox = _scan_case(case)
    shared = [_scan_or_error(lambda: scan_report_json("t", cbox)),
              _scan_or_error(lambda: list(full_scan(cbox)))]
    own = [_scan_or_error(lambda: per_coalition_scan_report("t", cbox)),
           _scan_or_error(lambda: list(per_coalition_full_scan(cbox)))]
    if case == "paradox":
        assert all(isinstance(got, str) for got in shared)
    # json.dumps compares the payload as printed, or the error text; == every
    # entry's mi_bits float by value
    assert json.dumps(shared[0]) == json.dumps(own[0])
    assert shared[1] == own[1]


def _same_bucket_analyses(cbox):
    """(bucket, coalition state) of each analysis a scan of ``cbox`` builds
    from one bucket object for both sender bits, up to a paradox row that
    stops the scan."""
    built = []
    analysis = signaling._Analysis

    def recording(a, b, shared):
        if a is b:
            built.append((a, shared))
        return analysis(a, b, shared)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(signaling, "_Analysis", recording)
        _scan_or_error(lambda: scan_report_json("t", cbox))
    return built


def _analysis_fields(a):
    """An analysis as it reaches a payload: the rule in its key order and
    the information bit for bit."""
    return a.dependent, list(a.rule_json.items()), a.odds, a.note, float.hex(a.mi_bits)


def assert_one_bucket_analysed_as_two_equal_ones(cbox):
    """Each analysis of one bucket object for both sender bits is the one
    two equal bucket objects give; returns how many there were."""
    built = _same_bucket_analyses(cbox)
    for a, shared in built:
        equal = (a[0], tuple(list(a[1])), tuple(list(a[2])))
        assert equal == a and equal is not a
        assert (_analysis_fields(signaling._Analysis(a, a, shared))
                == _analysis_fields(signaling._Analysis(a, equal, shared)))
    return len(built)


def _rotation_table():
    """Five parties; each row puts 1000001/1000003 on the outputs equal to
    the inputs, and 1/1000003 on the inputs rotated left by one and on
    their complement (added up where two of these coincide).  Its buckets
    have up to 16 outputs whose float masses differ by six orders of
    magnitude, so the order in which the mixture sums them shows."""
    n = 5
    rows = {}
    for x in all_bit_tuples(n):
        row = rows[x] = {}
        for out, p in ((x, Fraction(1000001, 1000003)), (x[1:] + x[:1], Fraction(1, 1000003)),
                       (tuple(1 - b for b in x), Fraction(1, 1000003))):
            row[out] = row.get(out, 0) + p
    return constrain(NoSignalBox(n, rows), [])


@pytest.mark.parametrize("case", [*range(15), "rotation"])
def test_one_bucket_for_both_sender_bits_is_analysed_as_two_equal_ones(case):
    cbox = _rotation_table() if case == "rotation" else _scan_case(case)
    count = assert_one_bucket_analysed_as_two_equal_ones(cbox)
    if case == "rotation":
        assert count > 0


@settings(max_examples=30, deadline=None)
@given(shared_row_tables())
def test_one_bucket_for_both_sender_bits_on_shared_row_tables(case):
    rows, pattern = case
    assert_one_bucket_analysed_as_two_equal_ones(
        constrain(NoSignalBox(len(next(iter(rows))), rows), pattern))


def _shape_runs(n, cbox):
    """The verdicts, scans and directions whose tables are cached by shape."""
    table = NoSignalBox(n, {x: r.outcomes for x, r in cbox.rows.items()})
    is_no_signaling(cbox.box)
    is_no_signaling(table)
    scan_report_json("t", cbox)
    list(full_scan(cbox))
    analyze(cbox, n - 1, range(n - 1))
    report_json("t", cbox, 0, [1])
    analyze_setting(cbox, 1, [0], [1])


SHAPE_CACHES = (boxes.projection, signaling._reorder, signaling._labels, boxes.spread_codes,
                boxes.shared_bits, boxes.parity_rows, forms.party_masks)


def test_the_shape_caches_hold_one_entry_per_shape():
    for cached in SHAPE_CACHES:
        cached.cache_clear()
    # the cycle and the star of parities, party 0 looped: other rows, the same shapes
    families = (lambda n: [[i, (i + 1) % n] for i in range(n)],
                lambda n: [[0, i] for i in range(1, n)])
    sizes = []
    for monomials in families:
        for n in range(2, 8):
            form = BooleanForm.from_monomials(n, monomials(n))
            _shape_runs(n, constrain(parity_box(form), [0]))
        sizes.append([cached.cache_info().currsize for cached in SHAPE_CACHES])
    # one entry per (n, coalition), per (outside parties, sender position),
    # per coalition size, per (n, parties) and per party count (the shared
    # bit tuples also per witness width, down to 1); the second family adds none
    assert sizes[0] == sizes[1]
    coalitions = sum(2 ** n - 2 for n in range(2, 8))
    # the codes of (n, parties): a coalition's or the senders', at most one per
    # (n, coalition), and each coalition's settings order; a reorder of
    # width w is the settings order of its sender alone at n = w, but for w = 1
    spread_keys = 2 * coalitions + 1
    assert all(size <= most for size, most
               in zip(sizes[0], [coalitions, sum(range(1, 7)), 6, spread_keys, 7, 6, 7]))


def test_a_second_setting_of_one_shape_builds_no_table():
    n = 6
    cycle = _looped_cycle(n)
    star = constrain(parity_box(BooleanForm.from_monomials(n, [[0, i] for i in range(1, n)])),
                     [0])
    first = analyze_setting(cycle, 0, [1, 3], [0, 1])
    misses = [cached.cache_info().misses for cached in SHAPE_CACHES]
    hits = boxes.spread_codes.cache_info().hits
    second = analyze_setting(star, 0, [1, 3], [1, 1])
    assert [cached.cache_info().misses for cached in SHAPE_CACHES] == misses
    # the settings order and the reorder read the codes built for the first
    assert boxes.spread_codes.cache_info().hits > hits
    assert first == analyze(cycle, 0, [1, 3])[1]
    assert second == analyze(star, 0, [1, 3])[3]


def test_the_bit_code_tables_follow_from_the_bits():
    # every table against the bits it stands for, at every party count
    for n in range(1, boxes.MAX_PARTIES + 1):
        bits, codes, known = shared_bits(n)
        assert list(bits) == list(product((0, 1), repeat=n))
        assert all_bit_tuples(n) == list(bits)
        assert all(a is b for a, b in zip(all_bit_tuples(n), bits))
        assert codes == {out: code for code, out in enumerate(bits)}
        assert known == {id(out): code for code, out in enumerate(bits)}
        # parity by the count of 1 bits; labels as printed, read back as codes
        assert [code.bit_count() & 1 for code in codes.values()] == list(map(xor_bits, bits))
        labels = signaling._labels(n)
        assert labels == list(map(bit_string, bits))
        assert [int(label, 2) for label in labels] == list(range(2 ** n))
        if n > 1:
            integer_rows = boxes.parity_rows(n)
            for value in (0, 1):
                kept = [out for out in bits if xor_bits(out) == value]
                assert integer_rows[value] == (2 ** (n - 1), tuple((codes[out], 1) for out in kept))
        # a coalition's codes, also in an order drawn at random, and its
        # settings order: the coalition's codes each with every pattern of
        # the others (every coalition up to 7 parties, one in 20 above)
        rng = random.Random(n)
        for size in range(n + 1):
            for coal in combinations(range(n), size):
                assert boxes.spread_codes(n, coal).tolist() == spread(n, coal)
                others = tuple(i for i in range(n) if i not in coal)
                if n <= 7 or rng.random() < 0.05:
                    order = rng.sample(coal, size)
                    assert boxes.spread_codes(n, tuple(order)).tolist() == spread(n, order)
                    assert boxes.spread_codes(n, (*coal, *others)).tolist() == [
                        setting | pattern for setting in spread(n, coal)
                        for pattern in spread(n, others)]


# for each kind of table, its cache up to 7 parties, and the tables of every
# shape up to MAX_PARTIES; the tables it reads are built first, so that each
# kind counts its own memory; the settings orders and the coalitions' codes,
# both of spread_codes, are measured one after the other
SHAPE_MEMORY = """\
import json
import tracemalloc
from itertools import combinations

from ctcbox import boxes, forms

shapes = [(n, coal) for n in range(2, boxes.MAX_PARTIES + 1) for size in range(1, n)
          for coal in combinations(range(n), size)]
# each coalition's settings order: its parties, then the others
orders = [(n, (*coal, *(i for i in range(n) if i not in coal))) for n, coal in shapes]
counts = [(n,) for n in range(1, boxes.MAX_PARTIES + 1)]
up_to_seven, every = [], []
for table, keys in ((boxes.projection, shapes), (boxes.spread_codes, orders),
                    (boxes.spread_codes, shapes), (boxes.shared_bits, counts),
                    (boxes.parity_rows, counts[1:]), (forms.party_masks, counts)):
    held = [table(*key) for key in keys]
    table.cache_clear()
    tracemalloc.start()
    try:
        held = [table(*key) for key in keys if key[0] <= 7]
        up_to_seven.append(tracemalloc.get_traced_memory()[0])
        held = [table(*key) for key in keys]
        table.cache_clear()
        before = tracemalloc.get_traced_memory()[0]
        held.clear()
        every.append(before - tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
print(json.dumps([up_to_seven, every]))
"""


def test_the_shapes_of_every_party_count_take_little_memory():
    # in a fresh interpreter: tracemalloc does not see the tuples taken from
    # the interpreter's free lists, which the tests run before fill
    src = str(Path(boxes.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SHAPE_MEMORY], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    up_to_seven, every = json.loads(proc.stdout)
    # the three tables of each coalition, then the tables of n: the bit tuples
    # with their codes, the parity rows and the party masks
    assert sum(up_to_seven[:3]) < 0.2 * 2 ** 20
    assert sum(up_to_seven[3:]) < 0.1 * 2 ** 20
    assert max(every) <= 3 * 2 ** 20


@pytest.mark.parametrize("failing", [
    # party1 -> party0 is scanned before party0 -> party1,party2, a larger
    # coalition, but reported after it
    {(1, (0,)), (0, (1, 2))},
    # each failure a smaller sender's and a larger coalition's than the last
    {(2, (0, 1)), (1, (0, 2, 3)), (0, (1, 2, 3))},
    {(3, (0, 1, 2))},  # the last direction
    {(0, (1,))},  # the first direction
], ids=["two", "three", "last", "first"])
def test_a_failing_scan_names_the_first_direction_in_report_order(monkeypatch, failing):
    cbox = _looped_cycle(4)
    analyse_direction = signaling._analyse_direction
    analysed = []  # the directions analysed, in the order read

    def failing_direction(shared, sender):
        analysed.append((sender, shared.coal))
        if analysed[-1] in failing:
            raise ValueError(f"fails at {sender} -> {shared.coal}")
        return analyse_direction(shared, sender)

    monkeypatch.setattr(signaling, "_analyse_direction", failing_direction)
    first = min(failing, key=lambda d: (d[0], len(d[1]), d[1]))  # in report order
    every = [(sender, coal) for sender in range(4) for size in range(1, 4)
             for coal in combinations([i for i in range(4) if i != sender], size)]
    for scan, own, error in [(lambda: scan_report_json("t", cbox),
                              lambda: per_coalition_scan_report("t", cbox),
                              f"direction party{first[0]} -> "
                              f"{','.join(f'party{i}' for i in first[1])}: "),
                             (lambda: list(full_scan(cbox)),
                              lambda: list(per_coalition_full_scan(cbox)), "")]:
        expected = _scan_or_error(own)
        assert expected == f"ValueError: {error}fails at {first[0]} -> {first[1]}"
        analysed.clear()
        assert _scan_or_error(scan) == expected
        read = analysed.copy()
        assert len(set(read)) == len(read), "a direction was analysed twice"
        # every direction before the first failing one in report order is read
        assert set(every[:every.index(first)]) <= set(read)
        # after a failure, only a smaller sender's directions are read
        for i, direction in enumerate(read):
            if direction in failing:
                assert all(sender < direction[0] for sender, _ in read[i + 1:])


def test_a_scan_keeps_one_coalition_size_at_a_time():
    # 64 distinct rows over their own denominators: coalitions share few
    # marginals, lines or buckets, and a size's are dropped before the next
    cbox = constrain(_distinct_table(random.Random(2061), 6), [0])
    cbox.integer_rows  # built once, before the measurement
    tracemalloc.start()
    try:
        payload = scan_report_json("distinct", cbox)
        final, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert payload["summary"]["directions"] == 6 * (2 ** 5 - 1)
    assert peak - final < 2.5 * 2 ** 20


def test_scan_report_counts_both_conventions():
    cbox = constrain(named_box("pr"), [1])
    payload = scan_report_json("pr", cbox)
    assert payload["ctc"] == ["bob"]
    assert payload["summary"] == {
        "settings": 4, "dependent_settings": 1,
        "cases": 8, "dependent_cases": 2,
        "directions": 2, "dependent_directions": 1,
    }
    to_bob, to_alice = payload["reports"]
    # bob echoes his own input, so alice cannot reach him...
    assert to_bob["sender"] == "alice" and to_bob["coalition"] == ["bob"]
    assert to_bob["summary"]["dependent_settings"] == 0
    assert to_bob["summary"]["impractical"] is True
    # ...but alice's output tracks y whenever she sets x=0
    assert to_alice["sender"] == "bob" and to_alice["coalition"] == ["alice"]
    assert to_alice["summary"]["dependent_settings"] == 1
    assert to_alice["summary"]["impractical"] is False


def test_report_counts_double_when_stated_per_case():
    cbox = constrain(named_box("svetlichny"), [0])
    summary = report_json("svetlichny", cbox, 0, [1, 2])["summary"]
    assert summary["settings"] == 4 and summary["dependent_settings"] == 2
    assert summary["cases"] == 8 and summary["dependent_cases"] == 4


def test_map_rule_dominates_every_deterministic_rule():
    cbox = constrain(named_box("svetlichny"), [0])
    for e in analyze(cbox, 0, [1, 2]):
        p0 = receiver_observation(cbox, 0, [1, 2], e.setting, 0)
        p1 = receiver_observation(cbox, 0, [1, 2], e.setting, 1)
        assert rule_success(e.rule, p0, p1) == e.success
        support = sorted(set(p0) | set(p1))
        for guesses in all_bit_tuples(len(support)):
            rule = dict(zip(support, guesses))
            assert rule_success(rule, p0, p1) <= e.success


def test_parity_readout_rules_never_beat_the_map_rule():
    flipped = {out: 1 - guess for out, guess in PARITY_RULE.items()}
    for name, pattern, sender, coalition in [
        ("svetlichny", [0], 0, [1, 2]),
        ("mermin1", [0], 0, [1, 2]),
        ("mermin1", [1], 1, [0, 2]),
        ("mermin2", [0], 0, [1, 2]),
    ]:
        cbox = constrain(named_box(name), pattern)
        for e in analyze(cbox, sender, coalition):
            p0 = receiver_observation(cbox, sender, coalition, e.setting, 0)
            p1 = receiver_observation(cbox, sender, coalition, e.setting, 1)
            for rule in (PARITY_RULE, flipped):
                assert rule_success(rule, p0, p1) <= e.success


def test_reports_ignore_bystander_output_relabeling():
    # party 3 is neither sender, receiver, nor constrained; flipping its
    # output labels must leave every entry untouched
    form = BooleanForm.from_monomials(4, [(0, 1), (2, 3)])
    box = parity_box(form)
    flipped = NoSignalBox(4, {
        inputs: {out[:3] + (1 - out[3],): p for out, p in row.items()}
        for inputs, row in box.rows.items()})
    original = analyze(constrain(box, [1]), 0, [2])
    relabeled = analyze(constrain(flipped, [1]), 0, [2])
    assert original == relabeled


def _assert_the_memo_is_invisible(cbox):
    """Every entry of every direction is the entry its setting gets alone,
    and no rule dict is shared by two entries or two payload entries."""
    for sender, coalition, entries in full_scan(cbox):
        for entry in entries:
            alone = analyze_setting(cbox, sender, coalition, entry.setting)
            assert entry == alone and entry.mi_bits == alone.mi_bits
        payload = report_json("memo", cbox, sender, coalition)["entries"]
        rules = [e.rule for e in entries] + [p["rule"] for p in payload]
        before = copy.deepcopy(rules)
        for rule in rules:
            rule["mutated"] = 1
            assert [r != b for r, b in zip(rules, before)].count(True) == 1
            del rule["mutated"]


def test_a_pair_in_another_key_order_is_analysed_again():
    # settings y.z = 00 and 01 observe the same distributions, with the
    # outcomes of x = 0 listed in two orders; entropies sum their floats
    # in that order, so the two entries differ in the last bits of mi_bits
    t = Fraction(1, 13)
    p0 = [((0, 0, 0), 10 * t), ((0, 0, 1), t), ((0, 1, 0), 2 * t)]
    p1 = {(0, 0, 0): 5 * t, (0, 1, 1): t, (0, 0, 1): 7 * t}
    rows = {x: p1 for x in all_bit_tuples(3)}
    rows[(0, 0, 0)] = dict(p0)
    rows[(0, 0, 1)] = dict([p0[2], p0[0], p0[1]])
    cbox = constrain(NoSignalBox(3, rows), [])
    first, second = analyze(cbox, 0, [1, 2])[:2]
    assert first.rule == second.rule and first.success == second.success
    assert first.mi_bits != second.mi_bits
    for entry in (first, second):
        assert entry.mi_bits == analyze_setting(cbox, 0, [1, 2], entry.setting).mi_bits


@pytest.mark.parametrize("name", list(BoxName))
def test_scan_entries_equal_their_settings_alone_on_named_boxes(name):
    box = named_box(name)
    for size in range(box.n):
        for pattern in combinations(range(box.n), size):
            _assert_the_memo_is_invisible(constrain(box, pattern))


@st.composite
def looped_parity_forms(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    monomials = draw(st.lists(
        st.sets(st.integers(min_value=0, max_value=n - 1)), max_size=6))
    looped = draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                          min_size=1, max_size=min(2, n - 1)))
    return BooleanForm.from_monomials(n, monomials), looped


@settings(max_examples=25, deadline=None)
@given(looped_parity_forms())
def test_scan_entries_equal_their_settings_alone_on_parity_forms(case):
    form, looped = case
    _assert_the_memo_is_invisible(constrain(parity_box(form), looped))


def test_scan_entries_equal_their_settings_alone_on_a_big_weight_mixture():
    # three parity boxes over a ~1e18 denominator; the second form is the
    # first plus 1, so every row has all 16 outcomes
    n, den = 4, 10 ** 18 + 9
    weights = [Fraction(387_420_489, den), Fraction(10 ** 17 + 3, den)]
    weights.append(1 - sum(weights))
    forms = [[(0, 1), (2,)], [(), (0, 1), (2,)], [(0, 2), (1, 2, 3), (3,)]]
    rows = {x: {} for x in all_bit_tuples(n)}
    for w, monomials in zip(weights, forms):
        for x, row in parity_box(BooleanForm.from_monomials(n, monomials)).rows.items():
            for out, p in row.items():
                rows[x][out] = rows[x].get(out, 0) + w * p
    mixture = NoSignalBox(n, rows)
    assert all(len(row) == 2 ** n for row in mixture.rows.values())
    _assert_the_memo_is_invisible(constrain(mixture, [0]))
