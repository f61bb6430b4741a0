import copy
import json
import math
import sys
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ctcbox import boxes, signaling
from ctcbox.boxes import (BoxName, NoSignalBox, all_bit_tuples, bit_codes, is_no_signaling,
                          marginal, named_box, parity_box)
from ctcbox.ctc import constrain
from ctcbox.forms import BooleanForm
from ctcbox.signaling import (analyze, analyze_setting, full_scan, mean_mi_bits, report_json,
                              scan_report_json)
from signaling_oracle import (engine_observation, entropy_bits, entry_to_json, map_rule,
                              mutual_information_bits, receiver_observation, rule_success,
                              success_probability)

MI_TOL = 1e-12
PARITY_RULE = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}


def test_entropy_bits():
    assert entropy_bits({}) == 0
    assert entropy_bits({(0,): Fraction(1)}) == 0
    uniform = {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
    assert math.isclose(entropy_bits(uniform), 1.0)


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
    payload = scan_report_json("cycle", cbox)
    coalitions = 2 ** n - 2
    assert payload["summary"]["directions"] == n * (2 ** (n - 1) - 1) > coalitions
    # whichever of its senders sends, a coalition reads every input once
    assert Counter(rows.touched) == {code: coalitions for code in range(2 ** n)}


def test_a_verdict_reads_only_the_inputs_it_compares():
    n = 6
    cbox = _looped_cycle(n)
    table = NoSignalBox(n, {x: row.outcomes for x, row in cbox.rows.items()})
    codes = bit_codes(n)
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
                if marginal(table, coalition, base).probs != marginal(table, coalition,
                                                                        trial).probs:
                    return expected[-2:]
        return None

    def first_witness(signaling_):
        for size in range(1, n):
            for coalition in combinations(range(n), size):
                senders = [i for i in signaling_ if i not in coalition]
                move = senders and moves(coalition, senders)
                if move:
                    return move

    witness = first_witness([j for j in range(n) if moves([i for i in range(n) if i != j], [j])])
    rows = table.row_ids = RecordingRows(table.row_ids)
    verdict = is_no_signaling(table)
    assert [codes[verdict.witness.inputs_a], codes[verdict.witness.inputs_b]] == witness
    # the witness's two rows are read once more, to decode their marginals
    assert rows.touched == expected + witness


def test_scan_does_not_project_setting_by_setting(monkeypatch):
    def boom(*args):
        raise AssertionError("per-setting projection called")

    for module in (boxes, signaling):
        monkeypatch.setattr(module, "project_outcomes", boom, raising=False)
        monkeypatch.setattr(module, "assemble_inputs", boom, raising=False)
    payload = scan_report_json("svetlichny", constrain(named_box("svetlichny"), [0]))
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
    coalition_state = signaling._Coalition

    def recorded(cbox, coalition):
        state = coalition_state(cbox, coalition)
        made.append((coalition, weakref.ref(state)))
        return state

    alive = []  # (the direction's coalition, the coalitions whose state is referenced)
    analyse_direction = signaling._analyse_direction

    def recording(shared, sender):
        alive.append((shared.coal, {coal for coal, state in made if state() is not None}))
        return analyse_direction(shared, sender)

    monkeypatch.setattr(signaling, "_Coalition", recorded)
    monkeypatch.setattr(signaling, "_analyse_direction", recording)
    payload = scan_report_json("cycle", cbox)
    coalitions = [coal for coal, _ in made]
    assert len(coalitions) == len(set(coalitions)) == 2 ** n - 2
    assert all(state() is None for _, state in made)
    # made at a coalition's first direction, dropped after its last sender's
    assert len(alive) == payload["summary"]["directions"] == n * (2 ** (n - 1) - 1)
    span = {}  # coalition -> (its first direction, its last)
    for k, (coal, _) in enumerate(alive):
        span[coal] = span.get(coal, (k, k))[0], k
    for k, (_, coals) in enumerate(alive):
        assert coals == {coal for coal, (first, last) in span.items() if first <= k <= last}


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
