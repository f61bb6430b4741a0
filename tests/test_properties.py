import math
import re
from fractions import Fraction
from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from ctcbox.boxes import NoSignalBox, all_bit_tuples, is_no_signaling, parity_box
from ctcbox.ctc import constrain, induced_parity_form
from ctcbox.forms import BooleanForm, xor_bits
from ctcbox.signaling import SignalingEntry, analyze, full_scan, scan_report_json
from signaling_oracle import (analyze_setting, engine_observation, information_by_outputs,
                              marginal, parity_note, receiver_observation)

MI_TOL = 1e-12


@st.composite
def random_forms(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    monomials = draw(st.lists(
        st.sets(st.integers(min_value=0, max_value=n - 1)), max_size=6))
    return BooleanForm.from_monomials(n, monomials)


@st.composite
def forms_with_patterns(draw):
    form = draw(random_forms())
    pattern = draw(st.sets(st.integers(min_value=0, max_value=form.n - 1)))
    return form, tuple(sorted(pattern))


@st.composite
def signaling_scenarios(draw):
    form = draw(random_forms())
    n = form.n
    pattern = draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                           max_size=n - 1))
    sender = draw(st.integers(min_value=0, max_value=n - 1))
    others = [i for i in range(n) if i != sender]
    coalition = draw(st.sets(st.sampled_from(others), min_size=1))
    return form, tuple(sorted(pattern)), sender, tuple(sorted(coalition))


@st.composite
def parity_deterministic_mixtures(draw):
    """A 2- or 3-party parity box mixed with a deterministic table at an
    exact weight: weight 0 is no-signaling, most others signal."""
    n = draw(st.integers(min_value=2, max_value=3))
    monomials = draw(st.lists(
        st.sets(st.integers(min_value=0, max_value=n - 1)), max_size=4))
    parity = parity_box(BooleanForm.from_monomials(n, monomials))
    weight = draw(st.fractions(min_value=0, max_value=1, max_denominator=6))
    bits = st.tuples(*[st.integers(min_value=0, max_value=1)] * n)
    rows = {}
    for inputs in all_bit_tuples(n):
        row = {out: (1 - weight) * p for out, p in parity.rows[inputs].items()}
        out = draw(bits)
        row[out] = row.get(out, Fraction(0)) + weight
        rows[inputs] = row
    return NoSignalBox(n, rows)


@st.composite
def loop_cases(draw):
    """A random parity form at n = 3..5 and 1..n-1 looped parties."""
    n = draw(st.integers(min_value=3, max_value=5))
    monomials = draw(st.lists(
        st.sets(st.integers(min_value=0, max_value=n - 1)), max_size=6))
    looped = draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                          min_size=1, max_size=n - 1))
    return BooleanForm.from_monomials(n, monomials), tuple(sorted(looped))


def loop_table(form, looped):
    """The loop table as a plain box; with a free party no row is a paradox."""
    cbox = constrain(parity_box(form), looped)
    return NoSignalBox(form.n, {inputs: row.outcomes
                                for inputs, row in cbox.rows.items()})


def first_witness_by_marginals(box):
    """The documented scan written with the oracle's ``marginal``: coalitions
    by size, then lexicographically, then coalition inputs, then
    completions, all lexicographic."""
    n = box.n
    for size in range(1, n):
        for coalition in combinations(range(n), size):
            for r_inputs in all_bit_tuples(size):
                fulls = [full for full in all_bit_tuples(n)
                         if tuple(full[i] for i in coalition) == r_inputs]
                base = marginal(box, coalition, fulls[0])
                for trial in fulls[1:]:
                    probs = marginal(box, coalition, trial)
                    if probs != base:
                        return coalition, fulls[0], trial, base, probs
    return None


def bob_decides(row_y0, row_y1):
    """A 2-party table whose row depends on bob's input y only."""
    return NoSignalBox(2, {x: row_y1 if x[1] else row_y0 for x in all_bit_tuples(2)})


QUARTER, HALF, BIG = Fraction(1, 4), Fraction(1, 2), 10 ** 18 + 9


def correlated(k):
    """a = b, with a = 0 at probability k / BIG."""
    return {(0, 0): Fraction(k, BIG), (1, 1): Fraction(BIG - k, BIG)}


@settings(max_examples=80, deadline=None)
@given(parity_deterministic_mixtures())
# alice's marginals at y = 0 and y = 1 are one distribution: {0: 2/2} and
# {0: 1/1}, equal only in lowest terms, and {0: 2/4, 1: 2/4} and {1: 1/2,
# 0: 1/2}, equal only in lowest terms and in another key order
@example(bob_decides({(0, 0): HALF, (0, 1): HALF}, {(0, 0): Fraction(1)}))
@example(bob_decides({(0, 0): QUARTER, (1, 0): QUARTER, (0, 1): QUARTER, (1, 1): QUARTER},
                     {(1, 0): HALF, (0, 1): HALF}))
# alice's marginals at y = 0 and y = 1 have one denominator and one key
# order, and their numerators are one unit apart
@example(bob_decides(correlated(387_420_489), correlated(387_420_490)))
def test_no_signaling_scan_matches_marginal_scan(box):
    verdict = is_no_signaling(box)
    expected = first_witness_by_marginals(box)
    assert verdict.ok == (expected is None)
    if expected is not None:
        w = verdict.witness
        assert (w.coalition, w.inputs_a, w.inputs_b,
                w.marginal_a, w.marginal_b) == expected


@settings(max_examples=80, deadline=None)
@given(loop_cases())
# witness coalition (1, 2); witness coalition (2, 3) with parties 0 and 1 signaling
@example((BooleanForm.from_monomials(3, [[0, 1]]), (0,)))
@example((BooleanForm.from_monomials(4, []), (0, 1)))
def test_loop_table_scan_matches_marginal_scan(case):
    box = loop_table(*case)
    verdict = is_no_signaling(box)
    w = verdict.witness
    found = None if verdict.ok else (w.coalition, w.inputs_a, w.inputs_b,
                                     w.marginal_a, w.marginal_b)
    assert found == first_witness_by_marginals(box)


@settings(max_examples=60, deadline=None)
@given(loop_cases())
def test_only_looped_parties_signal(case):
    form, looped = case
    box = loop_table(form, looped)
    n = form.n
    for sender in range(n):
        if sender in looped:
            continue
        rest = [i for i in range(n) if i != sender]
        for inputs in all_bit_tuples(n):
            if inputs[sender] == 0:
                flipped = inputs[:sender] + (1,) + inputs[sender + 1:]
                assert marginal(box, rest, inputs) == marginal(box, rest, flipped)


@settings(max_examples=60, deadline=None)
@given(random_forms())
def test_every_parity_box_is_no_signaling(form):
    assert is_no_signaling(parity_box(form)).ok


@settings(max_examples=60, deadline=None)
@given(random_forms())
def test_strict_coalition_marginals_are_uniform(form):
    box = parity_box(form)
    n = box.n
    share = Fraction(1, 2)
    for inputs in all_bit_tuples(n):
        probs = marginal(box, [0], inputs)
        assert probs == {(0,): share, (1,): share}


@settings(max_examples=80, deadline=None)
@given(forms_with_patterns())
def test_constrained_row_structure(case):
    form, pattern = case
    n = form.n
    cbox = constrain(parity_box(form), pattern)
    g = induced_parity_form(form, pattern)
    free = [i for i in range(n) if i not in pattern]
    for inputs in all_bit_tuples(n):
        row = cbox.rows[inputs]
        rhs = g.evaluate(inputs)
        if len(pattern) == n:
            assert row.paradox == (rhs == 1)
            continue
        assert not row.paradox
        assert len(row.outcomes) == 2 ** (n - 1 - len(pattern))
        weight = Fraction(1, len(row.outcomes))
        for out, p in row.outcomes.items():
            assert p == weight
            assert all(out[i] == inputs[i] for i in pattern)
            assert xor_bits(out[i] for i in free) == rhs


@settings(max_examples=60, deadline=None)
@given(signaling_scenarios())
def test_signaling_measures_agree(case):
    form, pattern, sender, coalition = case
    cbox = constrain(parity_box(form), pattern)
    for entry in analyze(cbox, sender, coalition):
        assert Fraction(1, 2) <= entry.success <= 1
        assert entry.mi_bits >= -MI_TOL
        assert entry.dependent == (entry.success > Fraction(1, 2))
        assert entry.dependent == (entry.mi_bits > MI_TOL)
        assert entry.impractical == bool(set(coalition) & set(pattern))


@st.composite
def observed_boxes(draw):
    """A parity box or a mixture of three over a ~1e18 denominator at
    n = 2..5, under any loop pattern; looping every party makes paradox
    rows."""
    n = draw(st.integers(min_value=2, max_value=5))
    forms = [BooleanForm.from_monomials(n, draw(st.lists(
        st.sets(st.integers(min_value=0, max_value=n - 1)), max_size=5)))
        for _ in range(3)]
    if draw(st.booleans()):
        box = parity_box(forms[0])
    else:
        den = draw(st.integers(min_value=10 ** 18, max_value=2 * 10 ** 18))
        a = draw(st.integers(min_value=1, max_value=den - 2))
        b = draw(st.integers(min_value=1, max_value=den - a - 1))
        weights = (Fraction(a, den), Fraction(b, den), Fraction(den - a - b, den))
        rows = {inputs: {} for inputs in all_bit_tuples(n)}
        for w, form in zip(weights, forms):
            for inputs, row in parity_box(form).rows.items():
                for out, p in row.items():
                    rows[inputs][out] = rows[inputs].get(out, 0) + w * p
        box = NoSignalBox(n, rows)
    pattern = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return constrain(box, pattern)


def float_entropy(probs):
    total = 0.0
    for p in probs:
        x = float(p)
        total -= x * math.log2(x)
    return total


def entry_by_rows(cbox, sender, coalition, setting):
    p0 = receiver_observation(cbox, sender, coalition, setting, 0)
    p1 = receiver_observation(cbox, sender, coalition, setting, 1)
    support = set(p0) | set(p1)
    rule = {out: int(p1.get(out, 0) > p0.get(out, 0)) for out in sorted(support)}
    success = (sum((p for out, p in p0.items() if rule[out] == 0), Fraction(0))
               + sum((p for out, p in p1.items() if rule[out] == 1), Fraction(0))) / 2
    mix = [(p0.get(out, Fraction(0)) + p1.get(out, Fraction(0))) / 2 for out in support]
    mi = float_entropy(mix) - (float_entropy(p0.values()) + float_entropy(p1.values())) / 2
    dependent = p0 != p1
    if dependent and mi <= 0:  # the entropies cancelled
        mi = information_by_outputs(p0, p1)
    return SignalingEntry(sender, coalition, setting, dependent, rule, success, mi,
                          bool(set(coalition) & set(cbox.pattern)),
                          None if dependent else parity_note(p0, p1))


def outcome(call):
    """The value of call(), with a dict as its item list (values and key
    order), or the message of the ValueError it raises."""
    try:
        value = call()
    except ValueError as err:
        return f"ValueError: {err}"
    return list(value.items()) if isinstance(value, dict) else value


@settings(max_examples=40, deadline=None)
@given(observed_boxes())
def test_signaling_engine_matches_row_sums(cbox):
    n = cbox.n
    for sender in range(n):
        others = [i for i in range(n) if i != sender]
        for size in range(1, n):
            for coalition in combinations(others, size):
                expected = []
                for setting in all_bit_tuples(size):
                    for value in (0, 1):
                        assert outcome(lambda: engine_observation(
                            cbox, sender, coalition, setting, value)) == outcome(
                            lambda: receiver_observation(
                                cbox, sender, coalition, setting, value))
                    entry = outcome(lambda: entry_by_rows(cbox, sender, coalition, setting))
                    assert outcome(lambda: analyze_setting(
                        cbox, sender, coalition, setting)) == entry
                    expected.append(entry)
                first_error = next((e for e in expected if isinstance(e, str)), None)
                assert outcome(lambda: analyze(cbox, sender, coalition)) == (
                    first_error or expected)


@st.composite
def tiny_mass_tables(draw):
    """Tables at n = 2..3 whose rows are one base row, with masses down to
    1e-400 beside the first outcome's, or the base row with a mass down to
    1e-300 moved from the first outcome to another; under any loop pattern,
    so that looping every party can leave paradox rows.  Each mass is below
    1/10, so the first outcome keeps more than 1/2 of every row."""
    n = draw(st.integers(min_value=2, max_value=3))
    outcomes = all_bit_tuples(n)
    support = draw(st.lists(st.sampled_from(outcomes), min_size=2, max_size=4, unique=True))
    tiny = [Fraction(draw(st.integers(min_value=1, max_value=9)),
                     10 ** draw(st.integers(min_value=2, max_value=400))) for _ in support[1:]]
    base = {support[0]: 1 - sum(tiny), **dict(zip(support[1:], tiny))}
    rows = {}
    for inputs in outcomes:
        rows[inputs] = row = dict(base)
        if draw(st.booleans()):
            move = Fraction(draw(st.integers(min_value=1, max_value=9)),
                            10 ** draw(st.integers(min_value=2, max_value=300)))
            to = draw(st.sampled_from(outcomes))
            row[support[0]] -= move
            row[to] = row.get(to, 0) + move
    pattern = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return constrain(NoSignalBox(n, rows), pattern)


def two_party_table(row_x0, row_x1):
    """Alice's input x picks bob's row; alice's own output is always 0."""
    return constrain(NoSignalBox(2, {(x, y): {(0, b): p for b, p in row.items()}
                                     for x, row in ((0, row_x0), (1, row_x1))
                                     for y in (0, 1)}), [])


# the sum of the oracle's per-output terms, none negative, is the
# information of a dependent setting; the engine's fallback sums the same
# terms from integer numerators, so any positive sum shows
INFORMATION_FLOOR = 0.0
TINY = Fraction(1, 10 ** 400)
FIVE_ELEVENTHS = {0: Fraction(5, 11), 1: Fraction(6, 11)}


@settings(max_examples=60, deadline=None)
@given(tiny_mass_tables())
@example(two_party_table({0: TINY, 1: 1 - TINY}, {0: TINY, 1: 1 - TINY}))
@example(two_party_table(FIVE_ELEVENTHS, {0: FIVE_ELEVENTHS[0] + Fraction(1, 10 ** 10),
                                          1: FIVE_ELEVENTHS[1] - Fraction(1, 10 ** 10)}))
@example(two_party_table({0: TINY, 1: 1 - TINY}, {0: 2 * TINY, 1: 1 - 2 * TINY}))
def test_information_agrees_with_the_verdict_down_to_tiny_masses(cbox):
    entries, error = [], None
    try:
        for _, _, found in full_scan(cbox):
            entries += found
        payload = scan_report_json("tiny", cbox)
    except ValueError as err:
        error = str(err)
    if error is not None:  # the only errors: a paradox row, or the digit limit
        assert re.search(r"observation undefined: paradox row|digits", error)
    else:
        for report in payload["reports"]:
            for entry in report["entries"]:
                assert entry["dependent"] == (Fraction(entry["success"]) > Fraction(1, 2))
    for e in entries:
        assert e.dependent == (e.success > Fraction(1, 2))
        p0, p1 = (receiver_observation(cbox, e.sender, e.coalition, e.setting, value)
                  for value in (0, 1))
        if information_by_outputs(p0, p1) > INFORMATION_FLOOR:
            assert e.mi_bits > 0
