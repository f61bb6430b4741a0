"""Shared rows against the per-row engine they replace.

A box holds one object per distinct row, and the verdict, the
conditioning and the scan each do their per-row work once per distinct
row; the scan also shares each coalition's work among its senders.  The
references below do that work row by row, as the engine did before rows
were shared: every setting of a direction reads its two buckets adding
every row on its own, and the verdict compares every pair of rows afresh.
Both must give the same payloads, verdicts, witnesses, conditioned rows
and error messages, every float included, and each report of a scan must
be the one its direction gets alone.
"""

import json
import math
from collections.abc import Mapping
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ctcbox import boxes, signaling
from ctcbox.boxes import (NoSignalBox, NoSignalingVerdict, SignalingWitness,
                          all_bit_tuples, box_from_spec, is_no_signaling, parity_box,
                          shared_bits)
from ctcbox.ctc import constrain
from ctcbox.forms import BooleanForm
from ctcbox.signaling import report_json, scan_report_json
from signaling_oracle import project_outcomes, spread

# primes with nothing in common, so rows over them have unrelated denominators
PRIMES = [1_000_003, 998_244_353, 2 ** 31 - 1, 2 ** 61 - 1, 10 ** 18 + 3, 10 ** 18 + 9]


def over_lcm(probs):
    """{key: Fraction} as (lcm of the denominators, {key: numerator})."""
    den = math.lcm(*(p.denominator for p in probs.values()))
    return den, {key: p.numerator * (den // p.denominator) for key, p in probs.items()}


def per_row_observations(shared, sender):
    """The bucket reader that adds every row on its own, in Fractions and in
    lexicographic input order, into a new bucket on every read, for the
    coalition ``shared``; a bucket is (its denominator, its output codes,
    their numerators)."""
    cbox, coal = shared.box, shared.coal
    n = cbox.n
    settings_, bits = spread(n, coal), spread(n, (sender,))
    bystanders = spread(n, [i for i in range(n) if i != sender and i not in coal])
    codes = shared_bits(len(coal))[1]
    rows = list(cbox.rows.values())

    def read(setting, bit):
        base = settings_[codes[setting]] | bits[bit]
        probs = {}
        for code in (base | pattern for pattern in bystanders):
            row = rows[code]
            if row.paradox:
                raise ValueError(f"observation undefined: paradox row at inputs {row.inputs}")
            for key, p in project_outcomes(row.outcomes.items(), coal).items():
                probs[codes[key]] = probs.get(codes[key], Fraction(0)) + p / len(bystanders)
        den, nums = over_lcm(probs)
        return den, tuple(nums), tuple(nums.values())
    return read


def per_row_analyses(shared, sender):
    """Each setting analysed from its two buckets read row by row, with no
    key shared between settings: the reference for
    ``signaling._analyse_direction``."""
    read = per_row_observations(shared, sender)
    return [signaling._Analysis(read(setting, 0), read(setting, 1), shared)
            for setting in shared.keys]


ENGINE_BUCKET = signaling._Coalition.bucket


def fresh_bucket(shared, line):
    """The engine's bucket, summed afresh under a new id: no memo of half
    lines, multiplicities or contents hands out a bucket summed before."""
    memos = shared.by_half, shared.by_counts, shared.store.ids
    shared.by_half, shared.by_counts, shared.store.ids = {}, {}, {}
    try:
        return ENGINE_BUCKET(shared, line)
    finally:
        shared.by_half, shared.by_counts, shared.store.ids = memos


def per_pair_is_no_signaling(box):
    """The verdict that projects both rows of every pair afresh, in
    Fractions, and compares them: the reference for
    ``boxes.is_no_signaling``."""
    n = box.n
    table = list(box.rows.values())

    def first_move(coalition, senders):
        patterns = spread(n, senders)[1:]
        for base in spread(n, coalition):
            for pattern in patterns:
                a, b = (project_outcomes(table[code].items(), coalition)
                        for code in (base, base | pattern))
                if a != b:
                    return (base, base | pattern), (a, b)

    signaling_ = [j for j in range(n)
                  if first_move([i for i in range(n) if i != j], [j])]
    if not signaling_:
        return NoSignalingVerdict(True)
    for size in range(1, n):
        for coalition in combinations(range(n), size):
            senders = [i for i in signaling_ if i not in coalition]
            move = senders and first_move(coalition, senders)
            if move:
                inputs = list(box.rows)
                return NoSignalingVerdict(False, SignalingWitness(
                    coalition, *(inputs[code] for code in move[0]), *move[1]))
    raise AssertionError("a signaling party leaves a witness")


def conditioned_by_fractions(box, pattern):
    """Each row conditioned on its own, in Fractions: {inputs: (outcomes, paradox)}."""
    rows = {}
    for inputs, row in box.rows.items():
        kept = {out: p for out, p in row.items()
                if all(out[i] == inputs[i] for i in pattern)}
        mass = sum(kept.values())
        rows[inputs] = ({out: p / mass for out, p in kept.items()}, not kept)
    return rows


def _directions(n):
    return [(sender, coalition) for sender in range(n)
            for size in range(1, n)
            for coalition in combinations([i for i in range(n) if i != sender], size)]


def assert_scan_reports_are_their_directions(cbox):
    """Each report of the scan is its direction's own ``report_json`` without
    the head and the two summary values a lone direction adds, and a scan
    that fails raises the error of the first direction that does."""
    own = [_payload_or_error(lambda s=sender, c=coalition: report_json("t", cbox, s, c))
           for sender, coalition in _directions(cbox.n)]
    scan = _payload_or_error(lambda: scan_report_json("t", cbox))
    first_error = next((report for report in own if isinstance(report, str)), None)
    if first_error is not None:
        assert scan == first_error
        return
    assert len(scan["reports"]) == len(own)
    for got, want in zip(scan["reports"], own):
        assert set(want) - set(got) == {"box", "ctc"}
        assert set(want["summary"]) - set(got["summary"]) == {"max_success", "mean_mi_bits"}
        want = {key: value for key, value in want.items() if key in got}
        want["summary"] = {key: value for key, value in want["summary"].items()
                           if key in got["summary"]}
        assert got == want
        assert json.dumps(got) == json.dumps(want)


def _verdict_record(verdict):
    w = verdict.witness
    if w is None:
        return verdict.ok, None
    # the marginals' item order too, and the payload as printed
    return (verdict.ok, w.coalition, w.inputs_a, w.inputs_b, list(w.marginal_a.items()),
            list(w.marginal_b.items()), json.dumps(w.to_json()))


def _payload_or_error(build):
    try:
        return build()
    except ValueError as err:
        return str(err)


def assert_same_as_per_row(box, pattern):
    assert _verdict_record(is_no_signaling(box)) == _verdict_record(per_pair_is_no_signaling(box))
    cbox = constrain(box, pattern)
    for inputs, (outcomes, paradox) in conditioned_by_fractions(box, pattern).items():
        row = cbox.rows[inputs]
        assert row.paradox == paradox
        assert list(row.outcomes.items()) == list(outcomes.items())
    if not cbox.paradox_inputs:
        table = NoSignalBox(box.n, {x: r.outcomes for x, r in cbox.rows.items()})
        assert (_verdict_record(is_no_signaling(table))
                == _verdict_record(per_pair_is_no_signaling(table)))
    builds = [lambda: scan_report_json("t", cbox)]
    builds += [lambda s=sender, c=coalition: report_json("t", cbox, s, c)
               for sender, coalition in _directions(box.n)]
    shared = [_payload_or_error(build) for build in builds]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(signaling, "_analyse_direction", per_row_analyses)
        per_row = [_payload_or_error(build) for build in builds]
    # == compares every mi_bits float by value, json.dumps also every key order
    assert shared == per_row
    assert [json.dumps(got) for got in shared] == [json.dumps(want) for want in per_row]


@st.composite
def shared_row_tables(draw):
    """Tables whose rows are drawn from a small pool and given as the pool's
    object, as an equal copy, or with the same items in reverse key order;
    some rows are over unrelated prime denominators, and rows with a small
    support leave paradox rows once parties are looped."""
    n = draw(st.integers(min_value=2, max_value=5))
    outcomes = all_bit_tuples(n)
    pool = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        support = draw(st.lists(st.sampled_from(outcomes), min_size=1, max_size=5,
                                unique=True))
        if draw(st.booleans()):
            weights = [draw(st.integers(min_value=1, max_value=9)) for _ in support]
            probs = [Fraction(w, sum(weights)) for w in weights]
        else:
            probs = [Fraction(1, draw(st.sampled_from(PRIMES))) for _ in support[1:]]
            probs.insert(0, 1 - sum(probs))
        pool.append(dict(zip(support, probs)))
    rows = {}
    for inputs in outcomes:
        row = pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
        how = draw(st.sampled_from(["shared", "copy", "reversed"]))
        rows[inputs] = {"shared": row, "copy": dict(row),
                        "reversed": dict(reversed(row.items()))}[how]
    pattern = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return rows, pattern


@settings(max_examples=40, deadline=None)
@given(shared_row_tables())
def test_shared_rows_give_what_the_per_row_engine_gives(case):
    rows, pattern = case
    n = len(next(iter(rows)))
    box = NoSignalBox(n, rows)
    inputs, codes = all_bit_tuples(n), shared_bits(n)[1]
    for x in inputs:
        for y in inputs:
            # one row object iff the same items in the same order
            same = list(rows[x].items()) == list(rows[y].items())
            assert (box.row_ids[codes[x]] == box.row_ids[codes[y]]) == same
            assert (box.rows[x] is box.rows[y]) == same
    assert_same_as_per_row(box, pattern)


@settings(max_examples=40, deadline=None)
@given(shared_row_tables())
def test_each_scan_report_is_its_direction_alone(case):
    rows, pattern = case
    assert_scan_reports_are_their_directions(
        constrain(NoSignalBox(len(next(iter(rows))), rows), pattern))


def test_buckets_handed_out_afresh_give_the_same_scan():
    n = 4
    outcomes = all_bit_tuples(n)
    # every row different and over its own denominator, so is every pair
    distinct = {x: {outcomes[k]: Fraction(1, k + 2),
                    outcomes[(k + 9) % 2 ** n]: Fraction(k + 1, k + 2)}
                for k, x in enumerate(outcomes)}
    # two parity boxes of complementary parity mixed: rows repeat, and
    # buckets of different rows are equal
    even, odd = (parity_box(BooleanForm.from_monomials(n, monomials))
                 for monomials in ([(0, 1)], [(0, 1), ()]))
    third = Fraction(1, 3)
    mixture = {x: {**{out: third * p for out, p in even.rows[x].items()},
                   **{out: (1 - third) * p for out, p in odd.rows[x].items()}}
               for x in outcomes}
    for rows in (distinct, mixture):
        cbox = constrain(NoSignalBox(n, rows), [0])
        handed, summed = [0], [0]  # buckets handed out, and new ones among them
        with pytest.MonkeyPatch.context() as patch:
            def recording(shared, line):
                known = len(shared.store.buckets)
                handed[0] += 1
                found = ENGINE_BUCKET(shared, line)
                summed[0] += len(shared.store.buckets) > known
                return found

            patch.setattr(signaling._Coalition, "bucket", recording)
            want = scan_report_json("t", cbox)
        # the engine hands out buckets it summed before
        assert summed[0] < handed[0]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(signaling._Coalition, "bucket", fresh_bucket)
            got = scan_report_json("t", cbox)
        assert got == want
        assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("n, monomials, pattern", [
    (3, [(0, 1), (1, 2), (0, 2)], [0]),
    (4, [(0, 1), (2, 3), (1,)], [0, 2]),
    (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], [0]),
    (2, [(0, 1)], [0, 1]),
])
def test_parity_boxes_give_what_the_per_row_engine_gives(n, monomials, pattern):
    assert_same_as_per_row(parity_box(BooleanForm.from_monomials(n, monomials)), pattern)


def test_a_parity_box_and_its_loop_table_share_their_rows():
    n = 5
    form = BooleanForm.from_monomials(n, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    box = parity_box(form)
    assert len(box.integer_rows) == 2
    for x in all_bit_tuples(n):
        assert box.rows[x] is box.rows[(0,) * n if form.evaluate(x) == 0 else (1, 1, 0, 0, 0)]
    looped = [0, 2]
    cbox = constrain(box, looped)
    assert len(cbox.integer_rows) <= 2 ** (len(looped) + 1)
    assert len({id(row.outcomes) for row in cbox.rows.values()}) == len(cbox.integer_rows)


class BigRow(dict):
    """A dict too big for Python's small-object allocator: the system
    allocator gives a freed one's memory, and so its id, to the next."""

    __slots__ = tuple(f"pad{k}" for k in range(64))


class FreshRows(Mapping):
    """Rows handed out as a new dict on every lookup, so the id of a row
    that is dropped can be given to the next one."""

    def __init__(self, rows):
        self._rows = rows
        self.ids = []

    def __getitem__(self, inputs):
        row = BigRow(self._rows[inputs])
        self.ids.append(id(row))
        return row

    def __iter__(self):
        return iter(self._rows)

    def __len__(self):
        return len(self._rows)


def test_rows_handed_out_afresh_build_the_box_a_plain_dict_builds(monkeypatch):
    n = 4
    half = Fraction(1, 2)
    # every row different: its inputs and their complement, in that order
    rows = {x: {x: half, tuple(1 - b for b in x): half} for x in all_bit_tuples(n)}
    fresh_rows = FreshRows(rows)
    calls = _counting_checks(monkeypatch)
    fresh = NoSignalBox(n, fresh_rows)
    # each row is looked up once and held while the box is built, so no
    # row's id is handed to another, and the validator checks each row
    # once, at its own input
    assert len(set(fresh_rows.ids)) == len(fresh_rows.ids) == 2 ** n
    assert calls == all_bit_tuples(n)
    calls.clear()
    plain = NoSignalBox(n, rows)
    assert calls == all_bit_tuples(n)
    assert fresh == plain
    assert fresh.row_ids == plain.row_ids == list(range(2 ** n))
    assert fresh.integer_rows == plain.integer_rows
    assert ([list(row.items()) for row in fresh.rows.values()]
            == [list(row.items()) for row in plain.rows.values()])


def _spec_entries(n, bit):
    """A uniform table spec with every bit written by ``bit``."""
    return {"parties": n, "table": [
        {"in": [bit(b) for b in x], "out": [bit(b) for b in out], "p": f"1/{2 ** n}"}
        for x in all_bit_tuples(n) for out in all_bit_tuples(n)]}


def test_a_table_spec_checks_each_bit_once_and_parses_each_string_once(monkeypatch):
    calls = {"as_bit": 0, "exact_fraction": 0}  # exact_fraction: of strings
    for name in calls:
        def counting(value, _name=name, _original=getattr(boxes, name)):
            calls[_name] += _name == "as_bit" or isinstance(value, str)
            return _original(value)

        monkeypatch.setattr(boxes, name, counting)
    n = 3
    plain = box_from_spec(_spec_entries(n, int))
    # int and bool bits in lists are checked in bulk by their lookup, and
    # each p string is parsed once
    assert calls == {"as_bit": 0, "exact_fraction": 1}
    assert box_from_spec(_spec_entries(n, bool)) == plain
    assert calls == {"as_bit": 0, "exact_fraction": 2}
    # bits in tuples are checked entry by entry, each bool bit once
    spec = _spec_entries(n, bool)
    spec["table"] = [{**entry, "in": tuple(entry["in"])} for entry in spec["table"]]
    assert box_from_spec(spec) == plain
    assert calls == {"as_bit": 2 * n * 4 ** n, "exact_fraction": 3}


def _mixture_spec(n):
    """Three parity boxes over a ~1e18 denominator as a table spec; the
    second form is the first plus 1, so a row depends on two forms only."""
    den = 10 ** 18 + 9
    weights = [Fraction(387_420_489, den), Fraction(10 ** 17 + 3, den)]
    weights.append(1 - sum(weights))
    forms = [[(0, 1), (2, 3)], [(), (0, 1), (2, 3)], [(0, n - 1), (1, 2, 3)]]
    rows = {x: {} for x in all_bit_tuples(n)}
    for w, monomials in zip(weights, forms):
        for x, row in parity_box(BooleanForm.from_monomials(n, monomials)).rows.items():
            for out, p in row.items():
                rows[x][out] = rows[x].get(out, 0) + w * p
    return boxes.box_to_spec(NoSignalBox(n, rows))


def _counting_checks(monkeypatch):
    """The inputs at which the validator checks a given row, in order."""
    calls = []
    integer_row = boxes._integer_row

    def counting(n, pairs, inputs, *rest):
        calls.append(inputs)
        return integer_row(n, pairs, inputs, *rest)

    monkeypatch.setattr(boxes, "_integer_row", counting)
    return calls


def test_a_table_spec_checks_each_distinct_row_once(monkeypatch):
    n = 5
    spec = json.loads(json.dumps(_mixture_spec(n)))
    sequences = {}  # inputs -> the entry sequence given for them
    for entry in spec["table"]:
        sequences.setdefault(tuple(entry["in"]), []).append((entry["out"], entry["p"]))
    distinct = {json.dumps(sequence) for sequence in sequences.values()}
    calls = _counting_checks(monkeypatch)
    box = box_from_spec(spec)
    assert len(calls) == len(distinct) == len(box.integer_rows) == 4
    assert box == NoSignalBox(n, {x: {tuple(out): Fraction(p) for out, p in sequence}
                                  for x, sequence in sequences.items()})


def test_a_repeated_failing_row_names_its_first_input(monkeypatch):
    n = 5
    inputs = all_bit_tuples(n)
    bad = [(inputs[0], "1/2"), (inputs[1], "1/4")]  # sums to 3/4
    bad_at = [3, 9, 17]
    table = []
    for k, x in enumerate(inputs):
        row = bad if k in bad_at else [(out, f"1/{2 ** n}") for out in inputs]
        table += [{"in": list(x), "out": list(out), "p": p} for out, p in row]
    calls = _counting_checks(monkeypatch)
    with pytest.raises(boxes.BoxSpecError) as err:
        box_from_spec({"parties": n, "table": table})
    assert str(err.value) == (f"table: probabilities for inputs {inputs[bad_at[0]]} "
                              f"sum to 3/4, expected 1")
    # the uniform row at inputs 0, then the failing one at its first input
    assert calls == [inputs[0], inputs[bad_at[0]]]


def test_a_row_in_reverse_entry_order_stays_its_own_row():
    n = 4
    inputs = all_bit_tuples(n)
    row = [(inputs[k], p) for k, p in [(1, "1/2"), (6, "1/3"), (11, "1/6")]]
    reversed_at = 5
    table = []
    for k, x in enumerate(inputs):
        given = row[::-1] if k == reversed_at else row
        table += [{"in": list(x), "out": list(out), "p": p} for out, p in given]
    box = box_from_spec({"parties": n, "table": table})
    plain = NoSignalBox(n, {x: {out: Fraction(p) for out, p in
                                (row[::-1] if k == reversed_at else row)}
                            for k, x in enumerate(inputs)})
    assert box == plain
    assert box.row_ids == plain.row_ids == [int(k == reversed_at) for k in range(2 ** n)]
    assert box.integer_rows == plain.integer_rows
    assert ([list(r.items()) for r in box.rows.values()]
            == [list(r.items()) for r in plain.rows.values()])
    assert box.rows[inputs[reversed_at]] is not box.rows[inputs[0]]
    assert all(box.rows[x] is box.rows[inputs[0]] for k, x in enumerate(inputs)
               if k != reversed_at)
