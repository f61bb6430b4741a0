"""Table specs loaded in bulk passes against the per-entry loader they replace.

``box_from_spec`` checks and gathers a table of plain JSON entries in bulk
passes, checks entry by entry only when a bulk check fails or an entry is
of another kind, and hands each input's outcomes to the one validator of
given rows.  ``per_entry_box`` below is the loader as it was, one Python
step per entry into rows of Fractions, each row object checked on its own;
both must give the same boxes, row for row, check the same rows at the
same inputs, and give the same error for the same first failing entry.
"""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from ctcbox import boxes
from ctcbox.boxes import BoxSpecError, all_bit_tuples, box_from_spec


def per_entry_box(data):
    """A table spec's table as the loader built it from rows of Fractions:
    every entry checked and placed on its own, rows of the same entries in
    the same order made one object, and each row object checked once, at
    its first input.  Returns its rows ({inputs: {outputs: p}}, one dict
    per distinct row), ``row_ids``, ``integer_rows`` and the inputs at
    which a row was checked."""
    parties, entries = data["parties"], data["table"]
    bits, codes, _ = boxes.shared_bits(parties)
    rows = {inputs: {} for inputs in bits}
    parsed = {}  # each distinct 'num/den' string or int, parsed once

    def probability(value):
        if type(value) is not str and type(value) is not int:
            return boxes.exact_fraction(value)
        if value not in parsed:
            parsed[value] = boxes.exact_fraction(value)
        return parsed[value]

    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise BoxSpecError(f"table[{k}]: entry must be an object")
        try:
            inputs, _ = boxes._bit_tuple(entry["in"], codes)
            outputs, code = boxes._bit_tuple(entry["out"], codes)
            p = probability(entry["p"])
        except KeyError as err:
            raise BoxSpecError(f"table[{k}]: missing field {err}") from err
        except (ValueError, TypeError) as err:
            raise BoxSpecError(f"table[{k}]: {err}") from err
        if len(inputs) != parties or len(outputs) != parties:
            raise BoxSpecError(f"table[{k}]: 'in' and 'out' must have {parties} bits")
        if outputs in rows[inputs]:
            raise BoxSpecError(f"table[{k}]: duplicate entry for {inputs} -> {outputs}")
        rows[inputs][bits[code]] = p
    first = {}
    rows = {inputs: first.setdefault((*map(id, row), *map(id, row.values())), row)
            for inputs, row in rows.items()}
    by_object, by_form, distinct = {}, {}, []  # id(row) and integer form -> row id
    checked, row_ids = [], []
    for inputs, row in rows.items():
        if id(row) not in by_object:
            checked.append(inputs)
            for out, p in row.items():
                if p < 0:
                    raise BoxSpecError(f"table: negative probability {p} at inputs {inputs}, "
                                       f"outputs {out}")
            kept = {out: p for out, p in row.items() if p}
            if sum(kept.values()) != 1:
                raise BoxSpecError(f"table: probabilities for inputs {inputs} sum to "
                                   f"{sum(kept.values(), Fraction(0))}, expected 1")
            den = math.lcm(*(p.denominator for p in kept.values()))
            form = (den, tuple((codes[out], p.numerator * (den // p.denominator))
                               for out, p in kept.items()))
            if form not in by_form:
                by_form[form] = len(distinct)
                distinct.append(kept)
            by_object[id(row)] = by_form[form]
        row_ids.append(by_object[id(row)])
    return SimpleNamespace(rows=dict(zip(bits, map(distinct.__getitem__, row_ids))),
                           row_ids=row_ids, integer_rows=list(by_form), checked=checked)


class Entry(dict):
    """A table entry of a dict subclass, as a caller of the API may give."""


def _entry(inputs, outputs, p="1/4"):
    return {"in": inputs, "out": outputs, "p": p}


OK = [_entry([0, 0], out) for out in ([0, 0], [0, 1], [1, 0], [1, 1])]
HUGE = 10 ** 400  # an int bit too large to convert to a float


# two parties; each table fails at two or more entries, and the error names
# the first, as the per-entry loader did
@pytest.mark.parametrize("table, message", [
    ([OK[0], [0, 0], OK[2], {"in": [0, 1], "out": [0, 0]}],
     "table[1]: entry must be an object"),
    ([{"in": [0, 0], "out": [0, 0]}, OK[1], _entry(["0", 1], [0, 0])],
     "table[0]: missing field 'p'"),
    ([OK[0], _entry([0, 1.0], [0, 0]), _entry([0, 2], [0, 0])],
     "table[1]: expected a bit (0 or 1), got 1.0"),
    ([_entry([0, 0], [0, 2]), {"out": [0, 0], "p": "1"}],
     "table[0]: expected a bit (0 or 1), got 2"),
    ([_entry([0, 0, 0], [0, 0]), OK[0], OK[0]],
     "table[0]: 'in' and 'out' must have 2 bits"),
    ([OK[0], _entry([], [0, 0]), _entry([0.0, 0], [0, 0])],
     "table[1]: 'in' and 'out' must have 2 bits"),
    ([OK[0], _entry(1, [0, 0]), _entry([0, 0], [0, 0], True)],
     "table[1]: 'int' object is not iterable"),
    ([OK[0], _entry([0, 0], [0, 1], 0.25), _entry([0, 0], [1, 0], True)],
     "table[1]: probabilities must be exact (Fraction, int or 'num/den' string), got float"),
    ([*OK[:2], _entry([0, 0], [1, 0], "1/0"), _entry([0, 0], [1, 1], "abc")],
     "table[2]: probability '1/0' has a zero denominator"),
    ([OK[0], _entry([0, 0], [0, 1], "1e5"), _entry([0, 0], [1, 0], "1/0")],
     "table[1]: probability '1e5' is not an integer or 'num/den' string"),
    ([*OK[:2], OK[1], OK[3], "entry"],
     "table[2]: duplicate entry for (0, 0) -> (0, 1)"),
    ([OK[0], _entry([0, 3], [0, 0], "abc"), _entry([0, 0], [0, 0], 0.5)],
     "table[1]: expected a bit (0 or 1), got 3"),
    ([_entry([False, False], [True, True]), _entry([True, 0], [0, 0], "abc"),
      _entry([0, 0], [5, 0])],
     "table[1]: probability 'abc' is not an integer or 'num/den' string"),
    ([_entry([0, 0], [1, 1]), _entry([False, False], [True, True]), _entry([0, 0.5], [0, 0])],
     "table[1]: duplicate entry for (0, 0) -> (1, 1)"),
    ([_entry([0, 1], [0]), _entry([0, 1], [0, 0], "x/2")],
     "table[0]: 'in' and 'out' must have 2 bits"),
    ([OK[0], _entry([None, 0], [0, 0]), {"in": [0, 0]}],
     "table[1]: expected a bit (0 or 1), got None"),
    ([*OK, _entry([0, 1], [0, 0], "1/2"), _entry([0, 1], [0, 0], "1/2")],
     "table[5]: duplicate entry for (0, 1) -> (0, 0)"),
    ([_entry((0, 0), (0, 0)), _entry((0, 0), (0, 9))],
     "table[1]: expected a bit (0 or 1), got 9"),
    ([_entry([0, 0], [0, 0], Fraction(1, 4)), _entry([0, 0], [0, 1], 0.75)],
     "table[1]: probabilities must be exact (Fraction, int or 'num/den' string), got float"),
    # True and 1.0 equal the 1 before them, yet are not exact
    ([_entry([0, 0], [0, 0], 1), _entry([0, 1], [0, 0], True), _entry([1, 0], [0, 0], 1.0)],
     "table[1]: probabilities must be exact (Fraction, int or 'num/den' string), got bool"),
    ([_entry([0, 0], [0, 0], 1), _entry([0, 1], [0, 0], 1.0), _entry([0, 1], [0, 0], True)],
     "table[1]: probabilities must be exact (Fraction, int or 'num/den' string), got float"),
    # an int too large for a float beside a float bit: their sum overflows
    ([_entry([HUGE, 0.5], [0, 0], "1")],
     f"table[0]: expected a bit (0 or 1), got {HUGE}"),
    ([OK[0], _entry([0, 0], [0, HUGE]), _entry([0, 0.5], [0, 0])],
     f"table[1]: expected a bit (0 or 1), got {HUGE}"),
], ids=["object-then-missing", "missing-then-str-bit", "float-then-range",
        "range-out-then-missing-in", "arity-then-duplicate", "empty-then-float-bit",
        "not-a-list-then-bool-p", "float-p-then-bool-p", "zero-den-then-abc",
        "exponent-then-zero-den", "duplicate-then-object", "bad-bit-and-bad-p-in-one",
        "bool-bits-then-abc", "duplicate-bool-then-float", "arity-out-then-str-p",
        "none-bit-then-missing", "rows-sum-then-duplicate", "tuple-bits-then-range",
        "fraction-p-then-float", "int-then-bool-p", "int-then-float-p",
        "huge-then-float-bit", "huge-out-then-float-bit"])
def test_a_table_with_several_faults_names_its_first_failing_entry(table, message):
    spec = {"parties": 2, "table": table}
    for load in (box_from_spec, per_entry_box):
        with pytest.raises(BoxSpecError) as err:
            load(spec)
        assert str(err.value) == message


def _random_row(rng, outcomes):
    """A row as (outputs, p) pairs: a distribution over random outcomes,
    with a zero-probability entry now and then."""
    support = rng.sample(outcomes, rng.randint(1, len(outcomes)))
    if len(support) == 1:
        return [(support[0], 1)]
    den = rng.choice([2, 3, 7, 10 ** 18 + 9]) * len(support)
    cuts = sorted(rng.randrange(1, den) for _ in support[1:])
    pairs = [(out, Fraction(b - a, den)) for out, a, b in zip(support, [0, *cuts], [*cuts, den])]
    if rng.random() < 0.2:
        pairs.insert(rng.randrange(len(pairs) + 1),
                     (rng.choice([out for out in outcomes if out not in support] or [None]), 0))
    return [(out, p) for out, p in pairs if out is not None]


def random_table_spec(rng):
    """A table spec whose rows repeat, some in another entry order, with
    bits written as ints or bools, p as strings, ints or Fractions, and
    entries as dicts or a dict subclass."""
    n = rng.randint(1, 4)
    outcomes = all_bit_tuples(n)
    given = []  # the (outputs, p) pairs of each input's row
    for _ in outcomes:
        if given and rng.random() < 0.5:
            row = list(rng.choice(given))
            if rng.random() < 0.3:
                row.reverse()
        else:
            row = _random_row(rng, outcomes)
        given.append(row)
    bit = rng.choice([int, int, bool])
    kind = rng.choice([dict, dict, Entry])
    write_p = rng.choice([str, str, lambda p: p, lambda p: p.numerator if p.denominator == 1
                          else str(p)])
    table = [kind({"in": [bit(b) for b in x], "out": [bit(b) for b in out],
                   "p": write_p(Fraction(p))})
             for x, row in zip(outcomes, given) for out, p in row]
    if rng.random() < 0.3:  # the inputs' entries interleaved, each row's in order
        pending = [[entry for entry in table if tuple(entry["in"]) == x] for x in outcomes]
        table = []
        while any(pending):
            table.append(rng.choice([row for row in pending if row]).pop(0))
    return {"parties": n, "table": table}


def corrupt(rng, spec):
    """The spec with one to three entries broken by a random fault."""
    table = list(spec["table"])
    n = spec["parties"]

    def missing(e):
        field = rng.choice(["in", "out", "p"])
        return {k: v for k, v in e.items() if k != field}

    faults = [
        lambda e: [0] * n,
        missing,
        lambda e: {**e, "in": ["1", *e["in"][1:]]},
        lambda e: {**e, "out": [*e["out"][:-1], 1.0]},
        lambda e: {**e, "in": [*e["in"][:-1], 2]},
        lambda e: {**e, "out": [*e["out"], 0]},
        lambda e: {**e, "in": e["in"][1:]},
        lambda e: {**e, "p": rng.choice([0.5, True, "1/0", "abc", "1e3", None, [1]])},
        lambda e: {**e, "p": "-1/2"},
    ]
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(table))
        if rng.random() < 0.2:  # an outcome given twice
            table.insert(rng.randrange(k, len(table) + 1), table[k])
        elif isinstance(table[k], dict):
            table[k] = rng.choice(faults)(table[k])
    return {"parties": n, "table": table}


def outcome(load, spec):
    """The loaded box, or its error message."""
    try:
        return load(spec)
    except BoxSpecError as err:
        return str(err)


def sharing(table):
    """For each input, the first input whose row is the same object."""
    first = {}
    return [first.setdefault(id(row), k) for k, row in enumerate(table.rows.values())]


def test_bulk_passes_load_the_boxes_and_errors_of_the_per_entry_loader(monkeypatch):
    entry_rows, integer_row = boxes._entry_rows, boxes._integer_row
    calls = []  # the tables checked entry by entry
    checked = []  # the inputs at which the validator checked a row

    def counting(entries, *rest):
        calls.append(entries)
        return entry_rows(entries, *rest)

    def validating(n, pairs, inputs, *rest):
        checked.append(inputs)
        return integer_row(n, pairs, inputs, *rest)

    monkeypatch.setattr(boxes, "_entry_rows", counting)
    monkeypatch.setattr(boxes, "_integer_row", validating)
    loaded = {"in bulk": 0, "entry by entry": 0}
    failed = 0
    for seed in range(300):
        rng = random.Random(seed)
        spec = random_table_spec(rng)
        if seed % 2:
            spec = corrupt(rng, spec)
        calls.clear()
        checked.clear()
        new, old = outcome(box_from_spec, spec), outcome(per_entry_box, spec)
        if isinstance(old, str):
            failed += 1
            assert new == old, seed
            continue
        loaded["entry by entry" if calls else "in bulk"] += 1
        # each distinct row checked once, at its first input, as the loader did
        assert checked == old.checked, seed
        # the view is the loader's table of Fractions: keys, item order, sharing
        assert new.rows == old.rows
        assert list(new.rows) == list(old.rows)
        assert ([list(row.items()) for row in new.rows.values()]
                == [list(row.items()) for row in old.rows.values()])
        assert all(type(p) is Fraction for row in new.rows.values() for p in row.values())
        assert new.row_ids == old.row_ids
        assert new.integer_rows == old.integer_rows
        assert sharing(new) == sharing(old)
    assert failed > 100 and min(loaded.values()) > 20, (failed, loaded)


def test_a_table_of_plain_json_loads_in_bulk(monkeypatch):
    monkeypatch.setattr(boxes, "_entry_rows", None)  # a call would fail
    half = [{"out": [0, 0], "p": "1/2"}, {"out": [1, 1], "p": "1/2"}]
    table = [{"in": [x, y], **entry} for x, y in all_bit_tuples(2)[:3] for entry in half]
    table.append({"in": [1, 1], "out": [True, False], "p": 1})
    box = box_from_spec({"parties": 2, "table": table})
    assert box.rows[(1, 1)] == {(1, 0): 1}
    assert box.rows[(0, 0)] is box.rows[(1, 0)] == {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    assert box.row_ids == [0, 0, 0, 1]
