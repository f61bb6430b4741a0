import json
import math
import random
from fractions import Fraction
from itertools import combinations
from unittest.mock import ANY

import pytest

from ctcbox import boxes
from ctcbox.boxes import (BoxName, BoxSpecError, CHSH_CLASSICAL_BOUND,
                          CHSH_TSIRELSON_BOUND, MAX_PARTIES, NAMED_FORMS, NoSignalBox,
                          all_bit_tuples, box_from_spec, box_to_spec,
                          chsh_value, decode_bucket, exact_fraction, is_no_signaling,
                          describe_box, named_box, parity_box, parity_equation)
from ctcbox.ctc import constrain
from ctcbox.forms import BooleanForm
from signaling_oracle import ascending_witness, marginal, xor_bits
from test_recorded_runs import FILES


def deterministic_box(n, mapping):
    return NoSignalBox(n, {inputs: {mapping[inputs]: Fraction(1)}
                           for inputs in all_bit_tuples(n)})


def test_all_bit_tuples_order():
    assert all_bit_tuples(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_exact_fraction_coercion():
    assert exact_fraction("3/8") == Fraction(3, 8)
    assert exact_fraction(1) == Fraction(1)
    assert exact_fraction(Fraction(1, 3)) == Fraction(1, 3)


@pytest.mark.parametrize("bad", [0.5, True, None, [1, 2]])
def test_exact_fraction_rejects_inexact(bad):
    with pytest.raises(TypeError):
        exact_fraction(bad)


@pytest.mark.parametrize("bad", ["0.5", "1e5", "1/2e5", "1_000", " 1/2", "1/-2",
                                 "inf", "nan", ""])
def test_exact_fraction_takes_only_integer_ratio_strings(bad):
    with pytest.raises(ValueError):
        exact_fraction(bad)


def test_negative_probability_strings_reach_the_sign_check():
    assert exact_fraction("-1/2") == Fraction(-1, 2)
    assert exact_fraction("+3") == Fraction(3)
    spec = {"parties": 1, "table": [{"in": [0], "out": [0], "p": "3/2"},
                                    {"in": [0], "out": [1], "p": "-1/2"},
                                    {"in": [1], "out": [0], "p": "1"}]}
    with pytest.raises(BoxSpecError, match="negative probability"):
        box_from_spec(spec)


@pytest.mark.parametrize("spec", [
    {"parties": MAX_PARTIES + 1, "constraint": [[0, 1]]},
    {"parties": 64, "constraint": [[0, 1]]},
    {"parties": 64, "table": []},
])
def test_spec_party_count_is_bounded(spec):
    with pytest.raises(BoxSpecError, match="parties"):
        box_from_spec(spec)


def anf_forms(n):
    """Every Boolean function of n bits, each built from its algebraic normal
    form: one form per set of monomials."""
    monomials = [m for k in range(n + 1) for m in combinations(range(n), k)]
    for chosen in range(1 << len(monomials)):
        yield BooleanForm.from_monomials(
            n, [m for k, m in enumerate(monomials) if chosen >> k & 1])


def seeded_forms(rng, n):
    """Forms of n parties: the cycle and the star of parity pairs, and forms
    of 1, 2, n and half of all monomials drawn from ``rng``."""
    monomials = [m for k in range(n + 1) for m in combinations(range(n), k)]
    yield BooleanForm.from_monomials(n, [[i, (i + 1) % n] for i in range(n)])
    yield BooleanForm.from_monomials(n, [[0, i] for i in range(1, n)])
    for k in (1, 2, n, len(monomials) // 2):
        yield BooleanForm.from_monomials(n, rng.sample(monomials, k))


def test_parity_box_structure():
    rng = random.Random(38)
    boxes_ = [(form, named_box(name)) for name, form in NAMED_FORMS.items()]
    forms = [*anf_forms(2), *anf_forms(3)]
    for n in range(4, 8):
        forms += seeded_forms(rng, n)
    boxes_ += [(form, parity_box(form)) for form in forms]
    functions = set()
    for form, box in boxes_:
        n = box.n
        weight = Fraction(1, 2 ** (n - 1))
        values = []
        for inputs, row in box.rows.items():
            assert len(row) == 2 ** (n - 1)
            assert all(p == weight for p in row.values())
            rhs = form.evaluate(inputs)
            assert all(xor_bits(out) == rhs for out in row)
            values.append(rhs)
        functions.add((n, tuple(values)))
    # the forms at n = 2 and 3 are every function of two and of three bits
    assert len({key for key in functions if key[0] <= 3}) == 16 + 256


def test_named_box_accepts_strings_case_insensitively():
    assert named_box("PR") == named_box(BoxName.PR)
    with pytest.raises(ValueError):
        named_box("bogus")


def test_parity_equation_text():
    assert parity_equation(NAMED_FORMS[BoxName.PR]) == "a ^ b = x.y"
    assert parity_equation(NAMED_FORMS[BoxName.MERMIN2]) == "a ^ b ^ c = x.y.z"


def test_box_validation_missing_row():
    rows = {(0, 0): {(0, 0): 1}}
    with pytest.raises(ValueError, match="missing row"):
        NoSignalBox(2, rows)


def test_box_validation_row_sum():
    rows = {inputs: {(0, 0): Fraction(1, 2)} for inputs in all_bit_tuples(2)}
    with pytest.raises(ValueError, match="sum"):
        NoSignalBox(2, rows)


def test_box_validation_negative_probability():
    rows = {inputs: {(0, 0): Fraction(3, 2), (1, 1): Fraction(-1, 2)}
            for inputs in all_bit_tuples(2)}
    with pytest.raises(ValueError, match="negative"):
        NoSignalBox(2, rows)


def test_box_validation_wrong_output_arity():
    rows = {inputs: {(0, 0, 0): 1} for inputs in all_bit_tuples(2)}
    with pytest.raises(ValueError, match="arity"):
        NoSignalBox(2, rows)


def _rows_with(n, inputs, row):
    """Uniform rows except the one at ``inputs``."""
    rows = {x: {x: 1} for x in all_bit_tuples(n)}
    rows[inputs] = row
    return rows


@pytest.mark.parametrize("n, rows, message", [
    (2, {x: {(0, 0, 0): 1} for x in all_bit_tuples(2)},
     "outputs (0, 0, 0) for inputs (0, 0) have wrong arity"),
    # range(2) iterates as the bits (0, 1): a second key for the same outcome
    (2, _rows_with(2, (1, 0), {(0, 1): Fraction(1, 2), range(2): Fraction(1, 2)}),
     "duplicate outcome (0, 1) for inputs (1, 0)"),
    (2, _rows_with(2, (0, 1), {(0, 0): Fraction(1, 2), (1, 1): Fraction(1, 4)}),
     "probabilities for inputs (0, 1) sum to 3/4, expected 1"),
    (2, _rows_with(2, (0, 1), {}), "probabilities for inputs (0, 1) sum to 0, expected 1"),
    (2, _rows_with(2, (1, 1), {(0, 0): Fraction(3, 2), (1, 1): Fraction(-1, 2)}),
     "negative probability -1/2 at inputs (1, 1), outputs (1, 1)"),
    (2, {x: {x: 1} for x in all_bit_tuples(2)[:3]}, "missing row for inputs (1, 1)"),
    (2, {**{x: {x: 1} for x in all_bit_tuples(2)}, (0, 0, 1): {(0, 0): 1}},
     "unexpected input tuples: [(0, 0, 1)]"),
    (2, _rows_with(2, (0, 0), {(1.0, 0): 1}), "expected a bit (0 or 1), got 1.0"),
    (2, _rows_with(2, (1, 0), {(0, 0): "1/0"}),
     "probability '1/0' has a zero denominator"),
    (0, {}, "a box needs at least one party"),
], ids=["arity", "duplicate", "sum", "empty-row", "negative", "missing-row",
        "unexpected-inputs", "float-bit", "zero-denominator", "no-party"])
def test_box_validation_messages(n, rows, message):
    with pytest.raises(ValueError) as err:
        NoSignalBox(n, rows)
    assert str(err.value) == message


def test_duplicate_zero_probability_outcomes_are_allowed():
    # range(2) is a second key for the outcome (0, 1); a zero entry is dropped
    for row, kept in [({(0, 1): 1, range(2): 0}, (0, 1)),
                      ({(0, 1): 0, range(2): 1}, (0, 1)),
                      ({(0, 1): 0, range(2): Fraction(0), (1, 1): 1}, (1, 1))]:
        box = NoSignalBox(2, _rows_with(2, (1, 0), row))
        assert box.rows[(1, 0)] == {kept: 1}


def test_true_bits_are_canonicalised_to_one():
    box = NoSignalBox(2, _rows_with(2, (0, 1), {(True, False): 1}))
    ((out, p),) = box.rows[(0, 1)].items()
    assert out == (1, 0) and [type(b) for b in out] == [int, int]
    assert p == 1 and type(p) is Fraction


def test_row_sums_are_exact_over_unrelated_denominators():
    # 1/d over eight large unrelated denominators, and the rest: the sum is 1
    dens = [2 ** 61 - 1, 2 ** 89 - 1, 2 ** 107 - 1, 2 ** 127 - 1,
              10 ** 18 + 3, 10 ** 18 + 9, 10 ** 30 + 57, 10 ** 40 + 121]
    outcomes = all_bit_tuples(4)
    row = {outcomes[k]: Fraction(1, d) for k, d in enumerate(dens)}
    row[outcomes[15]] = 1 - sum(row.values())
    box = NoSignalBox(4, _rows_with(4, (0, 1, 1, 0), row))
    assert box.rows[(0, 1, 1, 0)] == row
    over = dict(row)
    over[outcomes[15]] += Fraction(1, 10 ** 40)
    with pytest.raises(ValueError) as err:
        NoSignalBox(4, _rows_with(4, (0, 1, 1, 0), over))
    total = 1 + Fraction(1, 10 ** 40)
    assert str(err.value) == f"probabilities for inputs (0, 1, 1, 0) sum to {total}, expected 1"


def test_box_equality_ignores_construction_route():
    pr = named_box("pr")
    rebuilt = NoSignalBox(2, {inputs: dict(row) for inputs, row in pr.rows.items()})
    assert rebuilt == pr
    assert rebuilt.form is None


def _by_every_route(n, rows):
    """The table ``rows`` built every way a table gets in: rows in the given
    and in reversed outcome order, bool bits with integral probabilities as
    ints, a spec of "num/den" strings (loaded in bulk) and a spec of
    Fractions in reversed entry order (loaded entry by entry)."""
    reverse = {x: dict(reversed(row.items())) for x, row in rows.items()}
    boolean = {tuple(map(bool, x)): {tuple(map(bool, out)): p.numerator if p.denominator == 1
                                     else p for out, p in row.items()}
               for x, row in rows.items()}
    strings = [{"in": list(x), "out": list(out), "p": f"{p.numerator}/{p.denominator}"}
               for x, row in rows.items() for out, p in row.items()]
    fractions = [{"in": [bool(b) for b in x], "out": list(out), "p": p}
                 for x, row in reverse.items() for out, p in row.items()]
    return [NoSignalBox(n, rows), NoSignalBox(n, reverse), NoSignalBox(n, boolean),
            box_from_spec(json.loads(json.dumps({"parties": n, "table": strings}))),
            box_from_spec({"parties": n, "table": fractions})]


def _mixed_table(n):
    """A row per input over unrelated denominators, one of them a single
    outcome of probability 1."""
    outcomes = all_bit_tuples(n)
    rows = {}
    for k, x in enumerate(outcomes):
        den = (10 ** 18 + 9, 2 ** 61 - 1, 7)[k % 3]
        rows[x] = ({outcomes[k]: Fraction(1)} if k == 5 else
                   {outcomes[k]: Fraction(k + 1, den), outcomes[-1 - k]: Fraction(3, 7),
                    outcomes[k ^ 1]: 1 - Fraction(k + 1, den) - Fraction(3, 7)})
    return rows


@pytest.mark.parametrize("n, form", [
    (3, BooleanForm.from_monomials(3, [(0, 1), (1, 2)])),
    (4, BooleanForm.from_monomials(4, [(0, 1, 2), (3,)])),
    (3, None),
])
def test_a_table_equals_itself_by_every_route_and_nothing_nearby(n, form):
    rows = (_mixed_table(n) if form is None
            else {x: dict(row) for x, row in parity_box(form).rows.items()})
    boxes_ = _by_every_route(n, rows) + ([parity_box(form)] if form else [])
    for box in boxes_:
        assert all(box == other and other == box for other in boxes_)
        # a box leaves the comparison with anything else to the other side
        assert box == ANY and box != rows
    # equal entry for entry, although rows in another outcome order are
    # other integer rows
    assert boxes_[0].integer_rows != boxes_[1].integer_rows
    # one row moves 1/10**18 from one outcome to another
    x = all_bit_tuples(n)[2]
    near = {inputs: dict(row) for inputs, row in rows.items()}
    first, second = list(near[x])[:2]
    near[x][first] += Fraction(1, 10 ** 18)
    near[x][second] -= Fraction(1, 10 ** 18)
    for box in _by_every_route(n, near):
        assert all(box != other and other != box for other in boxes_)
    # comparing builds no rows of Fractions; once built, each is the table
    assert not any("rows" in vars(box) for box in boxes_)
    assert all(box.rows == rows for box in boxes_)


def test_prob_lookup():
    pr = named_box("pr")
    assert pr.prob((0, 0), (0, 0)) == Fraction(1, 2)
    assert pr.prob((0, 0), (0, 1)) == 0


def test_marginal_uniform_for_parity_boxes():
    box = named_box("svetlichny")
    for inputs in all_bit_tuples(3):
        for party in range(3):
            m = marginal(box, [party], inputs)
            assert m == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}
        m = marginal(box, [0, 1], inputs)
        assert all(p == Fraction(1, 4) for p in m.values())


def test_marginal_validation():
    box = named_box("pr")
    with pytest.raises(ValueError):
        marginal(box, [], (0, 0))
    with pytest.raises(ValueError):
        marginal(box, [2], (0, 0))
    with pytest.raises(ValueError):
        marginal(box, [0], (0, 0, 0))


def test_marginal_keys_follow_the_coalition_order():
    # a = 1 and b = c = 0 at every input, so the key of parties 0 and 2 is (1, 0)
    box = deterministic_box(3, {inputs: (1, 0, 0) for inputs in all_bit_tuples(3)})
    for inputs in all_bit_tuples(3):
        assert marginal(box, [0, 2], inputs) == {(1, 0): Fraction(1)}


def test_coalition_marginals_match_the_oracle_marginal():
    # the engine's integer buckets, decoded, are the Fraction sums of the oracle
    # on every coalition (sorted, as the oracle keys it and the scan builds it)
    cases = [named_box(name) for name in BoxName]
    cases.append(deterministic_box(3, {inputs: (inputs[1], 1, inputs[0] ^ inputs[2])
                                       for inputs in all_bit_tuples(3)}))
    for box in cases:
        for size in range(1, box.n + 1):
            for coal in combinations(range(box.n), size):
                project = boxes.projection(box.n, coal)
                for inputs, row_id in zip(all_bit_tuples(box.n), box.row_ids):
                    bucket = boxes.projected(box.integer_rows[row_id], project)
                    assert decode_bucket(bucket, size) == marginal(box, coal, inputs)


def test_no_signaling_holds_for_named_boxes():
    for name in BoxName:
        assert is_no_signaling(named_box(name)).ok


def test_no_signaling_witness_is_lexicographically_first():
    # output b copies input y, so bob's marginal leaks y to nobody but
    # alice's marginal leaks y: a = y for x = 0
    mapping = {(0, 0): (0, 0), (0, 1): (1, 1), (1, 0): (0, 0), (1, 1): (0, 1)}
    verdict = is_no_signaling(deterministic_box(2, mapping))
    assert not verdict.ok
    assert not verdict  # __bool__ mirrors .ok
    w = verdict.witness
    assert w.coalition == (0,)
    assert (w.inputs_a, w.inputs_b) == ((0, 0), (0, 1))
    assert w.marginal_a == {(0,): Fraction(1)}
    assert w.marginal_b == {(1,): Fraction(1)}


def counting_decodes(monkeypatch):
    """Count the verdict's calls of ``decode_bucket``, its one way from
    integer marginals to Fractions."""
    calls = []
    decode_bucket = boxes.decode_bucket

    def counting(*args):
        calls.append(args)
        return decode_bucket(*args)

    monkeypatch.setattr(boxes, "decode_bucket", counting)
    return calls


def test_witness_is_decoded_from_the_compared_marginals(monkeypatch):
    calls = counting_decodes(monkeypatch)
    mapping = {(0, 0): (0, 0), (0, 1): (1, 1), (1, 0): (0, 0), (1, 1): (0, 1)}
    w = is_no_signaling(deterministic_box(2, mapping)).witness
    assert len(calls) == 2
    assert w.coalition == (0,)
    assert (w.inputs_a, w.inputs_b) == ((0, 0), (0, 1))
    assert w.marginal_a == {(0,): 1}
    assert w.marginal_b == {(1,): 1}
    assert all(type(p) is Fraction for p in [*w.marginal_a.values(),
                                              *w.marginal_b.values()])


class CountingRows(list):
    """Integer rows that count their reads: the engine reads a row to
    project it."""

    reads = 0

    def __getitem__(self, row_id):
        self.reads += 1
        return super().__getitem__(row_id)


def test_passing_verdict_checks_n_conditions(monkeypatch):
    # n conditions, each projecting every distinct row at most once onto
    # its coalition; Fraction marginals are decoded for a witness only
    calls = counting_decodes(monkeypatch)
    n = 6
    cycle = BooleanForm.from_monomials(n, [[i, (i + 1) % n] for i in range(n)])
    box = parity_box(cycle)
    rows = box.integer_rows = CountingRows(box.integer_rows)
    assert is_no_signaling(box).ok
    assert 0 < rows.reads <= n * len(rows)
    assert len(calls) == 0
    mapping = {(0, 0): (0, 0), (0, 1): (1, 1), (1, 0): (0, 0), (1, 1): (0, 1)}
    assert not is_no_signaling(deterministic_box(2, mapping)).ok
    assert len(calls) == 2


def loop_tables(rng):
    """Loop tables of seeded forms at n = 2..7, with party 0, two parties,
    three parties and all but the last party looped; a table with a
    paradox row is no box and is left out."""
    for n in range(2, 8):
        for form in seeded_forms(rng, n):
            box = parity_box(form)
            for looped in dict.fromkeys([(0,), tuple(sorted(rng.sample(range(n), 2))),
                                         tuple(sorted(rng.sample(range(n), min(3, n)))),
                                         tuple(range(n - 1))]):
                cbox = constrain(box, looped)
                if not any(row.paradox for row in cbox.rows.values()):
                    yield NoSignalBox(n, {x: row.outcomes for x, row in cbox.rows.items()})


def random_row(rng, n, support):
    """A row over ``support`` random outcomes with small random weights."""
    outcomes = rng.sample(all_bit_tuples(n), support)
    weights = [rng.randint(1, 9) for _ in outcomes]
    return {out: Fraction(w, sum(weights)) for out, w in zip(outcomes, weights)}


def random_tables(rng):
    """Seeded tables at n = 1..5: dense ones, every row over all outcomes,
    and sparse ones, each input's row one of a pool of rows of one to
    three outcomes."""
    for n in range(1, 6):
        for _ in range(3):
            yield NoSignalBox(n, {x: random_row(rng, n, 2 ** n) for x in all_bit_tuples(n)})
            pool = [random_row(rng, n, rng.randint(1, min(3, 2 ** n)))
                    for _ in range(rng.randint(1, 3))]
            yield NoSignalBox(n, {x: rng.choice(pool) for x in all_bit_tuples(n)})


def deterministic_boxes(rng):
    """Deterministic boxes at n = 1..5: each party's output the XOR of its
    own input and of a seeded subset of the others', or of random bits."""
    for n in range(1, 6):
        for density in (0, 0.2, 0.5):
            reads = [[j for j in range(n) if j == i or rng.random() < density]
                     for i in range(n)]
            yield deterministic_box(n, {x: tuple(xor_bits([x[j] for j in read]) for read in reads)
                                        for x in all_bit_tuples(n)})
        yield deterministic_box(n, {x: tuple(rng.randint(0, 1) for _ in range(n))
                                    for x in all_bit_tuples(n)})


def verdict_items(verdict):
    """A verdict as plain values, the witness marginals as item lists."""
    w = verdict.witness
    return verdict.ok, w and (w.coalition, w.inputs_a, w.inputs_b,
                              list(w.marginal_a.items()), list(w.marginal_b.items()))


def test_the_verdict_equals_the_ascending_search():
    rng = random.Random(39)
    mix5 = box_from_spec(json.loads(FILES["mix5.json"]()))
    corpus = [*loop_tables(rng), *random_tables(rng), *deterministic_boxes(rng), mix5]
    sizes = set()
    for box in corpus:
        expected = verdict_items(ascending_witness(box))
        assert verdict_items(is_no_signaling(box)) == expected, box.rows
        sizes.add((box.n, expected[1] and len(expected[1][0])))
    # passing boxes, and witnesses of n - 1, n - 2, n - 3 and 1 party
    assert {(5, None), (6, 5), (6, 4), (6, 3), (5, 1), (7, 6), (7, 5), (7, 4)} <= sizes
    assert is_no_signaling(mix5).ok


def test_a_constrained_box_has_the_verdict_of_its_table():
    # the verdict reads a ConstrainedBox through its integer rows as it reads
    # a table; a box with a paradox row is no box and is left out
    pinned = skipped = 0
    for form in [*anf_forms(2), *anf_forms(3)]:
        for size in range(form.n + 1):
            for looped in combinations(range(form.n), size):
                cbox = constrain(parity_box(form), looped)
                if any(row.paradox for row in cbox.rows.values()):
                    skipped += 1
                    continue
                table = NoSignalBox(form.n, {x: row.outcomes for x, row in cbox.rows.items()})
                assert verdict_items(is_no_signaling(cbox)) == verdict_items(
                    is_no_signaling(table)), (form, looped)
                pinned += 1
    assert (pinned, skipped) == (1842, 270)


def sharing(box):
    """For each input, the first-occurrence index of its row object."""
    first = {}
    return [first.setdefault(id(row), len(first)) for row in box.rows.values()]


def distinct_rows(box):
    """The box's row objects in order of first occurrence."""
    return list({id(row): row for row in box.rows.values()}.values())


def test_parity_box_is_the_validated_box_of_its_rows():
    rng = random.Random(39)
    forms = [*anf_forms(2), *anf_forms(3)]
    for n in range(4, MAX_PARTIES + 1):
        forms += seeded_forms(rng, n)
    for k, form in enumerate(forms):
        n = form.n
        by_value = [{out: Fraction(1, 2 ** (n - 1)) for out in all_bit_tuples(n)
                     if xor_bits(out) == value} for value in (0, 1)]
        label = f"f{k}" if k % 2 else None
        expected = NoSignalBox(n, {x: by_value[form.evaluate(x)] for x in all_bit_tuples(n)},
                               label=label)
        box, again = parity_box(form, label=label), parity_box(form, label=label)
        assert all(a is b for a, b in zip(box.rows, expected.rows))
        # the same row objects shared by the same inputs, none of them by another box
        assert sharing(box) == sharing(expected)
        for row, other in zip(distinct_rows(box), distinct_rows(expected)):
            assert list(row.items()) == list(other.items())
            assert all(a is b for a, b in zip(row, other))
        assert not {*map(id, box.rows.values())} & {*map(id, again.rows.values())}
        assert box.row_ids == expected.row_ids
        assert box.integer_rows == expected.integer_rows
        assert box.form is form and expected.form is None and box.label == expected.label


def test_a_table_carries_no_form():
    # a form attached to another table would write the form's spec and describe
    # the form's equation; a table of the parity box's own rows is a table too
    constant = {x: {(0, 0): 1} for x in all_bit_tuples(2)}
    with pytest.raises(TypeError):
        NoSignalBox(2, constant, form=NAMED_FORMS["pr"])
    pr = named_box("pr")
    table = NoSignalBox(2, pr.rows, label="pr")
    assert table == pr and pr.form is NAMED_FORMS["pr"] and table.form is None
    assert "table" in box_to_spec(table) and box_from_spec(box_to_spec(table)) == pr
    assert describe_box(table) == "box pr (2 parties): explicit table"


def test_chsh_values():
    assert chsh_value(named_box("pr")) == 4
    uniform = NoSignalBox(2, {inputs: {out: Fraction(1, 4)
                                       for out in all_bit_tuples(2)}
                              for inputs in all_bit_tuples(2)})
    assert chsh_value(uniform) == 0
    constant = deterministic_box(2, {inputs: (0, 0)
                                     for inputs in all_bit_tuples(2)})
    assert chsh_value(constant) == CHSH_CLASSICAL_BOUND == 2
    assert math.isclose(CHSH_TSIRELSON_BOUND, 2 * math.sqrt(2))
    with pytest.raises(ValueError):
        chsh_value(named_box("mermin1"))


def test_spec_round_trip_constraint():
    pr = named_box("pr")
    spec = box_to_spec(pr)
    assert spec == {"parties": 2, "constraint": [[0, 1]]}
    assert box_from_spec(spec) == pr


def test_spec_round_trip_table():
    mapping = {(0, 0): (0, 0), (0, 1): (1, 1), (1, 0): (0, 0), (1, 1): (0, 1)}
    box = deterministic_box(2, mapping)
    spec = box_to_spec(box)
    assert spec["parties"] == 2
    assert {"in": [0, 1], "out": [1, 1], "p": "1"} in spec["table"]
    assert box_from_spec(spec) == box


def test_spec_fraction_strings_survive():
    spec = {"parties": 2,
            "table": [{"in": list(inputs), "out": list(out), "p": "1/4"}
                      for inputs in all_bit_tuples(2)
                      for out in all_bit_tuples(2)]}
    box = box_from_spec(spec)
    assert box.prob((1, 0), (0, 1)) == Fraction(1, 4)


@pytest.mark.parametrize("bad", [
    [],
    {"parties": 2},
    {"parties": 0, "constraint": []},
    {"parties": True, "constraint": []},
    {"parties": 2, "constraint": [[0, 1]], "table": []},
    {"parties": 2, "constraint": [[0, 5]]},
    {"parties": 2, "constraint": [0]},
    {"parties": 2, "table": "nope"},
    {"parties": 2, "table": [{"in": [0, 0], "out": [0, 0]}]},
    {"parties": 2, "table": [{"in": [0, 0], "out": [0, 0], "p": 0.5}]},
    {"parties": 2, "table": [{"in": [0, 0, 0], "out": [0, 0], "p": "1"}]},
    {"parties": 2, "table": [{"in": [0, 0], "out": [0, 0], "p": "1"},
                             {"in": [0, 0], "out": [0, 0], "p": "1"}]},
    {"parties": 2, "table": [{"in": [0, 0], "out": [0, 0], "p": "1/2"}]},
])
def test_spec_validation_errors(bad):
    with pytest.raises(BoxSpecError):
        box_from_spec(bad)


def test_parity_box_is_a_pure_function_of_the_form():
    form = BooleanForm.from_monomials(3, [(0, 1), (1, 2)])
    same = BooleanForm.from_monomials(3, [(1, 2), (0, 1)])
    assert parity_box(form) == parity_box(form)
    assert parity_box(form) == parity_box(same)
    other = BooleanForm.from_monomials(3, [(0, 1)])
    assert parity_box(form) != parity_box(other)
