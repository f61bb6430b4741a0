import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from ctcbox import boxes, ctc
from ctcbox.boxes import (BoxName, NAMED_FORMS, NoSignalBox, all_bit_tuples,
                          box_to_spec, is_no_signaling, named_box)
from ctcbox.cli import main
from ctcbox.ctc import (ConstrainedBox, constrain, constrained_to_json,
                        induced_parity_form, normalize_pattern, parse_pattern)
from ctcbox.forms import BooleanForm, party_names
from ctcbox.signaling import analyze, scan_report_json
from signaling_oracle import xor_bits


def test_normalize_pattern():
    assert normalize_pattern(3, [2, 0, 2]) == (0, 2)
    assert normalize_pattern(3, []) == ()
    with pytest.raises(ValueError):
        normalize_pattern(2, [2])
    with pytest.raises(ValueError):
        normalize_pattern(2, [-1])


@pytest.mark.parametrize("bad", [0.9, 1.0, True, "1", None])
def test_normalize_pattern_rejects_non_integer_indices(bad):
    with pytest.raises(ValueError, match="not an integer"):
        normalize_pattern(3, [bad])


@pytest.mark.parametrize("build", [
    lambda: BooleanForm.from_monomials(3, [[0.9, 1]]),
    lambda: BooleanForm.from_monomials(3, [[True, 2]]),
    lambda: BooleanForm.from_monomials(3, [["2"]]),
    lambda: BooleanForm.from_monomials(3, [[[0]]]),
    lambda: parse_pattern(3, [0.9]),
], ids=["monomial-float", "monomial-bool", "monomial-string", "monomial-list",
        "parse-float"])
def test_monomials_and_parsed_patterns_reject_non_integer_indices(build):
    with pytest.raises(ValueError, match="not an integer"):
        build()


def test_parse_pattern_names_and_indices():
    assert parse_pattern(3, ["alice", "charlie"]) == (0, 2)
    assert parse_pattern(3, ["BOB"]) == (1,)
    assert parse_pattern(3, ["1", 2]) == (1, 2)
    with pytest.raises(ValueError):
        parse_pattern(3, ["dave"])
    with pytest.raises(ValueError):
        parse_pattern(2, ["charlie"])


def test_parse_pattern_accepts_printed_party_names():
    for n in range(1, 7):
        assert parse_pattern(n, party_names(n)) == tuple(range(n))
    assert parse_pattern(5, ["alice", "Party4", "bob"]) == (0, 1, 4)
    with pytest.raises(ValueError, match="unknown party"):
        parse_pattern(4, ["party4"])


def test_empty_pattern_keeps_rows():
    box = named_box("pr")
    cbox = constrain(box, [])
    for inputs in all_bit_tuples(2):
        assert cbox.rows[inputs].outcomes == box.rows[inputs]
        assert not cbox.rows[inputs].paradox


def test_single_party_constraint_on_pr():
    # forcing b = y leaves a = y ^ x.y deterministically
    cbox = constrain(named_box("pr"), [1])
    mapping = cbox.deterministic_map()
    assert mapping is not None
    for (x, y), (a, b) in mapping.items():
        assert b == y
        assert a == (y ^ (x & y))
    assert cbox.paradox_inputs == []


def test_renormalization_with_one_constrained_party():
    cbox = constrain(named_box("svetlichny"), [0])
    for inputs in all_bit_tuples(3):
        row = cbox.rows[inputs]
        assert not row.paradox
        assert len(row.outcomes) == 2
        assert all(p == Fraction(1, 2) for p in row.outcomes.values())
        assert all(out[0] == inputs[0] for out in row.outcomes)


def test_full_constraint_paradox_pattern_on_pr():
    cbox = constrain(named_box("pr"), [0, 1])
    assert cbox.paradox_inputs == [(0, 1), (1, 0), (1, 1)]
    assert cbox.rows[(0, 0)].outcomes == {(0, 0): Fraction(1)}
    assert cbox.prob((0, 1), (0, 1)) == 0


def test_deterministic_map_none_when_rows_are_mixed():
    assert constrain(named_box("pr"), []).deterministic_map() is None
    assert constrain(named_box("pr"), [0, 1]).deterministic_map() is None


def test_induced_relation_matches_enumeration_everywhere():
    # symbolic route: XOR of free outputs equals form ^ constrained inputs;
    # enumerated route: read the same relation off every surviving outcome
    for name in BoxName:
        box = named_box(name)
        form = NAMED_FORMS[name]
        n = box.n
        for size in range(n + 1):
            for pattern in combinations(range(n), size):
                g = induced_parity_form(form, pattern)
                cbox = constrain(box, pattern)
                free = [i for i in range(n) if i not in pattern]
                for inputs in all_bit_tuples(n):
                    row = cbox.rows[inputs]
                    rhs = g.evaluate(inputs)
                    if size == n:
                        assert row.paradox == (rhs == 1)
                        continue
                    assert not row.paradox
                    for out in row.outcomes:
                        assert xor_bits(out[i] for i in free) == rhs


def uniform_row_counts(cbox: ConstrainedBox) -> dict[tuple[int, ...], int]:
    """Outcome count per non-paradox row."""
    return {inputs: len(cbox.rows[inputs].outcomes)
            for inputs in sorted(cbox.rows) if not cbox.rows[inputs].paradox}


def test_constrained_row_counts():
    for name in BoxName:
        box = named_box(name)
        n = box.n
        for size in range(n):
            for pattern in combinations(range(n), size):
                counts = uniform_row_counts(constrain(box, pattern))
                assert set(counts.values()) == {2 ** (n - 1 - size)}
                assert len(counts) == 2 ** n


def test_constrained_to_json_layout():
    cbox = constrain(named_box("pr"), [0, 1])
    rows = constrained_to_json(cbox)
    assert rows[0] == {"inputs": [0, 0],
                       "outcomes": [{"out": [0, 0], "p": "1"}],
                       "paradox": False}
    assert rows[1] == {"inputs": [0, 1], "outcomes": [], "paradox": True}


def test_pattern_out_of_range_rejected():
    with pytest.raises(ValueError):
        constrain(named_box("pr"), [3])


def test_fractional_pattern_is_not_truncated():
    with pytest.raises(ValueError, match="not an integer"):
        constrain(named_box("svetlichny"), [0.9])


def relabel_box(box, perm):
    # party j of the relabeled box plays the role of party perm[j]
    rows = {}
    for inputs, row in box.rows.items():
        new_in = tuple(inputs[p] for p in perm)
        rows[new_in] = {tuple(out[p] for p in perm): pr
                        for out, pr in row.items()}
    return NoSignalBox(box.n, rows)


def test_constrain_commutes_with_party_relabeling():
    perm = (2, 0, 1)
    position = {old: new for new, old in enumerate(perm)}
    for name in ("svetlichny", "mermin1", "mermin2"):
        box = named_box(name)
        relabeled = relabel_box(box, perm)
        for size in range(4):
            for pattern in combinations(range(3), size):
                direct = constrain(relabeled, [position[i] for i in pattern])
                via = constrain(box, pattern)
                for inputs, row in via.rows.items():
                    twin = direct.rows[tuple(inputs[p] for p in perm)]
                    assert twin.paradox == row.paradox
                    assert twin.outcomes == {
                        tuple(out[p] for p in perm): pr
                        for out, pr in row.outcomes.items()}


def _conditioned_by_fractions(box, pattern):
    """(outcomes, paradox) per row: p / sum(kept) in Fractions, in row order."""
    rows = {}
    for inputs, row in box.rows.items():
        kept = {out: p for out, p in row.items()
                if all(out[i] == inputs[i] for i in pattern)}
        mass = sum(kept.values(), Fraction(0))
        rows[inputs] = ({out: p / mass for out, p in kept.items()}, not kept)
    return rows


def _assert_conditioning_matches_fractions(box, pattern):
    cbox = constrain(box, pattern)
    for inputs, (outcomes, paradox) in _conditioned_by_fractions(box, pattern).items():
        row = cbox.rows[inputs]
        assert row.paradox == paradox
        # the order of a row's outcomes is the order the scan sums floats in
        assert list(row.outcomes.items()) == list(outcomes.items())
        assert all(type(p) is Fraction for p in row.outcomes.values())


@st.composite
def tables_with_unrelated_denominators(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    outcomes = all_bit_tuples(n)
    rows = {}
    for inputs in outcomes:
        support = draw(st.lists(st.sampled_from(outcomes), min_size=1, unique=True))
        weights = [Fraction(draw(st.integers(1, 10 ** 20)), draw(st.integers(1, 10 ** 20)))
                   for _ in support]
        total = sum(weights)
        rows[inputs] = {out: w / total for out, w in zip(support, weights)}
    pattern = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    return NoSignalBox(n, rows), pattern


@settings(max_examples=60, deadline=None)
@given(tables_with_unrelated_denominators())
def test_conditioning_matches_fractions_on_random_tables(case):
    _assert_conditioning_matches_fractions(*case)


@pytest.mark.parametrize("name", list(BoxName))
def test_conditioning_matches_fractions_on_every_pattern_of_the_named_boxes(name):
    box = named_box(name)
    for size in range(box.n + 1):
        for pattern in combinations(range(box.n), size):
            _assert_conditioning_matches_fractions(box, pattern)


def test_verdicts_scans_and_traced_conditioning_build_no_rows_of_fractions(
        capsys, monkeypatch, tmp_path):
    built = []  # the party count of each rows view built
    for module in (boxes, ctc):
        def counting(n, integer_rows, _build=module.fraction_rows):
            built.append(n)
            return _build(n, integer_rows)

        monkeypatch.setattr(module, "fraction_rows", counting)
    monkeypatch.setenv("CTCBOX_TRACE", "1")
    for n in (2, 3):
        # every row its inputs w.p. 1/3 and their complement w.p. 2/3: no
        # paradox row once alice is looped
        box = NoSignalBox(n, {x: {x: Fraction(1, 3), tuple(1 - b for b in x): Fraction(2, 3)}
                              for x in all_bit_tuples(n)})
        cbox = constrain(box, [0])
        is_no_signaling(box)
        analyze(cbox, 0, [1])
        scan_report_json("t", cbox)
        assert "rows" not in vars(box) and "rows" not in vars(cbox)
        path = tmp_path / f"table{n}.json"
        path.write_text(json.dumps(box_to_spec(box)))
        for argv in (["verify"], ["analyze", "--ctc", "alice", "--sender", "alice",
                                  "--receivers", "bob"], ["analyze", "--ctc", "alice"]):
            for json_flag in ([], ["--json"]):
                assert main([*argv, "--spec", str(path), *json_flag]) in (0, 1)
                err = capsys.readouterr().err
                if argv[0] == "analyze":
                    assert '"phase": "constrain"' in err and '"rows": ' in err
    assert built == []
    # the view, once read, is kept
    assert box.rows is box.rows and cbox.rows is cbox.rows
    assert len(built) == 2
