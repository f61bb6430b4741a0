import doctest
from itertools import product

import pytest

import ctcbox.forms
from ctcbox.forms import BooleanForm, as_bit, input_names, output_names, party_names


def test_docstring_examples():
    results = doctest.testmod(ctcbox.forms)
    assert results.failed == 0
    assert results.attempted > 0


def test_as_bit_accepts_bits_and_bools():
    assert as_bit(0) == 0
    assert as_bit(1) == 1
    assert as_bit(True) == 1
    assert as_bit(False) == 0


@pytest.mark.parametrize("bad", [2, -1, "0", None, 1.0])
def test_as_bit_rejects_non_bits(bad):
    with pytest.raises(ValueError):
        as_bit(bad)


def test_name_helpers():
    assert input_names(2) == ("x", "y")
    assert output_names(3) == ("a", "b", "c")
    assert party_names(3) == ("alice", "bob", "charlie")
    assert input_names(4) == ("x0", "x1", "x2", "x3")
    assert party_names(4)[3] == "party3"


def test_from_monomials_cancels_duplicates():
    assert BooleanForm.from_monomials(2, [[0], [0]]) == BooleanForm.from_monomials(2, [])
    twice = BooleanForm.from_monomials(3, [[0, 1], [1, 0], [2]])
    assert twice == BooleanForm.from_monomials(3, [[2]])


def test_constant_forms():
    # no monomial is the constant 0; the empty monomial is the constant 1
    zero = BooleanForm.from_monomials(2, [])
    one = BooleanForm.from_monomials(2, [[]])
    for bits in product((0, 1), repeat=2):
        assert zero.evaluate(bits) == 0
        assert one.evaluate(bits) == 1
    assert one.render() == "1"
    assert zero.render() == "0"


def test_variable_and_xor():
    n = 3
    x = BooleanForm.variable(n, 0)
    yz = BooleanForm.from_monomials(n, [[1, 2]])
    combined = x ^ yz
    for bits in product((0, 1), repeat=n):
        assert combined.evaluate(bits) == bits[0] ^ (bits[1] & bits[2])


def test_out_of_range_monomial_rejected():
    with pytest.raises(ValueError):
        BooleanForm.from_monomials(2, [[0, 2]])
    with pytest.raises(ValueError):
        BooleanForm.variable(2, 5)


def test_render_orders_largest_monomials_first():
    form = BooleanForm.from_monomials(2, [[0], [0, 1]])
    assert form.render() == "x.y ^ x"
    assert form.render(("u", "v")) == "u.v ^ u"


def test_render_includes_constant_term():
    form = BooleanForm.from_monomials(2, [[0, 1], []])
    assert form.render() == "x.y ^ 1"
    assert form.evaluate((1, 1)) == 0


def test_evaluate_form_checks_arity():
    form = BooleanForm.from_monomials(2, [[0, 1]])
    assert form.evaluate((1, 1)) == 1
    with pytest.raises(ValueError, match="form expects 2 inputs, got 3"):
        form.evaluate((1, 1, 0))


def test_sorted_monomials_are_deterministic():
    form = BooleanForm.from_monomials(3, [[2], [0, 1], [1]])
    assert form.sorted_monomials() == [(1,), (2,), (0, 1)]


def test_form_checks_its_parties_and_monomials():
    with pytest.raises(ValueError, match="^a form needs at least one party$"):
        BooleanForm(0, frozenset())
    with pytest.raises(ValueError, match="^party index 2 out of range for 2 parties$"):
        BooleanForm(2, frozenset({frozenset({0, 2})}))


def test_equal_forms_hash_equal_and_print_their_fields():
    f = BooleanForm.from_monomials(3, [[0, 1], [1, 2]])
    g = BooleanForm.from_monomials(3, [[2, 1], [1, 0], [0, 2], [2, 0]])
    assert f == g and hash(f) == hash(g) == hash((3, f.monomials))
    assert len({f, g}) == 1
    assert (repr(BooleanForm.from_monomials(2, [[0, 1]]))
            == "BooleanForm(n=2, monomials=frozenset({frozenset({0, 1})}))")
