"""Exact conditional-probability tables for n-party binary boxes.

Every party feeds one input bit into the box and receives one output bit.
A box is the table p(outputs | inputs) with exact rational entries, so the
no-signaling checks and the reference tables downstream are bit-exact.
"""

from __future__ import annotations

import math
import re
from array import array
from enum import Enum
from functools import cache
from fractions import Fraction
from itertools import chain, combinations, product, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .forms import BooleanForm, as_bit, bit_string, input_names, output_names, party_names

CHSH_CLASSICAL_BOUND = Fraction(2)
CHSH_TSIRELSON_BOUND = 2 * math.sqrt(2)
# the most parties a spec file may ask for: a table spec lists up to 4**n
# entries and a full scan analyses n * (2**(n-1) - 1) directions; parity_box
# builds at most two rows and takes about 0.13 ms at n = 9 and 0.26 ms at
# n = 10 (one core of a 2-vCPU Xeon VM, Python 3.11)
MAX_PARTIES = 10
# an optional sign, then an integer or integer/integer; Fraction itself also
# takes decimals and exponents, and for "1e99999999" it builds 10**99999999
_EXACT_STRING = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_MISSING = object()  # the row of an input absent from a given table
# by the form's value at input 0, a truth table's characters as row ids: the
# row of input 0 is row 0
_ROW_OF_VALUE = (bytes.maketrans(b"01", b"\0\1"), bytes.maketrans(b"01", b"\1\0"))


def all_bit_tuples(n: int) -> list[tuple[int, ...]]:
    """All length-n bit tuples in lexicographic order."""
    return list(product((0, 1), repeat=n))


def exact_fraction(value) -> Fraction:
    """Coerce a probability to an exact Fraction; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if not _EXACT_STRING.fullmatch(value):
            raise ValueError(f"probability {value!r} is not an integer "
                             f"or 'num/den' string")
        num, _, den = value.partition("/")
        den = int(den or 1)
        if not den:
            raise ValueError(f"probability {value!r} has a zero denominator")
        return Fraction(int(num), den)
    raise TypeError(
        f"probabilities must be exact (Fraction, int or 'num/den' string), "
        f"got {type(value).__name__}")


def _bit_tuple(raw, codes: Mapping) -> tuple[tuple[int, ...], int | None]:
    """``tuple(map(as_bit, raw))``, and its code in ``codes`` (``bit_codes(n)``)
    or None when it has another length; plain ints are checked by the lookup."""
    bits = tuple(raw)
    code = codes.get(bits) if {*map(type, bits)} == {int} else None
    if code is None:
        bits = tuple(map(as_bit, bits))
        code = codes.get(bits)
    return bits, code


def _checked_row(n: int, given: Mapping, inputs: tuple[int, ...], codes: Mapping,
                 bits: Sequence, known: dict) -> tuple[dict, tuple[int, tuple]]:
    """A given row of a box, checked: (the row keyed by the shared bit tuples,
    its integer form).  ``known`` maps the id of each shared tuple to its code."""
    row: dict[tuple[int, ...], Fraction] = {}
    kept = []  # (code, numerator, denominator) of the row's outcomes, in order
    # id(given value) -> (Fraction, numerator, denominator, the value): the value
    # stays referenced, so its id is not given to another
    parsed: dict[int, tuple] = {}
    for outputs, value in given.items():
        code = known.get(id(outputs))
        if code is None:
            out, code = _bit_tuple(outputs, codes)
            if len(out) != n:
                raise ValueError(f"outputs {out} for inputs {inputs} have wrong arity")
        out = bits[code]
        found = parsed.get(id(value))
        if found is None:
            p = exact_fraction(value)
            found = parsed[id(value)] = p, p.numerator, p.denominator, value
        p, num, d, _ = found
        if num < 0:
            raise ValueError(f"negative probability {p} at inputs {inputs}, outputs {out}")
        if num:
            if out in row:
                raise ValueError(f"duplicate outcome {out} for inputs {inputs}")
            row[out] = p
            kept.append((code, num, d))
    den = math.lcm(*{d for _, _, d in kept})
    nums = [num * (den // d) for _, num, d in kept]
    if sum(nums) != den:
        raise ValueError(f"probabilities for inputs {inputs} sum to "
                         f"{sum(row.values(), Fraction(0))}, expected 1")
    return row, (den, tuple(zip([code for code, _, _ in kept], nums)))


class NoSignalBox:
    """Conditional distribution p(outputs | inputs) for n binary parties.

    Rows are stored sparsely: only outcomes with positive probability
    appear.  Probabilities are exact Fractions and every row must sum to
    exactly 1.  Instances are treated as immutable once built; two boxes
    compare equal iff their tables agree entry for entry.

    The box holds one row object per distinct row: a row object given for
    several inputs is checked once, and checked rows with the same items in
    the same order become one shared dict, so ``rows`` may map many inputs
    to one object.  Rows, shared or not, are never modified.  ``row_ids``
    gives each input code (its bits read as a binary number) the index of
    its row in ``integer_rows``, the distinct rows in order of first
    occurrence, each in the exact integer format (denominator, ((outcome
    code, numerator), ...)) over the row's own least common denominator.

    The input and outcome tuples are the shared ones of ``shared_bits(n)``,
    built once per n with the code of each tuple by its id, so a given
    outcome that is a shared tuple is coded by one lookup.  Each input's
    row is looked up once, in one bulk pass, and held while the box is
    built; each given value of a row is parsed once.

    ``form`` records the parity constraint the box was built from, when
    there is one; boxes loaded from explicit tables carry ``form=None``.
    """

    def __init__(self, n: int, rows: Mapping, *, form: BooleanForm | None = None,
                 label: str | None = None):
        if n < 1:
            raise ValueError("a box needs at least one party")
        codes = bit_codes(n)
        bits, known = shared_bits(n)
        given = list(map(rows.get, bits, repeat(_MISSING)))  # by input code
        ids = list(map(id, given))  # the given rows stay referenced
        checked: dict[int, int] = {}  # id(given row) -> row id
        interned: dict[tuple, int] = {}  # integer form -> row id
        distinct: list[dict] = []
        for code, key in enumerate(ids):
            if key not in checked:  # a given row is checked at its first input
                if given[code] is _MISSING:
                    raise ValueError(f"missing row for inputs {bits[code]}")
                row, integer = _checked_row(n, given[code], bits[code], codes, bits, known)
                row_id = checked[key] = interned.setdefault(integer, len(distinct))
                if row_id == len(distinct):
                    distinct.append(row)
        row_ids = list(map(checked.__getitem__, ids))
        table = dict(zip(bits, map(distinct.__getitem__, row_ids)))
        if len(rows) != len(table):
            extra = [key for key in rows if key not in table]
            raise ValueError(f"unexpected input tuples: {extra[:3]}")
        self.n = n
        self.rows = table
        self.row_ids = row_ids
        self.integer_rows: list[tuple[int, tuple]] = list(interned)
        self.form = form
        self.label = label

    @classmethod
    def _made(cls, n: int, rows: dict, row_ids: list[int], integer_rows: list[tuple[int, tuple]],
              *, form: BooleanForm | None, label: str | None) -> NoSignalBox:
        """A box of rows the package made itself, already in the form
        ``__init__`` checks given rows into: nothing is checked again."""
        box = cls.__new__(cls)
        box.n, box.rows, box.row_ids, box.integer_rows = n, rows, row_ids, integer_rows
        box.form, box.label = form, label
        return box

    def prob(self, inputs: Iterable[int], outputs: Iterable[int]) -> Fraction:
        """p(outputs | inputs); zero for outcomes absent from the table."""
        return self.rows[tuple(inputs)].get(tuple(outputs), Fraction(0))

    def __eq__(self, other) -> bool:
        if not isinstance(other, NoSignalBox):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    __hash__ = None

    def __repr__(self) -> str:
        tag = self.label or (self.form.render() if self.form else "table")
        return f"NoSignalBox(n={self.n}, {tag})"


def parity_box(form: BooleanForm, *, label: str | None = None) -> NoSignalBox:
    """Box whose outputs are uniform over {XOR(outputs) == form(inputs)}.

    Every input row has 2**(n-1) equiprobable outcomes of weight
    1/2**(n-1): the outcomes of even parity where the form is 0 and of odd
    parity where it is 1, and the box holds one row object per parity that
    occurs; the construction is a pure function of the form.  The form's
    values on all inputs come from one truth-table pass
    (``BooleanForm.truth_table``, one bulk bit-mask pass per monomial), and
    ``row_ids`` from that table in one C pass, the row of input 0 being row
    0.  The weight, the outcomes and the integer row of each parity come
    from ``parity_outcomes``, built once per n.  The rows are made here in
    the form ``NoSignalBox`` would check them into, so none is checked
    again; each box gets row dicts of its own.
    """
    n = form.n
    if n < 2:
        raise ValueError("parity boxes need at least 2 parties")
    weight, outcomes, integer_rows = parity_outcomes(n)
    truth = form.truth_table()
    first = int(truth[0])
    row_ids = list(truth.encode().translate(_ROW_OF_VALUE[first]))
    parities = (first, 1 - first)[:2 if 1 in row_ids else 1]  # by row id
    rows = [dict.fromkeys(outcomes[parity], weight) for parity in parities]
    return NoSignalBox._made(n, dict(zip(shared_bits(n)[0], map(rows.__getitem__, row_ids))),
                             row_ids, [integer_rows[parity] for parity in parities],
                             form=form, label=label)


class BoxName(str, Enum):
    PR = "pr"
    SVETLICHNY = "svetlichny"
    MERMIN1 = "mermin1"
    MERMIN2 = "mermin2"


NAMED_FORMS: dict[BoxName, BooleanForm] = {
    BoxName.PR: BooleanForm.from_monomials(2, [[0, 1]]),
    BoxName.SVETLICHNY: BooleanForm.from_monomials(3, [[0, 1], [1, 2], [2, 0]]),
    BoxName.MERMIN1: BooleanForm.from_monomials(3, [[0, 1], [0, 2]]),
    BoxName.MERMIN2: BooleanForm.from_monomials(3, [[0, 1, 2]]),
}


def named_box(name: BoxName | str) -> NoSignalBox:
    """One of the built-in parity boxes: pr, svetlichny, mermin1, mermin2."""
    if isinstance(name, str) and not isinstance(name, BoxName):
        try:
            name = BoxName(name.lower())
        except ValueError:
            raise ValueError(f"unknown box name {name!r}; "
                             f"known: {', '.join(b.value for b in BoxName)}") from None
    return parity_box(NAMED_FORMS[name], label=name.value)


def parity_equation(form: BooleanForm) -> str:
    """The defining constraint as text, e.g. ``a ^ b = x.y``."""
    lhs = " ^ ".join(output_names(form.n))
    return f"{lhs} = {form.render(input_names(form.n))}"


def describe_box(box: NoSignalBox) -> str:
    """The first line of each text view of a box."""
    kind = "explicit table" if box.form is None else parity_equation(box.form)
    return f"box {box.label} ({box.n} parties): {kind}"


def render_table(box: NoSignalBox) -> Iterator[str]:
    """The full table as text; the spec payload of a parity box lists no rows."""
    yield describe_box(box)
    yield f"{' '.join(input_names(box.n))} | {' '.join(output_names(box.n))} : p"
    for inputs in sorted(box.rows):
        for outputs in sorted(box.rows[inputs]):
            yield (f"{bit_string(inputs, ' ')} | {bit_string(outputs, ' ')} : "
                   f"{box.rows[inputs][outputs]}")


class SignalingWitness(NamedTuple):
    """Two input tuples agreeing on the coalition but with different marginals."""

    coalition: tuple[int, ...]
    inputs_a: tuple[int, ...]
    inputs_b: tuple[int, ...]
    marginal_a: dict[tuple[int, ...], Fraction]
    marginal_b: dict[tuple[int, ...], Fraction]

    def to_json(self) -> dict:
        """Parties by name, inputs as bit lists, marginals as {"01": "num/den"}."""
        names = party_names(len(self.inputs_a))
        marginal_a, marginal_b = ({bit_string(k): str(v) for k, v in sorted(m.items())}
                                  for m in (self.marginal_a, self.marginal_b))
        return {"coalition": [names[i] for i in self.coalition],
                "inputs_a": list(self.inputs_a), "inputs_b": list(self.inputs_b),
                "marginal_a": marginal_a, "marginal_b": marginal_b}


class NoSignalingVerdict(NamedTuple):
    ok: bool
    witness: SignalingWitness | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_no_signaling(box: NoSignalBox) -> NoSignalingVerdict:
    """Complete no-signaling check: n conditions, then the witness search.

    A box is no-signaling iff, for every proper coalition R and every
    fixing of R's inputs, the marginal of R's outputs does not depend on
    the other parties' inputs.  It suffices to check n conditions: party
    j's input must not move the joint marginal of the other n-1 parties
    (Barrett et al., Phys. Rev. A 71, 022101, 2005).  Proof: for j outside
    R, R's marginal is a marginal of the other n-1 parties' marginal, so
    it does not move with x_j either; changing the outside inputs one at
    a time then leaves it fixed.

    The parties that fail their condition are the signaling set S.  When S
    is empty the box passes.  Otherwise the verdict returns the witness of
    the documented order (coalitions by size then lexicographically,
    coalition inputs, completions, all lexicographic): the lexicographically
    first.  A coalition that contains S passes, by the proof above, and
    only the inputs of S outside R are varied, since no other input moves
    R's marginal: the first completion with a given pattern of those bits
    has all other bits 0, so the witness is the one a scan over every
    completion finds.

    The same argument makes failing monotone: a coalition R that fails for
    sender k still fails when any party other than k joins it.  R's
    marginal moves when the outside inputs change one at a time, so a
    single party k outside R moves it, and k is in S.  For every R' that
    holds R but not k, R's marginal is a marginal of the marginal of R',
    so x_k moves that one too, and every R of at most n-2 parties grows so
    into one of exactly n-2.  So the search starts at the top: it scans
    the coalitions of n-2 parties lexicographically.  When none fails, no
    smaller one does, and the witness's coalition has n-1 parties; the
    first of these in lexicographic order is the complement of the last
    party of S, and its condition has already found the witness.  When one
    fails, the coalitions of 1 to n-3 parties are scanned in the
    documented order, and the failure found at n-2 parties is the witness
    only when none of them fails.  A box whose witness has at most n-3
    parties pays for that probe.

    Each stage compares marginals on the scan's engine, a
    ``CoalitionMarginals`` per coalition: only the inputs compared are
    read, each distinct row is projected at most once per coalition over
    its own denominator, and two inputs differ when their marginals'
    distribution ids do, so no number carries the primes of two rows.  A
    row's distribution id, once known, is read from a list without a call.
    The coalition's input codes, the senders' patterns and where each
    outcome lands in the coalition's outputs are per-shape tables
    (``spread_codes`` and ``projection``), each built once per (party
    count, parties) in the process; no table is keyed by a box, so a
    second verdict of an equal box does its projections again.  The
    witness marginals are decoded from the two rows compared, projected
    once more.
    """
    n = box.n
    signaling = []
    for j in range(n):
        state = CoalitionMarginals(box, tuple(i for i in range(n) if i != j))
        move = state.first_change([j])
        if move:
            signaling.append(j)
            last = state, move  # the condition of the last signaling party
    if not signaling:
        return NoSignalingVerdict(True)
    probe = _first_failure(box, signaling, [n - 2]) if n > 2 else None
    state, move = (_first_failure(box, signaling, range(1, n - 2)) or probe) if probe else last
    inputs = shared_bits(n)[0]
    return NoSignalingVerdict(False, SignalingWitness(
        state.coal, *(inputs[code] for code in move),
        *(decode_bucket(state.marginals[state.marginal(box.row_ids[code])], len(state.coal))
          for code in move)))


def _first_failure(box: NoSignalBox, signaling: list[int], sizes: Iterable[int]
                   ) -> tuple[CoalitionMarginals, tuple[int, int]] | None:
    """The first coalition of these sizes, by size then lexicographically,
    whose marginal a party of ``signaling`` outside it moves: its state and
    the two input codes compared; None when every one passes."""
    for size in sizes:
        for coalition in combinations(range(box.n), size):
            senders = [i for i in signaling if i not in coalition]
            if senders:
                state = CoalitionMarginals(box, coalition)
                move = state.first_change(senders)
                if move:
                    return state, move
    return None


def verify_json(boxes: Iterable[NoSignalBox]) -> dict:
    """The ``verify`` payload: verdicts, CHSH values at n = 2, and witnesses."""
    results = []
    for box in boxes:
        verdict = is_no_signaling(box)
        info = {"box": box.label, "no_signaling": verdict.ok}
        if box.n == 2:
            info["chsh"] = str(chsh_value(box))
        if not verdict.ok:
            info["witness"] = verdict.witness.to_json()
        results.append(info)
    return {"results": results, "ok": all(info["no_signaling"] for info in results)}


def render_verify(payload: dict) -> Iterator[str]:
    for info in payload["results"]:
        if info["no_signaling"]:
            extra = f" (CHSH value {info['chsh']})" if "chsh" in info else ""
            yield f"{info['box']}: no-signaling OK{extra}"
        else:
            w = info["witness"]
            yield (f"{info['box']}: SIGNALING for coalition "
                   f"({', '.join(w['coalition'])}): inputs {w['inputs_a']} "
                   f"vs {w['inputs_b']} give different marginals")


# {bits: code} for the n-bit tuples, the code being the bits read as a binary
# number (the index in all_bit_tuples); one shared dict per n, read only
bit_codes = cache(lambda n: {bits: k for k, bits in enumerate(all_bit_tuples(n))})


@cache
def shared_bits(n: int) -> tuple[tuple[tuple[int, ...], ...], dict[int, int]]:
    """The shared n-bit tuples of ``bit_codes(n)`` by code, and the code of
    each by its id; built once per n and read only."""
    bits = tuple(bit_codes(n))
    return bits, {id(out): code for code, out in enumerate(bits)}


@cache
def parity_outcomes(n: int) -> tuple[Fraction, tuple[tuple, tuple], tuple[tuple, tuple]]:
    """1/2**(n-1), the shared n-bit outcome tuples of even parity and of odd
    parity, each by code, and the integer row of each parity, (2**(n-1),
    ((code, 1), ...)); built once per n and read only."""
    parity = BooleanForm.from_monomials(n, [[i] for i in range(n)]).truth_table()
    bits = shared_bits(n)[0]
    codes = tuple(tuple(code for code, odd in enumerate(parity) if odd == value)
                  for value in "01")
    return (Fraction(1, 2 ** (n - 1)), tuple(tuple(map(bits.__getitem__, c)) for c in codes),
            tuple((2 ** (n - 1), tuple(zip(c, repeat(1)))) for c in codes))


@cache
def spread_codes(n: int, parties: tuple[int, ...]) -> array:
    """``spread(n, parties)``, built once per (n, parties) and read only."""
    return array("H", spread(n, parties))


@cache
def projection(n: int, coal: tuple[int, ...]) -> array:
    """By outcome code, the code of the coalition's bits in the coalition's
    order; built once per (n, coalition) and read only."""
    weight = {i: 1 << k for k, i in enumerate(reversed(coal))}
    project = [0]
    for w in [weight.get(i, 0) for i in reversed(range(n))]:
        project += [v + w for v in project]
    return array("H", project)


class CoalitionMarginals:
    """The marginals of the distinct rows of a ``NoSignalBox`` or a
    ``ConstrainedBox`` on one coalition (a tuple of parties): the engine of
    both the verdict and the signaling scan.  ``project`` is the coalition's
    ``projection``, shared by every box of its party count.  A row (by its
    id in ``row_ids``) is projected when its marginal or, for the verdict,
    its distribution id is first asked for.
    Rows whose marginals have the same denominator, keys and numerators in
    order share one (den, {output code: numerator}), over the row's own
    denominator and keyed in order of first occurrence, the order the scan
    sums floats in.  Marginals equal in lowest terms, in any key order,
    share a distribution id, found only for the rows compared."""

    def __init__(self, box, coal: tuple[int, ...]):
        self.box, self.coal = box, coal
        self.project = projection(box.n, coal)
        self.index_of: list[int | None] = [None] * len(box.integer_rows)  # by row id
        self.dist_of: list[int | None] = [None] * len(box.integer_rows)  # by row id
        self.marginals: list[tuple[int, dict]] = []  # the distinct marginals, by index
        self.indices: dict[tuple, int] = {}  # (den, keys, numerators) -> index
        self.dist_ids: dict[tuple, int] = {}  # (den, keys, numerators), lowest terms -> id

    def projected(self, row_id: int) -> tuple[int, dict]:
        """The row's marginal, (den, {output code: numerator}) over the row's
        denominator, keyed in order of first occurrence."""
        den, row = self.box.integer_rows[row_id]
        project, counts = self.project, {}
        for out, num in row:
            key = project[out]
            counts[key] = counts.get(key, 0) + num
        return den, counts

    def marginal(self, row_id: int) -> int:
        """The index of the row's marginal."""
        index = self.index_of[row_id]
        if index is None:
            den, counts = self.projected(row_id)
            index = self.index_of[row_id] = self.indices.setdefault(
                (den, tuple(counts), tuple(counts.values())), len(self.marginals))
            if index == len(self.marginals):
                self.marginals.append((den, counts))
        return index

    def distribution(self, row_id: int) -> int:
        """The distribution id of the row's marginal; a row with no marginal
        index is projected without one, as the verdict needs only ids."""
        found = self.dist_of[row_id]
        if found is None:
            index = self.index_of[row_id]
            den, counts = self.projected(row_id) if index is None else self.marginals[index]
            keys = sorted(counts)
            nums = tuple(map(counts.__getitem__, keys))
            g = math.gcd(den, *nums)
            if g > 1:
                den, nums = den // g, tuple([num // g for num in nums])
            found = self.dist_of[row_id] = self.dist_ids.setdefault(
                (den, tuple(keys), nums), len(self.dist_ids))
        return found

    def first_change(self, senders: Sequence[int]) -> tuple[int, int] | None:
        """The first pair of input codes, the coalition's inputs then the
        senders' patterns lexicographic, whose marginals are different
        distributions; only the inputs compared are read."""
        ids, known, distribution = self.box.row_ids, self.dist_of, self.distribution
        patterns = spread_codes(self.box.n, tuple(senders))[1:]
        for base in spread_codes(self.box.n, self.coal):
            a = ids[base]
            for pattern in patterns:
                b = ids[base | pattern]
                if a != b:
                    dist_a, dist_b = known[a], known[b]
                    if dist_a is None:
                        dist_a = distribution(a)
                    if dist_b is None:
                        dist_b = distribution(b)
                    if dist_a != dist_b:
                        return base, base | pattern


def decode_bucket(bucket: tuple[int, dict], width: int) -> dict[tuple, Fraction]:
    """A bucket keyed by ``width``-bit codes as {bits: Fraction}."""
    keys = shared_bits(width)[0]
    return {keys[k]: Fraction(v, bucket[0]) for k, v in bucket[1].items()}


def spread(n: int, parties: Sequence[int]) -> list[int]:
    """Input codes with bits only at ``parties``, lexicographic in those bits."""
    codes = [0]
    for i in reversed(parties):  # the first party's bit ends up the most significant
        bit = 1 << (n - 1 - i)
        codes += [c | bit for c in codes]
    return codes


def chsh_value(box: NoSignalBox) -> Fraction:
    """E(0,0) + E(0,1) + E(1,0) - E(1,1) for a two-party box.

    E(x,y) is the parity correlator sum_{a,b} (-1)^(a^b) p(a,b|x,y).
    Classical strategies reach 2 (CHSH_CLASSICAL_BOUND), quantum ones
    2*sqrt(2) (CHSH_TSIRELSON_BOUND); the pr box reaches 4.
    """
    if box.n != 2:
        raise ValueError("the CHSH functional is defined for 2-party boxes")

    def correlator(x: int, y: int) -> Fraction:
        total = Fraction(0)
        for (a, b), p in box.rows[(x, y)].items():
            total += p if (a ^ b) == 0 else -p
        return total

    return (correlator(0, 0) + correlator(0, 1)
            + correlator(1, 0) - correlator(1, 1))


class BoxSpecError(ValueError):
    """Raised when a box spec document fails validation."""


def box_to_spec(box: NoSignalBox) -> dict:
    """JSON-ready spec: a constraint spec for parity boxes, else a table spec.

    Probabilities are serialized as "num/den" strings to stay exact.
    """
    if box.form is not None:
        return {"parties": box.n,
                "constraint": [list(m) for m in box.form.sorted_monomials()]}
    rendered: dict[int, list] = {}  # row id -> its sorted outcomes, p as "num/den"
    entries = []
    for (inputs, row), row_id in zip(box.rows.items(), box.row_ids):  # sorted inputs
        if row_id not in rendered:
            rendered[row_id] = [(outputs, str(row[outputs])) for outputs in sorted(row)]
        entries += [{"in": list(inputs), "out": list(outputs), "p": p}
                    for outputs, p in rendered[row_id]]
    return {"parties": box.n, "table": entries}


_get_in, _get_out, _get_p = itemgetter("in"), itemgetter("out"), itemgetter("p")


def _bulk_rows(entries: list, codes: Mapping, bits: list) -> dict | None:
    """The rows of a table of plain JSON entries, by input tuple, checked and
    filled in bulk passes (see ``box_from_spec``); None when a check fails or
    an entry is of another kind."""
    try:
        if ({*map(type, entries)} != {dict}
                or {*map(type, chain(map(_get_in, entries), map(_get_out, entries)))} != {list}
                # the sum of bits is an int only when every bit is an int or a bool;
                # a float bit beside an int too large for a float overflows
                or type(sum(chain.from_iterable(chain(map(_get_in, entries),
                                                      map(_get_out, entries))))) is not int
                or not {*map(type, map(_get_p, entries))} <= {str, int}):
            return None
        ins = list(map(codes.get, map(tuple, map(_get_in, entries))))
        outs = list(map(codes.get, map(tuple, map(_get_out, entries))))
        # in order of first occurrence, so that the rows read them in the order made
        parsed = {p: exact_fraction(p) for p in dict.fromkeys(map(_get_p, entries))}
    except (ArithmeticError, KeyError, TypeError, ValueError):
        return None
    if None in ins or None in outs:  # a bit other than 0 or 1, or a wrong arity
        return None
    rows: list[dict] = [{} for _ in bits]  # by input code
    for row, out, p in zip(map(rows.__getitem__, ins), map(bits.__getitem__, outs),
                           map(parsed.__getitem__, map(_get_p, entries))):
        row[out] = p  # out is the shared tuple, as in _entry_rows
    if sum(map(len, rows)) != len(entries):  # an outcome given twice
        return None
    return dict(zip(bits, rows))


def _entry_rows(entries: list, parties: int, codes: Mapping, bits: list) -> dict:
    """The rows of a table spec's entries, checked entry by entry: the first
    failing entry raises its BoxSpecError."""
    rows: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {
        inputs: {} for inputs in bits}
    parsed: dict = {}  # each distinct 'num/den' string or int, parsed once

    def probability(value) -> Fraction:
        if type(value) is not str and type(value) is not int:
            return exact_fraction(value)
        if value not in parsed:
            parsed[value] = exact_fraction(value)
        return parsed[value]

    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise BoxSpecError(f"table[{k}]: entry must be an object")
        try:
            inputs, _ = _bit_tuple(entry["in"], codes)
            outputs, code = _bit_tuple(entry["out"], codes)
            p = probability(entry["p"])
        except KeyError as err:
            raise BoxSpecError(f"table[{k}]: missing field {err}") from err
        except (ValueError, TypeError) as err:
            raise BoxSpecError(f"table[{k}]: {err}") from err
        if len(inputs) != parties or len(outputs) != parties:
            raise BoxSpecError(f"table[{k}]: 'in' and 'out' must have {parties} bits")
        if outputs in rows[inputs]:
            raise BoxSpecError(f"table[{k}]: duplicate entry for {inputs} -> {outputs}")
        rows[inputs][bits[code]] = p  # the shared tuple: NoSignalBox checks its bits by id
    return rows


def box_from_spec(data, *, label: str | None = None) -> NoSignalBox:
    """Build a validated box from a spec dict (see ``box_to_spec``).

    A table is checked in bulk passes over all its entries: each is an
    object with 'in' and 'out' lists of n int or bool bits and an exact
    'p' string or integer, each distinct p is parsed once, and no outcome
    is given twice for one input.  Only when a bulk check fails, or an
    entry is of another kind (a dict subclass, a tuple of bits, a
    ``Fraction``), is each entry checked in turn, which raises the first
    failing entry's error or loads the other kinds.  Rows given with the
    same entry sequence, the same outputs with the same p in the same
    order, become one row object, so ``NoSignalBox`` checks each of them
    once; a row given in another entry order stays a row of its own.  An
    error names the first failing entry, or the first input whose row
    fails, as if every row were checked.
    """
    if not isinstance(data, dict):
        raise BoxSpecError("box spec must be a JSON object")
    parties = data.get("parties")
    if (not isinstance(parties, int) or isinstance(parties, bool)
            or not 1 <= parties <= MAX_PARTIES):
        raise BoxSpecError(
            f"field 'parties' must be an integer from 1 to {MAX_PARTIES}")
    has_constraint = "constraint" in data
    has_table = "table" in data
    if has_constraint == has_table:
        raise BoxSpecError("box spec needs exactly one of 'constraint' or 'table'")
    if has_constraint:
        monomials = data["constraint"]
        if not isinstance(monomials, list):
            raise BoxSpecError("field 'constraint' must be a list of index lists")
        for k, mono in enumerate(monomials):
            if not isinstance(mono, list) or not all(
                    isinstance(i, int) and not isinstance(i, bool) for i in mono):
                raise BoxSpecError(f"constraint[{k}] must be a list of party indices")
        try:
            form = BooleanForm.from_monomials(parties, monomials)
            return parity_box(form, label=label)
        except ValueError as err:
            raise BoxSpecError(f"constraint: {err}") from err
    entries = data["table"]
    if not isinstance(entries, list):
        raise BoxSpecError("field 'table' must be a list of entries")
    codes = bit_codes(parties)
    bits = list(codes)
    rows = _bulk_rows(entries, codes, bits)
    if rows is None:
        rows = _entry_rows(entries, parties, codes, bits)
    # rows with the same outputs and p objects in the same order become one
    # object, which NoSignalBox checks once; the ids are of live objects
    first: dict[tuple, dict] = {}
    rows = {inputs: first.setdefault((*map(id, row), *map(id, row.values())), row)
            for inputs, row in rows.items()}
    try:
        return NoSignalBox(parties, rows, label=label)
    except ValueError as err:
        raise BoxSpecError(f"table: {err}") from err
