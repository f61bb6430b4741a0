"""Self-consistency constraints on box parties.

A constrained party's output is fed back as its own input, so only the
outcomes with ``output[i] == input[i]`` for every constrained party i
survive.  Each input row is conditioned on that event and renormalized
in integers: p_i = n_i / L over the lcm L of the row's denominators
becomes Fraction(n_i, sum of the kept n_j).  A row that keeps nothing is
a paradox row: the box admits no self-consistent outcome there.  Paradox
rows are kept as explicit data rather than raised as errors, since which
rows they are is exactly what the analysis downstream needs.

For a parity box with constraint XOR(outputs) = f(inputs), substituting
the forced bits turns each surviving row into the induced relation

    XOR(unconstrained outputs) = f(inputs) ^ XOR(constrained inputs)

which `induced_parity_form` computes symbolically; the table built by
`constrain` realizes the same relation outcome by outcome.

A conditioned row depends only on the box's row and the looped input
bits, so each distinct (row, looped bits) pair is conditioned once, from
the box's integer row, and conditioned rows with the same items in the
same order are one shared object.  Each probability is one Fraction per
``constrain``, and the row ids and the per-input ``ConstrainedRow``s are
made in bulk passes over the input codes.  Like a box, a
``ConstrainedBox`` gives each input code a ``row_ids`` entry into
``integer_rows``, its distinct rows in the exact integer format of
``boxes`` for the signaling scan, each over its own denominator: every
row is divided by its own surviving mass, and a denominator shared by
the table would carry the primes of every row's mass in every
numerator.  A paradox row is (1, ()).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

from .boxes import NoSignalBox, describe_box, shared_bits, spread_codes
from .forms import (PARTY_NAMES, BooleanForm, bit_string, input_names, normalize_pattern,
                    output_names, party_names)


class ConstrainedRow(NamedTuple):
    """Renormalized outcomes for one input tuple; empty iff paradox."""

    inputs: tuple[int, ...]
    outcomes: dict[tuple[int, ...], Fraction]
    paradox: bool


class ConstrainedBox:
    """A box conditioned on output == input for a set of parties."""

    def __init__(self, box: NoSignalBox, pattern: Iterable[int]):
        self.box = box
        self.n = box.n
        self.pattern = normalize_pattern(box.n, pattern)
        bits = shared_bits(self.n)[0]  # the input and outcome tuples, by code
        looped = spread_codes(self.n, self.pattern)[-1]  # the code of the looped bits
        # by input code, (box row id, looped bits)
        keys = list(zip(box.row_ids, map(looped.__and__, range(len(bits)))))
        conditioned: dict[tuple[int, int], int] = {}  # (box row id, looped bits) -> row id
        interned: dict[tuple, int] = {}  # integer form -> row id
        outcomes: list[dict] = []
        fractions: dict[tuple[int, int], Fraction] = {}  # (numerator, denominator) -> p
        for key in dict.fromkeys(keys):  # in order of first occurrence
            box_row, looped_bits = key
            # the kept numerators, over the box row's denominator
            kept = [(out, num) for out, num in box.integer_rows[box_row][1]
                    if out & looped == looped_bits]
            nums = [num for _, num in kept]
            # over the lcm of the conditioned Fractions' denominators
            common = math.gcd(*nums) or 1
            if common > 1:
                kept = [(out, num // common) for out, num in kept]
            integer = (sum(nums) // common or 1, tuple(kept))  # a paradox row is (1, ())
            row_id = conditioned[key] = interned.setdefault(integer, len(outcomes))
            if row_id == len(outcomes):
                den = integer[0]
                for num in {num for _, num in kept}:
                    if (num, den) not in fractions:
                        fractions[num, den] = Fraction(num, den)
                outcomes.append({bits[out]: fractions[num, den] for out, num in kept})
        self.row_ids: list[int] = list(map(conditioned.__getitem__, keys))
        paradox = [not row for row in outcomes]  # by row id
        # tuple.__new__ is how ConstrainedRow._make builds a row, here without a
        # Python call per input
        self.rows: dict[tuple[int, ...], ConstrainedRow] = dict(zip(bits, map(
            tuple.__new__, repeat(ConstrainedRow),
            zip(bits, map(outcomes.__getitem__, self.row_ids),
                map(paradox.__getitem__, self.row_ids)))))
        self.integer_rows: list[tuple[int, tuple]] = list(interned)

    @property
    def paradox_inputs(self) -> list[tuple[int, ...]]:
        return [inputs for inputs in sorted(self.rows)
                if self.rows[inputs].paradox]

    def prob(self, inputs: Iterable[int], outputs: Iterable[int]) -> Fraction:
        """Conditioned p(outputs | inputs); zero on paradox rows."""
        return self.rows[tuple(inputs)].outcomes.get(tuple(outputs), Fraction(0))

    def deterministic_map(self) -> dict[tuple[int, ...], tuple[int, ...]] | None:
        """inputs -> outputs when every row has exactly one outcome, else None."""
        mapping = {}
        for inputs in sorted(self.rows):
            row = self.rows[inputs]
            if row.paradox or len(row.outcomes) != 1:
                return None
            (out,) = row.outcomes
            mapping[inputs] = out
        return mapping

    def __repr__(self) -> str:
        return (f"ConstrainedBox({self.box!r}, pattern={self.pattern}, "
                f"paradoxes={len(self.paradox_inputs)})")


def constrain(box: NoSignalBox, pattern: Iterable[int]) -> ConstrainedBox:
    """Condition `box` on self-consistency for the given parties."""
    return ConstrainedBox(box, pattern)


def induced_parity_form(form: BooleanForm, pattern: Iterable[int]) -> BooleanForm:
    """Relation on the unconstrained outputs after forcing output == input.

    Returns g with XOR(unconstrained outputs) = g(inputs), namely
    f ^ x_i for each constrained party i.  When every party is
    constrained the left side is empty, so g(inputs) = 0 is the row's
    consistency condition and g(inputs) = 1 marks a paradox row.
    """
    pat = normalize_pattern(form.n, pattern)
    g = form
    for i in pat:
        g = g ^ BooleanForm.variable(form.n, i)
    return g


def constrained_to_json(cbox: ConstrainedBox) -> list[dict]:
    """Rows as JSON-ready dicts with exact "num/den" probability strings.

    str() refuses an integer longer than sys.get_int_max_str_digits(); the
    error then names the row's inputs.
    """
    rows = []
    for inputs, row in sorted(cbox.rows.items()):
        try:
            outcomes = [{"out": list(outcome), "p": str(p)}
                        for outcome, p in sorted(row.outcomes.items())]
        except ValueError as err:
            raise ValueError(f"inputs {inputs}: {err}") from err
        rows.append({"inputs": list(inputs), "outcomes": outcomes,
                     "paradox": row.paradox})
    return rows


def head_json(label: str | None, n: int, pattern: Iterable[int]) -> dict:
    """The {"box", "ctc"} head of each payload about a box under a pattern."""
    names = party_names(n)
    return {"box": label, "ctc": [names[i] for i in pattern]}


def show_json(cbox: ConstrainedBox) -> dict:
    """The ``show --ctc`` payload: the head, then ``constrained_to_json``."""
    return {**head_json(cbox.box.label, cbox.n, cbox.pattern),
            "rows": constrained_to_json(cbox)}


def render_head(box: NoSignalBox, payload: dict) -> Iterator[str]:
    """The box, then the looped parties of the payload's head ("none" if none)."""
    yield describe_box(box)
    yield f"self-consistent parties: {', '.join(payload['ctc']) or 'none'}"


def render_constrained(box: NoSignalBox, payload: dict) -> Iterator[str]:
    yield from render_head(box, payload)
    in_syms = input_names(box.n)
    outs = " ".join(output_names(box.n))
    for row in payload["rows"]:
        left = " ".join(f"{nm}={b}" for nm, b in zip(in_syms, row["inputs"]))
        if row["paradox"]:
            yield f"{left} : PARADOX (no self-consistent outcome)"
            continue
        parts = [f"({outs})=({bit_string(o['out'], ' ')}) w.p. {o['p']}"
                 for o in row["outcomes"]]
        yield f"{left} : {'; '.join(parts)}"


def parse_pattern(n: int, spec: Iterable) -> tuple[int, ...]:
    """Pattern from party names or indices ('alice', 1, 'party3', ...).

    alice, bob and charlie always name parties 0-2; every label that
    ``party_names(n)`` prints (party0, party1, ... above three parties)
    names its party too.
    """
    known = {name: i for names in (PARTY_NAMES, party_names(n))
             for i, name in enumerate(names)}

    def index(item):
        if not isinstance(item, str):
            return item  # normalize_pattern rejects anything but an integer
        name = item.strip().lower()
        if name in known:
            return known[name]
        if name.isdecimal():
            return int(name)
        raise ValueError(f"unknown party {item!r}; "
                         f"use an index or one of {', '.join(known)}")
    return normalize_pattern(n, map(index, spec))
