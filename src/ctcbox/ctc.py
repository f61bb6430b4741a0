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
the box's integer row, and conditioned rows of the same integer form
share a row id.  Like a box, a ``ConstrainedBox`` is its integer rows:
``row_ids`` gives each input code an entry into ``integer_rows``, its
distinct rows in the exact integer format of ``boxes``, each over its
own denominator: every row is divided by its own surviving mass, and a
denominator shared by the table would carry the primes of every row's
mass in every numerator.  ``constrain`` builds no Fraction; the rows of
Fractions are built when first read.  A paradox row is (1, ()).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .boxes import (NoSignalBox, describe_box, fraction_rows, printed_rows, shared_bits,
                    spread_codes)
from .forms import (PARTY_NAMES, BooleanForm, bit_string, input_names, normalize_pattern,
                    output_names, party_names)


class ConstrainedRow(NamedTuple):
    """Renormalized outcomes for one input tuple; empty iff paradox."""

    inputs: tuple[int, ...]
    outcomes: dict[tuple[int, ...], Fraction]
    paradox: bool


class ConstrainedBox:
    """A box conditioned on output == input for a set of parties: its integer
    rows, and ``rows`` of ``ConstrainedRow``s built when first read."""

    def __init__(self, box: NoSignalBox, pattern: Iterable[int]):
        self.box = box
        self.n = box.n
        self.pattern = normalize_pattern(box.n, pattern)
        looped = spread_codes(self.n, self.pattern)[-1]  # the code of the looped bits
        # by input code, (box row id, looped bits)
        keys = list(zip(box.row_ids, map(looped.__and__, range(1 << self.n))))
        conditioned: dict[tuple[int, int], int] = {}  # (box row id, looped bits) -> row id
        interned: dict[tuple, int] = {}  # integer form -> row id
        for key in dict.fromkeys(keys):  # in order of first occurrence
            box_row, looped_bits = key
            # the kept numerators, over the box row's denominator
            kept = [(out, num) for out, num in box.integer_rows[box_row][1]
                    if out & looped == looped_bits]
            nums = [num for _, num in kept]
            # over the lcm of the conditioned probabilities' denominators
            common = math.gcd(*nums) or 1
            if common > 1:
                kept = [(out, num // common) for out, num in kept]
            integer = (sum(nums) // common or 1, tuple(kept))  # a paradox row is (1, ())
            conditioned[key] = interned.setdefault(integer, len(interned))
        self.row_ids: list[int] = list(map(conditioned.__getitem__, keys))
        self.integer_rows: list[tuple[int, tuple]] = list(interned)

    @cached_property
    def rows(self) -> dict[tuple[int, ...], ConstrainedRow]:
        outcomes = fraction_rows(self.n, self.integer_rows)
        return {inputs: ConstrainedRow(inputs, outcomes[row_id], not outcomes[row_id])
                for inputs, row_id in zip(shared_bits(self.n)[0], self.row_ids)}

    @property
    def paradox_inputs(self) -> list[tuple[int, ...]]:
        return [inputs for inputs, row_id in zip(shared_bits(self.n)[0], self.row_ids)
                if not self.integer_rows[row_id][1]]

    def prob(self, inputs: Iterable[int], outputs: Iterable[int]) -> Fraction:
        """Conditioned p(outputs | inputs); zero on paradox rows."""
        return self.rows[tuple(inputs)].outcomes.get(tuple(outputs), Fraction(0))

    def deterministic_map(self) -> dict[tuple[int, ...], tuple[int, ...]] | None:
        """inputs -> outputs when every row has exactly one outcome, else None."""
        if any(len(row) != 1 for _, row in self.integer_rows):
            return None
        bits = shared_bits(self.n)[0]
        return {inputs: bits[self.integer_rows[row_id][1][0][0]]
                for inputs, row_id in zip(bits, self.row_ids)}

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
    try:
        for inputs, outcomes in printed_rows(cbox):
            rows.append({"inputs": list(inputs),
                         "outcomes": [{"out": list(out), "p": p} for out, p in outcomes],
                         "paradox": not outcomes})
    except ValueError as err:  # printing the row of the next input
        raise ValueError(f"inputs {shared_bits(cbox.n)[0][len(rows)]}: {err}") from err
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
