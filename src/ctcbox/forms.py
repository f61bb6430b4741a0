"""Multilinear GF(2) forms over party input bits.

A form is an XOR of AND-monomials, each monomial a set of party indices.
These forms are the right-hand sides of the parity constraints that define
the correlation boxes in this package: XOR of all outputs == form(inputs).
"""

from __future__ import annotations

import operator
from functools import cache
from typing import Iterable, NamedTuple, Sequence

INPUT_NAMES = ("x", "y", "z")
OUTPUT_NAMES = ("a", "b", "c")
PARTY_NAMES = ("alice", "bob", "charlie")


def as_bit(value: int) -> int:
    """Check that ``value`` is 0 or 1 and return it as a plain int."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int) and value in (0, 1):
        return value
    raise ValueError(f"expected a bit (0 or 1), got {value!r}")


def bit_string(bits: Iterable[int], sep: str = "") -> str:
    """Bits as text: "01" keys an outcome in a payload, "0 1" (sep=" ") prints."""
    return sep.join(map(str, bits))


def _labels(short: tuple[str, ...], prefix: str, n: int) -> tuple[str, ...]:
    if n <= len(short):
        return short[:n]
    return tuple(f"{prefix}{i}" for i in range(n))


def input_names(n: int) -> tuple[str, ...]:
    """Input symbols for an n-party box (x, y, z up to three parties)."""
    return _labels(INPUT_NAMES, "x", n)


def output_names(n: int) -> tuple[str, ...]:
    """Output symbols for an n-party box (a, b, c up to three parties)."""
    return _labels(OUTPUT_NAMES, "a", n)


def normalize_pattern(n: int, pattern: Iterable[int]) -> tuple[int, ...]:
    """Sorted, deduplicated party indices, validated against n.

    Indices must be integers: a float such as 0.9 or 1.0, a string or a
    bool raises rather than being truncated or taken as 0 or 1.
    """
    pat = tuple(sorted({as_index(i, "party index") for i in pattern}))
    for i in pat:
        if not 0 <= i < n:
            raise ValueError(f"party index {i} out of range for {n} parties")
    return pat


def as_index(value, what: str) -> int:
    """``value`` as a plain int by ``operator.index``; a bool is not one."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} {value!r} is not an integer")


def party_names(n: int) -> tuple[str, ...]:
    """Party labels (alice, bob, charlie up to three parties)."""
    return _labels(PARTY_NAMES, "party", n)


@cache
def party_masks(n: int) -> tuple[int, tuple[int, ...]]:
    """The integer with bit k set for every n-bit input code k, and by party
    the integer whose bit k is set iff code k has a 1 at that party (party
    0's bit the most significant); built once per n."""
    codes = 1 << n
    return (1 << codes) - 1, tuple(int(("1" * w + "0" * w) * (codes // (2 * w)), 2)
                                   for w in (1 << (n - 1 - i) for i in range(n)))


class _Form(NamedTuple):
    n: int
    monomials: frozenset[frozenset[int]]


class BooleanForm(_Form):
    """Multilinear polynomial over GF(2) in ``n`` input bits.

    ``monomials`` holds frozensets of party indices; each one is an AND
    monomial and the polynomial is their XOR.  The empty monomial is the
    constant 1, and an empty monomial set is the constant 0.  A form is
    the tuple (n, monomials): immutable, and equal and hashed as that tuple.

    >>> f = BooleanForm.from_monomials(2, [[0, 1]])   # x.y
    >>> [f.evaluate(bits) for bits in ((0, 0), (0, 1), (1, 0), (1, 1))]
    [0, 0, 0, 1]
    """

    __slots__ = ()

    def __new__(cls, n: int, monomials: frozenset[frozenset[int]]) -> "BooleanForm":
        if n < 1:
            raise ValueError("a form needs at least one party")
        for mono in monomials:
            normalize_pattern(n, mono)
        return super().__new__(cls, n, monomials)

    @classmethod
    def from_monomials(cls, n: int, monomials: Iterable[Iterable[int]]) -> "BooleanForm":
        """Build a form from monomial index lists, cancelling repeats mod 2."""
        acc: set[frozenset[int]] = set()
        for mono in monomials:
            acc ^= {frozenset(normalize_pattern(n, mono))}
        return cls(n, frozenset(acc))

    @classmethod
    def variable(cls, n: int, index: int) -> "BooleanForm":
        return cls(n, frozenset({frozenset({index})}))

    def __xor__(self, other: "BooleanForm") -> "BooleanForm":
        if self.n != other.n:
            raise ValueError("cannot combine forms over different party counts")
        return BooleanForm(self.n, self.monomials ^ other.monomials)

    def evaluate(self, inputs: Sequence[int]) -> int:
        """The form's value on a full tuple of input bits."""
        n, monomials = self
        if len(inputs) != n:
            raise ValueError(f"form expects {n} inputs, got {len(inputs)}")
        bits = tuple(as_bit(b) for b in inputs)
        value = 0
        for mono in monomials:
            term = 1
            for index in mono:
                term &= bits[index]
            value ^= term
        return value

    def truth_table(self) -> str:
        """The form's value on every input code, the code being the input bits
        read as a binary number (party 0's bit the most significant), as the
        characters "0" and "1" in code order.

        Each monomial is one bulk pass over the codes: the AND of its
        parties' ``party_masks``, an integer whose bit k is set iff code k
        has a 1 at each of them; the form is the XOR of these integers.

        >>> BooleanForm.from_monomials(2, [[0, 1]]).truth_table()
        '0001'
        """
        n, monomials = self
        every, masks = party_masks(n)
        table = 0
        for mono in monomials:
            term = every
            for index in mono:
                term &= masks[index]
            table ^= term
        return format(table, f"0{1 << n}b")[::-1]

    def sorted_monomials(self) -> list[tuple[int, ...]]:
        """Monomials in canonical order: by degree, then by indices."""
        return sorted((tuple(sorted(m)) for m in self.monomials),
                      key=lambda m: (len(m), m))

    def render(self, names: Sequence[str] | None = None) -> str:
        """Readable rendering such as ``x.y ^ x.z`` (``^`` is XOR, ``.`` AND)."""
        if names is None:
            names = input_names(self.n)
        terms = []
        for mono in sorted(self.monomials, key=lambda m: (-len(m), tuple(sorted(m)))):
            terms.append(".".join(names[i] for i in sorted(mono)) if mono else "1")
        return " ^ ".join(terms) if terms else "0"

    def __str__(self) -> str:
        return self.render()

