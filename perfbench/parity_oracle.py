"""Reference signaling verdicts for looped parity boxes, in pure Python.

Written from the mathematics, not from ctcbox, so a check against it is
not the program compared with itself.  It imports no numpy, so the
classical workloads measure ctcbox's own imports and memory.

Condition a mixture of parity boxes sum_k w_k B(f_k) on one party i
reproducing its input.  Every row keeps half its mass in every
component, so the result is the same mixture of conditioned components.
Party i's output is its input; the free parties F see a uniform outcome
with XOR equal to f_k(x) ^ x_i in component k.  A receiver coalition R
therefore learns nothing unless F is inside R, and then only the
parity, which is 1 with probability Q(x) = sum_k w_k (f_k(x) ^ x_i).
With sender s the bystanders are the parties outside R and s; averaging
Q over them gives q_b for sender bit b.  The setting is dependent iff
q_0 != q_1, and the best guessing rule succeeds with probability
1/2 + |q_0 - q_1| / 2.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product


def form_value(monomials, bits) -> int:
    """XOR over monomials of the AND of the indexed bits."""
    value = 0
    for mono in monomials:
        value ^= all(bits[i] for i in mono)
    return value


def expected_scan(n: int, components, looped: int) -> list:
    """Per direction (sender, coalition, [(dependent, success), ...]).

    ``components`` is a list of (weight, monomials) with weights summing
    to 1.  Directions and settings are in the order ctcbox scans them:
    sender, coalition size, coalition indices, then settings
    lexicographically.
    """
    free = {p for p in range(n) if p != looped}

    def parity_one(bits) -> Fraction:
        return sum((w for w, monos in components
                    if form_value(monos, bits) ^ bits[looped]), Fraction(0))

    out = []
    for sender in range(n):
        others = [p for p in range(n) if p != sender]
        for size in range(1, n):
            for coal in combinations(others, size):
                bystanders = [p for p in others if p not in coal]
                entries = []
                for setting in product((0, 1), repeat=size):
                    if not free <= set(coal):
                        entries.append((False, Fraction(1, 2)))
                        continue
                    q = []
                    for b in (0, 1):
                        total = Fraction(0)
                        for extra in product((0, 1), repeat=len(bystanders)):
                            bits = [0] * n
                            bits[sender] = b
                            for p, v in zip(coal, setting):
                                bits[p] = v
                            for p, v in zip(bystanders, extra):
                                bits[p] = v
                            total += parity_one(bits)
                        q.append(total / 2 ** len(bystanders))
                    entries.append((q[0] != q[1],
                                    Fraction(1, 2) + abs(q[0] - q[1]) / 2))
                out.append((sender, coal, entries))
    return out


def paradox_rows(n: int, monomials) -> int:
    """Rows with no consistent outcome when every party is looped."""
    count = 0
    for bits in product((0, 1), repeat=n):
        if form_value(monomials, bits) != sum(bits) % 2:
            count += 1
    return count
