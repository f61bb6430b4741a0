"""Signaling measures written from their definitions, as test oracles.

The scan computes each entry's rule, success, information and note from
integer buckets (``signaling._Analysis``).  The functions here compute
the same measures from the two observation distributions of a setting,
{outputs: Fraction} for sender bit 0 and for sender bit 1, and render an
entry as a report payload does; nothing in ``ctcbox`` calls them.
"""

import math
from fractions import Fraction

from ctcbox.forms import bit_string, party_names, xor_bits


def entropy_bits(dist):
    """Shannon entropy of a distribution in bits; zero entries are ignored."""
    total = 0.0
    for p in dist.values():
        if p > 0:
            x = float(p)
            total -= x * math.log2(x)
    return total


def map_rule(p0, p1):
    """Most-likely sender bit for each observable outcome, ties going to 0."""
    return {out: int(p1.get(out, 0) > p0.get(out, 0))
            for out in sorted(set(p0) | set(p1))}


def rule_success(rule, p0, p1):
    """Exact success of an arbitrary guessing rule; unmapped outcomes guess 0."""
    return Fraction(sum(p for out, p in p0.items() if rule.get(out, 0) == 0)
                    + sum(p for out, p in p1.items() if rule.get(out, 0) == 1)) / 2


def success_probability(p0, p1):
    """Exact success of the best rule for a uniformly random sender bit."""
    return rule_success(map_rule(p0, p1), p0, p1)


def mutual_information_bits(p0, p1):
    """I(sender bit; observation) with a uniform sender bit, in bits."""
    mix = {out: (p0.get(out, 0) + p1.get(out, 0)) / 2 for out in set(p0) | set(p1)}
    return entropy_bits(mix) - (entropy_bits(p0) + entropy_bits(p1)) / 2


def parity_note(p0, p1):
    """The note of an independent setting: set when every outcome that
    either sender bit gives has one parity."""
    parities = {xor_bits(out) for out in set(p0) | set(p1)}
    if len(parities) != 1:
        return None
    (parity,) = parities
    return (f"receiver outputs always satisfy XOR = {parity} here for either "
            f"sender input, so the correlation is fixed by the setting and "
            f"carries no information")


def entry_to_json(entry, n):
    """A ``SignalingEntry`` as an entry of a report payload."""
    names = party_names(n)
    return {"sender": names[entry.sender],
            "coalition": [names[i] for i in entry.coalition],
            "setting": list(entry.setting),
            "dependent": entry.dependent,
            "rule": {bit_string(out): guess for out, guess in sorted(entry.rule.items())},
            "success": str(entry.success),
            "mi_bits": entry.mi_bits,
            "impractical": entry.impractical,
            "note": entry.note}
