"""Signaling measures written from their definitions, as test oracles.

``marginal`` is a box row's marginal on a coalition, summed in Fractions
by ``project_outcomes``; the engine reads marginals through
``boxes.CoalitionMarginals`` instead.

``analyze_setting`` is the entry of one receiver setting, read from that
setting's own inputs alone by ``engine_line``: a paradox row elsewhere
does not matter to it, where ``signaling.analyze`` reads the whole
direction and stops at its first setting that holds one.

The scan computes each entry's rule, success, information and note from
integer buckets (``signaling._Analysis``).  The functions here compute
the two observation distributions of a setting, {outputs: Fraction} for
sender bit 0 and for sender bit 1, by summing rows (``receiver_observation``),
the same measures from those two distributions, and an entry as a report
payload renders it; nothing in ``ctcbox`` calls them.  ``engine_observation``
reads one of the two buckets the engine itself sums, to compare with
``receiver_observation``; it too reads its inputs by ``engine_line``.

``ascending_witness`` is the no-signaling verdict as it ran before the
witness search started at n - 2 parties: after the n conditions it scans
every coalition by size from one party up, in the documented order, and
stops at the first that fails.  It is the reference for
``boxes.is_no_signaling``.

``per_coalition_full_scan`` and ``per_coalition_scan_report`` are the scan
as it ran before coalitions of one size shared their work: sender by
sender, each coalition with a store of its own, made at its first
direction and dropped after its last sender's, and each direction
reported, or failing, as it is read.  They are the reference for
``signaling.full_scan`` and ``signaling.scan_report_json``, which scan one
coalition size at a time.

``xor_bits`` is the parity of a bit tuple, and ``spread`` lists the input
codes with bits at chosen parties, each read from the bits themselves:
the references for the parity of an output code, its count of 1 bits mod
2, and for ``boxes.spread_codes``, built by doubling.
"""

import math
from fractions import Fraction
from itertools import combinations, product

from ctcbox import signaling
from ctcbox.boxes import (CoalitionMarginals, NoSignalingVerdict, SignalingWitness,
                          all_bit_tuples, decode_bucket)
from ctcbox.ctc import head_json
from ctcbox.forms import as_bit, bit_string, normalize_pattern, party_names
from ctcbox.signaling import _Coalition


def xor_bits(bits):
    """The XOR of the bits: 1 iff an odd number of them are 1."""
    out = 0
    for b in bits:
        out ^= b
    return out


def spread(n, parties):
    """The n-bit input codes, party 0's bit the most significant, whose bits
    outside ``parties`` are 0, lexicographic in the bits at ``parties``."""
    return [sum(bit << (n - 1 - i) for i, bit in zip(parties, bits))
            for bits in product((0, 1), repeat=len(parties))]


def marginal(box, coalition, inputs):
    """{coalition's outputs: Fraction}: the box row at full ``inputs``
    summed over the outputs of the parties outside the coalition."""
    coal = normalize_pattern(box.n, coalition)
    if not coal:
        raise ValueError("coalition must be nonempty")
    full = tuple(as_bit(b) for b in inputs)
    if len(full) != box.n:
        raise ValueError(f"expected {box.n} inputs, got {len(full)}")
    return project_outcomes(box.rows[full].items(), coal)


def project_outcomes(outcomes, coalition):
    """Sum (outputs, p) pairs over the outputs of parties outside ``coalition``."""
    probs = {}
    for outputs, p in outcomes:
        key = tuple(outputs[i] for i in coalition)
        probs[key] = probs.get(key, Fraction(0)) + p
    return probs


def ascending_witness(box):
    """``is_no_signaling(box)`` by an ascending search: the n conditions,
    then every coalition by size then lexicographically, skipping those
    that hold every signaling party, until one fails."""
    n = box.n
    signaling_ = [j for j in range(n) if CoalitionMarginals(
        box, tuple(i for i in range(n) if i != j)).first_change([j])]
    if not signaling_:
        return NoSignalingVerdict(True)
    for size in range(1, n):
        for coalition in combinations(range(n), size):
            senders = [i for i in signaling_ if i not in coalition]
            if not senders:
                continue
            state = CoalitionMarginals(box, coalition)
            move = state.first_change(senders)
            if move:
                inputs = list(box.rows)
                return NoSignalingVerdict(False, SignalingWitness(
                    coalition, *(inputs[code] for code in move),
                    *(decode_bucket(state.marginals[state.marginal(box.row_ids[code])], size)
                      for code in move)))
    raise AssertionError("a signaling party leaves a witness")


def receiver_observation(cbox, sender, coalition, setting, sender_value):
    """The coalition's outputs for one sender input value, summed outcome by
    outcome in Fractions: the coalition's inputs pinned to ``setting``, the
    bystanders' in lexicographic order, each row weighted 1/2^bystanders.
    Raises at the first paradox row averaged, where observation is undefined."""
    n = cbox.n
    bystanders = [i for i in range(n) if i != sender and i not in coalition]
    weight = Fraction(1, 2 ** len(bystanders))
    probs = {}
    for extra in all_bit_tuples(len(bystanders)):
        full = [0] * n
        for i, bit in zip((sender, *coalition, *bystanders),
                          (sender_value, *setting, *extra)):
            full[i] = bit
        row = cbox.rows[tuple(full)]
        if row.paradox:
            raise ValueError(f"observation undefined: paradox row at inputs {tuple(full)}")
        for out, p in row.outcomes.items():
            key = tuple(out[i] for i in coalition)
            probs[key] = probs.get(key, Fraction(0)) + weight * p
    return probs


def engine_line(shared, inputs):
    """The marginal indices of these input codes, read from their rows
    only; raises at the first paradox row."""
    ids = shared.box.row_ids
    line = tuple([shared.marginal(ids[code]) for code in inputs])
    if shared.paradox in line:
        raise ValueError("observation undefined: paradox row at inputs "
                         f"{list(shared.box.rows)[inputs[line.index(shared.paradox)]]}")
    return line


def analyze_setting(cbox, sender, coalition, setting):
    """The entry of one receiver setting.  Raises when one of the rows it
    averages is a paradox row; paradox rows elsewhere do not matter."""
    sender, coal = signaling._check_scenario(cbox, sender, coalition)
    setting = tuple(as_bit(b) for b in setting)
    if len(setting) != len(coal):
        raise ValueError("setting must give one bit per coalition party")
    shared = _Coalition(cbox, coal)
    line = engine_line(shared, shared.inputs(shared.codes[setting], sender))
    # _entries pairs a direction's analyses with its settings in order
    (entry,) = signaling._entries(sender, coal, shared.impractical, [shared.analysis_of(line)])
    return entry._replace(setting=setting)


def engine_observation(cbox, sender, coalition, setting, sender_value):
    """The engine's bucket of one sender input value as {outputs: Fraction},
    read from that value's rows alone; raises at the first paradox row."""
    shared = _Coalition(cbox, tuple(coalition))
    inputs = shared.inputs(shared.codes[tuple(setting)], sender)
    half = len(inputs) // 2
    line = engine_line(shared, inputs[half:] if sender_value else inputs[:half])
    den, outs, nums = shared.store.buckets[shared.bucket(line)]
    return decode_bucket((den, dict(zip(outs, nums))), len(shared.coal))


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


def information_by_outputs(p0, p1):
    """The same information as a sum over outcomes of (p + q) / 2 times
    1 - h(p / (p + q)), p and q the outcome's two probabilities and h the
    binary entropy: terms that are all >= 0, in sorted outcome order.  Each
    float is taken from an exact Fraction, and 1 - h from its series form
    (x atanh x + log1p(-x^2) / 2) / ln 2 at x = (p - q) / (p + q) for
    |x| <= 1/2, else from the smaller share s < 1/4 as
    1 + (s ln s + (1 - s) log1p(-s)) / ln 2."""
    total = 0.0
    for out in sorted(set(p0) | set(p1)):
        p, q = Fraction(p0.get(out, 0)), Fraction(p1.get(out, 0))
        if not p or not q:
            gain = 1.0
        elif abs(x := float((p - q) / (p + q))) <= 0.5:
            gain = (x * math.atanh(x) + math.log1p(-x * x) / 2) / math.log(2)
        else:
            share = float(min(p, q) / (p + q))
            gain = 1 + ((share * math.log(share) if share else 0.0)
                        + (1 - share) * math.log1p(-share)) / math.log(2)
        total += float((p + q) / 2) * gain
    return total


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


def per_coalition_scan(cbox):
    """Each direction's sender and coalition state, by sender, then
    coalition size, then coalition indices; a coalition's state keeps its
    own store from its first direction to its last sender's."""
    n = cbox.n
    begun = {}  # coalitions begun, not done
    for sender in range(n):
        others = [i for i in range(n) if i != sender]
        for size in range(1, n):
            for coalition in combinations(others, size):
                shared = begun.get(coalition)
                if shared is None:
                    shared = begun[coalition] = _Coalition(cbox, coalition)
                yield sender, shared
                if sender == shared.others[-1]:
                    del begun[coalition]


def per_coalition_full_scan(cbox):
    """``full_scan``'s directions, each analysed as it is read."""
    for sender, shared in per_coalition_scan(cbox):
        yield sender, shared.coal, signaling._entries(
            sender, shared.coal, shared.impractical, signaling._analyse_direction(shared, sender))


def per_coalition_scan_report(box_label, cbox):
    """``scan_report_json``'s payload, each direction reported as it is read."""
    names = party_names(cbox.n)
    reports = [signaling._direction_json(names, sender, shared.coal, shared.impractical,
                                         signaling._analysed(shared, sender, names))
               for sender, shared in per_coalition_scan(cbox)]
    overall = {key: sum(r["summary"][key] for r in reports) for key in
               ("settings", "dependent_settings", "cases", "dependent_cases")}
    overall["directions"] = len(reports)
    overall["dependent_directions"] = sum(r["summary"]["dependent_settings"] > 0
                                          for r in reports)
    return {**head_json(box_label, cbox.n, cbox.pattern), "reports": reports,
            "summary": overall}
