"""Detect and quantify signaling created by self-consistency constraints.

The scenario: one party (the sender) encodes a bit in its input choice,
a disjoint coalition of receivers fixes its own inputs (the setting) and
observes only its own outputs.  Inputs of any remaining parties are
averaged uniformly, since the receivers have no access to them.  The
sender's two input values then induce two observation distributions for
each setting; signaling happens exactly when they differ.

Three measures are reported per setting and shown to agree in kind:
an exact distribution comparison (``dependent``), the exact success
probability of the best guessing rule given a uniformly random sender
bit, and the mutual information of the induced channel in bits.  The
best rule picks the sender bit with the larger likelihood for each
observed output tuple, guessing 0 on ties; its success probability
exceeds 1/2 iff the distributions differ iff the information is
positive.

Some settings show perfectly correlated receiver outputs whose shared
parity is fixed by the setting alone.  Such correlations look striking
but carry nothing, because they are identical for both sender inputs;
entries flag this with an explanatory note.  An entry is also flagged
``impractical`` when the coalition overlaps the constrained parties,
since those outputs sit inside a feedback loop and the scenario is not
an ordinary distant-laboratory measurement.

Summaries state dependence counts in both common conventions: per
receiver setting, and per (setting, sender bit) case, which doubles the
totals for a binary sender.

Every observation is the bucket of one (setting, sender bit), summed
from its own 2^b rows for b bystanders: the setting's and the sender's
bits with every bystander pattern, keyed by the coalition's outputs,
over the lcm of their denominators times 2^b.  A direction reads each
input's row id (``ConstrainedBox.row_ids``) once; a single setting reads
only its own.  A bucket is then read as the multiplicities of its
distinct marginals, in order of first occurrence in lexicographic input
order: each distinct row (``ConstrainedBox.integer_rows``, over its own
denominator) is projected onto the coalition, rows with equal marginals
share one, and each marginal is added with its multiplicity.  A
repeated marginal adds no new key, so keys keep the order in which they
first appear row by row, the order in which entropies sum their floats,
and every numerator is the sum it is row by row.
Rule, success and information come from the two buckets of a setting
scaled to one denominator d; Fractions are built only when p0, p1 or a
success probability is returned, and v / d is the same correctly rounded
float as the Fraction it stands for.  They are computed, and the rule
and success rendered, once per distinct pair of d and both buckets'
numerators in key order; each entry owns its rule.
A full scan shares this work among the senders of each coalition: the
marginals, the buckets and the analyses of their pairs are made at the
coalition's first direction and dropped after its last, while each
direction becomes its report before the next is read.
Reading a bucket raises at its first paradox row, so a setting whose
rows are all consistent is observed even when another setting is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .boxes import (NoSignalBox, add_row, all_bit_tuples, bit_codes, common_scale,
                    decode_bucket, projection, spread)
from .ctc import ConstrainedBox, head_json, parse_pattern, render_head
from .forms import (as_bit, bit_string, input_names, normalize_pattern, party_names,
                    xor_bits)


def entropy_bits(dist: Mapping[tuple, Fraction]) -> float:
    """Shannon entropy of a distribution in bits; zero entries are ignored."""
    return _entropy(dist.values(), 1)


def _entropy(masses: Iterable, denominator: int) -> float:
    total = 0.0
    for m in masses:
        if m > 0:
            x = float(m / denominator)
            total -= x * math.log2(x)
    return total


def _check_scenario(cbox: ConstrainedBox, sender: int,
                    coalition: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    (sender,) = normalize_pattern(cbox.n, (sender,))
    coal = normalize_pattern(cbox.n, coalition)
    if not coal:
        raise ValueError("receiver coalition must be nonempty")
    if sender in coal:
        raise ValueError("sender cannot be part of the receiver coalition")
    return sender, coal


class _Coalition:
    """What the directions toward one receiver coalition share, whichever
    party sends: the projection, the marginals, the buckets and the
    analyses of their pairs.

    Rows whose marginals are equal, in denominator and in every numerator
    in the same key order, share one marginal (den, outputs, numerators).
    Every sender's bucket holds 2^b rows for the same b, so a bucket is
    keyed by its distinct marginals' multiplicities in order of first
    occurrence, which fix its denominator, numerators and key order.  A
    pair is looked up by its buckets' identity first, the memo keeping
    both buckets so that no other can take their ids, then by content."""

    def __init__(self, cbox: ConstrainedBox, coal: tuple[int, ...]):
        self.cbox, self.coal = cbox, coal
        self.project = projection(cbox.n, coal)  # outcome code -> coalition's code
        self.keys = all_bit_tuples(len(coal))  # the settings, and the output keys
        self.labels = {out: bit_string(out) for out in self.keys}
        self.impractical = bool(set(coal) & set(cbox.pattern))
        self.marginal_of: dict[int, int] = {}  # row id -> its marginal's index
        self.marginals: list[tuple] = []  # the distinct marginals, by index
        self.indices: dict[tuple, int] = {}  # marginal -> its index
        self.buckets: dict[tuple, tuple[int, dict]] = {}  # multiplicities -> bucket
        self.by_buckets: dict[tuple, tuple] = {}  # bucket ids -> (a, b, analysis)
        self.by_content: dict[tuple, _Analysis] = {}  # scaled pair -> analysis

    def marginal(self, row_id: int) -> int:
        """The index of the row's marginal."""
        den, counts = add_row((1, {}), self.cbox.integer_rows[row_id], self.project)
        marginal = den, tuple(counts), tuple(counts.values())
        index = self.marginal_of[row_id] = self.indices.setdefault(
            marginal, len(self.marginals))
        if index == len(self.marginals):
            self.marginals.append(marginal)
        return index

    def analysis(self, a: tuple[int, dict], b: tuple[int, dict]) -> _Analysis:
        """The analysis of a setting whose sender bits observe ``a`` and ``b``."""
        hit = self.by_buckets.get((id(a), id(b)))
        if hit is not None:
            return hit[2]
        den, p0, p1 = common_scale(a, b)
        # the key order too: the entropies sum their floats in it
        content = den, tuple(p0), tuple(p0.values()), tuple(p1), tuple(p1.values())
        found = self.by_content.get(content)
        if found is None:
            found = self.by_content[content] = _Analysis(den, p0, p1, self)
        self.by_buckets[id(a), id(b)] = a, b, found
        return found


def _observations(shared: _Coalition, sender: int):
    """``read(setting, bit)``: that bucket as (denominator, numerators by
    the code of the coalition's outputs), summed from its own rows."""
    cbox, coal = shared.cbox, shared.coal
    settings, bits = spread(cbox.n, coal), spread(cbox.n, (sender,))
    bystanders = spread(cbox.n, [i for i in range(cbox.n)
                                 if i != sender and i not in coal])
    codes, ids, rows = bit_codes(len(coal)), cbox.row_ids, cbox.integer_rows
    marginal_of, marginals, buckets = shared.marginal_of, shared.marginals, shared.buckets

    def read(setting: tuple[int, ...], bit: int) -> tuple[int, dict]:
        base = settings[codes[setting]] | bits[bit]
        row_ids = tuple([ids[base | pattern] for pattern in bystanders])
        distinct = dict.fromkeys(row_ids)  # in order of first occurrence
        counts: dict[int, int] = {}  # marginal index -> multiplicity
        for row_id in distinct:
            m = marginal_of[row_id] if row_id in marginal_of else shared.marginal(row_id)
            counts[m] = counts.get(m, 0) + row_ids.count(row_id)
        key = (*counts, *counts.values())
        if key in buckets:
            return buckets[key]
        for row_id in distinct:
            if not rows[row_id][1]:
                code = base | bystanders[row_ids.index(row_id)]
                raise ValueError("observation undefined: paradox row at inputs "
                                 f"{list(cbox.rows)[code]}")
        common = math.lcm(*(marginals[m][0] for m in counts))
        bucket: dict[int, int] = {}
        for m, times in counts.items():
            den, outs, nums = marginals[m]
            scale = times * (common // den)
            if not bucket:  # the first marginal: every key is new
                bucket = {out: num * scale for out, num in zip(outs, nums)}
                continue
            for out, num in zip(outs, nums):
                bucket[out] = bucket.get(out, 0) + num * scale
        buckets[key] = common * len(bystanders), bucket
        return buckets[key]
    return read


def _one_setting(cbox: ConstrainedBox, sender: int, coalition: Iterable[int],
                 setting: Iterable[int]) -> tuple:
    """The checked sender, coalition and setting."""
    sender, coal = _check_scenario(cbox, sender, coalition)
    setting = tuple(as_bit(b) for b in setting)
    if len(setting) != len(coal):
        raise ValueError("setting must give one bit per coalition party")
    return sender, coal, setting


def receiver_observation(cbox: ConstrainedBox, sender: int,
                         coalition: Iterable[int], setting: Iterable[int],
                         sender_value: int) -> dict[tuple[int, ...], Fraction]:
    """Distribution of the coalition's outputs for one sender input value.

    The coalition's inputs are pinned to ``setting``; inputs of parties
    outside coalition and sender are averaged uniformly.  Raises when one
    of the rows averaged is a paradox row, where observation statistics
    are undefined; paradox rows elsewhere in the table do not matter.
    """
    sender, coal, setting = _one_setting(cbox, sender, coalition, setting)
    read = _observations(_Coalition(cbox, coal), sender)
    return decode_bucket(read(setting, as_bit(sender_value)), len(coal))


def map_rule(p0: Mapping[tuple, Fraction],
             p1: Mapping[tuple, Fraction]) -> dict[tuple[int, ...], int]:
    """Most-likely sender bit for each observable outcome, ties going to 0."""
    return {out: int(p1.get(out, 0) > p0.get(out, 0))
            for out in sorted(set(p0) | set(p1))}


def success_probability(p0: Mapping[tuple, Fraction],
                        p1: Mapping[tuple, Fraction]) -> Fraction:
    """Exact success of the best rule for a uniformly random sender bit."""
    return rule_success(map_rule(p0, p1), p0, p1)


def rule_success(rule: Mapping[tuple, int], p0: Mapping[tuple, Fraction],
                 p1: Mapping[tuple, Fraction]) -> Fraction:
    """Exact success of an arbitrary guessing rule; unmapped outcomes guess 0."""
    return Fraction(_guessed_mass(rule, p0, p1)) / 2


def _guessed_mass(rule: Mapping[tuple, int], p0: Mapping, p1: Mapping):
    """Mass the rule guesses right, summed over both sender bits."""
    return (sum(p for out, p in p0.items() if rule.get(out, 0) == 0)
            + sum(p for out, p in p1.items() if rule.get(out, 0) == 1))


def mutual_information_bits(p0: Mapping[tuple, Fraction],
                            p1: Mapping[tuple, Fraction]) -> float:
    """I(sender bit; observation) with a uniform sender bit, in bits."""
    return _mutual_information(p0, p1, 1)


def _mutual_information(p0: Mapping, p1: Mapping, denominator: int) -> float:
    # the mixture is summed in the iteration order of this set union
    mix = [p0.get(out, 0) + p1.get(out, 0) for out in set(p0) | set(p1)]
    return (_entropy(mix, 2 * denominator)
            - (_entropy(p0.values(), denominator)
               + _entropy(p1.values(), denominator)) / 2)


def _parity_note(p0: Mapping[tuple, Fraction],
                 p1: Mapping[tuple, Fraction]) -> str | None:
    support = set(p0) | set(p1)
    parities = {xor_bits(out) for out in support}
    if len(parities) != 1:
        return None
    parity = parities.pop()
    return (f"receiver outputs always satisfy XOR = {parity} here for either "
            f"sender input, so the correlation is fixed by the setting and "
            f"carries no information")


@dataclass(frozen=True)
class SignalingEntry:
    """Analysis of one receiver setting for a fixed sender and coalition."""

    sender: int
    coalition: tuple[int, ...]
    setting: tuple[int, ...]
    dependent: bool
    rule: dict[tuple[int, ...], int]
    success: Fraction
    mi_bits: float
    impractical: bool
    note: str | None


class _Analysis:
    """Rule, success, information and note of one distinct bucket pair, the
    rule also by bit strings; ``success_json`` is str(success) once a
    payload has needed it."""

    __slots__ = ("dependent", "rule", "success", "mi_bits", "impractical", "note",
                 "rule_json", "success_json")

    def __init__(self, den: int, p0: dict, p1: dict, shared: _Coalition):
        keys = shared.keys
        p0, p1 = ({keys[k]: v for k, v in p.items()} for p in (p0, p1))
        self.dependent = p0 != p1
        self.rule = map_rule(p0, p1)
        self.success = Fraction(_guessed_mass(self.rule, p0, p1), 2 * den)
        self.mi_bits = _mutual_information(p0, p1, den)
        self.impractical = shared.impractical
        self.note = None if self.dependent else _parity_note(p0, p1)
        self.rule_json = {shared.labels[out]: guess for out, guess in self.rule.items()}
        self.success_json: str | None = None


def _analyse_direction(shared: _Coalition, sender: int) -> list[_Analysis]:
    """One analysis per receiver setting, settings in lexicographic order."""
    read = _observations(shared, sender)
    return [shared.analysis(read(setting, 0), read(setting, 1))
            for setting in shared.keys]


def _entry(sender: int, coal: tuple[int, ...], setting: tuple[int, ...],
           a: _Analysis) -> SignalingEntry:
    return SignalingEntry(sender, coal, setting, a.dependent, dict(a.rule), a.success,
                          a.mi_bits, a.impractical, a.note)


def analyze_setting(cbox: ConstrainedBox, sender: int,
                    coalition: Iterable[int],
                    setting: Iterable[int]) -> SignalingEntry:
    sender, coal, setting = _one_setting(cbox, sender, coalition, setting)
    shared = _Coalition(cbox, coal)
    read = _observations(shared, sender)
    return _entry(sender, coal, setting,
                  shared.analysis(read(setting, 0), read(setting, 1)))


def analyze(cbox: ConstrainedBox, sender: int,
            coalition: Iterable[int]) -> list[SignalingEntry]:
    """One entry per receiver setting, settings in lexicographic order."""
    sender, coal = _check_scenario(cbox, sender, coalition)
    shared = _Coalition(cbox, coal)
    return [_entry(sender, coal, setting, a) for setting, a
            in zip(shared.keys, _analyse_direction(shared, sender))]


def mean_mi_bits(entries: Iterable[SignalingEntry]) -> float:
    """Average per-setting information, receivers choosing settings uniformly."""
    entries = list(entries)
    if not entries:
        raise ValueError("no entries to average")
    return sum(e.mi_bits for e in entries) / len(entries)


def _scan(cbox: ConstrainedBox) -> Iterator[tuple[int, tuple[int, ...],
                                                  list[_Analysis]]]:
    """Each direction's analyses, in ``full_scan``'s order.  A coalition's
    shared work is made at its first direction and dropped after its last
    sender, the highest party outside it."""
    n = cbox.n
    shared: dict[tuple[int, ...], _Coalition] = {}  # coalitions begun, not done
    for sender in range(n):
        others = [i for i in range(n) if i != sender]
        for size in range(1, n):
            for coalition in combinations(others, size):
                if coalition not in shared:
                    shared[coalition] = _Coalition(cbox, coalition)
                analyses = _analyse_direction(shared[coalition], sender)
                if sender == max(set(range(n)).difference(coalition)):
                    del shared[coalition]
                yield sender, coalition, analyses


def full_scan(cbox: ConstrainedBox) -> Iterator[tuple[int, tuple[int, ...],
                                                      list[SignalingEntry]]]:
    """Entries for every sender and every coalition of the remaining parties.

    Yields one direction at a time, by sender, then coalition size, then
    coalition indices; an unconstrained no-signaling box yields no
    dependent entry anywhere.
    """
    for sender, coalition, analyses in _scan(cbox):
        yield sender, coalition, [_entry(sender, coalition, setting, a) for setting, a
                                  in zip(all_bit_tuples(len(coalition)), analyses)]


def _entry_json(sender: str, coalition: list[str], setting: tuple[int, ...],
                a: _Analysis | SignalingEntry, rule: dict, success: str) -> dict:
    return {
        "sender": sender,
        "coalition": coalition,
        "setting": list(setting),
        "dependent": a.dependent,
        "rule": rule,
        "success": success,
        "mi_bits": a.mi_bits,
        "impractical": a.impractical,
        "note": a.note,
    }


def entry_to_json(entry: SignalingEntry, n: int) -> dict:
    names = party_names(n)
    return _entry_json(names[entry.sender], [names[i] for i in entry.coalition],
                       entry.setting, entry,
                       {bit_string(out): guess for out, guess in sorted(entry.rule.items())},
                       str(entry.success))


def _direction_json(cbox: ConstrainedBox, sender: int, coalition: tuple[int, ...],
                    analyses: list[_Analysis]) -> dict:
    names = party_names(cbox.n)
    coalition_names = [names[i] for i in coalition]
    entries_json = []
    try:  # str() refuses an integer longer than sys.get_int_max_str_digits()
        for setting, a in zip(all_bit_tuples(len(coalition)), analyses):
            if a.success_json is None:
                a.success_json = str(a.success)
            entries_json.append(_entry_json(names[sender], coalition_names.copy(), setting,
                                            a, dict(a.rule_json), a.success_json))
    except ValueError as err:
        raise ValueError(f"direction {names[sender]} -> "
                         f"{','.join(coalition_names)}: {err}") from err
    dependent = sum(1 for a in analyses if a.dependent)
    # both counting conventions: settings, and (setting, sender bit) cases
    summary = {"settings": len(analyses), "dependent_settings": dependent,
               "cases": 2 * len(analyses), "dependent_cases": 2 * dependent,
               "impractical": bool(set(coalition) & set(cbox.pattern))}
    return {"sender": names[sender], "coalition": coalition_names,
            "entries": entries_json, "summary": summary}


def report_json(box_label: str, cbox: ConstrainedBox, sender: int,
                coalition: Iterable[int]) -> dict:
    """Full signaling report for one sender/coalition pair as a JSON dict."""
    sender, coal = _check_scenario(cbox, sender, coalition)
    analyses = _analyse_direction(_Coalition(cbox, coal), sender)
    report = {**head_json(box_label, cbox.n, cbox.pattern),
              **_direction_json(cbox, sender, coal, analyses)}
    report["summary"]["max_success"] = str(max(a.success for a in analyses))
    report["summary"]["mean_mi_bits"] = mean_mi_bits(analyses)
    return report


def scan_report_json(box_label: str, cbox: ConstrainedBox) -> dict:
    """Each direction's report, built as it is scanned, and overall counts."""
    reports = [_direction_json(cbox, sender, coalition, analyses)
               for sender, coalition, analyses in _scan(cbox)]
    overall = {key: sum(r["summary"][key] for r in reports) for key in
               ("settings", "dependent_settings", "cases", "dependent_cases")}
    overall["directions"] = len(reports)
    overall["dependent_directions"] = sum(r["summary"]["dependent_settings"] > 0
                                          for r in reports)
    return {**head_json(box_label, cbox.n, cbox.pattern),
            "reports": reports, "summary": overall}


def _counts(s: dict) -> str:
    return (f"{s['dependent_settings']}/{s['settings']} settings dependent "
            f"({s['dependent_cases']}/{s['cases']} cases)")


def render_report(box: NoSignalBox, payload: dict) -> Iterator[str]:
    """The text of a ``report_json`` payload about ``box``."""
    yield from render_head(box, payload)
    yield (f"sender: {payload['sender']}; receivers: "
           f"{', '.join(payload['coalition'])}")
    setting_names = [input_names(box.n)[i]
                     for i in parse_pattern(box.n, payload["coalition"])]
    for entry in payload["entries"]:
        setting = " ".join(f"{nm}={b}" for nm, b in
                           zip(setting_names, entry["setting"]))
        if entry["dependent"]:
            rule = ", ".join(f"{obs}->{guess}" for obs, guess in entry["rule"].items())
            line = (f"setting {setting}: dependent; guess {rule}; "
                    f"success {entry['success']}; "
                    f"information {entry['mi_bits']:.6f} bits")
        else:
            line = f"setting {setting}: independent"
        if entry["impractical"]:
            line += " [receiver inside the constrained loop]"
        yield line
        if entry["note"]:
            yield f"  note: {entry['note']}"
    s = payload["summary"]
    yield (f"summary: {_counts(s)}; max success {s['max_success']}; "
           f"mean information {s['mean_mi_bits']:.6f} bits")


def render_scan(box: NoSignalBox, payload: dict) -> Iterator[str]:
    """The text of a ``scan_report_json`` payload about ``box``."""
    yield from render_head(box, payload)
    for report in payload["reports"]:
        s = report["summary"]
        line = (f"direction {report['sender']} -> "
                f"{','.join(report['coalition'])}: {_counts(s)}")
        if s["impractical"]:
            line += " [receiver inside the constrained loop]"
        yield line
    s = payload["summary"]
    yield (f"overall: {s['dependent_directions']}/{s['directions']} directions "
           f"signal; {_counts(s)}")
