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
over the lcm of their denominators times 2^b.  A bucket is read as the
multiplicities of its distinct rows (``ConstrainedBox.row_ids``), in
order of first occurrence in lexicographic input order; each distinct
row (``ConstrainedBox.integer_rows``, over its own denominator) is
projected onto the coalition once per direction and added with its
multiplicity.  A repeated row adds no new key, so keys keep the order in
which they first appear row by row, the order in which entropies sum
their floats, and every numerator is the sum it is row by row.  Buckets
of the same row ids in the same order are summed once per direction;
since each input is in one bucket, what a direction keeps is at most its
table's size.  A direction reads each input's row id once; a single
setting reads only its own.
Rule, success and information come from the two buckets of a setting
scaled to one denominator d; Fractions are built only when p0, p1 or a
success probability is returned, and v / d is the same correctly rounded
float as the Fraction it stands for.  A direction computes them, and
renders each rule and success, once per distinct pair of d and both
buckets' (code, numerator) items in order; each entry owns its rule.
Reading a bucket raises at its first paradox row, so a setting whose
rows are all consistent is observed even when another setting is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


def _observations(cbox: ConstrainedBox, sender: int, coal: tuple[int, ...]):
    """``read(setting, bit)``: that bucket as (denominator, numerators by
    the code of the coalition's outputs), summed from its own rows."""
    project = projection(cbox.n, coal)  # outcome code -> coalition's code
    settings, bits = spread(cbox.n, coal), spread(cbox.n, (sender,))
    bystanders = spread(cbox.n, [i for i in range(cbox.n)
                                 if i != sender and i not in coal])
    codes, ids, rows = bit_codes(len(coal)), cbox.row_ids, cbox.integer_rows
    projected: dict[int, tuple[int, dict]] = {}  # row id -> its marginal
    buckets: dict[tuple, tuple[int, dict]] = {}  # row ids, in order -> bucket

    def read(setting: tuple[int, ...], bit: int) -> tuple[int, dict]:
        base = settings[codes[setting]] | bits[bit]
        row_ids = tuple([ids[base | pattern] for pattern in bystanders])
        if row_ids in buckets:
            return buckets[row_ids]
        # each distinct row's multiplicity, in order of first occurrence
        counts = {row_id: row_ids.count(row_id) for row_id in dict.fromkeys(row_ids)}
        for row_id in counts:
            if not rows[row_id][1]:
                code = base | bystanders[row_ids.index(row_id)]
                raise ValueError("observation undefined: paradox row at inputs "
                                 f"{list(cbox.rows)[code]}")
        common = math.lcm(*(rows[row_id][0] for row_id in counts))
        bucket: dict[int, int] = {}
        for row_id, times in counts.items():
            if row_id not in projected:
                projected[row_id] = add_row((1, {}), rows[row_id], project)
            den, marginal = projected[row_id]
            scale = times * (common // den)
            if not bucket:  # the first row: every key is new
                bucket = {key: num * scale for key, num in marginal.items()}
                continue
            for key, num in marginal.items():
                bucket[key] = bucket.get(key, 0) + num * scale
        buckets[row_ids] = common * len(bystanders), bucket
        return buckets[row_ids]
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
    read = _observations(cbox, sender, coal)
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


def _entry(cbox: ConstrainedBox, sender: int, coal: tuple[int, ...],
           setting: tuple[int, ...], read, keys: list, memo: dict) -> SignalingEntry:
    den, p0, p1 = common_scale(read(setting, 0), read(setting, 1))
    pair = (den, tuple(p0.items()), tuple(p1.items()))
    if pair in memo:  # an earlier setting's analysis, with a rule of its own
        return replace(memo[pair], setting=setting, rule=dict(memo[pair].rule))
    p0, p1 = ({keys[k]: v for k, v in p.items()} for p in (p0, p1))
    dependent = p0 != p1
    rule = map_rule(p0, p1)
    memo[pair] = SignalingEntry(
        sender=sender,
        coalition=coal,
        setting=setting,
        dependent=dependent,
        rule=rule,
        success=Fraction(_guessed_mass(rule, p0, p1), 2 * den),
        mi_bits=_mutual_information(p0, p1, den),
        impractical=bool(set(coal) & set(cbox.pattern)),
        note=None if dependent else _parity_note(p0, p1),
    )
    return memo[pair]


def analyze_setting(cbox: ConstrainedBox, sender: int,
                    coalition: Iterable[int],
                    setting: Iterable[int]) -> SignalingEntry:
    sender, coal, setting = _one_setting(cbox, sender, coalition, setting)
    return _entry(cbox, sender, coal, setting, _observations(cbox, sender, coal),
                  all_bit_tuples(len(coal)), {})


def analyze(cbox: ConstrainedBox, sender: int,
            coalition: Iterable[int]) -> list[SignalingEntry]:
    """One entry per receiver setting, settings in lexicographic order."""
    sender, coal = _check_scenario(cbox, sender, coalition)
    read = _observations(cbox, sender, coal)
    bit_tuples = all_bit_tuples(len(coal))  # the settings, and the output keys
    memo: dict = {}  # for this direction only
    return [_entry(cbox, sender, coal, setting, read, bit_tuples, memo)
            for setting in bit_tuples]


def mean_mi_bits(entries: Iterable[SignalingEntry]) -> float:
    """Average per-setting information, receivers choosing settings uniformly."""
    entries = list(entries)
    if not entries:
        raise ValueError("no entries to average")
    return sum(e.mi_bits for e in entries) / len(entries)


def full_scan(cbox: ConstrainedBox) -> Iterator[tuple[int, tuple[int, ...],
                                                      list[SignalingEntry]]]:
    """Entries for every sender and every coalition of the remaining parties.

    Yields one direction at a time, by sender, then coalition size, then
    coalition indices; an unconstrained no-signaling box yields no
    dependent entry anywhere.
    """
    n = cbox.n
    for sender in range(n):
        others = [i for i in range(n) if i != sender]
        for size in range(1, n):
            for coalition in combinations(others, size):
                yield sender, coalition, analyze(cbox, sender, coalition)


def entry_to_json(entry: SignalingEntry, n: int) -> dict:
    return _entry_json(entry, party_names(n), {})


def _entry_json(entry: SignalingEntry, names: tuple[str, ...], memo: dict) -> dict:
    # keyed on integers: a Fraction's hash costs a modular inverse
    key = (tuple(entry.rule.items()), entry.success.numerator, entry.success.denominator)
    rendered = memo.get(key)
    if rendered is None:
        rendered = memo[key] = (
            {bit_string(out): guess for out, guess in sorted(entry.rule.items())},
            str(entry.success))
    rule, success = rendered
    return {
        "sender": names[entry.sender],
        "coalition": [names[i] for i in entry.coalition],
        "setting": list(entry.setting),
        "dependent": entry.dependent,
        "rule": dict(rule),
        "success": success,
        "mi_bits": entry.mi_bits,
        "impractical": entry.impractical,
        "note": entry.note,
    }


def _direction_json(cbox: ConstrainedBox, sender: int, coalition: tuple[int, ...],
                    entries: list[SignalingEntry]) -> dict:
    names = party_names(cbox.n)
    coalition_names = [names[i] for i in coalition]
    memo: dict = {}  # for this direction's entries only
    try:  # str() refuses an integer longer than sys.get_int_max_str_digits()
        entries_json = [_entry_json(e, names, memo) for e in entries]
    except ValueError as err:
        raise ValueError(f"direction {names[sender]} -> "
                         f"{','.join(coalition_names)}: {err}") from err
    dependent = sum(1 for e in entries if e.dependent)
    # both counting conventions: settings, and (setting, sender bit) cases
    summary = {"settings": len(entries), "dependent_settings": dependent,
               "cases": 2 * len(entries), "dependent_cases": 2 * dependent,
               "impractical": bool(set(coalition) & set(cbox.pattern))}
    return {"sender": names[sender], "coalition": coalition_names,
            "entries": entries_json, "summary": summary}


def report_json(box_label: str, cbox: ConstrainedBox, sender: int,
                coalition: Iterable[int]) -> dict:
    """Full signaling report for one sender/coalition pair as a JSON dict."""
    entries = analyze(cbox, sender, coalition)
    report = {**head_json(box_label, cbox.n, cbox.pattern),
              **_direction_json(cbox, sender, entries[0].coalition, entries)}
    report["summary"]["max_success"] = str(max(e.success for e in entries))
    report["summary"]["mean_mi_bits"] = mean_mi_bits(entries)
    return report


def scan_report_json(box_label: str, cbox: ConstrainedBox) -> dict:
    """Each direction's report, built as it is scanned, and overall counts."""
    reports = [_direction_json(cbox, sender, coalition, entries)
               for sender, coalition, entries in full_scan(cbox)]
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
