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
over the lcm of their denominators times 2^b.  The marginals come from
``boxes.CoalitionMarginals``, the engine the no-signaling verdict runs
on too: each distinct row (``ConstrainedBox.integer_rows``, over its own
denominator) is projected onto the coalition once, rows with equal
marginals in the same key order share one, and an input is read as the
index of its row's marginal (``ConstrainedBox.row_ids``): once per
coalition in a full scan or a direction, and only its own inputs for a
single setting.  With the
inputs ordered by coalition bits, sender bit, then bystander bits, a
setting is a contiguous slice of 2^(b+1) indices, bit 0's then bit 1's,
and that slice keys its analysis within the coalition: a repeated slice
is one dict lookup, and a setting whose inputs all share one index is
keyed by that index for every sender.  Only a new slice reads its two
buckets: a bucket is the multiplicities of its distinct marginals in
order of first occurrence, each marginal added with its multiplicity,
and then kept in lowest terms.  A repeated marginal adds no new key, so
keys keep the order in which they first appear row by row, the order in
which entropies sum their floats, and every numerator stands for the
probability the row-by-row sum gives.
Rule, success and information come from the two buckets of a setting
scaled to one denominator d, in one pass over the output codes and a
parity table per coalition; Fractions are built only when a success
probability is returned, and v / d is the same correctly rounded
float as the Fraction it stands for.  They are computed, and the rule
and success rendered, once per distinct pair of buckets; each entry
owns its rule.
A full scan shares this work among the senders of each coalition: the
marginals, the buckets and the analyses are made at the coalition's
first direction and dropped after its last, while each direction becomes
its report before the next is read.
Reading a bucket raises at its first paradox row, so a setting whose
rows are all consistent is observed even when another setting is not;
a report names the direction such a row stops.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping, NamedTuple

from .boxes import CoalitionMarginals, NoSignalBox, all_bit_tuples, bit_codes, spread
from .ctc import ConstrainedBox, head_json, parse_pattern, render_head
from .forms import as_bit, input_names, normalize_pattern, party_names


def _entropy(masses: Iterable, denominator: int) -> float:
    total = 0.0
    for m in masses:
        x = float(m / denominator)
        if x > 0:  # x log2 x -> 0, also for a mass too small for a float
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


class _Coalition(CoalitionMarginals):
    """What the directions toward one receiver coalition share, whichever
    party sends, on top of the coalition's marginals: each input's marginal
    index, the settings' keys (``slices``), the buckets in lowest terms by
    id and the analyses of their pairs (see the module docstring)."""

    def __init__(self, cbox: ConstrainedBox, coal: tuple[int, ...]):
        super().__init__(cbox, coal)
        self.others = [i for i in range(cbox.n) if i not in coal]  # sender and bystanders
        self.keys = all_bit_tuples(len(coal))  # the settings, and the output keys
        self.codes = bit_codes(len(coal))
        self.labels, self.parity = [""], [0]  # by output code: bit string, parity
        for _ in coal:
            self.labels = [label + bit for label in self.labels for bit in "01"]
            self.parity = [parity ^ bit for parity in self.parity for bit in (0, 1)]
        self.impractical = bool(set(coal) & set(cbox.pattern))
        self.at: list[int] | None = None  # input code -> index, once a direction read all
        # per setting: its inputs' indices in the other parties' lexicographic
        # order, or their one index if they share it
        self.cube: list = []
        self.by_slice: dict = {}  # a setting's key (see slices) -> analysis
        self.by_counts: dict[tuple, int] = {}  # multiplicities -> bucket id
        self.ids: dict[tuple, int] = {}  # a bucket in lowest terms -> its id
        self.buckets: list[tuple[int, dict]] = []  # the distinct buckets, by id
        self.by_pair: dict[tuple[int, int], _Analysis] = {}  # bucket ids -> analysis

    @property
    def paradox(self) -> int | None:
        """The index of the paradox rows' empty marginal, once one is read."""
        return self.indices.get((1, (), ()))

    def slices(self, sender: int) -> list:
        """The key of each setting's analysis when ``sender`` sends: the
        indices of its inputs, sender bit 0's then bit 1's, or their one
        index if they share it."""
        n, coal, others = self.box.n, self.coal, self.others
        if self.at is None:  # the coalition's first direction: read every input once
            of_row = [self.marginal(row_id) for row_id in range(len(self.box.integer_rows))]
            self.at = at = [of_row[row_id] for row_id in self.box.row_ids]
            inner = spread(n, others)
            for base in spread(n, coal):
                sub = tuple([at[base | code] for code in inner])
                self.cube.append(sub[0] if sub.count(sub[0]) == len(sub) else sub)
        r = others.index(sender)
        if not r:  # the sender's bit leads already
            return self.cube
        # positions in a setting's inputs, sender bit first, then bystanders
        order = spread(len(others), (r, *(i for i in range(len(others)) if i != r)))
        return [sub if isinstance(sub, int) else tuple([sub[i] for i in order])
                for sub in self.cube]

    def inputs(self, sender: int, setting: int) -> list[int]:
        """The input codes of the setting with code ``setting``: sender bit
        0's bystander patterns, then bit 1's, each in lexicographic order."""
        n = self.box.n
        base = spread(n, self.coal)[setting]
        return [base | code for code in spread(n, (sender, *(i for i in self.others
                                                              if i != sender)))]

    def line(self, inputs: list[int]) -> tuple:
        """The marginal indices of these input codes, read from their rows
        only; raises at the first paradox row."""
        ids = self.box.row_ids
        line = tuple([self.marginal(ids[code]) for code in inputs])
        if self.paradox in line:
            raise ValueError("observation undefined: paradox row at inputs "
                             f"{list(self.box.rows)[inputs[line.index(self.paradox)]]}")
        return line

    def setting(self, sender: int, setting: int, key=None) -> _Analysis:
        """The analysis of the setting with code ``setting``, read from its
        inputs or given by its key (see ``slices``)."""
        if key is None:
            line = self.line(self.inputs(sender, setting))
        else:
            line = key if isinstance(key, tuple) else (key,) * (1 << len(self.others))
            if self.paradox in line:  # read it input by input, to name the row
                self.line(self.inputs(sender, setting))
        half = len(line) // 2
        return self.analysis(self.bucket(line[:half]), self.bucket(line[half:]))

    def bucket(self, line: tuple) -> int:
        """The id of the bucket of inputs whose marginal indices are ``line``,
        summed in this order; none of them is a paradox row."""
        counts = {m: line.count(m) for m in dict.fromkeys(line)}  # in order of first occurrence
        key = (*counts, *counts.values())
        found = self.by_counts.get(key)
        if found is None:
            marginals = self.marginals
            common = math.lcm(*(marginals[m][0] for m in counts))
            bucket: dict[int, int] = {}
            for m, times in counts.items():
                den, nums = marginals[m]
                scale = times * (common // den)
                if not bucket:  # the first marginal: every key is new
                    bucket = {out: num * scale for out, num in nums.items()}
                    continue
                for out, num in nums.items():
                    bucket[out] = bucket.get(out, 0) + num * scale
            # in lowest terms: a distribution is one bucket, whatever its rows
            den = common * len(line)
            g = math.gcd(den, *bucket.values())
            if g > 1:
                den //= g
                bucket = {out: num // g for out, num in bucket.items()}
            found = self.by_counts[key] = self.ids.setdefault(
                (den, tuple(bucket), tuple(bucket.values())), len(self.buckets))
            if found == len(self.buckets):
                self.buckets.append((den, bucket))
        return found

    def analysis(self, a: int, b: int) -> _Analysis:
        """The analysis of a setting whose sender bits observe buckets ``a``
        and ``b``."""
        found = self.by_pair.get((a, b))
        if found is None:
            found = self.by_pair[a, b] = _Analysis(self.buckets[a], self.buckets[b], self)
        return found


def _mutual_information(p0: Mapping, p1: Mapping, support: Iterable,
                        denominator: int) -> float:
    # the mixture is summed in the order of ``support``
    mix = [p0.get(out, 0) + p1.get(out, 0) for out in support]
    h0 = _entropy(p0.values(), denominator)
    h1 = h0 if p1 is p0 else _entropy(p1.values(), denominator)
    return _entropy(mix, 2 * denominator) - (h0 + h1) / 2


def _note(parities: set[int]) -> str | None:
    """The note of an independent setting whose support has these parities."""
    if len(parities) != 1:
        return None
    (parity,) = parities
    return (f"receiver outputs always satisfy XOR = {parity} here for either "
            f"sender input, so the correlation is fixed by the setting and "
            f"carries no information")


class SignalingEntry(NamedTuple):
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

    def __init__(self, a: tuple[int, dict], b: tuple[int, dict], shared: _Coalition):
        # the buckets (denominator, numerators by output code) over one denominator
        den = math.lcm(a[0], b[0])
        p0, p1 = (counts if d == den else {out: num * (den // d) for out, num in counts.items()}
                  for d, counts in (a, b))
        keys, labels = shared.keys, shared.labels
        outs = sorted(p0.keys() | p1.keys())
        if p0 is p1:  # one bucket for both sender bits: every guess ties
            self.rule = dict.fromkeys(map(keys.__getitem__, outs), 0)
            self.rule_json = dict.fromkeys(map(labels.__getitem__, outs), 0)
            mass = den
        else:
            self.rule, self.rule_json = rule, rule_json = {}, {}
            mass = 0
            for out in outs:  # the map rule, ties guessing 0
                n0, n1 = p0.get(out, 0), p1.get(out, 0)
                guess = rule[keys[out]] = rule_json[labels[out]] = int(n1 > n0)
                mass += n1 if guess else n0
        self.dependent = p0 != p1
        self.success = Fraction(mass, 2 * den)
        # the mixture is summed in the order of the set union of the bit tuples
        union = (set(dict.fromkeys(map(keys.__getitem__, p0)))
                 | set(dict.fromkeys(map(keys.__getitem__, p1))))
        self.mi_bits = _mutual_information(p0, p1, map(shared.codes.__getitem__, union), den)
        self.impractical = shared.impractical
        self.note = None if self.dependent else _note({shared.parity[out] for out in outs})
        self.success_json: str | None = None


def _analyse_direction(shared: _Coalition, sender: int) -> list[_Analysis]:
    """One analysis per receiver setting, settings in lexicographic order."""
    by_slice, analyses = shared.by_slice, []
    for setting, key in enumerate(shared.slices(sender)):
        found = by_slice.get(key)
        if found is None:
            found = by_slice[key] = shared.setting(sender, setting, key)
        analyses.append(found)
    return analyses


def _entry(sender: int, coal: tuple[int, ...], setting: tuple[int, ...],
           a: _Analysis) -> SignalingEntry:
    return SignalingEntry(sender, coal, setting, a.dependent, dict(a.rule), a.success,
                          a.mi_bits, a.impractical, a.note)


def analyze_setting(cbox: ConstrainedBox, sender: int,
                    coalition: Iterable[int],
                    setting: Iterable[int]) -> SignalingEntry:
    """The entry of one receiver setting.  Raises when one of the rows it
    averages is a paradox row; paradox rows elsewhere do not matter."""
    sender, coal = _check_scenario(cbox, sender, coalition)
    setting = tuple(as_bit(b) for b in setting)
    if len(setting) != len(coal):
        raise ValueError("setting must give one bit per coalition party")
    shared = _Coalition(cbox, coal)
    return _entry(sender, coal, setting, shared.setting(sender, shared.codes[setting]))


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


def _scan(cbox: ConstrainedBox) -> Iterator[tuple[int, _Coalition]]:
    """Each direction's sender and coalition state, in ``full_scan``'s
    order.  A coalition's state is made at its first direction and dropped
    after its last sender, the highest party outside it."""
    n = cbox.n
    begun: dict[tuple[int, ...], _Coalition] = {}  # coalitions begun, not done
    for sender in range(n):
        others = [i for i in range(n) if i != sender]
        for size in range(1, n):
            for coalition in combinations(others, size):
                shared = begun.get(coalition) or _Coalition(cbox, coalition)
                if sender == shared.others[-1]:
                    begun.pop(coalition, None)
                else:
                    begun[coalition] = shared
                yield sender, shared


def full_scan(cbox: ConstrainedBox) -> Iterator[tuple[int, tuple[int, ...],
                                                      list[SignalingEntry]]]:
    """Entries for every sender and every coalition of the remaining parties.

    Yields one direction at a time, by sender, then coalition size, then
    coalition indices; an unconstrained no-signaling box yields no
    dependent entry anywhere.
    """
    for sender, shared in _scan(cbox):
        yield sender, shared.coal, [_entry(sender, shared.coal, setting, a) for setting, a
                                    in zip(shared.keys, _analyse_direction(shared, sender))]


def _direction_json(shared: _Coalition, sender: int,
                    names: tuple[str, ...]) -> tuple[dict, list[_Analysis]]:
    """The direction's report, and its analyses; an error names the direction."""
    coalition_names = [names[i] for i in shared.coal]
    entries_json = []
    # a paradox row, or str() refusing an integer longer than
    # sys.get_int_max_str_digits()
    try:
        analyses = _analyse_direction(shared, sender)
        for setting, a in zip(shared.keys, analyses):
            if a.success_json is None:
                a.success_json = str(a.success)
            entries_json.append({
                "sender": names[sender], "coalition": coalition_names.copy(),
                "setting": list(setting), "dependent": a.dependent,
                "rule": dict(a.rule_json), "success": a.success_json,
                "mi_bits": a.mi_bits, "impractical": a.impractical, "note": a.note})
    except ValueError as err:
        raise ValueError(f"direction {names[sender]} -> "
                         f"{','.join(coalition_names)}: {err}") from err
    dependent = sum(1 for a in analyses if a.dependent)
    # both counting conventions: settings, and (setting, sender bit) cases
    summary = {"settings": len(analyses), "dependent_settings": dependent,
               "cases": 2 * len(analyses), "dependent_cases": 2 * dependent,
               "impractical": shared.impractical}
    return {"sender": names[sender], "coalition": coalition_names,
            "entries": entries_json, "summary": summary}, analyses


def report_json(box_label: str, cbox: ConstrainedBox, sender: int,
                coalition: Iterable[int]) -> dict:
    """Full signaling report for one sender/coalition pair as a JSON dict."""
    sender, coal = _check_scenario(cbox, sender, coalition)
    direction, analyses = _direction_json(_Coalition(cbox, coal), sender,
                                          party_names(cbox.n))
    report = {**head_json(box_label, cbox.n, cbox.pattern), **direction}
    report["summary"]["max_success"] = str(max(a.success for a in analyses))
    report["summary"]["mean_mi_bits"] = mean_mi_bits(analyses)
    return report


def scan_report_json(box_label: str, cbox: ConstrainedBox) -> dict:
    """Each direction's report, built as it is scanned, and overall counts."""
    names = party_names(cbox.n)
    reports = [_direction_json(shared, sender, names)[0] for sender, shared in _scan(cbox)]
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
