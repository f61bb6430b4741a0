"""Detect and quantify signaling created by self-consistency constraints.

The scenario: one party (the sender) encodes a bit in its input choice,
a disjoint coalition of receivers fixes its own inputs (the setting) and
observes only its own outputs.  Inputs of any remaining parties are
averaged uniformly, since the receivers have no access to them.  The
sender's two input values then induce two observation distributions for
each setting; signaling happens exactly when they differ.

Three measures are reported per setting: an exact distribution
comparison (``dependent``), the exact success probability of the best
guessing rule given a uniformly random sender bit, and the mutual
information of the induced channel in bits.  The best rule picks the
sender bit with the larger likelihood for each observed output tuple,
guessing 0 on ties; its success probability exceeds 1/2 iff the
distributions differ.  These two are exact and decide.  The information
is a float, H(mix) - (H0 + H1) / 2: it can read about +-1e-15 on an
independent setting.  Where it reads 0 or below on a dependent one, the
two sides having cancelled, it is summed instead over the outputs as
(a + b) / (2 den) (1 - h(a / (a + b))) from the integer numerators a and
b, h the binary entropy: no term is negative, so it reads above 0 unless
every term underflows.

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
over the lcm of their denominators times 2^b.  Each distinct row
(``ConstrainedBox.integer_rows``, over its own denominator) is projected
onto the coalition once, by ``boxes.projected`` as the no-signaling
verdict projects it; the scan's ``_Coalition`` interns the marginal
itself, rows with equal marginals in the same key order sharing one
index, and an input is read as the index of its row's marginal
(``ConstrainedBox.row_ids``).  A full scan
or a direction reads every input once per coalition, in C, as one row
per setting: the marginal indices of its 2^(b+1) inputs, lexicographic
in the parties outside the coalition.  Which inputs a setting has, and
where a row's outcome lands in the coalition's outputs, depend on the
party count and the coalition alone: ``boxes.spread_codes``, of the
coalition's parties then the others, and ``boxes.projection`` build
them once per shape in the process.  A
setting's line is its row reordered for the sender, sender bit 0's
bystander patterns then bit 1's, each lexicographic, by an
``itemgetter`` built once per (outside parties, sender position); the
line keys its analysis: a repeated line is one dict lookup, whichever
party sends, since the analysis depends on the line alone.  Only a new
line reads its two buckets: a bucket is the multiplicities of its
distinct marginals in order of first occurrence, each marginal added
with its multiplicity, and then kept in lowest terms.  A repeated marginal adds no new key, so
keys keep the order in which they first appear row by row, the order in
which entropies sum their floats, and every numerator stands for the
probability the row-by-row sum gives.
Rule, success and information come from the two buckets of a setting
scaled to one denominator d, in one pass over the output codes, an
output's parity being its code's count of 1 bits mod 2; Fractions are
built only when a success
probability is returned, and v / d is the same correctly rounded
float as the Fraction it stands for.  They are computed, and the rule
and success rendered, once per distinct pair of buckets; each entry
owns its rule.  Equal buckets are one object; when one serves both
sender bits, its entropy is computed once for both sides.
A full scan goes one coalition size at a time, and shares this work
among every direction toward a coalition of that size: a marginal's
index is keyed by its (denominator, output codes, numerators), a bucket's
id likewise, and the output codes are the coalition's, so a marginal, a
line, a bucket and an analysis mean the same to any coalition of one
size and any sender.  Every memo is keyed by content or by shape, so no
float and no payload byte depends on which coalition built it first, and
only ``impractical`` is the coalition's own.  The store of one size holds
the marginals, lines, half lines, multiplicities, buckets and analyses; a
coalition keeps only its settings' rows, from its first direction to its
last sender's.  Within a size the directions come by sender, then
coalition; each leaves a record, (sender, coalition, ``impractical``,
analyses), and the store is dropped once its size is done.  The records
are then sorted into report order, by sender, then coalition size, then
coalition.  A single direction is a scan of its one record, on a store of
its own: every report and ``SignalingEntry`` is read from a scan's
records.  A direction raises at its first setting whose line holds a
paradox row, and names the line's first paradox row, sender bit 0's
bystander patterns before bit 1's; a report names the direction such a
row stops.  A paradox row stops the first direction of a scan, party 0
-> party 1, which reads every input.
A scan formats each direction's successes as it reads the direction,
whether or not its report lists entries, so a success too long to print
stops that direction.  The scan keeps the error and reads no further
direction of that sender or a later one; once every size is done it
raises the last error it kept.  Each error kept after another is a
smaller sender's, so the last is that of the first direction in report
order that fails, and every direction before it has been read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

from .boxes import NoSignalBox, projected, projection, shared_bits, spread_codes
from .ctc import ConstrainedBox, head_json, parse_pattern, render_head
from .forms import bit_string, input_names, normalize_pattern, party_names


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


@cache
def _labels(size: int) -> list[str]:
    """By output code, a coalition of this size's output key as a bit string."""
    return list(map(bit_string, shared_bits(size)[0]))


@cache
def _reorder(width: int, position: int) -> itemgetter:
    """A setting's row (``width`` outside parties, lexicographic) as its line
    when the outside party at ``position`` sends: that party's bit first."""
    others = (i for i in range(width) if i != position)
    return itemgetter(*spread_codes(width, (position, *others)))


class _Store:
    """What depends on a coalition's size alone, which every coalition of
    one size in a full scan reads and writes: the marginals by index, the
    analyses by line, the bucket ids by half line and by multiplicities,
    the buckets in lowest terms by id, and the analyses of their pairs."""

    __slots__ = ("indices", "marginals", "by_line", "by_half", "by_counts", "ids", "buckets",
                 "by_pair")

    def __init__(self) -> None:
        self.indices: dict[tuple, int] = {}  # (den, output codes, numerators) -> index
        self.marginals: list[tuple[int, dict]] = []  # the distinct marginals, by index
        self.by_line: dict[tuple, _Analysis] = {}  # a setting's line -> analysis
        self.by_half: dict[tuple, int] = {}  # half a line -> bucket id
        self.by_counts: dict[tuple, int] = {}  # multiplicities -> bucket id
        # a bucket in lowest terms, (den, output codes, numerators) -> its id
        self.ids: dict[tuple[int, tuple, tuple], int] = {}
        self.buckets: list[tuple[int, tuple, tuple]] = []  # the distinct buckets, by id
        self.by_pair: dict[tuple[int, int], _Analysis] = {}  # bucket ids -> analysis


class _Coalition:
    """What the directions toward one receiver coalition share, whichever
    party sends: each setting's row of marginal indices, on top of the
    ``store`` of its size's marginals and what is keyed by their indices
    (see the module docstring).  Rows are ``boxes.projected`` as the
    verdict projects them, through the coalition's ``project``; their
    marginals are interned into the store."""

    def __init__(self, cbox: ConstrainedBox, coal: tuple[int, ...], store: _Store):
        self.box, self.coal, self.project = cbox, coal, projection(cbox.n, coal)
        self.others = [i for i in range(cbox.n) if i not in coal]  # sender and bystanders
        # the settings and output keys by code, their codes, their bit strings by code
        self.keys, self.codes, _ = shared_bits(len(coal))
        self.labels = _labels(len(coal))
        # the input codes by setting, each setting's lexicographic in the others
        self.order = spread_codes(cbox.n, (*coal, *self.others))
        self.impractical = bool(set(coal) & set(cbox.pattern))
        self.rows: list[tuple] | None = None  # by setting code, once a direction read all
        self.store, self.indices, self.marginals = store, store.indices, store.marginals
        self.by_line, self.by_half, self.by_counts = store.by_line, store.by_half, store.by_counts

    def marginal(self, row_id: int) -> int:
        """The index of the row's marginal in the store, projected to find
        it: equal (den, output codes, numerators) share one index."""
        den, counts = projected(self.box.integer_rows[row_id], self.project)
        marginals = self.marginals
        index = self.indices.setdefault((den, tuple(counts), tuple(counts.values())),
                                        len(marginals))
        if index == len(marginals):
            marginals.append((den, counts))
        return index

    @property
    def paradox(self) -> int | None:
        """The index of the paradox rows' empty marginal, once one is read."""
        return self.indices.get((1, (), ()))

    def reorder(self, sender: int) -> itemgetter:
        """A setting's row, or its inputs, in line order when ``sender`` sends:
        sender bit 0's bystander patterns, then bit 1's, each lexicographic."""
        return _reorder(len(self.others), self.others.index(sender))

    def inputs(self, setting: int, sender: int) -> tuple:
        """The input codes of the setting with this code, in line order."""
        width = 1 << len(self.others)
        return self.reorder(sender)(self.order[setting * width:(setting + 1) * width])

    def analysis_of(self, line: tuple) -> _Analysis:
        """The analysis of a setting whose inputs, in ``order``, have the
        marginal indices ``line``; none of them is a paradox row."""
        half = len(line) // 2
        return self.analysis(self.bucket(line[:half]), self.bucket(line[half:]))

    def bucket(self, line: tuple) -> int:
        """The id of the bucket of inputs whose marginal indices are ``line``,
        summed in this order; none of them is a paradox row."""
        found = self.by_half.get(line)
        if found is not None:
            return found
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
                for out, num in nums.items():
                    bucket[out] = bucket.get(out, 0) + num * scale
            # in lowest terms: a distribution is one bucket, whatever its rows
            den = common * len(line)
            g = math.gcd(den, *bucket.values())
            if g > 1:
                den //= g
                bucket = {out: num // g for out, num in bucket.items()}
            buckets, summed = self.store.buckets, (den, tuple(bucket), tuple(bucket.values()))
            found = self.by_counts[key] = self.store.ids.setdefault(summed, len(buckets))
            if found == len(buckets):
                buckets.append(summed)
        self.by_half[line] = found
        return found

    def analysis(self, a: int, b: int) -> _Analysis:
        """The analysis of a setting whose sender bits observe buckets ``a``
        and ``b``."""
        store = self.store
        found = store.by_pair.get((a, b))
        if found is None:
            found = store.by_pair[a, b] = _Analysis(store.buckets[a], store.buckets[b], self)
        return found


def _mutual_information(p0: Mapping, p1: Mapping, support: Iterable,
                        denominator: int) -> float:
    # the mixture is summed in the order of ``support``
    mix = [p0.get(out, 0) + p1.get(out, 0) for out in support]
    h0 = _entropy(p0.values(), denominator)
    h1 = h0 if p1 is p0 else _entropy(p1.values(), denominator)
    return _entropy(mix, 2 * denominator) - (h0 + h1) / 2


def _one_minus_h(a: int, b: int) -> float:
    """1 - h(a / (a + b)) in bits, h the binary entropy, for a + b > 0."""
    if not a or not b:
        return 1.0
    x = (a - b) / (a + b)  # int / int rounds correctly
    if abs(x) <= 0.5:
        # ((1 + x) ln(1 + x) + (1 - x) ln(1 - x)) / (2 ln 2), whose two
        # terms here cancel by at most a factor of 2
        return (x * math.atanh(x) + math.log1p(-x * x) / 2) / math.log(2)
    # h(q) for the smaller share q < 1/4, where q ln q -> 0 as q does
    q = min(a, b) / (a + b)
    return 1 + ((q * math.log(q) if q else 0.0) + (1 - q) * math.log1p(-q)) / math.log(2)


def _information_by_outputs(p0: Mapping, p1: Mapping, outs: Iterable,
                            denominator: int) -> float:
    """The information as a sum over outputs of (a + b) / (2 den) (1 - h(a /
    (a + b))), a and b the output's numerators: every term is >= 0, so no
    two terms cancel, and the sum is > 0 unless every term underflows.  The
    terms are added left to right, as in ``mean_mi_bits``."""
    total = 0.0
    for a, b in ((p0.get(out, 0), p1.get(out, 0)) for out in outs):
        total += (a + b) / (2 * denominator) * _one_minus_h(a, b)
    return total


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
    """Rule, success, information and note of one distinct bucket pair: the
    rule keyed by bit strings as ``rule_json``, and the success in lowest
    terms as ``odds`` (numerator, denominator), whose str() is
    ``success_json`` once a payload has needed it.  It holds nothing of a
    coalition but its size."""

    __slots__ = ("dependent", "odds", "mi_bits", "note", "rule_json", "success_json")

    def __init__(self, a: tuple[int, tuple, tuple], b: tuple[int, tuple, tuple],
                 shared: _Coalition):
        keys, labels = shared.keys, shared.labels
        self.success_json: str | None = None
        # the buckets (denominator, output codes, numerators) over one denominator
        den = math.lcm(a[0], b[0])
        p0, p1 = (dict(zip(outs, nums)) if d == den else
                  {out: num * (den // d) for out, num in zip(outs, nums)}
                  for d, outs, nums in (a, b))
        if a is b:  # one bucket serves both sender bits: one entropy for both sides
            p1 = p0
        outs = sorted(p0.keys() | p1.keys())
        self.rule_json = rule_json = {}
        mass = 0
        for out in outs:  # the map rule, ties guessing 0
            n0, n1 = p0.get(out, 0), p1.get(out, 0)
            guess = rule_json[labels[out]] = int(n1 > n0)
            mass += n1 if guess else n0
        self.dependent = p0 != p1
        g = math.gcd(mass, 2 * den)
        self.odds = mass // g, 2 * den // g
        # the mixture is summed in the order of the set union of the bit tuples:
        # a set built another way can iterate in another order, and move the
        # float sum
        union = (set(dict.fromkeys(map(keys.__getitem__, p0)))
                 | set(dict.fromkeys(map(keys.__getitem__, p1))))
        self.mi_bits = _mutual_information(p0, p1, map(shared.codes.__getitem__, union), den)
        if self.dependent and self.mi_bits <= 0:  # the entropies cancelled
            self.mi_bits = _information_by_outputs(p0, p1, outs, den)
        self.note = None if self.dependent else _note({out.bit_count() & 1 for out in outs})


def _analyse_direction(shared: _Coalition, sender: int) -> list[_Analysis]:
    """One analysis per receiver setting, settings in lexicographic order."""
    if shared.rows is None:  # the coalition's first direction: read every input once
        of_row = [shared.marginal(row_id) for row_id in range(len(shared.box.integer_rows))]
        at = map(of_row.__getitem__, map(shared.box.row_ids.__getitem__, shared.order))
        shared.rows = list(zip(*[at] * (1 << len(shared.others))))  # a row per setting
    by_line, analyses = shared.by_line, []
    for setting, line in enumerate(map(shared.reorder(sender), shared.rows)):
        found = by_line.get(line)
        if found is None:
            if shared.paradox in line:
                code = shared.inputs(setting, sender)[line.index(shared.paradox)]
                raise ValueError("observation undefined: paradox row at inputs "
                                 f"{shared_bits(shared.box.n)[0][code]}")
            found = by_line[line] = shared.analysis_of(line)
        analyses.append(found)
    return analyses


def _entries(sender: int, coal: tuple[int, ...], impractical: bool,
             analyses: list[_Analysis]) -> list[SignalingEntry]:
    """A direction's entries from its record, settings in lexicographic
    order; each owns its rule, keyed by bit tuples, each label read as its code."""
    keys = shared_bits(len(coal))[0]
    return [SignalingEntry(sender, coal, setting, a.dependent,
                           {keys[int(label, 2)]: guess for label, guess in a.rule_json.items()},
                           Fraction(*a.odds), a.mi_bits, impractical, a.note)
            for setting, a in zip(keys, analyses)]


def analyze(cbox: ConstrainedBox, sender: int,
            coalition: Iterable[int]) -> list[SignalingEntry]:
    """One entry per receiver setting, settings in lexicographic order."""
    (record,) = _scan(cbox, direction=_check_scenario(cbox, sender, coalition))[0]
    return _entries(*record)


def mean_mi_bits(entries: Iterable[SignalingEntry]) -> float:
    """Average per-setting information, receivers choosing settings uniformly.

    The floats are added left to right: from Python 3.12 on, ``sum()``
    compensates a float sum, and could move the last bit of a payload."""
    entries = list(entries)
    if not entries:
        raise ValueError("no entries to average")
    total = 0.0
    for e in entries:
        total += e.mi_bits
    return total / len(entries)


def _analysed(shared: _Coalition, sender: int,
              names: tuple[str, ...] | None) -> list[_Analysis]:
    """The direction's analyses; given party ``names``, each success is
    formatted for a payload, and an error names the direction."""
    if names is None:
        return _analyse_direction(shared, sender)
    # a paradox row, or str() refusing an integer longer than
    # sys.get_int_max_str_digits()
    try:
        analyses = _analyse_direction(shared, sender)
        for a in analyses:
            if a.success_json is None:
                num, den = a.odds
                a.success_json = f"{num}/{den}" if den != 1 else str(num)
    except ValueError as err:
        raise ValueError(f"direction {names[sender]} -> "
                         f"{','.join(names[i] for i in shared.coal)}: {err}") from err
    return analyses


def _scan(cbox: ConstrainedBox, names: tuple[str, ...] | None = None,
          direction: tuple[int, tuple[int, ...]] | None = None
          ) -> tuple[list[tuple[int, tuple[int, ...], bool, list[_Analysis]]], dict[str, int]]:
    """Each direction's (sender, coalition, impractical, analyses), by
    sender, then coalition size, then coalition, and the counts of the
    distinct lines, buckets and analyses built, one coalition size at a
    time (see the module docstring), or of ``direction`` alone, a (sender,
    coalition) pair from ``_check_scenario``.  A coalition's state lasts
    from its first direction to its last sender's, the highest party
    outside it.  An error is the first in this order; ``names`` as for
    ``_analysed``."""
    n = cbox.n
    records, error, stop = [], None, n
    built = dict.fromkeys(("lines", "buckets", "analyses"), 0)
    for size in range(1, n) if direction is None else (len(direction[1]),):
        store, begun = _Store(), {}  # begun: coalitions begun, not done
        directions = ((s, c) for s in range(stop)  # each sender's coalitions of this size
                      for c in combinations([i for i in range(n) if i != s], size))
        for sender, coal in directions if direction is None else (direction,):
            shared = begun.get(coal)
            if shared is None:
                shared = begun[coal] = _Coalition(cbox, coal, store)
            try:
                records.append((sender, coal, shared.impractical,
                                _analysed(shared, sender, names)))
            except ValueError as err:
                # an error kept later is a smaller sender's, so earlier in this order
                error, stop = err, sender
                break
            if sender == shared.others[-1]:
                del begun[coal]
        built["lines"] += len(store.by_line)
        built["buckets"] += len(store.buckets)
        built["analyses"] += len(store.by_pair)
    if error is not None:
        raise error
    records.sort(key=itemgetter(0))  # stable: by size, then coalition, within a sender
    return records, built


def full_scan(cbox: ConstrainedBox) -> Iterator[tuple[int, tuple[int, ...],
                                                      list[SignalingEntry]]]:
    """Entries for every sender and every coalition of the remaining parties.

    Yields one direction at a time from the records of a single pass,
    by sender, then coalition size, then coalition indices, once the pass
    is done; an unconstrained no-signaling box yields no dependent entry
    anywhere.
    """
    for record in _scan(cbox)[0]:
        yield record[0], record[1], _entries(*record)


def _direction_json(names: tuple[str, ...], sender: int, coal: tuple[int, ...],
                    impractical: bool, analyses: list[_Analysis], entries: bool = True) -> dict:
    """The direction's report, from its analyses with their successes
    formatted; its entries only if asked for."""
    report = {"sender": names[sender], "coalition": [names[i] for i in coal]}
    if entries:
        report["entries"] = [{"sender": names[sender], "coalition": report["coalition"].copy(),
                              "setting": list(setting), "dependent": a.dependent,
                              "rule": dict(a.rule_json), "success": a.success_json,
                              "mi_bits": a.mi_bits, "impractical": impractical, "note": a.note}
                             for setting, a in zip(shared_bits(len(coal))[0], analyses)]
    dependent = sum(1 for a in analyses if a.dependent)
    # both counting conventions: settings, and (setting, sender bit) cases
    report["summary"] = {"settings": len(analyses), "dependent_settings": dependent,
                         "cases": 2 * len(analyses), "dependent_cases": 2 * dependent,
                         "impractical": impractical}
    return report


def _report(box_label: str, cbox: ConstrainedBox, direction: tuple | None = None,
            entries: bool = True) -> tuple[dict, dict]:
    """``scan_report_json``'s payload, or ``report_json``'s of a ``direction``
    as ``_scan`` takes it, each report's entries only if asked for, and the
    counts of the distinct lines, buckets and analyses its scan built."""
    names = party_names(cbox.n)
    records, built = _scan(cbox, names, direction)
    reports = [_direction_json(names, *record, entries) for record in records]
    head = head_json(box_label, cbox.n, cbox.pattern)
    if direction is not None:
        (report,), analyses = reports, records[0][3]
        report["summary"]["max_success"] = str(max(Fraction(*a.odds) for a in analyses))
        report["summary"]["mean_mi_bits"] = mean_mi_bits(analyses)
        return {**head, **report}, built
    overall = {key: sum(r["summary"][key] for r in reports) for key in
               ("settings", "dependent_settings", "cases", "dependent_cases")}
    overall["directions"] = len(reports)
    overall["dependent_directions"] = sum(r["summary"]["dependent_settings"] > 0
                                          for r in reports)
    return {**head, "reports": reports, "summary": overall}, built


def report_json(box_label: str, cbox: ConstrainedBox, sender: int,
                coalition: Iterable[int]) -> dict:
    """Full signaling report for one sender/coalition pair as a JSON dict."""
    return _report(box_label, cbox, _check_scenario(cbox, sender, coalition))[0]


def scan_report_json(box_label: str, cbox: ConstrainedBox) -> dict:
    """Each direction's report, in ``full_scan``'s order, and overall counts."""
    return _report(box_label, cbox)[0]


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
