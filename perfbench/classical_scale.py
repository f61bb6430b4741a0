"""classical_scale: exact parity-box tables, loop tables and their scans.

The named boxes and seeded random GF(2) forms at n = 3..7, each built,
looped on one party, verified (the box passes, the loop table fails with
its first witness) and scanned for n <= 6; then mixtures of three
parity boxes with weights over a ~1e18 denominator, taken through
box_to_spec, JSON and box_from_spec.  Cases below n = 6 repeat and are
spread between the big ones.
"""

from __future__ import annotations

import contextlib
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from ctcbox import (NoSignalBox, box_from_spec, box_to_spec, constrain,
                    is_no_signaling, named_box, parity_box, scan_report_json)
from ctcbox.forms import BooleanForm

import parity_oracle
from harness import CaseFailed, Session, first, interleave

NAMED = {"pr": (2, [(0, 1)], 1),
         "svetlichny": (3, [(0, 1), (1, 2), (0, 2)], 0),
         "mermin1": (3, [(0, 1), (0, 2)], 1),
         "mermin2": (3, [(0, 1, 2)], 2)}
RANDOM_SIZES = (3, 3, 4, 4, 5, 5, 6, 6, 7)
MIXTURE_SIZES = (4, 5, 6)
BIG_N = 6  # cases from this size on anchor the pass; smaller ones repeat
SMALL_ROUNDS = 4
SCAN_MAX_N = 6
MIXTURE_SCAN_MAX_N = 5
RANDOM_LOOPED = 0


def random_monomials(rng: random.Random, n: int, looped: int) -> list:
    """n monomials of degree 2 or 3, one through the looped party, and one
    of degree 1.

    A monomial of degree two or more through the looped party makes the
    conditioned table signal, so the witness check always has an answer.
    The count is fixed so the cost of a case varies little with the seed.
    """
    pool = [c for k in (2, 3) for c in combinations(range(n), k)]
    monos = rng.sample(pool, n)
    if not any(looped in m for m in monos):
        monos[0] = (looped, rng.choice([p for p in range(n) if p != looped]))
    monos.append((rng.randrange(n),))
    return sorted(monos, key=lambda m: (len(m), m))


def xor(bits) -> int:
    return sum(bits) % 2


def all_bits(n):
    return [tuple((k >> (n - 1 - i)) & 1 for i in range(n)) for k in range(2 ** n)]


def mixture_rows(n, components) -> dict:
    """Rows of sum_k w_k B(f_k) for (w_k, monomials of f_k) components."""
    unit = Fraction(1, 2 ** (n - 1))
    rows = {}
    for x in all_bits(n):
        row = {}
        for w, monos in components:
            rhs = parity_oracle.form_value(monos, x)
            for out in all_bits(n):
                if xor(out) == rhs:
                    row[out] = row.get(out, 0) + w * unit
        rows[x] = row
    return rows


def verdict_json(verdict) -> dict:
    w = verdict.witness
    if w is None:
        return {"ok": verdict.ok}
    return {"ok": verdict.ok, "coalition": w.coalition, "inputs_a": w.inputs_a,
            "inputs_b": w.inputs_b,
            "marginal_a": sorted((k, str(v)) for k, v in w.marginal_a.items()),
            "marginal_b": sorted((k, str(v)) for k, v in w.marginal_b.items())}


def check_scan(payload, n, components, looped) -> tuple | None:
    """Compare every entry's verdict and success with the parity oracle."""
    expected = parity_oracle.expected_scan(n, components, looped)
    reports = payload["reports"]
    if len(reports) != len(expected):
        return ("wrong", f"{len(reports)} directions, expected {len(expected)}")
    for report, (sender, coal, entries) in zip(reports, expected):
        got = [(e["dependent"], Fraction(e["success"])) for e in report["entries"]]
        if got != entries:
            return ("wrong", f"direction {sender}->{coal} differs from the oracle")
    dependent = sum(d for _, _, entries in expected for d, _ in entries)
    if payload["summary"]["dependent_settings"] != dependent:
        return ("wrong", "summary count differs from the oracle")
    return None


class ClassicalScale:
    """Parity boxes at n = 2..7, their loop tables and big-weight mixtures."""

    def __init__(self, seed: int, tmp: Path):
        rng = random.Random(seed * 7919 + 1)
        cases = []
        for name, (n, monos, looped) in NAMED.items():
            cases.append((name, n, monos, looped, None))
        for k, n in enumerate(RANDOM_SIZES):
            monos = random_monomials(rng, n, RANDOM_LOOPED)
            form = BooleanForm.from_monomials(n, monos)
            cases.append((f"n{n}.{k}", n, monos, RANDOM_LOOPED, form))
        mixtures = [self._mixture(rng, n) for n in MIXTURE_SIZES]
        steps = ([(c[1], self._case, c) for c in cases]
                 + [(m[0], self._mixture_case, m) for m in mixtures])
        small = [(fn, args) for n, fn, args in steps if n < BIG_N]
        big = [(fn, args) for n, fn, args in steps if n >= BIG_N]
        self.schedule = interleave(small * SMALL_ROUNDS, big)

    @staticmethod
    def _mixture(rng, n):
        """Three parity boxes with weights over a random ~1e18 denominator.

        The second form is the first plus the constant 1, so every row has
        all 2^n outcomes and the table's size does not depend on the seed.
        """
        den = rng.randrange(10 ** 18, 2 * 10 ** 18)
        a = rng.randrange(1, den - 1)
        b = rng.randrange(1, den - a)
        weights = [Fraction(a, den), Fraction(b, den), Fraction(den - a - b, den)]
        f = random_monomials(rng, n, RANDOM_LOOPED)
        forms = [f, [()] + f, random_monomials(rng, n, RANDOM_LOOPED)]
        components = list(zip(weights, forms))
        return n, components, NoSignalBox(n, mixture_rows(n, components),
                                          label=f"mix{n}")

    def run_pass(self, s: Session):
        for step, args in self.schedule:
            with contextlib.suppress(CaseFailed):
                step(s, *args)

    def _case(self, s, key, n, monos, looped, form):
        named = form is None
        if named:
            box = s.op(f"{key}.named_box", "boxes.named_box",
                       lambda: named_box(key),
                       lambda b: self._check_box(s, b, n, monos, named), n=n)
        else:
            box = s.op(f"{key}.parity_box", "boxes.parity_box",
                       lambda: parity_box(form, label=key),
                       lambda b: self._check_box(s, b, n, monos, named), n=n)
        cbox = s.op(f"{key}.constrain", "ctc.constrain",
                    lambda: constrain(box, [looped]),
                    lambda c: self._check_looped(c, n, monos, looped), n=n)
        s.op(f"{key}.is_no_signaling", "boxes.is_no_signaling",
             lambda: is_no_signaling(box),
             lambda v: first(None if v.ok else ("wrong", "parity box signals"),
                             s.golden(f"classical:{key}.verdict", verdict_json(v), not named)),
             n=n, kind="pass")
        table = s.op(f"{key}.table", "boxes.NoSignalBox",
                     lambda: NoSignalBox(n, {x: r.outcomes for x, r in cbox.rows.items()}),
                     n=n)
        free = tuple(p for p in range(n) if p != looped)
        s.op(f"{key}.witness", "boxes.is_no_signaling",
             lambda: is_no_signaling(table),
             lambda v: first(self._check_witness(v, free),
                             s.golden(f"classical:{key}.witness", verdict_json(v), not named)),
             n=n, kind="witness")
        if n <= SCAN_MAX_N:
            s.op(f"{key}.scan", "signaling.scan_report_json",
                 lambda: scan_report_json(key, cbox),
                 lambda p: first(check_scan(p, n, [(Fraction(1), monos)], looped),
                                 s.golden(f"classical:{key}.scan", p, not named),
                                 self._count_scan(s, p, named)),
                 n=n, kind="parity")
        if named:
            expected = parity_oracle.paradox_rows(n, monos)
            s.op(f"{key}.constrain_all", "ctc.constrain",
                 lambda: constrain(box, range(n)),
                 lambda c: self._check_paradoxes(s, c, expected), n=n)

    def _mixture_case(self, s, n, components, mix):
        key = f"mix{n}"
        text = s.op(f"{key}.box_to_spec", "boxes.box_to_spec",
                    lambda: json.dumps(box_to_spec(mix)),
                    lambda t: s.golden(f"classical:{key}.spec", t, True), n=n)
        loaded = s.op(f"{key}.box_from_spec", "boxes.box_from_spec",
                      lambda: box_from_spec(json.loads(text), label=key),
                      lambda b: None if b == mix else ("wrong", "round trip changed the table"),
                      n=n)
        s.op(f"{key}.is_no_signaling", "boxes.is_no_signaling",
             lambda: is_no_signaling(loaded),
             lambda v: None if v.ok else ("wrong", "mixture signals"),
             n=n, kind="mixture")
        if n <= MIXTURE_SCAN_MAX_N:
            cbox = s.op(f"{key}.constrain", "ctc.constrain",
                        lambda: constrain(loaded, [RANDOM_LOOPED]), n=n)
            s.op(f"{key}.scan", "signaling.scan_report_json",
                 lambda: scan_report_json(key, cbox),
                 lambda p: first(check_scan(p, n, components, RANDOM_LOOPED),
                                 s.golden(f"classical:{key}.scan", p, True)),
                 n=n, kind="mixture")

    @staticmethod
    def _check_box(s, box, n, monos, named):
        unit = Fraction(1, 2 ** (n - 1))
        for x in all_bits(n):
            rhs = parity_oracle.form_value(monos, x)
            want = {out: unit for out in all_bits(n) if xor(out) == rhs}
            if box.rows[x] != want:
                return ("wrong", f"row {x} differs from the parity relation")
        if named:
            s.count("boxes.rows_nonzero", sum(len(r) for r in box.rows.values()))
        return None

    @staticmethod
    def _check_looped(cbox, n, monos, looped):
        unit = Fraction(1, 2 ** (n - 2)) if n > 2 else Fraction(1)
        for x in all_bits(n):
            rhs = parity_oracle.form_value(monos, x)
            want = {out: unit for out in all_bits(n)
                    if xor(out) == rhs and out[looped] == x[looped]}
            row = cbox.rows[x]
            if row.paradox or row.outcomes != want:
                return ("wrong", f"conditioned row {x} is wrong")
        return None

    @staticmethod
    def _check_witness(verdict, free):
        w = verdict.witness
        if verdict.ok or w is None:
            return ("wrong", "loop table passed the no-signaling check")
        if w.coalition != free:
            return ("wrong", f"witness coalition {w.coalition}, expected {free}")
        if any(w.inputs_a[p] != w.inputs_b[p] for p in free):
            return ("wrong", "witness inputs differ on the coalition")
        if w.marginal_a == w.marginal_b:
            return ("wrong", "witness marginals are equal")
        return None

    @staticmethod
    def _count_scan(s, payload, named):
        if named:
            summary = payload["summary"]
            s.count("signaling.directions", summary["directions"])
            s.count("signaling.settings", summary["settings"])
            s.count("signaling.dependent_settings", summary["dependent_settings"])
        return None

    @staticmethod
    def _check_paradoxes(s, cbox, expected):
        found = len(cbox.paradox_inputs)
        s.count("ctc.paradox_rows", found)
        return None if found == expected else (
            "wrong", f"{found} paradox rows, expected {expected}")


def mixture_entries(n, components) -> list:
    """Table-spec entries of a mixture of parity boxes, exact strings."""
    return [{"in": list(x), "out": list(out), "p": str(p)}
            for x, row in mixture_rows(n, components).items()
            for out, p in sorted(row.items())]


WORKLOAD = ClassicalScale
