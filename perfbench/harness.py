"""Timing, tracing and checking shared by the benchmark's workloads."""

from __future__ import annotations

import contextlib
import hashlib
import json
import time

NULL_SPAN = contextlib.nullcontext()


class Tracer:
    """Spans around calls into ctcbox, kept in memory; a no-op when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def _span(self, name, attrs):
        record = {"name": name, "parent": self._open[-1] if self._open else None,
                  **attrs}
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["ms"] = (time.perf_counter() - record["start"]) * 1e3
            self._open.pop()

    def span(self, name, **attrs):
        return self._span(name, attrs) if self.enabled else NULL_SPAN

    def times(self, name, **attrs) -> list[float]:
        return [s["ms"] for s in self.spans if s["name"] == name
                and all(s.get(k) == v for k, v in attrs.items())]


class CaseFailed(Exception):
    """An operation raised, so the rest of its case has no input."""


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    elif not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True, default=str).encode()
    return hashlib.sha256(data).hexdigest()


class Session:
    """Times operations, checks their outputs and counts what went wrong.

    ``wrong`` counts outputs that contradict the reference (and calls that
    raised); ``failed`` also counts operations that honestly reported
    they did not reach their goal, such as a solver out of iterations.
    """

    def __init__(self, tracer: Tracer, goldens: dict, recording: bool = False,
                 speed=None):
        self.tracer = tracer
        self.speed = speed
        self.goldens = goldens
        self.recorded = {"any_seed": {}, "by_seed": {}} if recording else None
        self.latencies: list[float] = []  # at nominal speed when ``speed`` is set
        self.raw: list[float] = []
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.counts: dict[str, int] = {}
        self.sigma_errors: list[float] = []

    def op(self, name, layer, fn, check=None, **attrs):
        mark = self.speed.mark() if self.speed else time.perf_counter()
        try:
            with self.tracer.span(layer, **attrs):
                value = fn()
        except Exception as err:  # a crash is a wrong answer, not the end of the run
            self._record(mark)
            self.problem("wrong", name, f"raised {type(err).__name__}: {err}")
            raise CaseFailed(name) from err
        self._record(mark)
        found = check(value) if check else None
        if found:
            self.problem(found[0], name, found[1])
        return value

    def _record(self, mark):
        if self.speed:
            raw, scaled = self.speed.elapsed(mark)
        else:
            raw = scaled = time.perf_counter() - mark
        self.raw.append(raw)
        self.latencies.append(scaled)

    def problem(self, kind, name, reason):
        self.failed += 1
        self.wrong += kind == "wrong"
        if len(self.problems) < 20:
            self.problems.append(f"{kind}: {name}: {reason}")

    def golden(self, key, data, seeded=False):
        """None if ``data`` matches the recorded golden (or none exists).

        Goldens of ``seeded`` outputs exist for the default and held-out
        seeds only; on other seeds the oracle checks stand alone.
        """
        value = digest(data)
        if self.recorded is not None:
            self.recorded["by_seed" if seeded else "any_seed"][key] = value
            return None
        expected = self.goldens.get(key)
        if expected is not None and expected != value:
            return ("wrong", f"differs from the golden output {key}")
        return None

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value


def interleave(fillers: list, anchors: list) -> list:
    """``anchors`` in order, with ``fillers`` spread evenly around them.

    Short operations are spread over the whole pass, so their latency
    quantiles sample the machine over the pass and not over one moment.
    """
    chunks = len(anchors) + 1
    out = []
    for i in range(chunks):
        out += fillers[i * len(fillers) // chunks:(i + 1) * len(fillers) // chunks]
        out += anchors[i:i + 1]
    return out


def first(*checks):
    for found in checks:
        if found:
            return found
    return None
