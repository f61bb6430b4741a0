"""Frozen reference scenarios for the built-in boxes under constraints.

Each scenario pins a named box and a constraint pattern to the exact
deterministic input -> output map the constrained box must produce.
The maps below were derived by hand from the defining parity relations
and are stored literally, so `verify_scenario` genuinely cross-checks
the engine instead of comparing it with itself.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .boxes import NAMED_FORMS, BoxName, named_box
from .ctc import constrain, head_json, induced_parity_form
from .forms import bit_string, input_names, output_names

Bits = tuple[int, ...]


class Scenario(NamedTuple):
    key: str
    box: BoxName
    pattern: tuple[int, ...]
    mapping: dict[Bits, Bits]


SCENARIOS: dict[str, Scenario] = {
    "I": Scenario("I", BoxName.PR, (1,), {
        (0, 0): (0, 0),
        (0, 1): (1, 1),
        (1, 0): (0, 0),
        (1, 1): (0, 1),
    }),
    "II": Scenario("II", BoxName.SVETLICHNY, (1, 2), {
        (0, 0, 0): (0, 0, 0),
        (0, 0, 1): (1, 0, 1),
        (0, 1, 0): (1, 1, 0),
        (0, 1, 1): (1, 1, 1),
        (1, 0, 0): (0, 0, 0),
        (1, 0, 1): (0, 0, 1),
        (1, 1, 0): (0, 1, 0),
        (1, 1, 1): (1, 1, 1),
    }),
    "III": Scenario("III", BoxName.MERMIN1, (1, 2), {
        (0, 0, 0): (0, 0, 0),
        (0, 0, 1): (1, 0, 1),
        (0, 1, 0): (1, 1, 0),
        (0, 1, 1): (0, 1, 1),
        (1, 0, 0): (0, 0, 0),
        (1, 0, 1): (0, 0, 1),
        (1, 1, 0): (0, 1, 0),
        (1, 1, 1): (0, 1, 1),
    }),
    "IV": Scenario("IV", BoxName.MERMIN1, (0, 1), {
        (0, 0, 0): (0, 0, 0),
        (0, 0, 1): (0, 0, 0),
        (0, 1, 0): (0, 1, 1),
        (0, 1, 1): (0, 1, 1),
        (1, 0, 0): (1, 0, 1),
        (1, 0, 1): (1, 0, 0),
        (1, 1, 0): (1, 1, 1),
        (1, 1, 1): (1, 1, 0),
    }),
}

SCENARIO_KEYS = tuple(SCENARIOS)


def scenario(key: str) -> Scenario:
    try:
        return SCENARIOS[key.upper()]
    except KeyError:
        raise ValueError(f"unknown scenario {key!r}; "
                         f"known: {', '.join(SCENARIO_KEYS)}") from None


class ScenarioCheck(NamedTuple):
    scenario: Scenario
    computed: dict[Bits, Bits] | None
    ok: bool


def verify_scenario(s: Scenario) -> ScenarioCheck:
    """Recompute the constrained box and compare with the frozen map."""
    cbox = constrain(named_box(s.box), s.pattern)
    computed = cbox.deterministic_map()
    return ScenarioCheck(s, computed, computed == s.mapping)


def scenario_relation(s: Scenario) -> str:
    """The induced relation, solved for the one unconstrained output."""
    form = NAMED_FORMS[s.box]
    g = induced_parity_form(form, s.pattern)
    free = [i for i in range(form.n) if i not in s.pattern]
    lhs = " ^ ".join(output_names(form.n)[i] for i in free) or "0"
    return f"{lhs} = {g.render(input_names(form.n))}"


def scenario_head(s: Scenario) -> dict:
    """The scenario's key and ``ctc.head_json``, as the payloads list it."""
    return {"key": s.key, **head_json(s.box.value, NAMED_FORMS[s.box].n, s.pattern)}


def reproduce_json(key: str) -> dict:
    """The ``reproduce`` payload: one scenario, or every one for "all" (any case)."""
    chosen = SCENARIOS.values() if key.lower() == "all" else [scenario(key)]
    scenarios = []
    for check in map(verify_scenario, chosen):
        rows = sorted((check.computed or {}).items())
        scenarios.append({**scenario_head(check.scenario),
                          "relation": scenario_relation(check.scenario),
                          "rows": [{"in": list(i), "out": list(o)} for i, o in rows],
                          "ok": check.ok})
    return {"scenarios": scenarios, "ok": all(s["ok"] for s in scenarios)}


def render_reproduce(payload: dict) -> Iterator[str]:
    for s in payload["scenarios"]:
        yield (f"scenario {s['key']}: box {s['box']}, "
               f"self-consistent parties: {', '.join(s['ctc'])}")
        yield f"induced relation: {s['relation']}"
        # a deterministic map has a row for every input, so no rows means
        # the constrained box was not deterministic
        if not s["rows"]:
            yield "check: FAIL (constrained box is not deterministic)"
            yield ""
            continue
        n = len(s["rows"][0]["in"])
        ins = " ".join(input_names(n))
        outs = " ".join(output_names(n))
        yield f"{ins} | {outs}"
        yield "-" * (len(ins) + len(outs) + 3)
        for row in s["rows"]:
            yield f"{bit_string(row['in'], ' ')} | {bit_string(row['out'], ' ')}"
        yield (f"check: {'OK' if s['ok'] else 'FAIL'} "
               f"(computed table {'matches' if s['ok'] else 'differs from'} "
               f"the frozen reference)")
        yield ""
    yield f"overall: {'OK' if payload['ok'] else 'FAIL'}"
