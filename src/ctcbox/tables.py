"""Frozen reference scenarios for the built-in boxes under constraints.

Each scenario pins a named box and a constraint pattern to the exact
deterministic input -> output map the constrained box must produce.
The maps below were derived by hand from the defining parity relations
and are stored literally, so `verify_scenario` genuinely cross-checks
the engine instead of comparing it with itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boxes import NAMED_FORMS, BoxName, named_box
from .ctc import constrain, induced_parity_form
from .forms import input_names, output_names

Bits = tuple[int, ...]


@dataclass(frozen=True)
class Scenario:
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


@dataclass(frozen=True)
class ScenarioCheck:
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
