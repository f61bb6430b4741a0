"""Exact analysis of correlation boxes under self-consistency constraints.

The package builds no-signaling boxes from parity constraints over
party inputs, conditions them on chosen parties reproducing their own
inputs, measures the signaling that conditioning creates, and solves
the density-matrix fixed-point equation for the analogous quantum loop.

Only the quantum-loop names, those of `deutsch`, need numpy; they are
loaded on first access, so importing the package does not load numpy.
"""

from .boxes import (BoxName, BoxSpecError, CHSH_CLASSICAL_BOUND,
                    CHSH_TSIRELSON_BOUND, MarginalDistribution, NAMED_FORMS,
                    NoSignalBox, NoSignalingVerdict, SignalingWitness,
                    all_bit_tuples, box_from_spec, box_to_spec, chsh_value,
                    is_no_signaling, marginal, named_box, parity_box,
                    parity_equation)
from .ctc import (ConstrainedBox, ConstrainedRow, constrain, constrained_to_json,
                  induced_parity_form, normalize_pattern, parse_pattern)
from .forms import BooleanForm, as_bit, input_names, output_names, party_names, xor_bits
from .signaling import (SignalingEntry, analyze, analyze_setting, full_scan, mean_mi_bits,
                        receiver_observation, report_json, scan_report_json)
from .tables import SCENARIOS, Scenario, scenario, scenario_relation, verify_scenario

__version__ = "0.1.0"

__all__ = [
    "BooleanForm", "BoxName", "BoxSpecError", "CHSH_CLASSICAL_BOUND",
    "CHSH_TSIRELSON_BOUND", "ClassicalCrosscheck", "ConstrainedBox",
    "ConstrainedRow", "FixedPointResult", "MarginalDistribution",
    "NAMED_FORMS", "NoSignalBox", "NoSignalingVerdict", "SCENARIOS",
    "Scenario", "SignalingEntry", "SignalingWitness", "all_bit_tuples",
    "analyze", "analyze_setting", "as_bit", "box_from_spec", "box_to_spec",
    "chsh_value", "classical_consistency_crosscheck", "constrain",
    "constrained_to_json", "cr_output", "example", "fixed_point", "full_scan",
    "induced_parity_form", "input_names", "is_basis_permutation",
    "is_no_signaling", "loop_map", "marginal", "matrix_from_json",
    "matrix_to_json", "mean_mi_bits", "named_box", "normalize_pattern",
    "output_names", "parity_box", "parity_equation", "parse_pattern",
    "party_names", "receiver_observation", "report_json", "scan_report_json",
    "scenario", "scenario_relation", "trace_norm", "verify_scenario",
    "xor_bits",
]

_DEUTSCH_NAMES = ("ClassicalCrosscheck", "FixedPointResult",
                  "classical_consistency_crosscheck", "cr_output", "example",
                  "fixed_point", "is_basis_permutation", "loop_map",
                  "matrix_from_json", "matrix_to_json", "trace_norm")


def __getattr__(name: str):
    if name in _DEUTSCH_NAMES:
        from . import deutsch
        return getattr(deutsch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_DEUTSCH_NAMES})
