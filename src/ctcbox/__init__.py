"""Exact analysis of correlation boxes under self-consistency constraints.

The package builds no-signaling boxes from parity constraints over
party inputs, conditions them on chosen parties reproducing their own
inputs, measures the signaling that conditioning creates, and solves
the density-matrix fixed-point equation for the analogous quantum loop.

``import ctcbox`` loads no submodule: every name below, and each of these
submodules, is imported on first access.  Only the quantum-loop names,
those of `deutsch`, need numpy, so numpy loads only when one of them is
first used.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "boxes": ("BoxName", "BoxSpecError", "CHSH_CLASSICAL_BOUND", "CHSH_TSIRELSON_BOUND",
              "NAMED_FORMS", "NoSignalBox", "NoSignalingVerdict", "SignalingWitness",
              "all_bit_tuples", "box_from_spec", "box_to_spec", "chsh_value",
              "is_no_signaling", "named_box", "parity_box", "parity_equation"),
    "ctc": ("ConstrainedBox", "ConstrainedRow", "constrain", "constrained_to_json",
            "induced_parity_form", "parse_pattern"),
    "deutsch": ("ClassicalCrosscheck", "FixedPointResult", "classical_consistency_crosscheck",
                "cr_output", "example", "fixed_point", "is_basis_permutation", "loop_map",
                "matrix_from_json", "matrix_to_json", "trace_norm"),
    "forms": ("BooleanForm", "as_bit", "input_names", "normalize_pattern", "output_names",
              "party_names", "xor_bits"),
    "signaling": ("SignalingEntry", "analyze", "full_scan", "mean_mi_bits", "report_json",
                  "scan_report_json"),
    "tables": ("SCENARIOS", "Scenario", "scenario", "scenario_relation", "verify_scenario"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name or a submodule of the table, imported and then kept."""
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_MODULE_OF})
