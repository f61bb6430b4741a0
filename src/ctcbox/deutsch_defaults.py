"""The loop solver's defaults and example names, without numpy.

The CLI needs these before any solve (argparse defaults, ``list`` and
``--help``), so they live here and `deutsch`, which imports numpy, takes
them from this module.
"""

RESIDUAL_TOL = 1e-10
MAX_ITERATIONS = 100_000
# the keys of deutsch.EXAMPLES, in order
EXAMPLE_NAMES = ("swap", "grandfather", "cnot", "product")
