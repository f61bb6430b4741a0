"""Fixed-point states for a qubit-scale chronology-respecting interaction.

A chronology-respecting (CR) system in state rho meets a looped system
through a unitary U acting on CR (x) loop.  The loop state sigma must
reproduce itself around the loop:

    sigma = Tr_CR( U (rho (x) sigma) U^dagger )

`fixed_point` solves this by iterating the map from the maximally mixed
state and tracking both the raw iterates and their running average; the
first of the two whose residual (trace-norm distance moved by one more
map application) drops below tolerance is returned.  The raw sequence
catches maps that settle in a step or two, the averaged one catches
oscillating maps; a map can in principle defeat both within the
iteration budget, in which case the result reports non-convergence
rather than guessing.

What a step costs: the map T is linear in sigma, so its
d_loop^2 x d_loop^2 matrix is built once per solve, and a step is one
matrix-vector product for the raw iterate alone.  T is also trace
preserving, so the average A_m of sigma_0 .. sigma_m telescopes:
T(A_m) - A_m = (sigma_(m+1) - sigma_0) / (m + 1).  Both residuals of a
step are thus differences of raw iterates.  Steps are built in blocks of
1, 2, 4, ... up to BLOCK_CAP, each starting from the last iterate of the
block before it, re-hermitized.  They are judged in windows, with one
stacked eigvalsh call per window for both residuals of every step in it:
the first window is the first WINDOW = 31 steps, the blocks of 1, 2, 4, 8
and 16; the blocks of 32, 64 and 128 are a window each; and full blocks
are judged LONG_WINDOW = 1,024 steps, four blocks, at a time.  Most solves
end within those 31 steps, and the slow-gap ones run for thousands of
steps in full blocks: in both, one call per block cost more in fixed numpy
overhead than in arithmetic.  A full block of BLOCK_CAP = 256 steps is
filled by doubling, rows[k:2k] = rows[:k] T^k for k = 1, 2, 4, ..., 256:
nine products against powers of T that are squared once per solve.
Squaring costs about d_loop^6, so only loops up to POWER_MAX_LOOP = 8 take
this path; larger loops, and every shorter block, keep one product per
step.  At d_cr = 1, d_loop = 16 and tol 1e-300, a budget of 520 steps
took 31-45 ms one product a step and 52-79 ms filled from powers; at
3,000 steps the two were level (153-158 and 155-185 ms).  Each side is
five fresh processes, each the median of 9 solves, on one pinned CPU of
a shared 2-vCPU VM.  No benchmark workload has a loop above 8.

Every window is screened before eigvalsh sees it.  From what eigvalsh
reads of each residual matrix H (the lower triangle and the real
diagonal) come the bounds

    sqrt(2 ||H||_F^2 - tr^2)  <=  ||H||_1  <=  min(sum |h_ii|
      + 2 sum_(i>j) (|Re h_ij| + |Im h_ij|), sqrt(d) ||H||_F),

three products of the residuals' float view with fixed weight vectors,
divided by m + 1 for an average like the residual itself and widened by
SCREEN_MARGIN and SCREEN_FLOOR against rounding and underflow.  Only the
steps up to the first whose upper bound is <= tol, and among them only
those whose lower bound is <= max(tol, smallest upper bound), go to
eigvalsh; no other can be the window's first hit or its first smallest
residual, so every choice and every returned value is that of judging
all of them.  At d_loop 2, where the residuals are traceless, the lower
bound is the trace norm itself, and a long window of the slow-gap cases
sends one matrix to eigvalsh instead of 2,048.

A window of several blocks returns what judging them one by one would,
bit for bit: its first hit and its first smallest residual are those
that block after block would find, and an averaged candidate adds the
blocks' sums to the running total one block at a time, in order.

Iteration counts and choices are those of judging one step at a time,
except at the rounding floor: once residuals are rounding noise (a tol
far below 1e-15), the chosen step may differ, and the state only by
rounding.  A candidate is hermitized only when it is returned.  The
100,000 steps of the non-converging 4 x 3 problem take about 0.07 s on
one core of a shared 2-vCPU VM, against 0.09 s when each full block was
a window of its own: the median over 7 alternating rounds, each the
median of 21 solves in a fresh process pinned to one CPU (rounds read
0.05-0.08 s and 0.07-0.11 s).

`classical_consistency_crosscheck` connects this solver back to the
classical box analysis: when U permutes basis states and rho is
diagonal, the loop dynamics is a classical stochastic map, the fixed
point should stay diagonal, and whenever no input branch is left
without a consistent loop value the fixed distribution should equal
the conditioned uniform mixture over each branch's consistent set.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

import numpy as np

# EXAMPLE_NAMES is re-exported: it names the keys of EXAMPLES below
from .deutsch_defaults import EXAMPLE_NAMES, MAX_ITERATIONS, RESIDUAL_TOL
from .forms import as_index

MAX_DIM = 16
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
UNITARY_TOL = 1e-10
MATCH_TOL = 1e-9
# the longest block fixed_point builds
BLOCK_CAP = 256
# up to this loop dimension a full block is filled from squared powers of
# the map; squaring costs about d_loop^6, and at d_loop 16 it takes about
# eight full blocks to repay (see the module docstring)
POWER_MAX_LOOP = 8
# fixed_point judges its first WINDOW steps, the blocks of 1, 2, 4, 8 and
# 16 steps, with one eigvalsh call; 2^k - 1, so that it ends on a block edge
WINDOW = 31
# full blocks are judged LONG_WINDOW steps, four blocks, at a time; windows
# of eight blocks ran no faster end to end and held about 1 MB more
LONG_WINDOW = 4 * BLOCK_CAP
# relative widening of the trace-norm bounds that screen a block:
# eigvalsh's trace norm and the bounds each round by a few hundred ulps at
# most at d <= 16 (d^2 eps is about 6e-14), so 1e-9 leaves a wide margin
SCREEN_MARGIN = 1e-9
# absolute widening of the same bounds: squares of entries below about
# 1e-154 underflow, which moves the Frobenius-norm bounds by less than
# 1e-151; no bound is trusted closer to 0 than this
SCREEN_FLOOR = 1e-140


def _hermitian_trace_norms(matrices: np.ndarray) -> np.ndarray:
    """Trace norms of a stack of Hermitian matrices, in one eigvalsh call."""
    # eigvalsh reads only the lower triangle, so the matrix must be Hermitian
    return np.abs(np.linalg.eigvalsh(matrices)).sum(axis=-1)


@functools.cache
def _bound_weights(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights on the float view of a row-major d x d complex matrix.

    The first is 1 on the real part of the diagonal, 2 on both parts of
    the strict lower triangle and 0 elsewhere; the second is 1 on the
    real part of the diagonal alone.  Neither reads what eigvalsh ignores.
    """
    weights = np.zeros((d, d, 2))
    weights[np.tril_indices(d, -1)] = 2
    trace = np.zeros((d, d, 2))
    trace[np.arange(d), np.arange(d), 0] = 1
    weights += trace
    weights, trace = weights.reshape(-1), trace.reshape(-1)
    weights.flags.writeable = trace.flags.writeable = False
    return weights, trace


def _trace_norm_bounds(flat: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the trace norms of row-major d x d matrices.

    Each row of ``flat`` is read as eigvalsh reads its matrix H: the strict
    lower triangle and the real part of the diagonal.  With P and N the
    sums of the positive and the negative eigenvalues' moduli, P + N is
    the trace norm and P - N the trace, and ||H||_F^2 <= P^2 + N^2, so
    the trace norm is at least sqrt(2 ||H||_F^2 - tr^2).  Above, it is at
    most sum |h_ii| plus twice the moduli of the lower triangle (a sum of
    2 x 2 blocks), each at most |Re h_ij| + |Im h_ij|, and at most
    sqrt(d) ||H||_F.  At d <= 2 the lower bound is the trace norm of
    every matrix that is not definite, as the solver's traceless
    residuals are not.
    """
    x = flat.view(np.float64)
    weights, trace_weights = _bound_weights(d)
    a = np.abs(x)
    entrywise = a @ weights
    frobenius2 = np.square(a, out=a) @ weights
    trace = x @ trace_weights
    lower = np.sqrt(np.maximum(2 * frobenius2 - trace * trace, 0))
    upper = np.minimum(entrywise, np.sqrt(d * frobenius2))
    return lower, upper


def _screened_trace_norms(diffs: np.ndarray, counts: np.ndarray, d: int,
                          tol: float) -> np.ndarray:
    """Trace norms of ``diffs`` where they can decide a window.

    Entries 2i and 2i + 1 are a raw residual and an average's, the latter
    to be divided by ``counts[i]``.  The entries whose residual cannot be
    the window's first one <= ``tol``, nor its first smallest one, read
    +inf; the others are computed exactly as without the screen.
    """
    lower, upper = _trace_norm_bounds(diffs, d)
    lower[1::2] /= counts
    upper[1::2] /= counts
    # the widened bounds lower (1 - M) - F <= residual <= upper (1 + M) + F,
    # compared through scalar thresholds
    widen = 1 + SCREEN_MARGIN
    # no entry after a sure hit can be the first hit
    sure = (upper <= (tol - SCREEN_FLOOR) / widen).nonzero()[0]
    end = int(sure[0]) + 1 if sure.size else len(diffs)
    # a hit is at most tol; the smallest residual is at most every upper bound
    cut = max(tol, float(upper.min()) * widen + SCREEN_FLOOR)
    open_ = (lower[:end] <= (cut + SCREEN_FLOOR) / (1 - SCREEN_MARGIN)).nonzero()[0]
    norms = np.full(len(diffs), np.inf)
    norms[open_] = _hermitian_trace_norms(diffs[open_].reshape(-1, d, d))
    return norms


def trace_norm(matrix: np.ndarray) -> float:
    """Sum of the absolute eigenvalues of a Hermitian matrix.

    This is the trace norm of the differences of states compared here.
    A matrix that is not Hermitian within HERMITIAN_TOL is rejected.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if not matrix.size:
        raise ValueError("trace_norm got an empty matrix")
    if (matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]
            or not np.abs(matrix - matrix.conj().T).max() <= HERMITIAN_TOL):
        raise ValueError(f"trace_norm needs a Hermitian matrix within {HERMITIAN_TOL}")
    return float(_hermitian_trace_norms(matrix))


def _as_square(matrix: np.ndarray, name: str) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not matrix.size:
        raise ValueError(f"{name} is an empty matrix")
    return matrix


def _square(matrix: np.ndarray, name: str) -> np.ndarray:
    matrix = _as_square(matrix, name)
    # a NaN would pass every comparison below, since each one is False
    if not np.isfinite(matrix).all():
        raise ValueError(f"{name} has a non-finite entry")
    return matrix


def check_density_matrix(rho: np.ndarray, *, name: str = "rho") -> np.ndarray:
    rho = _square(rho, name)
    if np.abs(rho - rho.conj().T).max() > HERMITIAN_TOL:
        raise ValueError(f"{name} is not Hermitian within {HERMITIAN_TOL}")
    if abs(np.trace(rho) - 1) > TRACE_TOL:
        raise ValueError(f"{name} must have unit trace")
    if np.linalg.eigvalsh(rho).min() < EIGENVALUE_FLOOR:
        raise ValueError(f"{name} has a negative eigenvalue")
    return rho


def check_unitary(u: np.ndarray) -> np.ndarray:
    u = _square(u, "unitary")
    d = u.shape[0]
    if np.abs(u.conj().T @ u - np.eye(d)).max() > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary within {UNITARY_TOL}")
    return u


def _reduced_output(u: np.ndarray, rho_cr: np.ndarray, sigma: np.ndarray,
                    traced: int) -> np.ndarray:
    """Trace factor ``traced`` (0 = CR, 1 = loop) out of U (rho_cr (x) sigma) U^dagger."""
    d_cr = rho_cr.shape[0]
    d_loop = sigma.shape[0]
    joint = u @ np.kron(rho_cr, sigma) @ u.conj().T
    t = joint.reshape(d_cr, d_loop, d_cr, d_loop)
    return np.trace(t, axis1=traced, axis2=traced + 2)


def loop_map(u: np.ndarray, rho_cr: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """One trip around the loop: Tr_CR( U (rho_cr (x) sigma) U^dagger )."""
    return _reduced_output(u, rho_cr, sigma, 0)


def _loop_superoperator(u: np.ndarray, rho_cr: np.ndarray, d_loop: int) -> np.ndarray:
    """The matrix of `loop_map` on row-major vec(sigma), d_loop^2 x d_loop^2."""
    d_cr = rho_cr.shape[0]
    n, s = d_loop * d_loop, d_cr * d_cr
    t = u.reshape(d_cr, d_loop, d_cr, d_loop)
    # out[a, b] = sum U[c a, i k] rho[i, j] sigma[k, l] conj(U[c b, j l]):
    # x[j, c, a, k] sums over i, then one product sums over (c, j)
    # np.dot hands a product over one index (d_cr = 1) to BLAS, where @ does not
    x = np.dot(rho_cr.T, t.transpose(2, 0, 1, 3).reshape(d_cr, -1))
    left = x.reshape(d_cr, d_cr, d_loop, d_loop).transpose(2, 3, 1, 0).reshape(n, s)
    right = t.conj().transpose(0, 2, 1, 3).reshape(s, n)
    m = np.dot(left, right).reshape(d_loop, d_loop, d_loop, d_loop)
    return m.transpose(0, 2, 1, 3).reshape(n, n)


def cr_output(u: np.ndarray, rho_cr: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """State of the CR system after the interaction with the loop state."""
    return _reduced_output(u, rho_cr, sigma, 1)


class FixedPointResult(NamedTuple):
    sigma: np.ndarray
    iterations: int
    residual: float
    converged: bool
    from_average: bool


def _hermitize(matrix: np.ndarray) -> np.ndarray:
    """(M + M^dagger) / 2, divided by its trace unless that is zero."""
    # the halving cancels in the ratio, exactly, since it scales by a power of 2
    sym = matrix + matrix.conj().T
    tr = sym.trace().real
    return sym / tr if tr != 0 else sym / 2


def fixed_point(u: np.ndarray, rho_cr: np.ndarray, d_loop: int, *,
                tol: float = RESIDUAL_TOL,
                max_iterations: int = MAX_ITERATIONS) -> FixedPointResult:
    """Solve sigma = Tr_CR(U (rho_cr (x) sigma) U^dagger) from sigma = I/d."""
    if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
            or not (math.isfinite(tol) and tol > 0)):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    budget = as_index(max_iterations, "iteration budget")
    if budget < 0:
        raise ValueError(f"iteration budget must be nonnegative, got {budget}")
    # the shapes alone; finiteness is checked once, with the O(d^3) checks
    u = _as_square(u, "unitary")
    rho_cr = _as_square(rho_cr, "rho_cr")
    d_cr = rho_cr.shape[0]
    if not isinstance(d_loop, int) or isinstance(d_loop, bool) or d_loop < 1:
        raise ValueError(f"loop dimension must be a positive integer, got {d_loop!r}")
    if u.shape[0] != d_cr * d_loop:
        raise ValueError(
            f"unitary dimension {u.shape[0]} does not match CR dim {d_cr} "
            f"times loop dim {d_loop}")
    if u.shape[0] > MAX_DIM:
        raise ValueError(f"combined dimension exceeds {MAX_DIM}")
    # the O(d^3) checks run only once the size is accepted
    check_unitary(u)
    check_density_matrix(rho_cr, name="rho_cr")

    # row-major vec(sigma) times the transposed superoperator is one step
    step = _loop_superoperator(u, rho_cr, d_loop).T
    powers: list[np.ndarray] = []  # step ** (2 ** j) for 2 ** j = 1 .. BLOCK_CAP
    shape = (d_loop, d_loop)
    start = (np.eye(d_loop, dtype=complex) / d_loop).reshape(-1)
    total = np.zeros_like(start)  # sigma_0 + ... + sigma_(first - 1)
    # residual, step, from_average and the candidate before _hermitize
    best = (float("inf"), 0, False, start)

    def candidate(m: int, from_average: bool) -> np.ndarray:
        k = 0
        while m >= blocks[k][0] + len(blocks[k][1]) - 1:
            k += 1
        b, rows = blocks[k]
        if not from_average:
            return rows[m - b].copy()
        # the window's earlier blocks are added to total one at a time, as
        # total itself takes them, so the sum has the same bits either way
        summed = total
        for _, earlier in blocks[:k]:
            summed = summed + earlier[:-1].sum(axis=0)
        return (summed + rows[:m - b + 1].sum(axis=0)) / (m + 1)

    def result(residual: float, m: int, from_average: bool, vector: np.ndarray,
               converged: bool) -> FixedPointResult:
        # step 0's candidates are the start itself, which is not hermitized
        sigma = _hermitize(vector.reshape(shape)) if m else start.reshape(shape).copy()
        return FixedPointResult(sigma, m, residual, converged, from_average)

    first, n, last = 0, 1, start
    while first <= budget:
        # the window judges steps first .. end - 1: the blocks of the first
        # WINDOW steps together, then each block on its own, except that full
        # blocks go LONG_WINDOW steps at a time
        span = LONG_WINDOW if n == BLOCK_CAP else n
        end = min(max(first + span, WINDOW), budget + 1)
        # (b, rows) for each block, rows[i] being sigma_(b + i); the block
        # holds steps b .. b + len(rows) - 2
        blocks: list[tuple[int, np.ndarray]] = []
        diffs = np.empty((end - first, 2, d_loop * d_loop), dtype=complex)
        b = first
        while b < end:
            n = min(n, end - b)
            rows = np.empty((n + 1, d_loop * d_loop), dtype=complex)
            # each block starts from the last iterate before it, re-hermitized
            # so that rounding cannot drift across blocks
            rows[0] = _hermitize(last.reshape(shape)).reshape(-1) if b else start
            if n == BLOCK_CAP and d_loop <= POWER_MAX_LOOP:
                if not powers:  # squared once, at the first full block
                    powers = [step]
                    while len(powers) < BLOCK_CAP.bit_length():
                        powers.append(powers[-1] @ powers[-1])
                # rows[k:2k] = rows[:k] T^k for k = 1, 2, 4, ..., BLOCK_CAP: one
                # product for each power of 2, the last one for rows[n] alone
                for j, power in enumerate(powers):
                    out = rows[1 << j:2 << j]
                    np.matmul(rows[:len(out)], power, out=out)
            else:
                for i in range(n):
                    np.matmul(rows[i], step, out=rows[i + 1])
            # T(A_m) - A_m = (sigma_(m+1) - sigma_0) / (m + 1) for the average
            # A_m of sigma_0 .. sigma_m, since T is linear and
            # sigma_(j+1) = T(sigma_j).  Entries 2i and 2i + 1 are step
            # first + i's raw candidate and its average; at m = 0 the average
            # is the start and its residual the raw one, so the raw one wins
            out = diffs[b - first:b - first + n]
            np.subtract(rows[1:], rows[:n], out=out[:, 0])
            np.subtract(rows[1:], start, out=out[:, 1])
            blocks.append((b, rows))
            last = rows[n]
            b += n
            n = min(2 * n, BLOCK_CAP)
        diffs = diffs.reshape(2 * (end - first), -1)
        # the averages' divisors m + 1; dividing the raw ones by 1 is exact
        counts = np.arange(first + 1, end + 1)
        residuals = _screened_trace_norms(diffs, counts, d_loop, tol)
        residuals[1::2] /= counts
        hits = (residuals <= tol).nonzero()[0]
        if hits.size:
            hit = int(hits[0])
            m, from_average = first + hit // 2, bool(hit % 2)
            return result(float(residuals[hit]), m, from_average,
                          candidate(m, from_average), True)
        low = int(residuals.argmin())
        if residuals[low] < best[0]:
            m, from_average = first + low // 2, bool(low % 2)
            best = (float(residuals[low]), m, from_average, candidate(m, from_average))
        for _, rows in blocks:
            total += rows[:-1].sum(axis=0)
        first = end
    return result(*best, False)


def is_basis_permutation(u: np.ndarray) -> list[int] | None:
    """The permutation p with U|j> = |p[j]> if U is one, else None."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return None
    d = u.shape[0]
    perm = []
    for j in range(d):
        column = u[:, j]
        i = int(np.argmax(np.abs(column)))
        if abs(column[i] - 1) > UNITARY_TOL:
            return None
        rest = np.abs(column) > UNITARY_TOL
        rest[i] = False
        if rest.any():
            return None
        perm.append(i)
    if len(set(perm)) != d:
        return None
    return perm


class ClassicalCrosscheck(NamedTuple):
    """The loop solve ``solve`` checked against classical conditioning."""

    solve: FixedPointResult
    permutation: list[int]
    loop_distribution: list[float]
    diagonal: bool
    invariance_residual: float
    consistent_sets: dict[int, tuple[int, ...]]
    prediction: list[float] | None
    prediction_match: bool | None
    ok: bool


def classical_consistency_crosscheck(
        u: np.ndarray, rho_cr: np.ndarray, d_loop: int, *,
        tol: float = RESIDUAL_TOL,
        max_iterations: int = MAX_ITERATIONS) -> ClassicalCrosscheck:
    """Check the solver against exact classical reasoning.

    Requires a basis-permutation unitary and a diagonal rho_cr, so the
    loop dynamics is classical: CR value u sends loop value v to the
    loop part of the permuted pair (u, v).  Solves the loop once under
    ``tol`` and ``max_iterations``, returns that result as ``solve`` (ok
    is False unless it converged), and checks that its fixed point is
    diagonal and its diagonal is invariant under that stochastic map.
    When every CR value in the support leaves at least one
    self-consistent loop value, also compares against conditioning:
    the mixture over u of the uniform distribution on u's consistent
    set.  When some branch has no consistent value at all (a paradox
    branch) no conditioning prediction exists, the comparison is
    skipped and ok does not penalize it.  A prediction that exists but
    differs sets ok=False; this marks the pair for inspection rather
    than proving the solver wrong, since cycle structure can make other
    invariant distributions equally legitimate fixed points.

    The permutation and diagonal requirements are checked before the
    solve; every other check on the inputs is `fixed_point`'s.
    """
    perm = is_basis_permutation(u)
    if perm is None:
        raise ValueError("crosscheck needs a basis-permutation unitary")
    rho_cr = np.asarray(rho_cr, dtype=complex)
    # a matrix that is not square, or empty, fails fixed_point's checks instead
    checked = rho_cr.ndim == 2 and rho_cr.shape[0] == rho_cr.shape[1] and rho_cr.size
    if checked and np.abs(rho_cr - np.diag(np.diag(rho_cr))).max() > HERMITIAN_TOL:
        raise ValueError("crosscheck needs a diagonal rho_cr")

    result = fixed_point(u, rho_cr, d_loop, tol=tol, max_iterations=max_iterations)
    d_cr = rho_cr.shape[0]
    sigma = result.sigma
    off = sigma - np.diag(np.diag(sigma))
    diagonal = bool(np.abs(off).max() <= MATCH_TOL)
    q = np.real(np.diag(sigma))
    p = np.real(np.diag(rho_cr))

    def loop_part(cr_value: int, loop_value: int) -> int:
        return perm[cr_value * d_loop + loop_value] % d_loop

    stepped = np.zeros(d_loop)
    for cr_value in range(d_cr):
        for v in range(d_loop):
            stepped[loop_part(cr_value, v)] += p[cr_value] * q[v]
    invariance_residual = float(np.abs(stepped - q).sum())

    consistent = {cr_value: tuple(v for v in range(d_loop)
                                  if loop_part(cr_value, v) == v)
                  for cr_value in range(d_cr)}
    supported = [cr_value for cr_value in range(d_cr) if p[cr_value] > TRACE_TOL]
    prediction: list[float] | None = None
    prediction_match: bool | None = None
    if all(consistent[cr_value] for cr_value in supported):
        pred = np.zeros(d_loop)
        for cr_value in supported:
            share = p[cr_value] / len(consistent[cr_value])
            for v in consistent[cr_value]:
                pred[v] += share
        prediction = [float(x) for x in pred]
        prediction_match = bool(np.abs(pred - q).sum() <= MATCH_TOL)

    ok = (result.converged and diagonal
          and invariance_residual <= MATCH_TOL
          and prediction_match is not False)
    return ClassicalCrosscheck(
        solve=result,
        permutation=perm,
        loop_distribution=[float(x) for x in q],
        diagonal=diagonal,
        invariance_residual=invariance_residual,
        consistent_sets=consistent,
        prediction=prediction,
        prediction_match=prediction_match,
        ok=ok,
    )


def matrix_to_json(matrix: np.ndarray) -> list:
    """Row-major nested lists of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row]
            for row in np.asarray(matrix, dtype=complex)]


def matrix_from_json(data, *, name: str = "matrix") -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ValueError(f"{name} must be a nonempty list of rows")
    rows = []
    width = None
    for r, row in enumerate(data):
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise ValueError(f"{name} row {r} is not a list of the right length")
        width = len(row)
        entries = []
        for c, cell in enumerate(row):
            # the bound rejects NaN, infinities and ints beyond float range
            if (not isinstance(cell, list) or len(cell) != 2
                    or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                               and abs(x) <= sys.float_info.max for x in cell)):
                raise ValueError(
                    f"{name}[{r}][{c}] must be a [re, im] pair of finite numbers")
            entries.append(complex(cell[0], cell[1]))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def problem_from_json(data) -> tuple[np.ndarray, np.ndarray, object]:
    """(U, rho_cr, d_loop) from a problem object; ``fixed_point`` checks d_loop."""
    if not isinstance(data, dict):
        raise ValueError("problem file must be a JSON object")
    try:
        return (matrix_from_json(data["unitary"], name="unitary"),
                matrix_from_json(data["rho_cr"], name="rho_cr"), data["d_loop"])
    except KeyError as err:
        raise ValueError(f"problem file is missing field {err}") from err


def solve_json(problem: str, u: np.ndarray, rho_cr: np.ndarray,
               result: FixedPointResult,
               check: ClassicalCrosscheck | None = None) -> dict:
    """The ``deutsch`` payload: the solve, then ``check`` when one was made."""
    payload = {"problem": problem, "converged": result.converged,
               "iterations": result.iterations, "residual": result.residual,
               "from_average": result.from_average,
               "sigma": matrix_to_json(result.sigma),
               "cr_output": matrix_to_json(cr_output(u, rho_cr, result.sigma))}
    if check:
        payload["crosscheck"] = {
            "permutation": check.permutation,
            "diagonal": check.diagonal,
            "invariance_residual": check.invariance_residual,
            "consistent_sets": {str(k): list(v) for k, v in
                                sorted(check.consistent_sets.items())},
            "prediction": check.prediction,
            "prediction_match": check.prediction_match,
            "ok": check.ok,
        }
    payload["ok"] = check.ok if check else result.converged
    return payload


def _matrix_lines(matrix: list) -> Iterator[str]:
    for row in matrix:
        yield f"  [{', '.join(f'{re:+.6f}{im:+.6f}j' for re, im in row)}]"


def render_solve(payload: dict) -> Iterator[str]:
    yield (f"problem {payload['problem']}: CR dim {len(payload['cr_output'])}, "
           f"loop dim {len(payload['sigma'])}")
    status = "converged" if payload["converged"] else "DID NOT CONVERGE"
    source = "averaged iterates" if payload["from_average"] else "raw iterate"
    yield (f"{status} after {payload['iterations']} iteration(s), "
           f"residual {payload['residual']:.3e} ({source})")
    yield "loop state sigma*:"
    yield from _matrix_lines(payload["sigma"])
    yield "CR output state:"
    yield from _matrix_lines(payload["cr_output"])
    check = payload.get("crosscheck")
    if check is None:
        return
    yield (f"crosscheck: permutation {check['permutation']}; "
           f"diagonal {'ok' if check['diagonal'] else 'FAILED'}; "
           f"invariance residual {check['invariance_residual']:.3e}")
    sets = "; ".join(f"{k}:{{{','.join(map(str, v))}}}"
                     for k, v in check["consistent_sets"].items())
    yield f"consistent loop values per CR value: {sets}"
    if check["prediction"] is None:
        yield ("conditioning prediction: none (some branch has no "
               "self-consistent value)")
    else:
        pred = ", ".join(f"{x:.6f}" for x in check["prediction"])
        verdict = "matches" if check["prediction_match"] else "DIFFERS"
        yield f"conditioning prediction: [{pred}] {verdict}"
    yield f"crosscheck {'OK' if check['ok'] else 'FAILED'}"


def _qubit_density(p0: Fraction | float) -> np.ndarray:
    return np.diag([float(p0), 1 - float(p0)]).astype(complex)


def _hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


# builders rather than arrays: each call gets fresh arrays, and importing
# the module does no numpy work
EXAMPLES: dict[str, Callable[[], tuple[np.ndarray, np.ndarray, int]]] = {
    "swap": lambda: (np.array([[1, 0, 0, 0],
                               [0, 0, 1, 0],
                               [0, 1, 0, 0],
                               [0, 0, 0, 1]], dtype=complex),
                     _qubit_density(Fraction(3, 4)), 2),
    "grandfather": lambda: (np.kron(np.eye(2, dtype=complex),
                                    np.array([[0, 1], [1, 0]], dtype=complex)),
                            _qubit_density(1), 2),
    "cnot": lambda: (np.array([[1, 0, 0, 0],
                               [0, 1, 0, 0],
                               [0, 0, 0, 1],
                               [0, 0, 1, 0]], dtype=complex),
                     _qubit_density(1), 2),
    "product": lambda: (np.kron(_hadamard(), _hadamard()), _qubit_density(1), 2),
}


def example(name: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Built-in (U, rho_cr, d_loop) instances used by the CLI and tests.

    swap         exchanges CR and loop qubits; the loop must copy rho_cr.
    grandfather  flips the loop qubit unconditionally; no basis value is
                 self-consistent.  The solver returns the even mixture,
                 but every mixture of |+> and |-> is fixed as well.
    cnot         flips the loop qubit when the CR qubit is 1; with the
                 CR qubit at |0> every loop state is consistent.
    product      non-interacting H (x) H; the loop keeps I/2 and the CR
                 qubit evolves unitarily on its own.
    """
    try:
        build = EXAMPLES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown example {name!r}; "
                         f"known: {', '.join(sorted(EXAMPLES))}") from None
    return build()
