import numpy as np
import pytest

from ctcbox import deutsch
from ctcbox.deutsch import (EXAMPLE_NAMES, MAX_DIM, classical_consistency_crosscheck,
                            check_density_matrix, check_unitary, cr_output,
                            example, fixed_point, is_basis_permutation, loop_map,
                            matrix_from_json, matrix_to_json, trace_norm)


def permutation_unitary(perm):
    d = len(perm)
    u = np.zeros((d, d), dtype=complex)
    for source, target in enumerate(perm):
        u[target, source] = 1
    return u


def random_density(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def test_trace_norm():
    assert trace_norm(np.diag([1, -2, 0.5])) == pytest.approx(3.5)
    assert trace_norm(np.zeros((2, 2))) == 0


def test_trace_norm_is_the_nuclear_norm_of_hermitian_matrices():
    rng = np.random.default_rng(3)
    for d in (1, 2, 5, 16):
        m = random_density(rng, d) - random_density(rng, d)
        assert trace_norm(m) == pytest.approx(np.linalg.norm(m, "nuc"), abs=1e-12)


@pytest.mark.parametrize("matrix", [[[0, 1], [0, 0]], [[1, 1j], [1j, 0]],
                                    [[1, 0, 0]], [1, 2]])
def test_trace_norm_rejects_non_hermitian_matrices(matrix):
    # eigvalsh would read one triangle: [[0, 1], [0, 0]] would give 0, not 1
    with pytest.raises(ValueError, match="Hermitian"):
        trace_norm(np.array(matrix))


def test_density_matrix_validation():
    check_density_matrix(np.eye(2) / 2)
    with pytest.raises(ValueError, match="square"):
        check_density_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="Hermitian"):
        check_density_matrix(np.array([[0.5, 1], [0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        check_density_matrix(np.eye(2))
    with pytest.raises(ValueError, match="negative"):
        check_density_matrix(np.diag([1.5, -0.5]))


@pytest.mark.parametrize("check, name", [
    (lambda m: fixed_point(m, m, 1), "unitary"),
    (lambda m: fixed_point(np.eye(2), m, 2), "rho_cr"),
    (lambda m: classical_consistency_crosscheck(m, m, 1), "unitary"),
    (trace_norm, "trace_norm"),
    (check_unitary, "unitary"),
    (lambda m: check_density_matrix(m, name="sigma"), "sigma")])
def test_empty_matrices_are_refused_by_name(check, name):
    # a reduction over no entries would raise numpy's own error instead
    with pytest.raises(ValueError, match=f"^{name} .*empty matrix"):
        check(np.zeros((0, 0)))


def test_unitary_validation():
    check_unitary(np.eye(3))
    with pytest.raises(ValueError, match="unitary"):
        check_unitary(np.ones((2, 2)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 complex(0, float("nan"))])
def test_non_finite_matrices_are_rejected(bad):
    # every comparison with NaN is False, so no other check would catch it
    rho = np.array([[bad, 0], [0, 1]], dtype=complex)
    with pytest.raises(ValueError, match="non-finite"):
        check_density_matrix(rho)
    u = np.eye(2, dtype=complex)
    u[0, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        check_unitary(u)
    swap, _, d = example("swap")
    with pytest.raises(ValueError, match="non-finite"):
        fixed_point(swap, rho, d)
    u = np.eye(4, dtype=complex)
    u[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        fixed_point(u, np.eye(2) / 2, d)


def test_dimension_checks():
    u = np.eye(4, dtype=complex)
    rho = np.eye(2) / 2
    with pytest.raises(ValueError, match="match"):
        fixed_point(u, rho, 3)
    with pytest.raises(ValueError, match="exceeds"):
        fixed_point(np.eye(32, dtype=complex), np.eye(2) / 2, 16)


def test_loop_map_and_cr_output_shapes():
    u, rho, d = example("swap")
    sigma = np.eye(d, dtype=complex) / d
    assert loop_map(u, rho, sigma).shape == (d, d)
    assert cr_output(u, rho, sigma).shape == rho.shape


def test_swap_copies_rho_within_two_iterations():
    u, rho, d = example("swap")
    rng = np.random.default_rng(20240817)
    for _ in range(5):
        candidate = random_density(rng, 2)
        result = fixed_point(u, candidate, d)
        assert result.converged and result.iterations <= 2
        assert trace_norm(result.sigma - candidate) < 1e-10
        # the CR side inherits the old loop state, here the same state
        assert trace_norm(cr_output(u, candidate, result.sigma) - candidate) < 1e-10


def test_grandfather_fixed_point_is_even_mixture():
    u, rho, d = example("grandfather")
    result = fixed_point(u, rho, d)
    assert result.converged
    assert trace_norm(result.sigma - np.eye(2) / 2) < 1e-10
    cc = classical_consistency_crosscheck(u, rho, d)
    assert cc.ok and cc.diagonal
    assert cc.consistent_sets == {0: (), 1: ()}
    assert cc.prediction is None and cc.prediction_match is None


def test_cnot_with_inactive_control():
    u, rho, d = example("cnot")
    result = fixed_point(u, rho, d)
    assert result.converged and result.iterations == 0
    assert trace_norm(result.sigma - np.eye(2) / 2) < 1e-10
    assert trace_norm(cr_output(u, rho, result.sigma) - rho) < 1e-10
    cc = classical_consistency_crosscheck(u, rho, d)
    assert cc.ok and cc.prediction_match is True
    assert cc.consistent_sets[0] == (0, 1) and cc.consistent_sets[1] == ()


def test_product_unitary_factorizes():
    u, rho, d = example("product")
    result = fixed_point(u, rho, d)
    assert result.converged
    assert trace_norm(result.sigma - np.eye(2) / 2) < 1e-10
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert trace_norm(cr_output(u, rho, result.sigma) - h @ rho @ h.conj().T) < 1e-10
    assert is_basis_permutation(u) is None


def test_swap_crosscheck_prediction():
    u, rho, d = example("swap")
    cc = classical_consistency_crosscheck(u, rho, d)
    assert cc.ok and cc.permutation == [0, 2, 1, 3]
    assert cc.consistent_sets == {0: (0,), 1: (1,)}
    assert cc.prediction == pytest.approx([0.75, 0.25])
    assert cc.prediction_match is True


def test_oscillating_permutation_uses_averaged_iterates():
    # CR values 0 and 1 both send loop values 0 and 1 to 2, and send 2
    # back to 0 or 1 respectively: the raw sequence flips between two
    # distributions forever while their midpoint is stationary
    perm = [2, 5, 0, 8, 11, 1, 3, 6, 9, 4, 7, 10]
    u = permutation_unitary(perm)
    rho = np.diag([0.5, 0.5, 0, 0]).astype(complex)
    result = fixed_point(u, rho, 3)
    assert result.converged and result.from_average
    assert trace_norm(loop_map(u, rho, result.sigma) - result.sigma) < 1e-10
    assert np.diag(result.sigma) == pytest.approx([0.25, 0.25, 0.5])
    cc = classical_consistency_crosscheck(u, rho, 3)
    assert cc.ok
    assert cc.consistent_sets[0] == () and cc.prediction is None


def test_crosscheck_requires_permutation_and_diagonal_rho():
    u, rho, d = example("product")
    with pytest.raises(ValueError, match="permutation"):
        classical_consistency_crosscheck(u, rho, d)
    u, _, d = example("swap")
    tilted = np.array([[0.75, 0.1], [0.1, 0.25]], dtype=complex)
    with pytest.raises(ValueError, match="diagonal"):
        classical_consistency_crosscheck(u, tilted, d)


def test_is_basis_permutation():
    assert is_basis_permutation(np.eye(3)) == [0, 1, 2]
    u, _, _ = example("swap")
    assert is_basis_permutation(u) == [0, 2, 1, 3]
    assert is_basis_permutation(np.diag([1, -1])) is None
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert is_basis_permutation(h) is None


def test_examples_are_well_formed():
    for name in EXAMPLE_NAMES:
        u, rho, d = example(name)
        check_unitary(u)
        check_density_matrix(rho)
        assert u.shape[0] == rho.shape[0] * d <= MAX_DIM
    with pytest.raises(ValueError):
        example("bogus")


def test_matrix_json_round_trip():
    u, _, _ = example("product")
    data = matrix_to_json(u)
    assert np.abs(matrix_from_json(data) - u).max() == 0
    with pytest.raises(ValueError):
        matrix_from_json([[1, 2], [3]])
    with pytest.raises(ValueError):
        matrix_from_json([[[1, 0], [0, "x"]]])
    with pytest.raises(ValueError):
        matrix_from_json("nope")


@pytest.mark.parametrize("cell", [[float("nan"), 0], [0, float("inf")],
                                  [-float("inf"), 0], [10 ** 400, 0]])
def test_matrix_from_json_rejects_non_finite_entries(cell):
    with pytest.raises(ValueError, match="finite"):
        matrix_from_json([[cell]])


@pytest.mark.parametrize("budget", [{"tol": float("nan")}, {"tol": float("inf")},
                                    {"tol": 0.0}, {"tol": -1e-9},
                                    {"max_iterations": -1}])
def test_fixed_point_rejects_meaningless_budgets(budget):
    u, rho, d = example("swap")
    with pytest.raises(ValueError):
        fixed_point(u, rho, d, **budget)


@pytest.mark.parametrize("budget", [{"max_iterations": 2.5}, {"max_iterations": "3"},
                                    {"max_iterations": True}, {"max_iterations": None},
                                    {"tol": True}, {"tol": "1e-10"}])
def test_fixed_point_rejects_budgets_of_the_wrong_type(budget):
    u, rho, d = example("swap")
    with pytest.raises(ValueError, match="iteration budget|tolerance"):
        fixed_point(u, rho, d, **budget)


def test_fixed_point_takes_any_integer_budget():
    # the operator.index rule: numpy integers are integers
    u, rho, d = example("swap")
    result = fixed_point(u, rho, d, tol=np.float64(1e-10), max_iterations=np.int64(5))
    assert result.converged and result.iterations <= 2


def test_examples_are_fresh_arrays():
    u, rho, _ = example("swap")
    u[:] = 0
    rho[:] = 0
    u, rho, _ = example("swap")
    check_unitary(u)
    check_density_matrix(rho)


def test_nonconvergent_map_reports_honestly():
    # a map whose orbit from I/d neither settles nor averages out fast:
    # loop values 0 and 1 pile onto 2, value 2 returns to 0 only, so the
    # chain oscillates with a slowly decaying transient
    perm = [2, 5, 0, 8, 11, 1, 3, 6, 9, 4, 7, 10]
    u = permutation_unitary(perm)
    rho = np.diag([1, 0, 0, 0]).astype(complex)
    result = fixed_point(u, rho, 3, max_iterations=50)
    assert not result.converged
    assert result.residual > 0


def test_crosscheck_returns_the_solve_it_checked():
    perm = [2, 5, 0, 8, 11, 1, 3, 6, 9, 4, 7, 10]
    u = permutation_unitary(perm)
    rho = np.diag([1, 0, 0, 0]).astype(complex)
    cc = classical_consistency_crosscheck(u, rho, 3, max_iterations=50)
    result = fixed_point(u, rho, 3, max_iterations=50)
    assert not cc.ok
    assert np.array_equal(cc.solve.sigma, result.sigma)
    assert (cc.solve.iterations, cc.solve.residual, cc.solve.converged,
            cc.solve.from_average) == (result.iterations, result.residual,
                                       result.converged, result.from_average)
    assert cc.loop_distribution == [float(x) for x in np.real(np.diag(result.sigma))]


def test_crosscheck_validates_its_inputs_once(monkeypatch):
    checked = []
    for name in ("check_unitary", "check_density_matrix"):
        real = getattr(deutsch, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            checked.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(deutsch, name, counting)
    assert classical_consistency_crosscheck(*example("swap")).ok
    assert checked == ["check_unitary", "check_density_matrix"]


def test_crosscheck_rejects_a_non_permutation_before_solving(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a problem the crosscheck cannot check")

    monkeypatch.setattr(deutsch, "fixed_point", no_solve)
    u, rho, d = example("product")
    with pytest.raises(ValueError, match="permutation"):
        classical_consistency_crosscheck(u, rho, d)
    u, _, d = example("swap")
    with pytest.raises(ValueError, match="diagonal"):
        classical_consistency_crosscheck(u, np.full((2, 2), 0.5), d)


@pytest.mark.parametrize("d_loop", [2.0, True])
def test_fixed_point_rejects_non_integer_loop_dimension(d_loop):
    # a 2 x 2 unitary with a qubit CR state would be valid for d_loop = 1
    with pytest.raises(ValueError, match="positive integer"):
        fixed_point(np.eye(2), np.eye(2) / 2, d_loop)
    u, rho, _ = example("swap")
    with pytest.raises(ValueError, match="positive integer"):
        fixed_point(u, rho, d_loop)


def random_unitary(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    return q


def test_loop_map_preserves_trace_and_positivity():
    rng = np.random.default_rng(8)
    for d_cr, d_loop in ((1, 2), (2, 2), (2, 4), (4, 2)):
        for _ in range(5):
            u = random_unitary(rng, d_cr * d_loop)
            rho = random_density(rng, d_cr)
            sigma = random_density(rng, d_loop)
            out = loop_map(u, rho, sigma)
            assert abs(np.trace(out) - 1) < 1e-10
            assert np.abs(out - out.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(out).min() > -1e-10
            back = cr_output(u, rho, sigma)
            assert abs(np.trace(back) - 1) < 1e-10
            assert np.linalg.eigvalsh(back).min() > -1e-10


def test_random_product_unitaries_factorize():
    # for U = A (x) B the loop decouples: sigma* is B-invariant and the
    # CR side comes out as A rho A^dagger
    rng = np.random.default_rng(21)
    for _ in range(5):
        a = random_unitary(rng, 2)
        b = random_unitary(rng, 2)
        u = np.kron(a, b)
        rho = random_density(rng, 2)
        result = fixed_point(u, rho, 2)
        assert result.converged
        sigma = result.sigma
        assert trace_norm(b @ sigma @ b.conj().T - sigma) < 1e-9
        assert trace_norm(cr_output(u, rho, sigma) - a @ rho @ a.conj().T) < 1e-9


def test_averaged_residual_trend_is_logged_not_asserted():
    # no convergence proof is known for the averaged iteration, so count
    # residual increases and report them instead of failing on one
    rng = np.random.default_rng(5)
    increases = 0
    checked = 0
    for d_cr, d_loop in ((1, 2), (2, 2)):
        for _ in range(3):
            u = random_unitary(rng, d_cr * d_loop)
            rho = random_density(rng, d_cr)
            sigma = np.eye(d_loop, dtype=complex) / d_loop
            average = sigma.copy()
            last = None
            for k in range(200):
                sigma = loop_map(u, rho, sigma)
                sigma = (sigma + sigma.conj().T) / 2
                sigma = sigma / np.trace(sigma).real
                average = (average * (k + 1) + sigma) / (k + 2)
                residual = trace_norm(loop_map(u, rho, average) - average)
                assert np.isfinite(residual)
                if last is not None:
                    checked += 1
                    if residual > last + 1e-12:
                        increases += 1
                last = residual
    print(f"averaged residual rose in {increases} of {checked} steps")


def test_crosscheck_reports_legitimate_disagreement():
    # loop values 0,1,2 cycle while 3 stays put: the uniform start is
    # already invariant, but conditioning keeps only the fixed value 3;
    # the mismatch must be reported, not hidden
    u = permutation_unitary([1, 2, 0, 3])
    rho = np.eye(1, dtype=complex)
    result = fixed_point(u, rho, 4)
    assert result.converged and result.iterations == 0
    assert trace_norm(result.sigma - np.eye(4) / 4) < 1e-10
    cc = classical_consistency_crosscheck(u, rho, 4)
    assert cc.consistent_sets == {0: (3,)}
    assert cc.prediction == pytest.approx([0, 0, 0, 1])
    assert cc.prediction_match is False
    assert not cc.ok


def test_superoperator_is_the_loop_map():
    rng = np.random.default_rng(16)
    shapes = [(d_cr, d_loop) for d_cr in range(1, MAX_DIM + 1)
              for d_loop in range(1, MAX_DIM // d_cr + 1)]
    assert (1, 16) in shapes and (16, 1) in shapes and (4, 4) in shapes
    for d_cr, d_loop in shapes:
        u = random_unitary(rng, d_cr * d_loop)
        rho = random_density(rng, d_cr)
        matrix = deutsch._loop_superoperator(u, rho, d_loop)
        assert matrix.shape == (d_loop ** 2, d_loop ** 2)
        for _ in range(2):
            sigma = random_density(rng, d_loop)
            image = (matrix @ sigma.reshape(-1)).reshape(d_loop, d_loop)
            assert np.abs(image - loop_map(u, rho, sigma)).max() < 1e-12


def test_fixed_point_steps_without_loop_map(monkeypatch):
    one_trip = deutsch.loop_map

    def no_trip(*args, **kwargs):
        raise AssertionError("fixed_point called loop_map")

    monkeypatch.setattr(deutsch, "loop_map", no_trip)
    u, rho, d = example("swap")
    result = fixed_point(u, rho, d)
    assert result.converged and trace_norm(result.sigma - rho) < 1e-10
    u = permutation_unitary([2, 5, 0, 8, 11, 1, 3, 6, 9, 4, 7, 10])
    result = fixed_point(u, np.diag([0.5, 0.5, 0, 0]).astype(complex), 3)
    assert result.converged and result.from_average
    assert np.diag(result.sigma) == pytest.approx([0.25, 0.25, 0.5])
    rng = np.random.default_rng(9)
    u, rho = random_unitary(rng, 8), random_density(rng, 2)
    result = fixed_point(u, rho, 4)
    assert result.converged
    assert trace_norm(one_trip(u, rho, result.sigma) - result.sigma) < 1e-9


def weak_swap():
    # expm(-0.05i SWAP) with the CR qubit in |0>: a spectral gap of about 0.0025
    swap, _, d = example("swap")
    w, v = np.linalg.eigh(swap)
    return (v * np.exp(-0.05j * w)) @ v.conj().T, np.diag([1, 0]).astype(complex), d


def test_weak_swap_converges_on_the_raw_iterate_after_6811_steps():
    # the gap is slow enough that the count pins the iteration rule itself
    u, rho, d = weak_swap()
    result = fixed_point(u, rho, d)
    assert result.converged and not result.from_average
    assert result.iterations == 6811
    assert result.residual <= 1e-10
    assert trace_norm(result.sigma - rho) < 1e-7


def per_step_fixed_point(u, rho, d_loop, tol=1e-10, max_iterations=100_000):
    """The solver one step at a time: the reference for `fixed_point`.

    Each step maps the raw iterate and the running average and judges
    both residuals before it takes the next step.
    """
    step = deutsch._loop_superoperator(u, rho, d_loop).T
    sigma = np.eye(d_loop, dtype=complex) / d_loop
    average = sigma.copy()
    best = deutsch.FixedPointResult(sigma, 0, float("inf"), False, False)
    for k in range(max_iterations + 1):
        states = np.stack((sigma, average))
        images = (states.reshape(2, -1) @ step).reshape(states.shape)
        residuals = deutsch._hermitian_trace_norms(images - states).tolist()
        for candidate, residual, from_average in zip((sigma, average)[:k + 1],
                                                     residuals, (False, True)):
            if residual <= tol:
                return deutsch.FixedPointResult(candidate, k, residual, True,
                                                from_average)
            if residual < best.residual:
                best = deutsch.FixedPointResult(candidate, k, residual, False,
                                                from_average)
        sigma = deutsch._hermitize(images[0])
        average = deutsch._hermitize((average * (k + 1) + sigma) / (k + 2))
    return best


def assert_same_solve(result, reference):
    assert (result.iterations, result.converged, result.from_average) == (
        reference.iterations, reference.converged, reference.from_average)
    assert np.abs(result.sigma - reference.sigma).max() <= 1e-12
    assert abs(result.residual - reference.residual) <= 1e-12


OSCILLATING = [2, 5, 0, 8, 11, 1, 3, 6, 9, 4, 7, 10]


def per_block_fixed_point(u, rho, d_loop, tol=1e-10, max_iterations=100_000):
    """The solver judging each block on its own: the oracle for `fixed_point`.

    This is `fixed_point` before its first blocks, and later its full
    blocks, were judged several at a time and screened: each block of 1, 2,
    4, ..., BLOCK_CAP steps is filled and judged whole by itself, with one
    eigvalsh call for every residual in it, and the running sum of the
    iterates takes each block as it is passed.
    """
    step = deutsch._loop_superoperator(u, rho, d_loop).T
    powers = []
    shape = (d_loop, d_loop)
    start = (np.eye(d_loop, dtype=complex) / d_loop).reshape(-1)
    total = np.zeros_like(start)
    best = (float("inf"), 0, False, start)

    def solve(residual, m, from_average, vector, converged):
        sigma = deutsch._hermitize(vector.reshape(shape)) if m else start.reshape(shape).copy()
        return deutsch.FixedPointResult(sigma, m, residual, converged, from_average)

    def entry(residuals, k):
        m, from_average = first + k // 2, bool(k % 2)
        vector = ((total + rows[:m - first + 1].sum(axis=0)) / (m + 1) if from_average
                  else rows[m - first].copy())
        return float(residuals[k]), m, from_average, vector

    first, n, last = 0, 1, start
    while first <= max_iterations:
        n = min(n, max_iterations + 1 - first)
        rows = np.empty((n + 1, d_loop * d_loop), dtype=complex)
        rows[0] = last
        if n == deutsch.BLOCK_CAP and d_loop <= deutsch.POWER_MAX_LOOP:
            if not powers:
                powers = [step]
                while len(powers) < deutsch.BLOCK_CAP.bit_length():
                    powers.append(powers[-1] @ powers[-1])
            for j, power in enumerate(powers):
                out = rows[1 << j:2 << j]
                np.matmul(rows[:len(out)], power, out=out)
        else:
            for i in range(n):
                np.matmul(rows[i], step, out=rows[i + 1])
        diffs = np.empty((n, 2, d_loop * d_loop), dtype=complex)
        np.subtract(rows[1:], rows[:n], out=diffs[:, 0])
        np.subtract(rows[1:], start, out=diffs[:, 1])
        counts = np.arange(first + 1, first + n + 1)
        residuals = deutsch._hermitian_trace_norms(diffs.reshape(2 * n, *shape))
        residuals[1::2] /= counts
        hits = (residuals <= tol).nonzero()[0]
        if hits.size:
            return solve(*entry(residuals, int(hits[0])), True)
        low = int(residuals.argmin())
        if residuals[low] < best[0]:
            best = entry(residuals, low)
        total += rows[:n].sum(axis=0)
        last = deutsch._hermitize(rows[n].reshape(shape)).reshape(-1)
        first += n
        n = min(2 * n, deutsch.BLOCK_CAP)
    return solve(*best, False)


def assert_identical_solve(result, oracle):
    assert (result.iterations, result.converged, result.from_average, result.residual) == (
        oracle.iterations, oracle.converged, oracle.from_average, oracle.residual)
    assert np.array_equal(result.sigma, oracle.sigma)


@pytest.mark.parametrize("tol", [1e-10, 1e-14, 1e-300])
def test_the_window_solves_haar_cases_as_the_per_block_oracle(tol):
    # budgets inside, at and past the window's blocks, and within a full block
    rng = np.random.default_rng(23)
    for d_cr in range(1, MAX_DIM + 1):
        for d_loop in range(1, MAX_DIM // d_cr + 1):
            u = random_unitary(rng, d_cr * d_loop)
            rho = random_density(rng, d_cr)
            for budget in (0, 1, 2, 14, 15, 30, 31, 254, 255, 600):
                assert_identical_solve(
                    fixed_point(u, rho, d_loop, tol=tol, max_iterations=budget),
                    per_block_fixed_point(u, rho, d_loop, tol, budget))


@pytest.mark.parametrize("case", ["nonconv", "weak_swap", "oscillating", *EXAMPLE_NAMES])
def test_the_window_solves_named_cases_as_the_per_block_oracle(case):
    if case in ("nonconv", "oscillating"):
        weights = [1, 0, 0, 0] if case == "nonconv" else [0.5, 0.5, 0, 0]
        u, rho, d = permutation_unitary(OSCILLATING), np.diag(weights).astype(complex), 3
    else:
        u, rho, d = weak_swap() if case == "weak_swap" else example(case)
    assert_identical_solve(fixed_point(u, rho, d), per_block_fixed_point(u, rho, d))


@pytest.mark.parametrize("tol", [1e-10, 1e-14, 1e-300])
@pytest.mark.parametrize("case", ["nonconv", "weak_swap", "weak_rot"])
def test_long_windows_solve_gap_cases_as_the_per_block_oracle(case, tol):
    # full blocks are judged four at a time, steps 255-1278, 1279-2302, ...;
    # budgets end before, at and inside the first two long windows, past
    # them, and at the default
    if case == "nonconv":
        u, rho, d = permutation_unitary(OSCILLATING), np.diag([1, 0, 0, 0]), 3
    else:
        u, rho, d = weak_swap() if case == "weak_swap" else weak_rotation()
    assert deutsch.LONG_WINDOW == 1024
    for budget in (254, 255, 256, 1278, 1279, 1280, 1500, 2303, 7000):
        assert_identical_solve(fixed_point(u, rho, d, tol=tol, max_iterations=budget),
                               per_block_fixed_point(u, rho, d, tol, budget))
    assert_identical_solve(fixed_point(u, rho, d, tol=tol),
                           per_block_fixed_point(u, rho, d, tol, deutsch.MAX_ITERATIONS))


def test_loops_past_the_power_bound_solve_as_the_per_block_oracle():
    # at d_loop 9 full blocks are built one product a step and judged in long
    # windows too; with d_cr = 1 the start I/9 is fixed, and only a tolerance
    # below rounding keeps the solve stepping into them
    u, rho, d = random_unitary(np.random.default_rng(9), 9), np.eye(1, dtype=complex), 9
    assert d > deutsch.POWER_MAX_LOOP
    for budget in (1278, 1500):
        result = fixed_point(u, rho, d, tol=1e-300, max_iterations=budget)
        assert not result.converged
        assert_identical_solve(result, per_block_fixed_point(u, rho, d, 1e-300, budget))


def weak_rotation():
    # expm(-0.02i SWAP) (I (x) expm(-0.7i X)) with the CR qubit in |0>
    swap, _, d = example("swap")
    w, v = np.linalg.eigh(swap)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    wx, vx = np.linalg.eigh(x)
    rotation = (vx * np.exp(-0.7j * wx)) @ vx.conj().T
    u = (v * np.exp(-0.02j * w)) @ v.conj().T @ np.kron(np.eye(2), rotation)
    return u, np.diag([1, 0]).astype(complex), d


def test_fixed_point_matches_the_per_step_reference_on_haar_cases():
    rng = np.random.default_rng(11)
    shapes = [(d_cr, d_loop) for d_cr in range(1, MAX_DIM + 1)
              for d_loop in range(1, MAX_DIM // d_cr + 1)]
    for d_cr, d_loop in shapes:
        u = random_unitary(rng, d_cr * d_loop)
        rho = random_density(rng, d_cr)
        assert_same_solve(fixed_point(u, rho, d_loop),
                          per_step_fixed_point(u, rho, d_loop))


@pytest.mark.parametrize("budget", [0, 1, 2, 3, 6, 7, 8, 14, 15, 255, 256, 257,
                                    510, 511, 766, 767])
@pytest.mark.parametrize("case", ["oscillating", "nonconv", "weak_rot"])
def test_fixed_point_matches_the_per_step_reference_at_block_edges(case, budget):
    # the first window judges steps 0-30 (blocks 0, 1-2, 3-6, ..., 15-30),
    # then blocks judge 31-62, 63-126, 127-254, then 256 at a time
    if case == "weak_rot":
        u, rho, d = weak_rotation()
    else:
        weights = [0.5, 0.5, 0, 0] if case == "oscillating" else [1, 0, 0, 0]
        u, rho, d = permutation_unitary(OSCILLATING), np.diag(weights), 3
    assert_same_solve(fixed_point(u, rho, d, max_iterations=budget),
                      per_step_fixed_point(u, rho, d, max_iterations=budget))


def weak_coupling(d_loop, t):
    # expm(-it H) for a fixed random Hermitian H on a CR qubit and the loop,
    # with the CR qubit in |0>: a slow gap, and no permutation
    rng = np.random.default_rng(7)
    d = 2 * d_loop
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    w, v = np.linalg.eigh(g + g.conj().T)
    return (v * np.exp(-1j * t * w)) @ v.conj().T, np.diag([1, 0]).astype(complex)


@pytest.mark.parametrize("budget", [1023, 1024, 1279, 2047])
@pytest.mark.parametrize("d_loop, t", [(2, 0.05), (3, 0.03), (4, 0.03)])
def test_power_filled_blocks_match_the_per_step_reference(d_loop, t, budget):
    # these converge after 1,793, 1,802 and 1,954 steps, inside full blocks
    # that are filled from powers of the map, so every budget but the last
    # returns the best step so far
    u, rho = weak_coupling(d_loop, t)
    result = fixed_point(u, rho, d_loop, max_iterations=budget)
    reference = per_step_fixed_point(u, rho, d_loop, max_iterations=budget)
    assert result.converged == (budget == 2047)
    assert_same_solve(result, reference)


def test_a_full_block_takes_nine_products_up_to_the_loop_bound(monkeypatch):
    # a block of BLOCK_CAP = 256 steps fills rows[k:2k] from rows[:k] T^k,
    # k = 1, 2, 4, ..., 256; shorter blocks and larger loops step one by one
    matmul = np.matmul
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", counted)

    def products(u, rho, d, budget, tol=1e-10):
        calls.clear()
        result = fixed_point(u, rho, d, tol=tol, max_iterations=budget)
        assert not result.converged  # so every step up to the budget was taken
        return len(calls)

    assert deutsch.BLOCK_CAP == 256 and deutsch.POWER_MAX_LOOP == 8
    u, rho = permutation_unitary(OSCILLATING), np.diag([1, 0, 0, 0]).astype(complex)
    assert [products(u, rho, 3, budget) for budget in (254, 510, 766)] == [
        255, 255 + 9, 255 + 2 * 9]
    assert products(*weak_coupling(8, 0.01), 8, 510) == 255 + 9
    # with d_cr = 1 the start I/16 is fixed, so only a tolerance below
    # rounding keeps the solve stepping
    u = random_unitary(np.random.default_rng(12), 16)
    assert products(u, np.eye(1, dtype=complex), 16, 510, tol=1e-300) == 255 + 256


@pytest.mark.parametrize("d_cr, d_loop", [(4, 2), (2, 4), (4, 4), (2, 8)])
def test_choices_below_the_rounding_floor_may_differ_from_the_per_step_loop(
        d_cr, d_loop):
    # at tol = 1e-300 every residual past the first few dozen steps is
    # rounding noise, and blocks, power-filled ones most, round differently
    # from one step at a time: the chosen step may differ, and so may whether
    # some residual reaches 0, but not the state
    rng = np.random.default_rng(d_cr * 16 + d_loop)
    u, rho = random_unitary(rng, d_cr * d_loop), random_density(rng, d_cr)
    result = fixed_point(u, rho, d_loop, tol=1e-300, max_iterations=1023)
    reference = per_step_fixed_point(u, rho, d_loop, tol=1e-300, max_iterations=1023)
    assert np.abs(result.sigma - reference.sigma).max() <= 1e-12
    assert max(result.residual, reference.residual) <= 1e-12


def test_only_the_returned_candidate_is_hermitized(monkeypatch):
    # one _hermitize for each block built after the first, for the iterate
    # that starts it, and one for the returned candidate: none for a best so
    # far that is dropped
    hermitize = deutsch._hermitize
    calls = []

    def counted(matrix):
        calls.append(1)
        return hermitize(matrix)

    monkeypatch.setattr(deutsch, "_hermitize", counted)
    rng = np.random.default_rng(4)
    counts = []
    for d_cr, d_loop in ((2, 2), (2, 4), (4, 2), (4, 4), (2, 8), (8, 2)):
        u, rho = random_unitary(rng, d_cr * d_loop), random_density(rng, d_cr)
        calls.clear()
        result = fixed_point(u, rho, d_loop)
        m = result.iterations
        assert result.converged and 3 <= m < 255
        # blocks start at steps 0, 1, 3, 7, ..., 127, so m + 1 has one bit a
        # block, and the first window builds all of its blocks
        assert len(calls) == max(m + 1, deutsch.WINDOW).bit_length()
        counts.append(m)
    # solves that end inside the window and after it
    assert min(counts) < deutsch.WINDOW <= max(counts)


def test_weak_rotation_converges_on_the_raw_iterate_after_54159_steps():
    result = fixed_point(*weak_rotation())
    assert result.converged and not result.from_average
    assert result.iterations == 54159
    assert result.residual <= 1e-10


def test_nonconv_reports_the_average_at_the_default_budget():
    u = permutation_unitary(OSCILLATING)
    result = fixed_point(u, np.diag([1, 0, 0, 0]).astype(complex), 3)
    assert not result.converged and result.from_average
    assert result.iterations == 100_000
    assert result.residual == pytest.approx(6.6666e-06, rel=1e-6)


@pytest.mark.parametrize("weights, budget", [([0.5, 0.5, 0, 0], 100_000),
                                             ([1, 0, 0, 0], 300)])
def test_telescoped_residual_is_the_averages_residual(weights, budget):
    # the average's residual is read from sigma_(m+1) - sigma_0, never
    # from a map of the average; it must be that map's residual all the same
    u, rho = permutation_unitary(OSCILLATING), np.diag(weights).astype(complex)
    result = fixed_point(u, rho, 3, max_iterations=budget)
    assert result.from_average
    direct = trace_norm(loop_map(u, rho, result.sigma) - result.sigma)
    assert abs(result.residual - direct) <= 1e-12


def bound_cases(rng, d):
    """Hermitian d x d matrices of the kinds the screen must bracket."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = g + g.conj().T
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    cases = [h, h - np.trace(h) / d * np.eye(d), np.diag(rng.normal(size=d)),
             np.outer(v, v.conj()), -np.outer(v, v.conj()), np.zeros((d, d))]
    return cases + [1e-160 * c for c in cases]


@pytest.mark.parametrize("d", range(1, MAX_DIM + 1))
def test_trace_norm_bounds_bracket_the_trace_norm(d):
    rng = np.random.default_rng(100 + d)
    matrices = np.array(bound_cases(rng, d), dtype=complex)
    # eigvalsh reads the lower triangle and the real diagonal; junk elsewhere
    # must not reach the bounds either
    junk = rng.normal(size=matrices.shape) + 1j * rng.normal(size=matrices.shape)
    upper_part = np.triu(np.ones((d, d)), k=1).astype(bool)
    matrices[:, upper_part] += junk[:, upper_part]
    matrices[:, np.arange(d), np.arange(d)] += 1j * junk[:, 0, :].real
    norms = deutsch._hermitian_trace_norms(matrices)
    lower, upper = deutsch._trace_norm_bounds(matrices.reshape(len(matrices), -1), d)
    margin, floor = deutsch.SCREEN_MARGIN, deutsch.SCREEN_FLOOR
    assert (lower * (1 - margin) - floor <= norms).all()
    assert (norms <= upper * (1 + margin) + floor).all()
    if d <= 2:
        # the lower bound is the trace norm itself unless H is definite,
        # and the solver's residuals are traceless
        w = np.linalg.eigvalsh(matrices)
        exact = (norms > 1e-100) & ((d == 1) | (w[:, 0] * w[:, -1] <= 0))
        assert exact.any()
        assert lower[exact] == pytest.approx(norms[exact], rel=1e-12)


def assert_the_screen_is_invisible(monkeypatch, u, rho, d, tol, budget):
    # with the trivial bounds (0, inf) every entry of a screened block is judged
    screened = fixed_point(u, rho, d, tol=tol, max_iterations=budget)
    with monkeypatch.context() as m:
        m.setattr(deutsch, "_trace_norm_bounds",
                  lambda flat, d: (np.zeros(len(flat)), np.full(len(flat), np.inf)))
        judged = fixed_point(u, rho, d, tol=tol, max_iterations=budget)
    assert (screened.iterations, screened.converged, screened.from_average,
            screened.residual) == (judged.iterations, judged.converged,
                                   judged.from_average, judged.residual)
    assert np.array_equal(screened.sigma, judged.sigma)


@pytest.mark.parametrize("case, budget", [
    ("nonconv", 255), ("nonconv", 256), ("nonconv", 511), ("nonconv", 767),
    ("nonconv", 1023), ("weak_rot", 100_000), ("weak3", 1023), ("weak4", 1023),
    ("weak8", 1023), ("unitary16", 1023)])
def test_the_screen_leaves_every_solve_bit_identical(monkeypatch, case, budget):
    tol = 1e-10
    if case == "nonconv":
        u, rho, d = permutation_unitary(OSCILLATING), np.diag([1, 0, 0, 0]), 3
    elif case == "weak_rot":
        u, rho, d = weak_rotation()
    elif case == "unitary16":
        # no CR system, so below rounding the solve keeps stepping at d_loop 16
        u, rho, d, tol = random_unitary(np.random.default_rng(12), 16), np.eye(1), 16, 1e-300
    else:
        d, tol = int(case[4:]), 1e-300
        u, rho = weak_coupling(d, 0.01)
    assert_the_screen_is_invisible(monkeypatch, u, rho, d, tol, budget)


@pytest.mark.parametrize("tol", [1e-10, 1e-14, 1e-300])
def test_the_screen_leaves_short_blocks_bit_identical_on_haar_cases(monkeypatch, tol):
    # every window is screened; a budget of 254 spans the first window and
    # the short blocks 32, 64 and 128, and no full one
    rng = np.random.default_rng(13)
    for d_cr in range(1, MAX_DIM + 1):
        for d_loop in range(1, MAX_DIM // d_cr + 1):
            u = random_unitary(rng, d_cr * d_loop)
            rho = random_density(rng, d_cr)
            assert_the_screen_is_invisible(monkeypatch, u, rho, d_loop, tol, 254)


@pytest.mark.parametrize("case", ["nonconv", "weak_rot"])
def test_every_window_sends_at_most_four_matrices_to_eigvalsh(monkeypatch, case):
    # every window is screened and sends what is left in one call, so the
    # bound of four matrices holds for each window, the first included
    trace_norms = deutsch._hermitian_trace_norms
    sizes = []

    def counted(matrices):
        sizes.append(len(matrices))
        return trace_norms(matrices)

    monkeypatch.setattr(deutsch, "_hermitian_trace_norms", counted)
    if case == "nonconv":
        # 100,001 steps: the window of 31, blocks of 32, 64 and 128, then 97
        # long windows of four full blocks and one of 418 steps (256 and 162)
        fixed_point(permutation_unitary(OSCILLATING), np.diag([1, 0, 0, 0]), 3)
        windows = [32, 64, 128] + [deutsch.LONG_WINDOW] * 97 + [418]
    else:
        fixed_point(*weak_rotation())  # step 54,159 lies in the 53rd long window
        windows = [32, 64, 128] + [deutsch.LONG_WINDOW] * 53
    assert deutsch.WINDOW == 31 and deutsch.LONG_WINDOW == 4 * deutsch.BLOCK_CAP
    # one eigvalsh call for the first window, then one a window
    assert len(sizes) == 1 + len(windows) == (102 if case == "nonconv" else 57)
    assert max(sizes) <= 4


def test_oversized_problems_fail_before_the_cubic_checks(monkeypatch):
    def cubic(*args, **kwargs):
        raise AssertionError("an O(d^3) check ran")

    monkeypatch.setattr(deutsch, "check_unitary", cubic)
    monkeypatch.setattr(deutsch, "check_density_matrix", cubic)
    with pytest.raises(ValueError, match="exceeds 16"):
        fixed_point(np.eye(1024), np.eye(512) / 512, 2)
    with pytest.raises(ValueError, match="does not match"):
        fixed_point(np.eye(1024), np.eye(2) / 2, 2)
    with pytest.raises(ValueError, match="rho_cr must be a square matrix"):
        fixed_point(np.eye(4), np.ones((2, 3)), 2)
    with pytest.raises(ValueError, match="positive integer"):
        fixed_point(np.eye(4), np.eye(2) / 2, 0)
