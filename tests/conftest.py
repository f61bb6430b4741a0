"""Shared reporting for the acceptance gate.

test_acceptance records one verdict per criterion here; the terminal
summary hook prints them as one line each at the end of the run, so the
verdict of every criterion (PASS, FAIL, or SKIP when it cannot run here)
is visible regardless of pytest's output capturing.
"""

ACCEPTANCE_RESULTS: dict[int, tuple[str, str]] = {}


def record_acceptance(number: int, description: str, verdict: str) -> None:
    """``verdict`` is PASS, FAIL, or SKIP for a criterion that could not run."""
    ACCEPTANCE_RESULTS[number] = (description, verdict)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        description, verdict = ACCEPTANCE_RESULTS[number]
        terminalreporter.write_line(
            f"criterion {number:2d} [{verdict}] {description}")
