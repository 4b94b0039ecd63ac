"""Shared test plumbing: a fixed hypothesis profile and acceptance-criteria
result collection."""

from hypothesis import settings

# Property tests draw the same examples on every run, so a tier-1 result
# depends on the code alone.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


def record_criterion(number: int, name: str, passed: bool, detail: str = "") -> None:
    """Called by acceptance tests right before their assert, so the summary
    shows one line per criterion even when a criterion fails."""
    ACCEPTANCE_RESULTS.append((number, name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, name, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number} [{name}]: {status}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
