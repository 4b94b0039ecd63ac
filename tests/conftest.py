"""Shared test plumbing: a fixed hypothesis profile and acceptance-criteria
result collection."""

from hypothesis import settings

# Property tests draw the same examples on every run, so a tier-1 result
# depends on the code alone.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# pytest's own cache key for the criteria table: it lands, as JSON, in
# .pytest_cache/v/steinerkit/acceptance under the rootdir.
CRITERIA_CACHE_KEY = "steinerkit/acceptance"

ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str, float]] = []


def record_criterion(number: int, name: str, passed: bool, detail: str = "",
                     seconds: float = 0.0) -> None:
    """Called by acceptance tests right before their assert, so the summary
    shows one line per criterion even when a criterion fails."""
    ACCEPTANCE_RESULTS.append((number, name, passed, detail, seconds))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the criteria table, and store it for machines in pytest's cache
    (the last run that recorded any criterion)."""
    if not ACCEPTANCE_RESULTS:
        return
    table = [{"number": number, "name": name, "status": "PASS" if passed else "FAIL",
              "detail": detail, "seconds": seconds}
             for number, name, passed, detail, seconds in sorted(ACCEPTANCE_RESULTS)]
    if hasattr(config, "cache"):  # absent under -p no:cacheprovider
        config.cache.set(CRITERIA_CACHE_KEY, table)
    terminalreporter.section("acceptance criteria")
    for row in table:
        line = f"criterion {row['number']} [{row['name']}]: {row['status']}"
        if row["detail"]:
            line += f" ({row['detail']})"
        terminalreporter.write_line(line)
