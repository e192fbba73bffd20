"""Session wiring for the acceptance battery, and a shared fault injector.

Acceptance tests register one verdict per criterion through the
``record_criterion`` fixture; the hook below reprints every verdict in the
terminal summary so a plain ``pytest`` run always ends with one PASS/FAIL
line per criterion, whatever the capture settings.
"""

import pytest

from boxshift import SolverError, shooting

_VERDICTS: dict[str, tuple[bool, str]] = {}


@pytest.fixture
def record_criterion():
    def record(name: str, passed: bool, detail: str) -> None:
        _VERDICTS[name] = (passed, detail)
        print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_VERDICTS):
        passed, detail = _VERDICTS[name]
        terminalreporter.write_line(
            f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture
def fail_on_call(monkeypatch):
    """``fail_on_call(n)`` makes the n-th ``shooting._integrate`` call fail
    after doing its work, as a step failure late in the integration would,
    and returns the per-call step counts seen so far; n = 0 only counts."""
    real = shooting._integrate

    def install(n: int) -> list[int]:
        taken: list[int] = []

        def flaky(*args, **kwargs):
            y, log_scale, zeros, steps = real(*args, **kwargs)
            taken.append(steps)
            if len(taken) == n:
                raise SolverError("forced failure", steps)
            return y, log_scale, zeros, steps

        monkeypatch.setattr(shooting, "_integrate", flaky)
        return taken
    return install
