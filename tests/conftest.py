"""Session wiring for the acceptance battery, a shared fault injector and
an independent tally of integrator steps.

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
    and returns the steps each call so far added to
    ``shooting.steps_taken()``; n = 0 only counts."""
    real = shooting._integrate

    def install(n: int) -> list[int]:
        taken: list[int] = []

        def flaky(*args, **kwargs):
            before = shooting.steps_taken()
            result = real(*args, **kwargs)
            taken.append(shooting.steps_taken() - before)
            if len(taken) == n:
                raise SolverError("forced failure")
            return result

        monkeypatch.setattr(shooting, "_integrate", flaky)
        return taken
    return install


@pytest.fixture
def dop853_steps(monkeypatch):
    """Installs a ``shooting.DOP853`` that tallies its ``step()`` calls, a
    count of the integrator's work kept apart from ``shooting.steps_taken``,
    and returns the tally: one list entry per call."""
    calls: list[None] = []

    class Counting(shooting.DOP853):
        def step(self):
            calls.append(None)
            return super().step()

    monkeypatch.setattr(shooting, "DOP853", Counting)
    return calls
