"""Pytest wiring for the acceptance battery, a shared fault injector, an
independent tally of integrator steps and solvers, and a record of the
free solves' Newton solutions.

Acceptance tests register one verdict per criterion through the
``record_criterion`` fixture; the hook below reprints every verdict in the
terminal summary so a plain ``pytest`` run always ends with one PASS/FAIL
line per criterion, whatever the capture settings.
"""

from types import SimpleNamespace

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
def node_counts_reshoot(monkeypatch):
    """Makes every node count shoot its level again, as a count without
    Newton's shots does, so that a solve's last integration is its node
    count."""
    real = shooting.count_nodes
    monkeypatch.setattr(shooting, "count_nodes",
                        lambda match, lam, rtol, shots=None:
                        real(match, lam, rtol))


@pytest.fixture
def dop853_tally(monkeypatch):
    """``dop853_tally()`` hides V's source from q from then on, so every
    leg runs through the checked leg, and installs a ``DOP853`` view that
    keeps every solver run it sees and counts its ``step()`` calls: a
    count of the integrator's work kept apart from ``shooting.steps_taken``
    and ``rhs_calls_taken``.  Returns the tally (``steps``, ``solvers``)."""
    def install() -> SimpleNamespace:
        tally = SimpleNamespace(steps=0, solvers=[])

        class Counting(shooting.DOP853):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tally.solvers.append(self)

            def step(self):
                tally.steps += 1
                return super().step()

        real = shooting._q_factory
        monkeypatch.setattr(shooting, "_q_factory",
                            lambda V, *args: real(lambda x: V(x), *args))
        monkeypatch.setattr(shooting, "DOP853", Counting)
        return tally
    return install


@pytest.fixture
def free_solves(monkeypatch):
    """The ``Solution`` of every Newton solve that takes the flux step."""
    solves = []
    real = shooting.newton

    def spy(match, lam0, **kwargs):
        sol = real(match, lam0, **kwargs)
        if kwargs.get("flux") is not None:
            solves.append(sol)
        return sol
    monkeypatch.setattr(shooting, "newton", spy)
    return solves
