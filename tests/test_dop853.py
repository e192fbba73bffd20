"""The unrolled float DOP853 against scipy's DOP853 as the reference.

Both integrators run the same algorithm, so on the same problem they must
take the same steps, make the same number of right-hand-side calls and end
on the same state up to roundoff.
"""

import math

import pytest
from scipy.integrate import DOP853 as ScipyDOP853
from scipy.optimize import brentq

from boxshift import SolverError
from boxshift.dop853 import DOP853
from boxshift.shooting import _integrate

RTOL, ATOL = 1e-12, 1e-15


def _airy_like(x):
    # u'' = -(1 + x) u on [0, 4]: a fixed oscillatory problem, 49 steps.
    return -(1.0 + x)


H, LAM = 0.1, 0.1


def _quartic(x):
    # x^2 + x^4 near its ground level: classically forbidden past x ~ 0.3.
    return (x * x + x ** 4 - LAM) / (H * H)


DQ = -1.0 / (H * H)


def _scipy_rhs(q, n):
    if n == 2:
        return lambda x, y: (y[1], q(x) * y[0])
    return lambda x, y: (y[1], q(x) * y[0], y[3], q(x) * y[2] + DQ * y[0])


def _run(solver):
    steps = 0
    while solver.status == "running":
        solver.step()
        steps += 1
    assert solver.status == "finished"
    return steps


def _both(q, t0, y0, t1):
    ref = ScipyDOP853(_scipy_rhs(q, len(y0)), t0, list(y0), t1, rtol=RTOL, atol=ATOL)
    own = DOP853(q, t0, y0, t1, RTOL, ATOL, math.inf, DQ)
    return ref, own


def _assert_same_run(ref, own):
    assert _run(own) == _run(ref)
    assert own.nfev == ref.nfev
    assert own.t == ref.t
    for a, b in zip(own.y, ref.y):
        assert a == pytest.approx(float(b), rel=1e-12, abs=0.0)


def test_calibration_problem_matches_scipy():
    ref, own = _both(_airy_like, 0.0, (1.0, 0.0), 4.0)
    _assert_same_run(ref, own)


@pytest.mark.parametrize("t0,y0,t1", [
    (0.0, (1.0, 0.0), 1.0),               # outward from the well bottom
    (1.0, (0.0, -1.0), 0.0),              # inward from the wall
    (0.0, (1.0, 0.0, 0.0, 0.0), 1.0),     # outward, lambda-sensitivity along
    (1.0, (0.0, -1.0, 0.0, 0.0), 0.0),    # inward, lambda-sensitivity along
], ids=["pair-out", "pair-in", "sensitivity-out", "sensitivity-in"])
def test_quartic_forbidden_shot_matches_scipy(t0, y0, t1):
    ref, own = _both(_quartic, t0, y0, t1)
    _assert_same_run(ref, own)


def _first_zero(solver, u_at):
    """Zero of u in the first step that changes its sign, by brentq on the
    step's dense output."""
    while True:
        t_prev = solver.t
        solver.step()
        if solver.y[0] < 0.0:
            return brentq(u_at(solver.dense_output()), t_prev, solver.t, xtol=1e-15)


def test_dense_output_zero_matches_scipy():
    ref, own = _both(_airy_like, 0.0, (1.0, 0.0), 4.0)
    want = _first_zero(ref, lambda dense: lambda s: float(dense(s)[0]))
    got = _first_zero(own, lambda dense: dense)
    assert got == pytest.approx(want, abs=1e-12)
    assert own.nfev == ref.nfev  # the interpolant's three extra stages too


def test_step_too_small_raises_solver_error():
    # Past x = 0.5 the coefficient is undefined, every attempt there is
    # rejected and the step shrinks below the spacing of floats.
    def q(x):
        return -1.0 if x < 0.5 else math.nan

    with pytest.raises(SolverError, match="near x=0.5"):
        _integrate(q, 0.0, (1.0, 0.0), 1.0, RTOL)


def test_rejects_unsupported_state_sizes():
    with pytest.raises(ValueError):
        DOP853(_airy_like, 0.0, (1.0, 0.0, 0.0), 1.0, RTOL, ATOL)
