"""The unrolled float DOP853 against scipy's DOP853 as the reference.

Both integrators run the same algorithm, so on the same problem they must
take the same steps, make the same number of right-hand-side calls and end
on the same state up to roundoff.  A kernel with the potential inlined does
the generic kernel's arithmetic, so the two must agree bit for bit.
"""

import math
import signal

import pytest
from scipy.integrate import DOP853 as ScipyDOP853

from boxshift import SolverError, dop853, quartic
from boxshift.dop853 import DOP853
from boxshift.shooting import _integrate, _q_factory, steps_taken

RTOL, ATOL = 1e-12, 1e-15


def _airy_like(x):
    # u'' = -(1 + x) u on [0, 4]: a fixed oscillatory problem.
    return -(1.0 + x)


H, LAM = 0.1, 0.1


def _quartic(x):
    # x^2 + x^4 near its ground level: classically forbidden past x ~ 0.3.
    return (x * x + x ** 4 - LAM) / (H * H)


DQ = -1.0 / (H * H)


def _scipy_rhs(q):
    return lambda x, y: (y[1], q(x) * y[0], y[3], q(x) * y[2] + DQ * y[0])


def _run(solver):
    steps = 0
    while solver.status == "running":
        solver.step()
        steps += 1
    assert solver.status == "finished"
    return steps


def _both(q, t0, y0, t1):
    ref = ScipyDOP853(_scipy_rhs(q), t0, list(y0), t1, rtol=RTOL, atol=ATOL)
    own = DOP853(q, t0, y0, t1, RTOL, ATOL, math.inf, DQ)
    return ref, own


def _assert_same_run(ref, own):
    assert _run(own) == _run(ref)
    assert own.nfev == ref.nfev
    assert own.t == ref.t
    for a, b in zip(own.y, ref.y):
        assert a == pytest.approx(float(b), rel=1e-12, abs=0.0)


def test_calibration_problem_matches_scipy():
    ref, own = _both(_airy_like, 0.0, (1.0, 0.0, 0.0, 0.0), 4.0)
    _assert_same_run(ref, own)


@pytest.mark.parametrize("t0,y0,t1", [
    (0.0, (1.0, 0.0, 0.0, 0.0), 1.0),     # outward from the well bottom
    (1.0, (0.0, -1.0, 0.0, 0.0), 0.0),    # inward from the wall
], ids=["sensitivity-out", "sensitivity-in"])
def test_quartic_forbidden_shot_matches_scipy(t0, y0, t1):
    ref, own = _both(_quartic, t0, y0, t1)
    _assert_same_run(ref, own)


def test_step_too_small_raises_solver_error(dop853_steps):
    # Past x = 0.5 the coefficient is undefined, every attempt there is
    # rejected and the step shrinks below the spacing of floats.
    def q(x):
        return -1.0 if x < 0.5 else math.nan

    before = steps_taken()
    with pytest.raises(SolverError, match="near x=0.5"):
        _integrate(q, 0.0, (1.0, 0.0, 0.0, 0.0), 1.0, RTOL)
    # The failed integration's steps, the failing one included, still count.
    assert steps_taken() - before == len(dop853_steps) > 1


def test_nan_from_the_start_fails_the_step():
    # With q NaN everywhere the first step size is NaN, which compares
    # false against every bound; the alarm turns a step loop that never
    # ends into a failure of this test.
    def hang(signum, frame):
        raise TimeoutError("DOP853.step did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        solver = DOP853(lambda x: math.nan, 0.0, (1.0, 0.0, 0.0, 0.0), 1.0,
                        RTOL, ATOL)
        assert solver.step() == dop853.TOO_SMALL_STEP
        assert solver.status == "failed"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_rejects_unsupported_state_sizes():
    with pytest.raises(ValueError):
        DOP853(_airy_like, 0.0, (1.0, 0.0, 0.0), 1.0, RTOL, ATOL)
    # (u, u') alone: every shot carries its sensitivity pair.
    with pytest.raises(ValueError, match="4 components, got 2"):
        DOP853(_airy_like, 0.0, (1.0, 0.0), 1.0, RTOL, ATOL)


# -- kernels with the potential inlined -----------------------------------------


def _fused_only(q):
    """q's parts without q: a solver given it must run the fused kernels,
    since calling it fails the test."""
    def unused(x):
        raise AssertionError("the generic kernel called q")
    unused.parts = q.parts
    return unused


def _lockstep(fused, generic):
    """Step both solvers to the end; every accepted point must agree."""
    while fused.status == "running":
        fused.step()
        generic.step()
        assert (fused.t, fused.y) == (generic.t, generic.y)
    assert generic.status == "finished"
    assert fused.nfev == generic.nfev


@pytest.mark.parametrize("kind,t0,y0,t1", [
    ("line", 0.0, (1.0, 0.0, 0.0, 0.0), 1.0),
    ("line", 1.0, (0.0, -1.0, 0.0, 0.0), 0.0),
    ("radial", 0.05, (0.0025, 0.1, 0.0, 0.0), 1.0),  # nu = 1.5: cent / x^2 inlined
], ids=["sensitivity-out", "sensitivity-in", "radial-nu1.5"])
def test_fused_quartic_kernel_matches_scipy_and_the_generic_kernel(
        kind, t0, y0, t1):
    q = _q_factory(quartic(kind=kind).evaluate, LAM, H,
                   None if kind == "line" else 1.5)
    ref = ScipyDOP853(_scipy_rhs(q), t0, list(y0), t1, rtol=RTOL, atol=ATOL)
    _assert_same_run(ref, DOP853(_fused_only(q), t0, y0, t1, RTOL, ATOL,
                                 math.inf, DQ))
    _lockstep(DOP853(_fused_only(q), t0, y0, t1, RTOL, ATOL, math.inf, DQ),
              DOP853(lambda x: q(x), t0, y0, t1, RTOL, ATOL, math.inf, DQ))


def test_fused_kernel_cache_keeps_its_bound():
    for c in range(1, dop853.FUSED_CACHE_SIZE + 4):
        q = _q_factory(quartic(float(c)).evaluate, LAM, H, None)
        DOP853(_fused_only(q), 0.0, (1.0, 0.0, 0.0, 0.0), 0.1, RTOL, ATOL).step()
    assert dop853.fused_kernel.cache_info().currsize \
        == dop853.FUSED_CACHE_SIZE
