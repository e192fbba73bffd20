"""The hand-written float DOP853 of ``tests/reference_dop853.py`` against
scipy's DOP853 as the outside reference, and the generated legs, fused and
checked, against the reference loop over that solver.

The float solver and scipy's run the same algorithm, so on the same
problem they must take the same steps, make the same number of
right-hand-side calls and end on the same state up to roundoff.  That
holds for states away from an error-norm tie: the two form the error norm
in a different order of float operations, so an attempt whose error
estimate sits at 1 within roundoff may be accepted by one and rejected by
the other.  The quartic x^2 + x^4 at lambda = 0.1, h = 0.1, from
(1, 0, 0, 0) at x = 0 to 1 with dq = 0, takes 49 steps in both, but 650
right-hand-side calls here and 662 in scipy; the problems below keep
clear of such ties.  A generated leg, with the potential inlined
(``dop853.leg``) or q called at each stage (``dop853.checked_leg``, which
``_integrate`` steps through ``DOP853`` views where V has no source),
does the reference loop's arithmetic, so the three must agree bit for
bit, steps and right-hand-side calls included; the benchmark's traced
runs count the views' steps, and this agreement is what ties them to the
fused legs' counts.
"""

import contextlib
import math
import signal

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import DOP853 as ScipyDOP853
from scipy.integrate._ivp import dop853_coefficients as scipy_tableau

from boxshift import SolverError, dop853, harmonic, quartic, shooting
from boxshift.dsl import EvalError
from boxshift.potentials import from_expression
from boxshift.shooting import (_dq, _integrate, _q_factory, rhs_calls_taken,
                               steps_taken)
from reference_dop853 import DOP853, integrate as reference_integrate

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


def _bits(values):
    return [float(v).hex() for v in values]


def test_tableau_is_scipys_bit_for_bit():
    # The copied entries are the ones an attempt reads: the 12-stage block
    # of A below its diagonal (nothing on or right of it is dropped), the
    # nodes C[:12], the weights B and the error rows E3 and E5.
    n = scipy_tableau.N_STAGES
    assert dop853._N_STAGES == n == len(dop853._A)
    for s, row in enumerate(dop853._A):
        assert _bits(row) == _bits(scipy_tableau.A[s, :s])
        assert not scipy_tableau.A[s, s:].any()
    assert _bits(dop853._C) == _bits(scipy_tableau.C[:n])
    assert _bits(dop853._B) == _bits(scipy_tableau.B)
    assert _bits(dop853._E3) == _bits(scipy_tableau.E3)
    assert _bits(dop853._E5) == _bits(scipy_tableau.E5)


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


def test_step_too_small_raises_solver_error(dop853_tally):
    # Past x = 0.5 the coefficient is undefined, every attempt there is
    # rejected and the step shrinks below the spacing of floats.
    def q(x):
        return -1.0 if x < 0.5 else math.nan

    tally = dop853_tally()
    before = steps_taken()
    with pytest.raises(SolverError, match="near x=0.5"):
        _integrate(q, 0.0, (1.0, 0.0, 0.0, 0.0), 1.0, RTOL)
    # The failed integration's steps, the failing one included, still count.
    assert steps_taken() - before == tally.steps > 1


@contextlib.contextmanager
def _alarm(what: str, seconds: float = 10.0):
    """Turn a step loop that never ends into a failure of the test."""
    def hang(signum, frame):
        raise TimeoutError(f"{what} did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_nan_from_the_start_fails_the_step():
    # With q NaN everywhere the first step size is NaN, which compares
    # false against every bound.
    with _alarm("DOP853.step"):
        solver = DOP853(lambda x: math.nan, 0.0, (1.0, 0.0, 0.0, 0.0), 1.0,
                        RTOL, ATOL)
        assert solver.step() == dop853.TOO_SMALL_STEP
        assert solver.status == "failed"


def test_integrate_nan_from_the_start_fails_the_step():
    # The same NaN step in the checked leg that _integrate steps.
    with _alarm("_integrate"), \
            pytest.raises(SolverError, match="near x=0: Required step size"):
        _integrate(lambda x: math.nan, 0.0, (1.0, 0.0, 0.0, 0.0), 1.0, RTOL)


def test_rejects_unsupported_state_sizes():
    with pytest.raises(ValueError):
        DOP853(_airy_like, 0.0, (1.0, 0.0, 0.0), 1.0, RTOL, ATOL)
    # (u, u') alone: every shot carries its sensitivity pair.
    with pytest.raises(ValueError, match="4 components, got 2"):
        DOP853(_airy_like, 0.0, (1.0, 0.0), 1.0, RTOL, ATOL)


# -- legs with the potential inlined ------------------------------------------


def _leg(q, dq, x0, y0, x1, rtol, max_step=math.inf):
    """``dop853.leg`` on q's parts: _integrate's result, steps, RHS calls;
    or None."""
    source, lam, h2, cent = q.parts
    counts = []
    done = dop853.leg(source, cent != 0.0)(
        lam, h2, cent, dq, x0, tuple(map(float, y0)), x1, rtol, max_step,
        lambda *tally: counts.extend(tally))
    return None if done is None else (*done, *counts)


def _generic(q, dq, x0, y0, x1, rtol, max_step=math.inf):
    """_integrate with V's source hidden, so through the checked leg, and
    the steps and RHS calls it counted."""
    steps, calls = steps_taken(), rhs_calls_taken()
    result = _integrate(lambda x: q(x), x0, y0, x1, rtol, dq=dq,
                        max_step=max_step)
    return (*result, steps_taken() - steps, rhs_calls_taken() - calls)


def _reference(q, dq, x0, y0, x1, rtol, max_step=math.inf):
    """The reference loop over the hand-written solver, with its counts."""
    return reference_integrate(q, x0, y0, x1, rtol, dq=dq, max_step=max_step)


@pytest.mark.parametrize("kind,t0,y0,t1", [
    ("line", 0.0, (1.0, 0.0, 0.0, 0.0), 1.0),
    ("line", 1.0, (0.0, -1.0, 0.0, 0.0), 0.0),
    ("radial", 0.05, (0.0025, 0.1, 0.0, 0.0), 1.0),  # nu = 1.5: cent / x^2 inlined
], ids=["sensitivity-out", "sensitivity-in", "radial-nu1.5"])
def test_quartic_leg_matches_scipy_and_the_generic_solver(kind, t0, y0, t1):
    q = _q_factory(quartic(kind=kind).evaluate, LAM, H,
                   None if kind == "line" else 1.5)
    ref = ScipyDOP853(_scipy_rhs(q), t0, list(y0), t1, rtol=RTOL, atol=ATOL)
    steps = _run(ref)
    leg = _leg(q, DQ, t0, y0, t1, RTOL)
    y, log_scale, _, _, leg_steps, calls = leg
    assert log_scale == 0.0  # one solver, as in scipy
    assert (leg_steps, calls) == (steps, ref.nfev)
    for a, b in zip(y, ref.y):
        assert a == pytest.approx(float(b), rel=1e-12, abs=0.0)
    # repr writes every float exactly: equal reprs are equal bits.
    assert repr(leg) == repr(_generic(q, DQ, t0, y0, t1, RTOL)) \
        == repr(_reference(q, DQ, t0, y0, t1, RTOL))


def _coulomb(z: float = 2.0):
    V = lambda x: -z / x  # noqa: E731 -- as spectra.hydrogen_confined builds it
    V.source = f"-{z!r} / x"
    return V


_DSL_QUARTIC = from_expression("x^2 + x^4").evaluate
# name: (V, nu, where legs run, h)
_SOURCES = {
    "harmonic": (harmonic().evaluate, None, (-2.5, 2.5), (0.05, 0.1, 0.2)),
    "dsl-quartic": (_DSL_QUARTIC, None, (-1.6, 1.6), (0.05, 0.1, 0.2)),
    "radial-nu0.5": (_DSL_QUARTIC, 0.5, (0.02, 1.6), (0.05, 0.1, 0.2)),
    "radial-nu1.5": (_DSL_QUARTIC, 1.5, (0.02, 1.6), (0.05, 0.1, 0.2)),
    "coulomb-nu0.5": (_coulomb(), 0.5, (0.02, 14.0), (1.0,)),
    "coulomb-nu1.5": (_coulomb(), 1.5, (0.02, 14.0), (1.0,)),
}
_STARTS = [(0.0, 1.0, 0.0, 0.0), (0.0, -1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)]


@st.composite
def _legs(draw):
    name = draw(st.sampled_from(sorted(_SOURCES)))
    _, _, (lo, hi), hs = _SOURCES[name]
    h = draw(st.sampled_from(hs))
    lam = draw(st.floats(-1.2, -0.05) if name.startswith("coulomb")
               else st.floats(0.0, 3.0 * h))
    x0 = draw(st.floats(lo, hi))
    x1 = draw(st.floats(lo, hi).filter(lambda x: x != x0))
    y0 = draw(st.sampled_from(_STARTS)
              | st.tuples(*[st.floats(-2.0, 2.0)] * 4))
    rtol = draw(st.sampled_from([1e-6, 1e-12, 1e-13]))
    max_step = draw(st.sampled_from([math.inf, 0.05, 0.3]))
    return name, h, lam, x0, y0, x1, rtol, max_step


@settings(max_examples=60, deadline=None)
@given(_legs())
# Long legs across a barrier at small h: several renormalisation restarts.
@example(("dsl-quartic", 0.05, 0.05, -1.6, (0.0, 1.0, 0.0, 0.0), 1.6, 1e-13,
          math.inf))
@example(("radial-nu1.5", 0.05, 0.12, 1.6, (0.0, -1.0, 0.0, 0.0), 0.02, 1e-6,
          0.05))
@example(("coulomb-nu0.5", 1.0, -0.5, 0.02, (0.02, 1.0, 0.0, 0.0), 14.0,
          1e-12, 0.3))
def test_leg_matches_the_generic_solver_bit_for_bit(case):
    # State, log scale, zeros, widest turn, steps and RHS calls.
    name, h, lam, x0, y0, x1, rtol, max_step = case
    V, nu, _, _ = _SOURCES[name]
    q = _q_factory(V, lam, h, nu)
    args = (_dq(h), x0, y0, x1, rtol, max_step)
    leg = _leg(q, *args)
    assert leg is not None
    assert repr(leg) == repr(_generic(q, *args)) == repr(_reference(q, *args))


def test_long_legs_restart_their_solver():
    # The property test's first @example: the shot grows past e^12 and
    # restarts the solver, each restart with its own initial step.
    q = _q_factory(_DSL_QUARTIC, 0.05, 0.05, None)
    leg = _leg(q, _dq(0.05), -1.6, (0.0, 1.0, 0.0, 0.0), 1.6, 1e-13)
    assert leg[1] > 5 * 12.0


def test_leg_renormalising_on_its_last_step_starts_a_solver_at_the_end(
        dop853_tally):
    # Shot from the well bottom, the state leaves the renormalisation
    # window on the step that lands on x = 1.185, so one more solver starts
    # at t == t_bound: its one step goes nowhere and costs one RHS call.
    q = _q_factory(_DSL_QUARTIC, LAM, H, None)
    args = (DQ, 0.0, (1.0, 0.0, 0.0, 0.0), 1.185, RTOL)
    leg = _leg(q, *args)
    tally = dop853_tally()
    assert repr(_generic(q, *args)) == repr(leg) == repr(_reference(q, *args))
    last = tally.solvers[-1]
    assert len(tally.solvers) > 1 and (last.t, last.nfev) == (1.185, 1)
    assert leg[4] == tally.steps


def test_a_replaced_solver_takes_every_leg(monkeypatch):
    # A tracer or a tally replaces shooting.DOP853 to see every step; a leg
    # with V's source must not go round it.
    made = []

    class Kept(shooting.DOP853):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(shooting, "DOP853", Kept)
    q = _q_factory(quartic().evaluate, LAM, H, None)
    before = rhs_calls_taken()
    _integrate(q, 0.0, (1.0, 0.0, 0.0, 0.0), 1.0, RTOL, dq=DQ)
    assert rhs_calls_taken() - before == sum(s.nfev for s in made) > 0


@pytest.mark.parametrize("max_step", [0.0, -1.0, math.nan])
def test_integrate_rejects_a_step_bound_that_is_not_positive(max_step):
    # The fused leg gives up on it, and the checked leg raises.
    q = _q_factory(quartic().evaluate, LAM, H, None)
    for f in (q, lambda x: q(x)):
        with pytest.raises(ValueError, match="max_step must be positive"):
            _integrate(f, 0.0, (1.0, 0.0, 0.0, 0.0), 1.0, RTOL, dq=DQ,
                       max_step=max_step)


def test_a_leg_its_view_stops_still_counts(monkeypatch):
    # A view that raises between steps leaves the checked leg suspended;
    # _integrate closes it, and its steps and RHS calls so far count.
    seen = []

    class Stopping(shooting.DOP853):
        def step(self):
            super().step()
            seen.append(self)
            if len(seen) == 5:
                raise RuntimeError("stopped by its view")

    monkeypatch.setattr(shooting, "DOP853", Stopping)
    q = _q_factory(quartic().evaluate, LAM, H, None)
    steps, calls = steps_taken(), rhs_calls_taken()
    with pytest.raises(RuntimeError, match="stopped by its view"):
        _integrate(q, 0.0, (1.0, 0.0, 0.0, 0.0), 1.0, RTOL, dq=DQ)
    assert steps_taken() - steps == 5
    assert rhs_calls_taken() - calls == seen[-1].nfev > 5


def test_undefined_source_fails_the_leg_as_the_solver_does():
    # sqrt(1.2 - x) is undefined past x = 1.2: the leg gives up there, and
    # its rerun through the checked leg raises the DSL's own error, counting
    # the steps and RHS calls that a sourceless q's leg counts.
    q = _q_factory(from_expression("x^2 + sqrt(1.2 - x)").evaluate, LAM, H,
                   None)
    args = (0.0, (1.0, 0.0, 0.0, 0.0), 2.0, RTOL)
    assert _leg(q, DQ, *args) is None
    outcomes = []
    for f in (q, lambda x: q(x)):
        steps, calls = steps_taken(), rhs_calls_taken()
        with pytest.raises(EvalError) as caught:
            _integrate(f, *args, dq=DQ)
        outcomes.append((str(caught.value), steps_taken() - steps,
                         rhs_calls_taken() - calls))
    assert outcomes[0] == outcomes[1]
    assert "sqrt of a negative value" in outcomes[0][0]
    assert outcomes[0][1] > 0


def test_a_step_that_raises_is_not_counted(monkeypatch):
    # q raises inside a step: the steps counted are those that ended, the
    # ones a view sees return from step(), as the benchmark's tracer counts.
    ended = []

    class Counting(shooting.DOP853):
        def step(self):
            super().step()
            ended.append(self)

    monkeypatch.setattr(shooting, "DOP853", Counting)
    q = _q_factory(from_expression("x^2 + sqrt(1.2 - x)").evaluate, LAM, H,
                   None)
    steps = steps_taken()
    with pytest.raises(EvalError):
        _integrate(q, 0.0, (1.0, 0.0, 0.0, 0.0), 2.0, RTOL, dq=DQ)
    assert steps_taken() - steps == len(ended) > 0


def test_leg_non_finite_at_one_attempt_reruns_to_the_same_bits():
    # A source that reads inf at one stage point of the leg, where V itself
    # is finite: the leg meets a non-finite error norm there and gives up,
    # and its rerun through the checked leg ends as a sourceless q's does.
    points = []

    def V(x):
        points.append(x)
        return x * x

    args = (DQ, 0.0, (1.0, 0.0, 0.0, 0.0), 1.5, RTOL)
    expected = _generic(_q_factory(V, LAM, H, None), *args)
    x_star = next(x for x in points[len(points) // 2:] if points.count(x) == 1)
    assert repr(_reference(_q_factory(V, LAM, H, None), *args)) \
        == repr(expected)
    V.source = "x * x"
    assert repr(_leg(_q_factory(V, LAM, H, None), *args)) == repr(expected)
    V.source = f"(math.inf if x == {x_star!r} else x * x)"
    q = _q_factory(V, LAM, H, None)
    assert _leg(q, *args) is None
    steps, calls = steps_taken(), rhs_calls_taken()
    result = _integrate(q, *args[1:], dq=DQ)
    assert repr((*result, steps_taken() - steps, rhs_calls_taken() - calls)) \
        == repr(expected)


def test_leg_cache_keeps_its_bound():
    for c in range(1, dop853.LEG_CACHE_SIZE + 4):
        q = _q_factory(quartic(float(c)).evaluate, LAM, H, None)
        _integrate(q, 0.0, (1.0, 0.0, 0.0, 0.0), 0.1, RTOL, dq=DQ)
    assert dop853.leg.cache_info().currsize == dop853.LEG_CACHE_SIZE
