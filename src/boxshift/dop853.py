"""Dormand-Prince 8(5,3) on Python floats for the shooting equations.

This is scipy's ``DOP853`` (Hairer, Norsett & Wanner, *Solving ODEs I*,
section II.5) run unchanged -- its tableau, its E5/E3 error norm, its
0.9 / 0.2 / 10 step controller and its initial-step selection --
specialised to the one system shooting integrates:

    u' = v,  v' = q(x) u,  w' = z,  z' = q(x) w + dq u

where ``dq`` is the constant lambda-derivative of ``q`` (``-1/h^2``), so
``(w, z)`` carries du/dlambda alongside ``(u, v)``.

The tableau is scipy's, copied here as float literals (``repr`` round-trips
them, and ``tests/test_dop853.py`` checks every entry against scipy's bit
for bit), so this module imports nothing from scipy.

The error norm's float operations run in another order than scipy's
(straight-line sums here, ``np.dot`` and a squared ``np.linalg.norm``
there), so an attempt whose error estimate sits at 1 within roundoff can
be accepted by one and rejected by the other: the quartic x^2 + x^4 at
lambda = 0.1, h = 0.1, from (1, 0, 0, 0) at x = 0 to 1 with dq = 0, takes
49 steps in both, but 650 right-hand-side calls here and 662 in scipy.
Away from such a tie the two take the same steps (``tests/test_dop853.py``).

On a 4-component state scipy's per-step cost is numpy call overhead, not
arithmetic.  Here the state stays in Python floats, and one template
writes a whole leg of ``shooting._integrate`` as straight-line code in
local variables: the renormalisation restarts, each solver start with its
own initial-step selection, the step control and rejection loop with the
12 stages of an attempt unrolled and the tableau inlined, and the zero and
widest-turn tracking.  Each stage names its point ``x`` and sets the
coefficient ``qq`` there.  The template is compiled in two forms, which
differ only in how they set ``qq`` and how a leg ends:

* ``leg(source, centrifugal)``, compiled on first use and cached by
  source, inlines ``((V) - lam) / h2`` (``+ cent / (x * x)`` for a radial
  nu != 1/2), V being the potential's own Python expression in ``x`` that
  ``q.parts`` names.  That is q's own arithmetic, so both forms give the
  same bits, steps and right-hand-side calls.  It checks nothing: where
  anything in it raises, a step fails, or a coefficient or error norm is
  not finite, it returns None, as q's evaluator might have raised there.
* ``checked_leg``, compiled on first use, calls ``q(x)``, which checks each
  value (a DSL expression raises a descriptive ``EvalError`` where it is
  undefined).  It is a generator that yields after each solver start and
  each step and raises where a step fails.  ``DOP853`` is a view of one
  solver run of it, from a start to the next restart or the leg's end, so
  a ``DOP853`` replaced in ``shooting`` (the benchmark's tracer, a test's
  tally) sees every solver and step.

``tests/reference_dop853.py`` keeps a hand-written solver and the loop
``shooting`` once ran over it; the tests compare both forms with it.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Generator, Sequence

from .errors import SolverError

SAFETY = 0.9       # multiplies the asymptotically optimal step change
MIN_FACTOR = 0.2   # largest decrease of the step after a rejection
MAX_FACTOR = 10.0  # largest increase of the step after an acceptance
_ERROR_EXPONENT = -1.0 / 8.0  # error estimator of order 7
_RTOL_FLOOR = 100.0 * sys.float_info.epsilon
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
# A leg's state is rescaled to unit max-norm when its size leaves
# [RENORM_LO, RENORM_HI] (see shooting).
RENORM_HI = math.exp(12.0)
RENORM_LO = math.exp(-12.0)

_N_STAGES = 12  # stages per attempt
_N = 4          # components: (u, u', du/dlambda, du'/dlambda)
# The entries of scipy's ``dop853_coefficients`` an attempt reads: row s
# of ``_A`` is ``A[s, :s]``, the nodes are ``C[:12]``.
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
)
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0)
_B = (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
      1.8915178993145003, -5.801203960010585, 0.3111643669578199,
      -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
       1.8915178993145003, -5.801203960010585, -0.4226823213237919,
       -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0)
_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
       -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
       0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0)
# Legs kept; a solve uses at most 2 (nu = 1/2 or not).
LEG_CACHE_SIZE = 16


# --------------------------------------------------------------------------
# Code generation
# --------------------------------------------------------------------------


def _names(prefix: str) -> list[str]:
    return [f"{prefix}{i}" for i in range(_N)]


def _derivative(out: Sequence[str], s: Sequence[str]) -> list[str]:
    """``out`` = the system's derivative at state ``s``, with ``qq`` set."""
    values = [s[1], f"qq * {s[0]}", s[3], f"qq * {s[2]} + dq * {s[0]}"]
    return [f"{o} = {v}" for o, v in zip(out, values)]


def _combination(coefficients, terms: Sequence[str]) -> str:
    """``c0 * t0 + c1 * t1 + ...`` over the nonzero coefficients."""
    return " + ".join(f"{c!r} * {term}"
                      for c, term in zip(coefficients, terms) if c != 0.0)


def _abs(v: str) -> str:
    # abs(v) but for the sign of a zero or a NaN, which no use here sees.
    return f"-{v} if {v} < 0.0 else {v}"


def _attempt_lines(coefficient: str) -> list[str]:
    """One attempt of step ``h`` (``h_abs`` = abs(h)) from ``t``, state
    y0..y3 and derivative k0_0..k0_3: the new state n0..n3, its derivative
    k12_0..k12_3 and the error norm ``err``."""
    lines = []
    for s in range(1, _N_STAGES):
        k = [[f"k{j}_{i}" for j in range(s)] for i in range(_N)]
        lines += [f"s{i} = y{i} + ({_combination(_A[s], k[i])}) * h"
                  for i in range(_N)]
        lines += [f"x = t + {_C[s]!r} * h", f"qq = {coefficient}"]
        lines += _derivative(_names(f"k{s}_"), _names("s"))
    for i in range(_N):
        ks = [f"k{j}_{i}" for j in range(_N_STAGES)]
        lines.append(f"n{i} = y{i} + h * ({_combination(_B, ks)})")
    lines += ["x = t + h", f"qq = {coefficient}"]
    lines += _derivative(_names(f"k{_N_STAGES}_"), _names("n"))
    for i in range(_N):
        ks = [f"k{j}_{i}" for j in range(_N_STAGES + 1)]
        lines += [f"a = {_abs(f'y{i}')}", f"b = {_abs(f'n{i}')}",
                  "sc = atol + (b if b > a else a) * rtol",
                  f"e{i} = ({_combination(_E5, ks)}) / sc",
                  f"g{i} = ({_combination(_E3, ks)}) / sc"]
    return lines + [
        f"e5 = {' + '.join(f'e{i} * e{i}' for i in range(_N))}",
        f"e3 = {' + '.join(f'g{i} * g{i}' for i in range(_N))}",
        "if e5 == 0.0 and e3 == 0.0:",
        "    err = 0.0",
        "else:",
        f"    err = h_abs * e5 / sqrt((e5 + 0.01 * e3) * {_N})"]


def _compile(template: str, coefficient: str,
             variant: dict[str, list[str]]) -> dict:
    """Compile ``template`` with each line ``@name`` replaced by the lines
    of that block, at its indentation: a stage block with ``coefficient``
    for ``qq``, or one of ``variant``'s.  Return the module namespace."""
    blocks = {
        "qq": [f"qq = {coefficient}"],
        "f_of_y": _derivative(_names("k0_"), _names("y")),
        "g_of_s": _derivative(_names("g"), _names("s")),
        "attempt": _attempt_lines(coefficient),
        # mag = max(map(abs, y)): max keeps its first largest argument.
        "mag": [f"mag = {_abs('y0')}"] + [
            line for i in range(1, _N)
            for line in (f"a = {_abs(f'y{i}')}", "if a > mag:", "    mag = a")],
        **variant,
    }
    lines = []
    for line in template.splitlines():
        name = line.strip()
        if name.startswith("@"):
            pad = line[:len(line) - len(name)]
            lines += [pad + block_line for block_line in blocks[name[1:]]]
        else:
            lines.append(line)
    namespace: dict = {
        "math": math, "sqrt": math.sqrt, "log": math.log,
        "isfinite": math.isfinite, "nextafter": math.nextafter,
        "copysign": math.copysign, "inf": math.inf,
        "SolverError": SolverError, "TOO_SMALL_STEP": TOO_SMALL_STEP,
        "RTOL_FLOOR": _RTOL_FLOOR, "LO": RENORM_LO, "HI": RENORM_HI,
        "SAFETY": SAFETY, "MIN_FACTOR": MIN_FACTOR, "MAX_FACTOR": MAX_FACTOR,
        "ERROR_EXPONENT": _ERROR_EXPONENT, "N_STAGES": _N_STAGES}
    exec(compile("\n".join(lines), f"<dop853: qq = {coefficient}>", "exec"),
         namespace)
    return namespace


# One leg of shooting._integrate.  The blocks below the template make it
# the fused leg (_FUSED) or the checked stepper (_CHECKED); ``tally`` gets
# the leg's step and RHS counts.
_LEG = """
@def
    log_scale = 0.0
    turn2 = 0.0
    crossings = steps = nfev = 0
    try:
        y0, y1, y2, y3 = y
        atol = 1e-3 * rtol
        rtol = RTOL_FLOOR if RTOL_FLOOR > rtol else rtol
        if not max_step > 0.0:
            @max_step
        last_sign = (y0 > 0.0) - (y0 < 0.0)
        while True:
            # Every solver starts from a state of size within [LO, HI], its
            # scale carried in log_scale: a start far below atol (a radial
            # series in a tiny box) would otherwise be noise to it.
            @mag
            if mag != 0.0 and not LO <= mag <= HI:
                y0, y1, y2, y3 = y0 / mag, y1 / mag, y2 / mag, y3 / mag
                log_scale += log(mag)
            # A solver starts: its derivative, then its initial step.
            begun = nfev  # the calls before this run's
            direction = copysign(1.0, t_bound - t) if t_bound != t else 1.0
            toward = direction * inf
            x = t
            @qq
            @finite_qq
            @f_of_y
            nfev += 1
            interval = abs(t_bound - t)
            if interval == 0.0:
                h_abs = 0.0
            else:
                sc0 = atol + abs(y0) * rtol
                sc1 = atol + abs(y1) * rtol
                sc2 = atol + abs(y2) * rtol
                sc3 = atol + abs(y3) * rtol
                d0 = sqrt(sum(((y0 / sc0) ** 2, (y1 / sc1) ** 2,
                               (y2 / sc2) ** 2, (y3 / sc3) ** 2))) / 2.0
                d1 = sqrt(sum(((k0_0 / sc0) ** 2, (k0_1 / sc1) ** 2,
                               (k0_2 / sc2) ** 2, (k0_3 / sc3) ** 2))) / 2.0
                h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
                if interval < h0:
                    h0 = interval
                step = h0 * direction
                x = t + step
                @qq
                @finite_qq
                s0, s1 = y0 + step * k0_0, y1 + step * k0_1
                s2, s3 = y2 + step * k0_2, y3 + step * k0_3
                @g_of_s
                nfev += 1
                d2 = sqrt(sum((((g0 - k0_0) / sc0) ** 2, ((g1 - k0_1) / sc1) ** 2,
                               ((g2 - k0_2) / sc2) ** 2, ((g3 - k0_3) / sc3) ** 2))
                          ) / 2.0 / h0
                if d1 <= 1e-15 and d2 <= 1e-15:
                    h1 = h0 * 1e-3
                    if not h1 > 1e-6:
                        h1 = 1e-6
                else:
                    h1 = (0.01 / (d2 if d2 > d1 else d1)) ** 0.125
                h_abs = 100 * h0
                if h1 < h_abs:
                    h_abs = h1
                if interval < h_abs:
                    h_abs = interval
                if max_step < h_abs:
                    h_abs = max_step
            @running
            # -q where u = 0 cannot be read; 0 stands in for it.
            k2 = -k0_1 / y0 if y0 != 0.0 else 0.0
            while True:
                t_prev = t
                k2_prev = k2
                finished = t == t_bound
                if not finished:
                    min_step = 10.0 * abs(nextafter(t, toward) - t)
                    if h_abs > max_step:
                        h_abs = max_step
                    elif h_abs < min_step:
                        h_abs = min_step
                    rejected = False
                    while True:
                        # Also a NaN step, which never shrinks.
                        if not h_abs >= min_step:
                            @too_small
                        t_new = t + h_abs * direction
                        if direction * (t_new - t_bound) > 0:
                            t_new = t_bound
                        h = t_new - t
                        h_abs = -h if h < 0.0 else h
                        @attempt
                        nfev += N_STAGES
                        @finite_err
                        if err < 1.0:
                            break
                        factor = SAFETY * err ** ERROR_EXPONENT
                        h_abs *= factor if factor > MIN_FACTOR else MIN_FACTOR
                        rejected = True
                    factor = MAX_FACTOR if err == 0.0 else \\
                        SAFETY * err ** ERROR_EXPONENT
                    if not factor < MAX_FACTOR:
                        factor = MAX_FACTOR
                    if rejected and not factor < 1.0:
                        factor = 1.0
                    h_abs *= factor
                    t = t_new
                    y0, y1, y2, y3 = n0, n1, n2, n3
                    k0_0, k0_1, k0_2, k0_3 = k12_0, k12_1, k12_2, k12_3
                    finished = direction * (t_new - t_bound) >= 0
                steps += 1  # a step counts once it ends, or fails too small
                k2 = -k0_1 / y0 if y0 != 0.0 else 0.0
                dx = t - t_prev
                bend = dx * dx * (k2 if k2 > k2_prev else k2_prev)
                if bend > turn2:
                    turn2 = bend
                # Only a zero, a sign change or a start at u = 0 needs this;
                # a landing on 0 counts once, whatever sign follows it.
                if not y0 * last_sign > 0.0:
                    s_now = (y0 > 0.0) - (y0 < 0.0)
                    crossings += s_now == 0 or last_sign == -s_now
                    last_sign = s_now
                @mag
                if mag != 0.0 and not LO <= mag <= HI:
                    @ended
                    break
                if finished:
                    @ended
                    @done
                    return (y0, y1, y2, y3), log_scale, crossings, sqrt(turn2)
                @running
    @except
"""

# The fused leg returns None where it gives up (see the module docstring)
# and tallies only a leg that ends.
_FUSED = {
    "def": ["def leg(lam, h2, cent, dq, t, y, t_bound, rtol, max_step, "
            "tally):"],
    "max_step": ["return None"], "too_small": ["return None"],
    "finite_qq": ["if not isfinite(qq):", "    return None"],
    "finite_err": ["if not isfinite(err):", "    return None"],
    "running": [], "ended": [], "done": ["tally(steps, nfev)"],
    "except": ["except Exception:", "    return None"],
}
# The checked stepper yields (t, the run's RHS calls, its status) after
# each solver start and each step, raises a failed step or an
# ArithmeticError as SolverError and a max_step <= 0 as ValueError, lets
# q's own errors through, and tallies when it ends or is closed.
_CHECKED = {
    "def": ["def leg(q, dq, t, y, t_bound, rtol, max_step, tally):"],
    "max_step": ['raise ValueError(f"max_step must be positive, got '
                 '{max_step!r}")'],
    "too_small": ["steps += 1",
                  'raise SolverError(f"integrator failed near x={t:g}: '
                  '{TOO_SMALL_STEP}")'],
    "finite_qq": [], "finite_err": [], "done": [],
    "running": ['yield t, nfev - begun, "running"'],
    "ended": ['yield t, nfev - begun, "finished"'],
    "except": [
        "except ArithmeticError as exc:  # q or the error norm left the floats",
        '    raise SolverError(f"integrator failed near x={t:g}: {exc!r}") '
        "from exc",
        "finally:",
        "    tally(steps, nfev)"],
}

def checked_leg(q, dq, x0, y0, x1, rtol, max_step, tally) -> Generator:
    """``leg`` below with q(x) called at every stage, a generator that
    ``DOP853.run`` steps; compiled on its first call (see above)."""
    return _checked_leg()(q, dq, x0, y0, x1, rtol, max_step, tally)


@functools.cache
def _checked_leg() -> Callable:
    return _compile(_LEG, "q(x)", _CHECKED)["leg"]


@functools.lru_cache(maxsize=LEG_CACHE_SIZE)
def leg(source: str, centrifugal: bool) -> Callable:
    """The leg integrator with V = ``source`` inlined, and ``cent / (x * x)``
    added when ``centrifugal``:

        leg(lam, h2, cent, dq, x0, y0, x1, rtol, max_step, tally)

    integrates the system with q(x) = (V(x) - lam) / h2 (+ cent / x^2)
    from the float 4-tuple ``y0`` at x0 to x1 (x0 != x1), calls
    ``tally(steps, rhs_calls)`` and returns ``shooting._integrate``'s
    (state, log scale, zeros, widest turn); or None (see the module
    docstring)."""
    coefficient = f"(({source}) - lam) / h2"
    if centrifugal:
        coefficient += " + cent / (x * x)"
    return _compile(_LEG, coefficient, _FUSED)["leg"]


class DOP853:
    """One solver run of a ``checked_leg``, from a solver start to the next
    renormalisation restart or the leg's end, a step per ``step()``.

    ``t`` is the last accepted point, ``nfev`` the run's evaluations of q
    and ``status`` "running" or, once the run has ended, "finished".
    """

    def __init__(self, leg: Generator) -> None:
        self._leg = leg
        self.t, self.nfev, self.status = next(leg)

    def step(self) -> None:
        """Take one accepted step; a failed one raises."""
        self.t, self.nfev, self.status = next(self._leg)

    @classmethod
    def run(cls, leg: Generator) -> tuple:
        """Step ``leg`` to its end through one view of this class per
        solver run, and return its result."""
        try:
            while True:
                solver = cls(leg)
                while solver.status == "running":
                    solver.step()
        except StopIteration as end:
            return end.value
