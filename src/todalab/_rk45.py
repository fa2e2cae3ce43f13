"""Dormand-Prince 5(4) with dense output and one terminal rising event.

A port of SciPy 1.17.1's ``solve_ivp(method="RK45")`` (``_ivp/rk.py``,
``common.py``, ``base.py`` and ``ivp.py``) and of its C ``brentq``, cut down
to what the Toda flow asks of it: scalar tolerances, no maximum step, sample
times ``t_eval``, one terminal event that fires when it crosses zero
upwards, and an optional cap on the number of steps.  Every array operation
and every reduction is SciPy's numpy call on arrays of the same shape and
layout, in the same order; the scalar step arithmetic runs on Python floats,
which IEEE 754 makes identical to numpy's float64.  So the results equal
SciPy's bit for bit; ``tests/test_rk45.py`` holds SciPy as the oracle.  On
the short vectors of the Toda flow the cost is in the calls, not in the
arithmetic, so the stage rows and the views of the stage store are built
once, not once per step.

References: J. R. Dormand and P. J. Prince, J. Comput. Appl. Math. 6 (1980);
Hairer, Norsett and Wanner, *Solving Ordinary Differential Equations I*,
II.4-II.6; R. P. Brent, *Algorithms for Minimization without Derivatives*
(1973), ch. 4.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import CapExceededError

EPS = np.finfo(float).eps
SAFETY = 0.9  # steps from the asymptotic error behaviour are scaled by this
MIN_FACTOR = 0.2  # smallest step decrease
MAX_FACTOR = 10  # largest step increase
ERROR_EXPONENT = -1 / (4 + 1)  # the error estimator has order 4
BRENT_TOL = 4 * EPS  # brentq's xtol and rtol for the event time
BRENT_MAXITER = 100
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]
])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
# dense output with the optimum c_6 of Dormand-Prince
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# (A[s, :s], C[s]) for the stages s = 1..5, as SciPy's rk_step slices them
STAGES = tuple((A[s, :s], float(C[s])) for s in range(1, len(C)))


class Solution(NamedTuple):
    t: np.ndarray         # the t_eval times reached
    y: np.ndarray         # shape (n, len(t))
    status: int           # 0 reached t1, 1 the event fired, -1 the step collapsed
    t_events: np.ndarray  # the event time, if it fired: shape (0,) or (1,)
    y_events: np.ndarray  # the state there: shape (0,) or (1, n)


def _norm(x):
    """RMS norm, by numpy.linalg.norm's own 1-D path; a numpy scalar, so that a
    division by it or of it by zero gives inf instead of raising."""
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, direction, tol):
    """Hairer-Norsett-Wanner's starting step (SciPy's select_initial_step)."""
    interval_length = abs(t_bound - t0)
    scale = tol + np.abs(y0) * tol
    d0 = _norm(y0 / scale)
    d1 = _norm(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    y1 = y0 + h0 * direction * f0
    f1 = fun(t0 + h0 * direction, y1)
    d2 = _norm((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (4 + 1))
    return min(100 * h0, h1, interval_length)


def _rk_step(fun, t, y, f, h, K, KT):
    """One Dormand-Prince step; the stages are left in the rows of K, and
    KT[s] is the view K[:s].T."""
    K[0] = f
    for s, (a, c) in enumerate(STAGES, start=1):
        dy = np.dot(KT[s], a) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(KT[6], B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _dense(t_old, t, y_old, K):
    """The quartic interpolant over the last step, for a scalar or a 1-D t.

    The powers x, x^2, x^3, x^4 are multiplied in turn, as the cumulative
    product of SciPy's tiled x does.
    """
    h = t - t_old
    Q = K.T.dot(P)

    def sol(tt):
        tt = np.asarray(tt)
        x = (tt - t_old) / h
        p = np.empty((4,) + x.shape)
        p[0] = x
        for k in range(1, 4):
            p[k] = p[k - 1] * x  # no out=: p[k] is no view when x is 0-d
        return h * np.dot(Q, p) + (y_old[:, None] if tt.ndim else y_old)

    return sol


def brentq(f, xa, xb):
    """A root of f in [xa, xb], where f changes sign: SciPy's C brentq."""
    def call(x):
        fx = f(x)
        if np.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if np.signbit(fpre) == np.signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_TOL + BRENT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate; a zero denominator is C's infinite step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else np.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {BRENT_MAXITER} iterations, value is {xcur:f}")


def _step(fun, t, y, f, h_abs, t_bound, direction, K, KT, tol):
    """One accepted step from t under SciPy's step controller, or None when
    the step would fall below ten ulps of t."""
    min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
    if h_abs < min_step:
        h_abs = min_step
    step_rejected = False
    while True:
        if h_abs < min_step:
            return None
        h = h_abs * direction
        t_new = t + h
        if direction * (t_new - t_bound) > 0:
            t_new = t_bound
        h = t_new - t
        h_abs = abs(h)
        y_new, f_new = _rk_step(fun, t, y, f, h, K, KT)
        scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
        error_norm = float(_norm(np.dot(KT[7], E) * h / scale))
        if error_norm < 1:
            if error_norm == 0:
                factor = MAX_FACTOR
            else:
                factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            if step_rejected:
                factor = min(1, factor)
            return t_new, y_new, f_new, h_abs * factor
        h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        step_rejected = True


def solve(fun, t_span, y0, t_eval, event, tol, max_steps=None) -> Solution:
    """Integrate y' = fun(t, y) over t_span (t0 != t1) with relative and
    absolute tolerance tol, sampled at the array t_eval, which runs from t0
    to t1.

    Stops early when event(t, y) rises through zero (status 1) or when the
    step falls below ten ulps of t (status -1, message TOO_SMALL_STEP).
    Raises CapExceededError when max_steps accepted steps (None: no limit)
    have not finished the span; counting touches no float.
    """
    t0, t_bound = map(float, t_span)
    direction = math.copysign(1.0, t_bound - t0)
    t, y = t0, y0
    f = fun(t, y)
    h_abs = float(_initial_step(fun, t, y, t_bound, f, direction, tol))
    K = np.empty((7, y.size), dtype=y.dtype)
    KT = tuple(K[:s].T for s in range(8))  # views: K is rewritten in place, step by step
    if direction > 0:
        t_eval_i = 0
    else:  # decreasing, for searchsorted
        t_eval = t_eval[::-1]
        t_eval_i = t_eval.shape[0]
    ts, ys, t_events, y_events = [], [], [], []
    g = event(t0, y0)
    status, steps = None, 0
    while status is None:
        if steps == max_steps:
            raise CapExceededError(
                f"integration needs more than {max_steps} RK45 steps (too stiff for "
                f"the span); stopped at t={t}")
        steps += 1
        step = _step(fun, t, y, f, h_abs, t_bound, direction, K, KT, tol)
        if step is None:
            status = -1
            break
        t_old, y_old = t, y
        t, y, f, h_abs = step
        if direction * (t - t_bound) >= 0:
            status = 0
        sol = None
        g_new = event(t, y)
        if g <= 0 and g_new >= 0:
            sol = _dense(t_old, t, y_old, K)
            t = brentq(lambda x: event(x, sol(x)), t_old, t)
            y = sol(t)
            t_events.append(t)
            y_events.append(y)
            status = 1
        g = g_new
        # a t_eval value equal to t is included
        if direction > 0:
            t_eval_i_new = t_eval.searchsorted(t, side="right")
            t_eval_step = t_eval[t_eval_i:t_eval_i_new]
        else:
            t_eval_i_new = t_eval.searchsorted(t, side="left")
            t_eval_step = t_eval[t_eval_i_new:t_eval_i][::-1]
        if t_eval_step.size > 0:
            if sol is None:
                sol = _dense(t_old, t, y_old, K)
            ts.append(t_eval_step)
            ys.append(sol(t_eval_step))
            t_eval_i = t_eval_i_new
    return Solution(np.hstack(ts) if ts else np.empty(0),
                    np.hstack(ys) if ys else np.empty((y0.size, 0)),
                    status, np.asarray(t_events), np.asarray(y_events))
