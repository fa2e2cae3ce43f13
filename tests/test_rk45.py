"""The Dormand-Prince port against its oracle, scipy's solve_ivp(method="RK45")
and scipy.optimize.brentq: every result must be equal bit for bit."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from todalab import _rk45, numtoda
from todalab.cli import main
from todalab.rootdata import LieType, cartan_matrix

S1, C1 = math.sinh(1.0), math.cosh(1.0)
# name -> (type, a0, b0, t_span, blows up)
TRAJECTORIES = {
    "A1 to +5": ("A1", [1.0], [0.0], (0.0, 5.0), False),
    "A1 to -5": ("A1", [1.0], [0.0], (0.0, -5.0), False),
    "A1 negative blow-up": ("A1", [-1.0 / S1 ** 2], [-C1 / S1], (0.0, 4.0), True),
    "A2 all-negative": ("A2", [-1.0, -1.0], [1.0, -1.0], (0.0, 10.0), True),
    "A3": ("A3", [-1.0, -1.0, -1.0], [-3.0, -3.0, 0.0], (0.0, 3.0), True),
    "B2": ("B2", [0.5, 0.5], [0.1, -0.2], (0.0, 5.0), False),
    "G2 from t0 = -3": ("G2", [-0.5, 0.4], [0.1, -0.2], (-3.0, 8.0), True),
    "C3": ("C3", [0.3, 0.4, 0.5], [0.0, 0.0, 0.0], (0.0, 5.0), False),
    "A1 to t = 1000": ("A1", [1.0], [0.0], (0.0, 1000.0), False),
    "E6": ("E6", [1.0] * 6, [0.0] * 6, (0.0, 5.0), False),
}
BLOWUPS = [name for name, case in TRAJECTORIES.items() if case[-1]]


def problem(name, a0, b0, t_span):
    """The right-hand side, y0, sample times and event that ode_integrate uses."""
    t = LieType.parse(name)
    event = numtoda.divergence_event(t.rank)
    event.terminal = True
    event.direction = 1
    return (numtoda.toda_rhs(cartan_matrix(t)), np.concatenate([b0, a0]),
            np.linspace(*t_span, numtoda.ODE_SAMPLES), event)


def both(name, a0, b0, t_span):
    rhs, y0, t_eval, event = problem(name, a0, b0, t_span)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = solve_ivp(rhs, t_span, y0, method="RK45", rtol=numtoda.ODE_TOL,
                        atol=numtoda.ODE_TOL, events=[event], t_eval=t_eval)
        port = _rk45.solve(rhs, t_span, y0, t_eval, event, numtoda.ODE_TOL)
    return ref, port


@pytest.mark.parametrize("case", list(TRAJECTORIES))
def test_solution_equals_solve_ivp(case):
    name, a0, b0, t_span, blows_up = TRAJECTORIES[case]
    ref, port = both(name, a0, b0, t_span)
    assert port.status == ref.status == (1 if blows_up else 0)
    assert np.array_equal(port.t, ref.t)
    assert np.array_equal(port.y, ref.y)
    assert np.array_equal(port.t_events, ref.t_events[0])
    assert np.array_equal(port.y_events, ref.y_events[0])
    assert port.y_events.shape == ref.y_events[0].shape


@pytest.mark.parametrize("case", list(TRAJECTORIES))
def test_ode_integrate_equals_solve_ivp(case):
    name, a0, b0, t_span, _ = TRAJECTORIES[case]
    ref, _ = both(name, a0, b0, t_span)
    traj = numtoda.ode_integrate(LieType.parse(name), a0, b0, t_span)
    l = len(a0)
    assert np.array_equal(traj.t, ref.t)
    assert np.array_equal(traj.a, ref.y[l:].T)
    assert np.array_equal(traj.b, ref.y[:l].T)
    assert [e.time for e in traj.events] == ref.t_events[0].tolist()


@pytest.mark.parametrize("case", BLOWUPS)
def test_event_root_equals_scipy_brentq(monkeypatch, case):
    name, a0, b0, t_span, _ = TRAJECTORIES[case]
    calls = []

    def recording(f, xa, xb):
        calls.append((f, xa, xb, port_brentq(f, xa, xb)))
        return calls[-1][-1]

    port_brentq = _rk45.brentq
    monkeypatch.setattr(_rk45, "brentq", recording)
    rhs, y0, t_eval, event = problem(name, a0, b0, t_span)
    _rk45.solve(rhs, t_span, y0, t_eval, event, numtoda.ODE_TOL)
    [(f, xa, xb, root)] = calls
    assert xa < root < xb
    assert root == brentq(f, xa, xb, xtol=_rk45.BRENT_TOL, rtol=_rk45.BRENT_TOL)


@pytest.mark.parametrize("f, a, b", [
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x ** 3 - 2.0, 0.0, 2.0),
    (lambda x: x ** 3 - 2.0, 2.0, 0.0),
    (lambda x: math.exp(x) - 1e6, -5.0, 30.0),
    (lambda x: math.tanh(50.0 * (x - 0.3)), -1.0, 1.0),
    (lambda x: (x - 0.5) ** 9, 0.0, 1.0),
    (lambda x: x, 0.0, 1.0),  # a root at an end point
])
def test_brentq_equals_scipy_brentq(f, a, b):
    assert _rk45.brentq(f, a, b) == brentq(f, a, b, xtol=_rk45.BRENT_TOL, rtol=_rk45.BRENT_TOL)


def test_brentq_needs_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        _rk45.brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_step_collapse_message_equals_solve_ivp(capsys):
    ref, port = both("A1", [1e300], [1e300], (0.0, 1.0))
    assert port.status == ref.status == -1
    assert len(port.t) == len(ref.t) == 0
    code = main(["ode", "--type", "A1", "--a", "1e300", "--b", "1e300", "--t1", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        f"error [step-collapse-without-divergence]: integrator failed at t=0.0: {ref.message}\n")
