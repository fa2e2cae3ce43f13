"""Numerical verification layer for the type-A flow.

Tau functions of the semisimple type-A lattice are leading principal minors
of exp(t L0); through Cauchy-Binet they are exponential sums, so zero
crossings can be counted as sign changes on a grid without ever integrating
through a pole; spectra with a gap of at most EIGEN_GAP are refused.  The
(a_i, b_i) system of any finite type is integrated by the Dormand-Prince
5(4) port in `_rk45`, which stops at the first divergence.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import (
    CapExceededError,
    DegenerateSpectrumError,
    GridUnstableError,
    StepCollapseError,
    ValidationError,
)
from . import _rk45
from .rootdata import MAX_FLOW_RANK, LieType, cartan_matrix, check_flow_input, symmetrizer
from .signflow import eta

EIGEN_GAP = 1e-6  # smallest spectral gap TauMinors accepts
DIVERGENCE_DELTA = 1e-8  # blow-up when |a_i| exceeds 1/delta
DRIFT_A_BOUND = 100.0  # a blow-up's drift is read only where max|a_i| <= this
ODE_TOL = 1e-10  # RK45 rtol and atol
ODE_MAX_STEPS = 10_000  # RK45 steps per integration; 732 is the most any test or verify takes
ODE_SAMPLES = 2000  # trajectory sample times over the span


def lax_matrix(b, a) -> np.ndarray:
    """The (l+1) x (l+1) type-A Lax matrix from (b_i, a_i).

    Diagonal (b_1, b_2-b_1, ..., -b_l), unit superdiagonal, subdiagonal a_i.
    """
    b = np.asarray(b, dtype=float)
    a = np.asarray(a, dtype=float)
    l = len(b)
    if len(a) != l:
        raise ValidationError("a and b must have the same length")
    n = l + 1
    L = np.zeros((n, n))
    diag = np.concatenate(([b[0]], np.diff(b), [-b[l - 1]]))
    np.fill_diagonal(L, diag)
    for i in range(n - 1):
        L[i, i + 1] = 1.0
        L[i + 1, i] = a[i]
    return L


class TauMinors:
    """tau_j(t) = j-th leading principal minor of exp(t L0), L0 = lax_matrix(b, a).

    With the eigendecomposition L0 = V diag(lam) V^{-1}, Cauchy-Binet turns
    the minor into sum over j-subsets S of c_{j,S} * exp(t sum_{s in S} lam_s).
    A spectrum with a gap of at most EIGEN_GAP is refused: there V is too
    ill-conditioned for the coefficients c_{j,S}.
    """

    def __init__(self, b, a):
        l = len(b)
        if l > MAX_FLOW_RANK:
            raise CapExceededError(f"A{l}: rank {l} exceeds the cap {MAX_FLOW_RANK}")
        self.n = l + 1
        lam, V = np.linalg.eig(lax_matrix(b, a))
        if np.max(np.abs(lam.imag)) > 1e-9:
            raise DegenerateSpectrumError(
                f"complex eigenvalues {np.sort_complex(lam)}; need a real split spectrum"
            )
        order = np.argsort(lam.real)
        lam, V = lam.real[order], V[:, order].real
        gap = np.abs(np.diff(lam)).min(initial=np.inf)  # abs: sorted (0., -0.) differ by -0.
        if gap <= EIGEN_GAP:
            raise DegenerateSpectrumError(
                f"repeated eigenvalues: gap {gap:.3g} at or below {EIGEN_GAP:g} in {lam}")
        Vinv = np.linalg.inv(V)
        # Cauchy-Binet: tau_j(t) = sum_S c_S exp(t * sum(lam[S]))
        self._coeffs = []    # per j: c_S
        self._rates = []     # per j: sum of eigenvalues over S
        for j in range(1, self.n):
            subsets, coeffs = [], []
            for S in itertools.combinations(range(self.n), j):
                c = np.linalg.det(V[:j, S]) * np.linalg.det(Vinv[S, :j])
                if abs(c) > 1e-14:
                    subsets.append(S)
                    coeffs.append(c)
            self._coeffs.append(np.array(coeffs))
            self._rates.append(np.array([lam[list(S)].sum() for S in subsets]))

    def grid_values(self, j: int, ts) -> np.ndarray:
        """tau_j on a whole time grid."""
        mu = np.outer(np.asarray(ts, dtype=float), self._rates[j - 1])
        shift = mu.max(axis=1, keepdims=True)
        np.clip(shift, 0.0, None, out=shift)  # rescale only to avoid overflow
        # one dot product per time: a row's sum does not depend on the grid
        terms = np.exp(mu - shift)[:, None, :] @ self._coeffs[j - 1][:, None]
        return terms[:, 0, 0] * np.exp(np.minimum(shift[:, 0], 600.0))


def _sign_changes(minors: TauMinors, j: int, window, grid: int) -> int:
    """Sign changes of tau_j on an even grid over the window.  Exact grid zeros
    are dropped first: passing through zero is one crossing, touching it none."""
    v = minors.grid_values(j, np.linspace(window[0], window[1], grid))
    s = v[v != 0] > 0
    return int(np.count_nonzero(s[1:] != s[:-1]))


def count_zero_crossings(minors: TauMinors, j: int, window=(-12.0, 12.0),
                         grid: int = 4001) -> int:
    """Grid-stable crossing count: doubling the grid must not change it."""
    coarse = _sign_changes(minors, j, window, grid)
    fine = _sign_changes(minors, j, window, 2 * grid - 1)
    if coarse != fine:
        raise GridUnstableError(coarse, fine)
    return coarse


class BlowupEvent(NamedTuple):
    tau_index: int          # 1-based index of the blowing-up a_i / vanishing tau_i
    bracket: tuple[float, float]
    time: float


class Trajectory(NamedTuple):
    """A sampled solution: ``a`` and ``b`` have shape (len(t), l)."""

    lie_type: LieType
    t: np.ndarray
    a: np.ndarray
    b: np.ndarray
    events: tuple[BlowupEvent, ...]
    status: str

    def invariant_drift(self) -> float:
        """Max |I(t) - I(0)|; on a blow-up, only over samples with max|a_i| <=
        DRIFT_A_BOUND (floating point cannot hold the invariant through a divergence)."""
        inv = quadratic_invariant(self.lie_type, self.a, self.b)
        if self.status == "blow-up":
            keep = np.max(np.abs(self.a), axis=1) <= DRIFT_A_BOUND
            keep[0] = True
            inv = inv[keep]
        return float(np.max(np.abs(inv - inv[0])))


def dual_symmetrizer(t: LieType) -> tuple[int, ...]:
    """Positive integers d' with d'_i C[i][j] = d'_j C[j][i] (coroot lengths).

    Reciprocal to the root symmetrizer; this is the weighting that makes the
    quadratic form below a constant of motion.
    """
    d = symmetrizer(t)
    lcm = math.lcm(*d)
    return tuple(lcm // x for x in d)


def quadratic_invariant(t: LieType, a, b) -> np.ndarray:
    """Killing-form energy (1/2) b.(D'C) b + d'.a; constant along the flow.

    D' = diag(dual_symmetrizer) makes D'C symmetric, which is exactly the
    condition for d/dt to vanish under db = a, da = -(C b) a.  For type A
    this is tr(L^2)/2 in the (a, b) coordinates.
    """
    C = np.array(cartan_matrix(t), dtype=float)
    d = np.array(dual_symmetrizer(t), dtype=float)
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    M = (d[:, None] * C) / 2.0
    return np.einsum("ti,ij,tj->t", b, M, b) + a @ d


def toda_rhs(C):
    """(t, y) -> y' for y = (b, a): db = a, da = -(C b) a."""
    Cm = np.array(C, dtype=float)
    l = len(Cm)

    def rhs(_t, y):
        b, a = y[:l], y[l:]
        return np.concatenate([a, -(Cm @ b) * a])

    return rhs


def divergence_event(l: int):
    """(t, y) -> max_i |a_i| - 1/DIVERGENCE_DELTA, which rises through 0 at a blow-up."""
    threshold = 1.0 / DIVERGENCE_DELTA

    def divergence(_t, y):
        return np.abs(y[l:]).max() - threshold

    return divergence


def ode_integrate(t: LieType, a0, b0, t_span=(0.0, 10.0)) -> Trajectory:
    """Adaptive RK45 integration of db = a, da = -(C b) a with divergence events.

    Integration stops (status 'blow-up') when any |a_i| reaches
    1/DIVERGENCE_DELTA; the trajectory is sampled at ODE_SAMPLES times.  A
    solver failure without divergence raises StepCollapseError (suspected
    stiff region), and a span that needs more than ODE_MAX_STEPS steps
    raises CapExceededError.  Ranks above MAX_FLOW_RANK, non-finite data and
    empty or overlong spans are refused before integrating (`check_flow_input`),
    and so is data whose quadratic invariant I(0) is not finite.
    """
    l = t.rank
    a0 = np.asarray(a0, dtype=float)
    b0 = np.asarray(b0, dtype=float)
    if a0.shape != (l,) or b0.shape != (l,):
        raise ValidationError(f"need rank-{l} initial data")
    check_flow_input(t, a0.tolist(), b0.tolist(), t_span)
    C = cartan_matrix(t)
    y0 = np.concatenate([b0, a0])
    t_eval = np.linspace(*t_span, ODE_SAMPLES)
    # an overflowing I(0) would make every drift inf - inf = NaN; overflow
    # inside a collapsing step is reported as StepCollapseError below
    with np.errstate(over="ignore", invalid="ignore"):
        inv0 = quadratic_invariant(t, a0, b0)[0]
        if not math.isfinite(inv0):
            raise ValidationError(
                f"initial data overflow the quadratic invariant: I(0) = {inv0}")
        sol = _rk45.solve(toda_rhs(C), t_span, y0, t_eval, divergence_event(l), ODE_TOL,
                          ODE_MAX_STEPS)
    if sol.status == -1:
        raise StepCollapseError(
            f"integrator failed at t={sol.t[-1] if len(sol.t) else t_span[0]}: "
            f"{_rk45.TOO_SMALL_STEP}")
    a, b = sol.y[l:].T.copy(), sol.y[:l].T.copy()
    if sol.status == 0:
        return Trajectory(t, sol.t, a, b, (), "complete")
    te = float(sol.t_events[0])
    blow_idx = int(np.argmax(np.abs(sol.y_events[0][l:]))) + 1
    # |a| ~ c/(t - t*)^2 puts the pole within sqrt(c * delta) of the
    # trigger; 100*sqrt(delta) straddles the tau sign change for any
    # pole coefficient up to 1e4
    margin = 100.0 * math.sqrt(DIVERGENCE_DELTA)
    return Trajectory(t, sol.t, a, b, (BlowupEvent(blow_idx, (te - margin, te + margin), te),),
                      "blow-up")


def tau_tracks(t: LieType, a0, b0, ts) -> np.ndarray | None:
    """The minors tau_1..tau_l of a type-A start on the times ts, shape (len(ts), l).

    None when t is not type A, some a_i(0) is zero or TauMinors refuses the
    spectrum: then the tau functions have no Cauchy-Binet track.
    """
    if t.series != "A" or not all(a0):
        return None
    try:
        minors = TauMinors(b0, a0)
    except DegenerateSpectrumError:
        return None
    return np.stack([minors.grid_values(j, ts) for j in range(1, t.rank + 1)], axis=1)


class SignsVsEtaReport(NamedTuple):
    lie_type: LieType
    eps: tuple[int, ...]
    crossings_per_tau: tuple[int, ...]
    total_crossings: int
    eta_longest: int
    matches: bool


def longest_word_a(rank: int) -> tuple[int, ...]:
    """The reduced word (s1)(s2 s1)...(s_l ... s1) of w0 in W(A_l), 0-based letters."""
    return tuple(i for k in range(rank) for i in range(k, -1, -1))


def signs_vs_eta_report(b, a, window=(-14.0, 14.0)) -> SignsVsEtaReport:
    """Compare total minor zero-crossings against eta(w*, sgn a(0)) for type A.

    eta(w*, eps) is replayed on one reduced word of w0, so no group is built.
    """
    if 0 in a:
        raise ValidationError("initial a_i must be nonzero to define a sign pattern, "
                              f"got a_{list(a).index(0) + 1} = 0")
    minors = TauMinors(b, a)
    eps = tuple(1 if x > 0 else -1 for x in a)
    l = len(a)
    t = LieType("A", l)
    per_tau = tuple(
        count_zero_crossings(minors, j, window=window)
        for j in range(1, l + 1)
    )
    eta_star = eta(cartan_matrix(t), longest_word_a(l), eps)
    total = sum(per_tau)
    return SignsVsEtaReport(t, eps, per_tau, total, eta_star, total == eta_star)


def example_a2_all_negative():
    """A2 data (b, a) with b = (1, -1), a = (-1, -1): Lax spectrum {-1, 0, 1}."""
    return [1.0, -1.0], [-1.0, -1.0]
