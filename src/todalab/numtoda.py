"""Numerical verification layer for the type-A flow.

Tau functions of the semisimple type-A lattice are leading principal minors
of exp(t L0); through Cauchy-Binet they are exponential sums, so zero
crossings can be counted on a grid and refined by bisection without ever
integrating through a pole.  The generic ODE integrator handles the
(a_i, b_i) system for any finite type, stopping at the first divergence.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapExceededError,
    DegenerateSpectrumError,
    GridUnstableError,
    StepCollapseError,
    ValidationError,
)
from .rootdata import LieType, cartan_matrix, symmetrizer

log = logging.getLogger(__name__)

EIGEN_GAP = 1e-6
DIVERGENCE_DELTA = 1e-8  # blow-up when |a_i| exceeds 1/delta
BISECT_TOL = 1e-10
MAX_TIME_SPAN = 1e3  # |t1 - t0| above this is refused before integrating
# rank above this is refused before any work: type A sums 2^(l+1) Cauchy-Binet
# terms for the tau minors (A12 0.6 s, A14 1.4 s, A16 4.3 s in-process)
MAX_RANK = 14


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


def lax_data(L: np.ndarray):
    """Recover (b, a) from a type-A Lax matrix."""
    n = L.shape[0]
    a = np.array([L[i + 1, i] for i in range(n - 1)])
    b = np.cumsum(np.diag(L)[:-1])
    return b, a


def _check_lax(L: np.ndarray):
    n = L.shape[0]
    if L.shape != (n, n):
        raise ValidationError("Lax matrix must be square")
    if abs(np.trace(L)) > 1e-9 * max(1.0, np.abs(L).max()):
        raise ValidationError("Lax matrix must be traceless")
    for i in range(n - 1):
        if abs(L[i, i + 1] - 1.0) > 1e-12:
            raise ValidationError("superdiagonal of the Lax matrix must be 1")
    if np.any(np.triu(L, 2) != 0):
        raise ValidationError("entries above the superdiagonal must vanish")


class TauMinors:
    """tau_j(t) = j-th leading principal minor of exp(sum_k t_k L0^k).

    With the eigendecomposition L0 = V diag(lam) V^{-1}, Cauchy-Binet turns
    the minor into sum over j-subsets S of c_{j,S} * exp(sum_{s in S} mu_s),
    mu_s = sum_k t_k lam_s^k.  Near-degenerate spectra fall back to expm.
    """

    def __init__(self, L0):
        L0 = np.asarray(L0, dtype=float)
        _check_lax(L0)
        self.L0 = L0
        self.n = L0.shape[0]
        lam = np.linalg.eigvals(L0)
        if np.max(np.abs(lam.imag)) > 1e-9:
            raise DegenerateSpectrumError(
                f"complex eigenvalues {np.sort_complex(lam)}; need a real split spectrum"
            )
        lam = np.sort(lam.real)
        gaps = np.diff(lam)
        if len(lam) > 1 and gaps.min() < 1e-12:
            raise DegenerateSpectrumError(f"repeated eigenvalues {lam}")
        self.eigenvalues = lam
        self.method = "eigen" if (len(lam) == 1 or gaps.min() > EIGEN_GAP) else "expm"
        log.debug("tau minors via %s for spectrum %s", self.method, lam)
        if self.method == "eigen":
            lam2, V = np.linalg.eig(L0)
            order = np.argsort(lam2.real)
            self._lam = lam2.real[order]
            V = V[:, order].real
            Vinv = np.linalg.inv(V)
            # Cauchy-Binet: tau_j(t) = sum_S c_S exp(t * sum(lam[S]))
            self._subsets = []   # per j: list of index arrays
            self._coeffs = []    # per j: c_S
            self._rates = []     # per j: sum of eigenvalues over S
            for j in range(1, self.n):
                rows = V[:j, :]
                cols = Vinv[:, :j]
                subsets, coeffs, rates = [], [], []
                for S in itertools.combinations(range(self.n), j):
                    c = np.linalg.det(rows[:, S]) * np.linalg.det(cols[S, :])
                    if abs(c) > 1e-14:
                        subsets.append(np.array(S))
                        coeffs.append(c)
                        rates.append(self._lam[list(S)].sum())
                self._subsets.append(subsets)
                self._coeffs.append(np.array(coeffs))
                self._rates.append(np.array(rates))

    def grid_values(self, j: int, ts) -> np.ndarray:
        """tau_j on a whole time grid (vectorized exponential sum)."""
        ts = np.asarray(ts, dtype=float)
        if self.method == "expm":
            return np.array([self.value(j, t) for t in ts])
        mu = np.outer(ts, self._rates[j - 1])
        shift = mu.max(axis=1, keepdims=True)
        np.clip(shift, 0.0, None, out=shift)  # rescale only to avoid overflow
        return np.exp(mu - shift) @ self._coeffs[j - 1] * np.exp(
            np.minimum(shift[:, 0], 600.0))

    def values(self, t, higher_times=None) -> np.ndarray:
        """[tau_1(t), ..., tau_l(t)]; higher_times gives t_2.. for the hierarchy."""
        if self.method == "expm":
            M = self.L0 * t
            if higher_times:
                P = self.L0.copy()
                for k, tk in enumerate(higher_times, start=2):
                    P = P @ self.L0
                    M = M + tk * P
            from scipy.linalg import expm

            g = expm(M)
            return np.array([np.linalg.det(g[:j, :j]) for j in range(1, self.n)])
        if not higher_times:
            return np.array([float(self.grid_values(j, [t])[0])
                             for j in range(1, self.n)])
        mu = self._lam * t
        for k, tk in enumerate(higher_times, start=2):
            mu = mu + tk * self._lam ** k
        if mu.max() > 600.0:
            # overflow guard: rescale by a positive factor (exp(-j*max) per
            # minor), preserving signs and zeros but not magnitudes
            mu = mu - mu.max()
        ex = np.exp(mu)
        out = np.empty(self.n - 1)
        for j in range(1, self.n):
            out[j - 1] = sum(c * np.prod(ex[S]) for S, c in
                             zip(self._subsets[j - 1], self._coeffs[j - 1]))
        return out

    def value(self, j: int, t: float, higher_times=None) -> float:
        if self.method != "expm" and not higher_times:
            return float(self.grid_values(j, [t])[0])
        return self.values(t, higher_times)[j - 1]

    def log_derivative(self, j: int, t: float) -> float:
        """d/dt log tau_j(t), i.e. the tau-side reconstruction of b_j."""
        if self.method == "expm":
            h = 1e-6
            f = lambda x: self.value(j, x)
            return (np.log(abs(f(t + h))) - np.log(abs(f(t - h)))) / (2 * h)
        mu = self._rates[j - 1] * t
        if mu.max() > 600.0:
            mu = mu - mu.max()  # common positive factor cancels in the ratio
        w = self._coeffs[j - 1] * np.exp(mu)
        return float((w @ self._rates[j - 1]) / w.sum())


def tau_minors(L0, t, higher_times=None) -> np.ndarray:
    """[tau_1(t), ..., tau_l(t)] for one time (see TauMinors for repeated use)."""
    return TauMinors(L0).values(t, higher_times=higher_times)


def zero_crossings(minors: TauMinors, j: int, window=(-12.0, 12.0),
                   grid: int = 4001) -> list[float]:
    """Sign changes of tau_j on the window, bisection-refined."""
    t0, t1 = window
    ts = np.linspace(t0, t1, grid)
    vals = minors.grid_values(j, ts)
    roots = []
    for i in range(len(ts) - 1):
        va, vb = vals[i], vals[i + 1]
        if va == 0.0:
            va = 1e-300  # exact grid zero: count via the adjacent interval
        if va * vb < 0:
            lo, hi = ts[i], ts[i + 1]
            flo = minors.value(j, lo)
            while hi - lo > BISECT_TOL:
                mid = 0.5 * (lo + hi)
                fm = minors.value(j, mid)
                if flo * fm <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    return roots


def count_zero_crossings(L0_or_minors, j: int, window=(-12.0, 12.0),
                         grid: int = 4001) -> int:
    """Grid-stable crossing count: doubling the grid must not change it."""
    minors = L0_or_minors if isinstance(L0_or_minors, TauMinors) else TauMinors(L0_or_minors)
    coarse = len(zero_crossings(minors, j, window, grid))
    fine = len(zero_crossings(minors, j, window, 2 * grid - 1))
    if coarse != fine:
        raise GridUnstableError(coarse, fine)
    return coarse


@dataclass(frozen=True)
class BlowupEvent:
    tau_index: int          # 1-based index of the blowing-up a_i / vanishing tau_i
    bracket: tuple[float, float]
    time: float


@dataclass
class Trajectory:
    lie_type: LieType
    t: np.ndarray
    a: np.ndarray           # shape (len(t), l)
    b: np.ndarray
    events: list[BlowupEvent] = field(default_factory=list)
    status: str = "complete"
    tau: np.ndarray | None = None  # minor-based tau tracks (type A only)

    def quadratic_invariant(self) -> np.ndarray:
        return quadratic_invariant(self.lie_type, self.a, self.b)

    def invariant_drift(self, a_bound: float = np.inf) -> float:
        """Max |I(t) - I(0)|, restricted to samples with max|a_i| <= a_bound
        (floating point cannot hold the invariant through a divergence)."""
        inv = self.quadratic_invariant()
        keep = np.max(np.abs(self.a), axis=1) <= a_bound
        keep[0] = True
        return float(np.max(np.abs(inv[keep] - inv[0])))


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
    Cm = np.array(C, dtype=float)

    def rhs(_t, y):
        l = Cm.shape[0]
        b, a = y[:l], y[l:]
        return np.concatenate([a, -(Cm @ b) * a])

    return rhs


def ode_integrate(t: LieType, a0, b0, t_span=(0.0, 10.0), rtol=1e-10, atol=1e-10,
                  delta=DIVERGENCE_DELTA, max_points=2000) -> Trajectory:
    """Adaptive RK45 integration of db = a, da = -(C b) a with divergence events.

    Integration stops (status 'blow-up') when any |a_i| reaches 1/delta.  A
    solver failure without divergence raises StepCollapseError (suspected
    stiff region).  Ranks above MAX_RANK and spans longer than MAX_TIME_SPAN
    raise CapExceededError before integrating.
    """
    if t.rank > MAX_RANK:
        raise CapExceededError(f"{t}: rank {t.rank} exceeds the cap {MAX_RANK}")
    C = cartan_matrix(t)
    a0 = np.asarray(a0, dtype=float)
    b0 = np.asarray(b0, dtype=float)
    l = t.rank
    if a0.shape != (l,) or b0.shape != (l,):
        raise ValidationError(f"need rank-{l} initial data")
    if not (np.all(np.isfinite(a0)) and np.all(np.isfinite(b0))):
        raise ValidationError(
            f"initial data must be finite, got a={a0.tolist()} b={b0.tolist()}")
    t0, t1 = t_span
    if not (math.isfinite(t0) and math.isfinite(t1)) or t0 == t1:
        raise ValidationError(f"time span must be finite with t0 != t1, got ({t0}, {t1})")
    if abs(t1 - t0) > MAX_TIME_SPAN:
        raise CapExceededError(
            f"time span |t1 - t0| = {abs(t1 - t0):g} exceeds the cap {MAX_TIME_SPAN:g}")
    from scipy.integrate import solve_ivp  # after the checks: a refusal costs no scipy import

    threshold = 1.0 / delta

    def divergence(_t, y):
        return np.max(np.abs(y[l:])) - threshold

    divergence.terminal = True
    divergence.direction = 1
    y0 = np.concatenate([b0, a0])
    t_eval = np.linspace(t_span[0], t_span[1], max_points)
    # overflow inside a collapsing step is reported as StepCollapseError below
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(toda_rhs(C), t_span, y0, method="RK45",
                        rtol=rtol, atol=atol, events=[divergence], t_eval=t_eval,
                        dense_output=False)
    if sol.status == -1:
        raise StepCollapseError(
            f"integrator failed at t={sol.t[-1] if len(sol.t) else t_span[0]}: {sol.message}"
        )
    events = []
    status = "complete"
    if sol.status == 1 and len(sol.t_events[0]):
        te = float(sol.t_events[0][0])
        ye = sol.y_events[0][0]
        blow_idx = int(np.argmax(np.abs(ye[l:]))) + 1
        # |a| ~ c/(t - t*)^2 puts the pole within sqrt(c * delta) of the
        # trigger; 100*sqrt(delta) straddles the tau sign change for any
        # pole coefficient up to 1e4
        margin = 100.0 * math.sqrt(delta)
        events.append(BlowupEvent(blow_idx, (te - margin, te + margin), te))
        status = "blow-up"
    traj = Trajectory(t, sol.t, sol.y[l:].T.copy(), sol.y[:l].T.copy(),
                      events, status)
    if t.series == "A" and np.all(a0 != 0):
        try:
            minors = TauMinors(lax_matrix(b0, a0))
        except DegenerateSpectrumError:
            pass
        else:
            traj.tau = np.array([minors.values(tt) for tt in traj.t])
    return traj


@dataclass(frozen=True)
class SignsVsEtaReport:
    lie_type: LieType
    eps: tuple[int, ...]
    crossings_per_tau: tuple[int, ...]
    total_crossings: int
    eta_longest: int
    matches: bool

    def as_dict(self) -> dict:
        from .signflow import format_signs

        return {
            "type": str(self.lie_type),
            "sign": format_signs(self.eps),
            "crossings_per_tau": list(self.crossings_per_tau),
            "total_crossings": self.total_crossings,
            "eta_longest": self.eta_longest,
            "matches": self.matches,
        }


def signs_vs_eta_report(L0, window=(-14.0, 14.0), grid: int = 4001,
                        group=None) -> SignsVsEtaReport:
    """Compare total minor zero-crossings against eta(w*, sgn a(0)) for type A."""
    from .signflow import eta_table
    from .weyl import WeylGroup

    L0 = np.asarray(L0, dtype=float)
    minors = TauMinors(L0)
    _, a = lax_data(L0)
    if np.any(a == 0):
        raise ValidationError("initial a_i must be nonzero to define a sign pattern")
    eps = tuple(1 if x > 0 else -1 for x in a)
    l = L0.shape[0] - 1
    t = LieType("A", l)
    per_tau = tuple(
        count_zero_crossings(minors, j, window=window, grid=grid)
        for j in range(1, l + 1)
    )
    if group is None:
        group = WeylGroup.generate(t)
    table = eta_table(group, eps)
    eta_star = table.values[group.id_of(group.longest_element())]
    total = sum(per_tau)
    return SignsVsEtaReport(t, eps, per_tau, total, eta_star, total == eta_star)


def example_a2_all_negative() -> np.ndarray:
    """A2 Lax matrix with a = (-1, -1), b = (1, -1) and spectrum {-1, 0, 1}."""
    return lax_matrix([1.0, -1.0], [-1.0, -1.0])
