"""Affine Weyl group sign dynamics for the untwisted affine types X_l(1).

An element w is keyed by the Dynkin labels m of w^{-1} rho (the numbers
game, Bjorner-Brenti ch. 4): the identity is (1, ..., 1), w * s_i has
m_j - m_i * C[i][j] with C the extended Cartan matrix, and s_i is a right
descent of w exactly when m_i < 0.  The breadth-first word tree shared with
the finite groups (``weyl.WordTree``) enumerates the group by length and
hands every element a witness reduced word; every level is checked against
Bott's formula.  The sign action uses the extended Cartan matrix with the
same word rule as the finite case, and the alternating sum of q^eta becomes
a power series whose low coefficients stabilize as the length cutoff grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import CapExceededError, InsufficientDataError, ValidationError
from .exact import format_poly, solve
from .rootdata import LieType, extended_cartan, weyl_degrees
from .signflow import format_signs, propagate
from .weyl import WordTree

DEFAULT_LMAX_CAP = 40
MAX_ELEMENTS = 100_000  # refuse enumerations through lmax with more elements
MAX_RANK = 20  # rank 20 through lmax 5: 65,780 elements


@dataclass(frozen=True)
class AffineElement:
    """A group element: its Dynkin-label key plus length data."""

    labels: tuple[int, ...]  # Dynkin labels of w^{-1} rho; canonical key
    length: int
    word: tuple[int, ...]    # witness reduced word over 0..l

    def __str__(self):
        if not self.word:
            return "e"
        if max(self.word) > 9:  # two-digit letters need a separator
            return ".".join(str(i) for i in self.word)
        return "".join(str(i) for i in self.word)


def bott_counts(lie_type: LieType, lmax: int) -> list[int]:
    """Number of elements of each length 0..lmax in the affine Weyl group of
    X_l(1), X_l the finite part of ``lie_type``, from Bott's formula
    W_aff(q) = prod_i (1 - q^{d_i}) / ((1 - q)(1 - q^{d_i - 1})) over the
    degrees d_i of W(X_l)."""
    c = [1] + [0] * lmax
    for d in weyl_degrees(LieType(lie_type.series, lie_type.rank)):
        for k in range(lmax, d - 1, -1):  # * (1 - q^d)
            c[k] -= c[k - d]
        for k in range(1, lmax + 1):      # / (1 - q)
            c[k] += c[k - 1]
        for k in range(d - 1, lmax + 1):  # / (1 - q^{d-1})
            c[k] += c[k - d + 1]
    return c


def element_count(lie_type: LieType, lmax: int) -> int:
    """Number of elements of length <= lmax (Bott's formula)."""
    return sum(bott_counts(lie_type, lmax))


class AffineWeylGroup(WordTree):
    """Length-graded enumeration of an untwisted affine Weyl group."""

    def __init__(self, lie_type: LieType):
        if not lie_type.affine:
            raise ValidationError(f"expected an affine type, got {lie_type}")
        self.lie_type = lie_type
        self.rank = lie_type.rank
        super().__init__((1,) * (lie_type.rank + 1), lie_type.rank + 1)
        self.windows = self.keys  # perfbench/tracing.py counts elements by this name

    @cached_property
    def cartan(self):
        return extended_cartan(self.lie_type)

    def _mul(self, m, i):
        mi = m[i]
        return tuple(mj - mi * c for mj, c in zip(m, self.cartan[i]))

    def _descent(self, m, i):
        return m[i] < 0

    def extend_to(self, lmax: int, cap: int = DEFAULT_LMAX_CAP):
        if lmax < 0:
            raise ValidationError(f"lmax must be >= 0, got {lmax}")
        if self.rank > MAX_RANK:
            raise CapExceededError(
                f"{self.lie_type}: affine rank {self.rank} exceeds the cap {MAX_RANK}")
        if lmax > cap:
            raise CapExceededError(f"affine enumeration capped at Lmax<={cap}")
        counts = bott_counts(self.lie_type, lmax)
        if sum(counts) > MAX_ELEMENTS:
            raise CapExceededError(
                f"{self.lie_type} has {sum(counts)} elements of length <= {lmax}, "
                f"over the cap {MAX_ELEMENTS}")
        while self.lengths[-1] < lmax:
            start = len(self.keys)
            self.grow()
            # each level must have the size Bott's formula gives
            assert len(self.keys) - start == counts[self.lengths[-1]]
        return self

    def elements_by_length(self, lmax: int) -> list[AffineElement]:
        self.extend_to(lmax)
        return [self.element(i) for i in range(len(self.keys))
                if self.lengths[i] <= lmax]

    def count_per_length(self, lmax: int) -> list[int]:
        self.extend_to(lmax)
        out = [0] * (lmax + 1)
        for ln in self.lengths:
            if ln <= lmax:
                out[ln] += 1
        return out

    def element(self, eid: int) -> AffineElement:
        return AffineElement(self.keys[eid], self.lengths[eid], self.word(eid))


@dataclass(frozen=True)
class TruncatedSeries:
    """Partial alternating sum over the affine group, with stability marks.

    coefficient k is marked stable when no element of length in
    (lmax - buffer, lmax] contributed to it, buffer = 2(l+1).  That is a
    heuristic cutoff, not a proof.
    """

    lie_type: LieType
    eps: tuple[int, ...]
    lmax: int
    coeffs: tuple[int, ...]
    last_contribution: tuple[int, ...]
    buffer: int

    def stable(self) -> tuple[bool, ...]:
        return tuple(lc <= self.lmax - self.buffer for lc in self.last_contribution)

    def stable_coeffs(self) -> list[int]:
        flags = self.stable()
        out = []
        for c, ok in zip(self.coeffs, flags):
            if not ok:
                break
            out.append(c)
        return out

    def as_dict(self) -> dict:
        return {
            "type": str(self.lie_type),
            "sign": format_signs(self.eps),
            "lmax": self.lmax,
            "coeffs": list(self.coeffs),
            "stable": list(self.stable()),
            "buffer": self.buffer,
        }


def p_series(t: LieType, eps, lmax: int, group: AffineWeylGroup | None = None,
             cap: int = DEFAULT_LMAX_CAP) -> TruncatedSeries:
    """sum over l(w) <= lmax of (-1)^{l(w)} q^{eta(w, eps)} with stability marks."""
    eps = tuple(eps)
    if group is None:
        group = AffineWeylGroup(t)
    if len(eps) != group.generators:
        raise ValidationError(f"affine sign vector must have length {group.generators}")
    group.extend_to(lmax, cap=cap)
    etas, _ = propagate(group.cartan, group.parents, group.letters, eps)
    coeffs = {}
    last = {}
    for ln, e in zip(group.lengths, etas):
        if ln > lmax:
            continue
        coeffs[e] = coeffs.get(e, 0) + (-1 if ln % 2 else 1)
        last[e] = max(last.get(e, 0), ln)
    top = max(coeffs) if coeffs else 0
    coeff_list = [coeffs.get(k, 0) for k in range(top + 1)]
    last_list = [last.get(k, 0) for k in range(top + 1)]
    return TruncatedSeries(t, eps, lmax, tuple(coeff_list), tuple(last_list),
                           2 * (t.rank + 1))


@dataclass(frozen=True)
class RationalFunction:
    """num(q)/den(q) with integer coefficients, den(0) = 1."""

    num: tuple[int, ...]
    den: tuple[int, ...]

    def series(self, order: int) -> list[Fraction]:
        out = []
        for k in range(order + 1):
            acc = Fraction(self.num[k] if k < len(self.num) else 0)
            for j in range(1, min(k, len(self.den) - 1) + 1):
                acc -= self.den[j] * out[k - j]
            out.append(acc / self.den[0])
        return out

    def __str__(self):
        return f"({format_poly(self.num, 'q')}) / ({format_poly(self.den, 'q')})"


MIN_STABLE_FOR_GUESS = 6


def rational_guess(series: TruncatedSeries, max_degree: int = 4):
    """Pade-style reconstruction of the stable prefix as a small rational function.

    Returns a RationalFunction verified against every stable coefficient, or
    None when no fit of total degree <= max_degree matches.
    """
    stable = series.stable_coeffs()
    if len(stable) < MIN_STABLE_FOR_GUESS:
        raise InsufficientDataError(
            f"need {MIN_STABLE_FOR_GUESS} stable coefficients, have {len(stable)}"
        )
    target = [Fraction(c) for c in stable]
    for total in range(max_degree + 1):
        for dq in range(total + 1):
            dp = total - dq
            if dp + dq + 2 > len(stable):
                continue
            fit = _fit_rational(target, dp, dq)
            if fit is not None:
                return fit
    return None


def _fit_rational(target, dp, dq):
    """Solve c * (1 + q1 q + ...) = p exactly; verify on all of target."""
    n = len(target)
    # unknowns: q_1..q_dq then p_0..p_dp
    rows = []
    rhs = []
    for k in range(n):
        row = [Fraction(0)] * (dq + dp + 1)
        for j in range(1, dq + 1):
            if k - j >= 0:
                row[j - 1] = target[k - j]
        if k <= dp:
            row[dq + k] = Fraction(-1)
        rows.append(row)
        rhs.append(-target[k])
    sol = solve(rows, rhs)
    if sol is None:
        return None
    den = [Fraction(1)] + sol[:dq]
    num = sol[dq:]
    num_i, den_i = _int_coeffs(num), _int_coeffs(den)
    if num_i is None or den_i is None:
        return None
    cand = RationalFunction(num_i, den_i)
    check = cand.series(n - 1)
    if all(a == b for a, b in zip(check, target)):
        return cand
    return None


def _int_coeffs(fracs):
    if any(f.denominator != 1 for f in fracs):
        return None  # keep den(0)=1 and integer coefficients
    return tuple(int(f) for f in fracs)
