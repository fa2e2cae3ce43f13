"""Affine Weyl group sign dynamics for the untwisted A series.

Elements are affine permutations: bijections w of Z with w(i+n) = w(i)+n
(n = l+1) and sum(w(1..n)) = sum(1..n).  The window (w(1),...,w(n)) is a
canonical key; the breadth-first word tree shared with the finite groups
(``weyl.WordTree``) enumerates the group by length and hands every element
a witness reduced word.  The sign action uses the extended Cartan matrix
with the same word rule as the finite case, and the alternating sum of
q^eta becomes a power series whose low coefficients stabilize as the
length cutoff grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import CapExceededError, InsufficientDataError, ValidationError
from .exact import format_poly, solve
from .rootdata import LieType, extended_cartan
from .signflow import format_signs, propagate
from .weyl import WordTree

DEFAULT_LMAX_CAP = 40
MAX_ELEMENTS = 100_000  # refuse enumerations through lmax with more elements
MAX_RANK = 20  # rank 20 through lmax 5: 65,780 elements


@dataclass(frozen=True)
class AffineElement:
    """An affine permutation with its semidirect-product coordinates."""

    window: tuple[int, ...]       # (w(1), ..., w(n)); canonical key
    perm: tuple[int, ...]         # finite part: w(i) mod n, ranked to 1..n
    translation: tuple[int, ...]  # (w(i) - perm(i)) / n; sums to zero
    length: int
    word: tuple[int, ...]         # witness reduced word over 0..l

    def __str__(self):
        if not self.word:
            return "e"
        if max(self.word) > 9:  # two-digit letters need a separator
            return ".".join(str(i) for i in self.word)
        return "".join(str(i) for i in self.word)


def _decompose(window):
    n = len(window)
    perm = []
    trans = []
    for v in window:
        m = v % n
        residue = n if m == 0 else m
        perm.append(residue)
        trans.append((v - residue) // n)
    return tuple(perm), tuple(trans)


def length_by_inversions(window) -> int:
    """Coxeter length from the affine inversion formula (independent oracle).

    l(w) = sum over 1 <= i < j <= n of |floor((w(j) - w(i)) / n)|.
    """
    n = len(window)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += abs((window[j] - window[i]) // n)
    return total


def _apply_right(window, k):
    """Window of w * s_k (generators k = 0..l)."""
    n = len(window)
    w = list(window)
    if k == 0:
        # s_0 swaps positions 0 <-> 1 modulo n-periodicity
        w[0], w[n - 1] = w[n - 1] - n, w[0] + n
    else:
        w[k - 1], w[k] = w[k], w[k - 1]
    return tuple(w)


def element_count(rank: int, lmax: int) -> int:
    """Number of elements of length <= lmax in the affine Weyl group of
    A(1)_rank, from Bott's formula
    W_aff(q) = prod_{i=1}^{l} (1 - q^{i+1}) / ((1 - q)(1 - q^i))."""
    c = [1] + [0] * lmax
    for i in range(1, rank + 1):
        for k in range(lmax, i, -1):      # * (1 - q^{i+1})
            c[k] -= c[k - i - 1]
        for k in range(1, lmax + 1):      # / (1 - q)
            c[k] += c[k - 1]
        for k in range(i, lmax + 1):      # / (1 - q^i)
            c[k] += c[k - i]
    return sum(c)


class AffineWeylGroup(WordTree):
    """Length-graded enumeration of the affine Weyl group of A(1)_l."""

    def __init__(self, lie_type: LieType):
        if not (lie_type.affine and lie_type.series == "A"):
            raise ValidationError(f"expected an affine A type, got {lie_type}")
        self.lie_type = lie_type
        self.rank = lie_type.rank
        self.n = lie_type.rank + 1
        super().__init__(tuple(range(1, self.n + 1)), self.n)
        self.windows = self.keys

    @cached_property
    def cartan(self):
        return extended_cartan(self.lie_type)

    def _mul(self, win, k):
        return _apply_right(win, k)

    def _descent(self, win, k):
        # w(k) > w(k+1), with w(0) = w(n) - n (Bjorner-Brenti 8.3)
        return (win[k - 1] if k else win[-1] - self.n) > win[k]

    def extend_to(self, lmax: int, cap: int = DEFAULT_LMAX_CAP):
        if lmax < 0:
            raise ValidationError(f"lmax must be >= 0, got {lmax}")
        if self.rank > MAX_RANK:
            raise CapExceededError(
                f"{self.lie_type}: affine rank {self.rank} exceeds the cap {MAX_RANK}")
        if lmax > cap:
            raise CapExceededError(f"affine enumeration capped at Lmax<={cap}")
        count = element_count(self.rank, lmax)
        if count > MAX_ELEMENTS:
            raise CapExceededError(
                f"{self.lie_type} has {count} elements of length <= {lmax}, "
                f"over the cap {MAX_ELEMENTS}")
        while self.lengths[-1] < lmax:
            start = len(self.windows)
            self.grow()
            for eid in range(start, len(self.windows)):
                # BFS depth must agree with the affine inversion formula
                assert self.lengths[eid] == length_by_inversions(self.windows[eid])
        return self

    def elements_by_length(self, lmax: int) -> list[AffineElement]:
        self.extend_to(lmax)
        return [self.element(i) for i in range(len(self.windows))
                if self.lengths[i] <= lmax]

    def count_per_length(self, lmax: int) -> list[int]:
        self.extend_to(lmax)
        out = [0] * (lmax + 1)
        for ln in self.lengths:
            if ln <= lmax:
                out[ln] += 1
        return out

    def element(self, eid: int) -> AffineElement:
        win = self.windows[eid]
        perm, trans = _decompose(win)
        return AffineElement(win, perm, trans, self.lengths[eid], self.word(eid))

    def evaluate_word(self, word) -> tuple[int, ...]:
        return self.key_of_word(word)


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
    if len(eps) != group.n:
        raise ValidationError(f"affine sign vector must have length {group.n}")
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
