"""Affine Weyl group sign dynamics for the untwisted affine types X_l(1).

An element w is keyed by the Dynkin labels m of w^{-1} rho (the numbers
game, Bjorner-Brenti ch. 4, shared with the coset chain as
``weyl.LabelTree``): the identity is (1, ..., 1), w * s_i has
m_j - m_i * C[i][j] with C the extended Cartan matrix, and s_i is a right
descent of w exactly when m_i <= 0 (rho is regular, so no label is 0).  The
breadth-first word tree enumerates the group by length and hands every
element a witness reduced word; every level is checked against Bott's
formula.  The sign action uses the extended Cartan matrix with the
same word rule as the finite case, and the alternating sum of q^eta becomes
a power series whose low coefficients stabilize as the length cutoff grows.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapExceededError, InsufficientDataError, ValidationError
from .exact import UniPoly, inverse
from .rootdata import LieType, extended_cartan, weyl_degrees
from .signflow import format_signs, propagate
from .weyl import LabelTree

MAX_LMAX = 40  # refuse enumerations past this length
MAX_ELEMENTS = 100_000  # refuse enumerations through lmax with more elements
MAX_RANK = 20  # rank 20 through lmax 5: 65,780 elements


def bott_counts(lie_type: LieType, lmax: int) -> list[int]:
    """Number of elements of each length 0..lmax in the affine Weyl group of
    X_l(1), X_l the finite part of ``lie_type``, from Bott's formula
    W_aff(q) = prod_i (1 - q^{d_i}) / ((1 - q)(1 - q^{d_i - 1})) over the
    degrees d_i of W(X_l)."""
    num, den = UniPoly([1]), UniPoly([1])
    for d in weyl_degrees(LieType(lie_type.series, lie_type.rank)):
        num = num * UniPoly([1] + [0] * (d - 1) + [-1])
        den = den * UniPoly([1, -1]) * UniPoly([1] + [0] * (d - 2) + [-1])
    return num.series_quotient(den, lmax)


class AffineWeylGroup(LabelTree):
    """Length-graded enumeration of an untwisted affine Weyl group."""

    def __init__(self, lie_type: LieType):
        if not lie_type.affine:
            raise ValidationError(f"expected an affine type, got {lie_type}")
        if lie_type.rank > MAX_RANK:  # before the rank-sized extended Cartan matrix
            raise CapExceededError(
                f"{lie_type}: affine rank {lie_type.rank} exceeds the cap {MAX_RANK}")
        super().__init__(lie_type, extended_cartan(lie_type), (1,) * (lie_type.rank + 1))
        self.windows = self.keys  # perfbench/tracing.py counts elements by this name

    def extend_to(self, lmax: int):
        if lmax < 0:
            raise ValidationError(f"lmax must be >= 0, got {lmax}")
        if lmax > MAX_LMAX:
            raise CapExceededError(f"affine enumeration capped at Lmax<={MAX_LMAX}")
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


class TruncatedSeries(NamedTuple):
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


def p_series(t: LieType, eps, lmax: int,
             group: AffineWeylGroup | None = None) -> TruncatedSeries:
    """sum over l(w) <= lmax of (-1)^{l(w)} q^{eta(w, eps)} with stability marks."""
    eps = tuple(eps)
    if group is None:
        group = AffineWeylGroup(t)
    if len(eps) != group.generators:
        raise ValidationError(f"affine sign vector must have length {group.generators}")
    group.extend_to(lmax)
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


class RationalFunction(NamedTuple):
    """num(q)/den(q) with integer coefficients, den(0) = 1."""

    num: UniPoly
    den: UniPoly

    def series(self, order: int) -> list[int]:
        return self.num.series_quotient(self.den, order)

    def __str__(self):
        return f"({self.num}) / ({self.den})"


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
    for total in range(max_degree + 1):
        for dq in range(total + 1):
            dp = total - dq
            if dp + dq + 2 > len(stable):
                continue
            fit = _fit_rational(stable, dp, dq)
            if fit is not None:
                return fit
    return None


def _fit_rational(c, dp, dq):
    """num / den with deg num <= dp, deg den <= dq, den(0) = 1 and integer
    coefficients whose series matches every coefficient of c, or None.

    den = 1 + x_1 q + ... + x_dq q^dq solves the dq x dq Toeplitz block
    sum_j x_j c[k-j] = -c[k], k = dp+1..dp+dq; a singular block is no fit.
    """
    ks = range(dp + 1, dp + dq + 1)
    try:
        inv = inverse([[c[k - j] if k >= j else 0 for j in range(1, dq + 1)] for k in ks])
    except ValidationError:
        return None
    x = [sum(a * -c[k] for a, k in zip(row, ks)) for row in inv]
    if any(v.denominator != 1 for v in x):
        return None  # keep den(0) = 1 and integer coefficients
    den = UniPoly([1] + [int(v) for v in x])
    prod = (den * UniPoly(c)).coeffs
    if any(prod[dp + 1:len(c)]):
        return None
    return RationalFunction(UniPoly(prod[:dp + 1]), den)
