"""Exact univariate polynomials, truncated power-series quotients and
Fraction Gauss-Jordan inversion.

Coefficients are ints or Fractions, low to high.  Integer polynomials stay
integer under +, - and *.  The one division is
``series_quotient``, which keeps ints when the denominator's constant term
is 1 or -1 and gives Fractions otherwise, so int or Fraction inputs never
produce a float.  Gauss-Jordan divides in Fraction.  ``fractions`` (and
with it ``decimal``) is imported where a Fraction is built, so a command
that builds none never loads it.
"""

from __future__ import annotations

from .errors import ValidationError


class UniPoly:
    """Univariate polynomial over the integers or rationals, coefficients low to high."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        b = other.coeffs
        out = [0] * (len(self.coeffs) + len(b) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, y in enumerate(b, i):
                    out[j] += a * y
        return UniPoly(out)

    def series_quotient(self, den: "UniPoly", order: int) -> list:
        """Coefficients 0..order of the power series self / den, den(0) != 0."""
        d0 = den(0)
        if d0 in (1, -1):
            inv = d0  # 1/d0, an int for a unit
        else:
            from fractions import Fraction

            inv = Fraction(1, d0)
        a, d = self.coeffs, den.coeffs
        out = []
        for k in range(order + 1):
            acc = a[k] if k < len(a) else 0
            for j in range(1, min(k, len(d) - 1) + 1):
                acc -= d[j] * out[k - j]
            out.append(acc * inv)
        return out

    def __str__(self):
        """Highest power first: ``2*q^2 - q + 1``."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                base = "q" if k == 1 else f"q^{k}"
                term = base if mag == 1 else f"{mag}*{base}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"


def inverse(mat) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a square matrix by Fraction Gauss-Jordan; raises
    ValidationError when singular."""
    from fractions import Fraction

    n = len(mat)
    rows = [[Fraction(x) for x in mat[i]] + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            raise ValidationError("singular matrix")
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return tuple(tuple(row[n:]) for row in rows)
