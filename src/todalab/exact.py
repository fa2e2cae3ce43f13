"""Exact univariate polynomials and Fraction Gauss-Jordan elimination.

Coefficients are ints or Fractions, low to high.  Integer polynomials stay
integer under +, -, * and differentiation, and the class has no division,
so int or Fraction inputs never produce a float.  Gauss-Jordan divides in
Fraction.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError


class UniPoly:
    """Univariate polynomial over the integers or rationals, coefficients low to high."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def from_dict(cls, d):
        """Build from {exponent: coefficient}."""
        out = [0] * (max(d) + 1 if d else 0)
        for k, v in d.items():
            out[k] = v
        return cls(out)

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
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def derivative(self) -> "UniPoly":
        return UniPoly([c * k for k, c in enumerate(self.coeffs)][1:])

    def __str__(self):
        return format_poly(self.coeffs, "q")

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)})"


def format_poly(coeffs, var: str) -> str:
    """Human-readable polynomial, highest power first: ``2*q^2 - q + 1``."""
    if not coeffs:
        return "0"
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            term = str(mag)
        else:
            base = var if k == 1 else f"{var}^{k}"
            term = base if mag == 1 else f"{mag}*{base}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


# -- Fraction Gauss-Jordan -----------------------------------------------------


def _row_reduce(aug, ncols: int):
    """Reduced row-echelon form of ``aug`` over Fraction on its first ``ncols``
    columns.  Returns the rows and the pivot column of each leading row."""
    rows = [[Fraction(x) for x in row] for row in aug]
    m = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def inverse(mat) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a square matrix; raises ValidationError when singular."""
    n = len(mat)
    rows, pivots = _row_reduce(
        [list(mat[i]) + [int(i == j) for j in range(n)] for i in range(n)], n)
    if len(pivots) < n:
        raise ValidationError("singular matrix")
    return tuple(tuple(row[n:]) for row in rows)


def solve(rows, rhs) -> list[Fraction] | None:
    """One exact solution of the possibly overdetermined system rows * x = rhs.

    Free unknowns are set to zero; returns None when the system is inconsistent.
    """
    ncols = len(rows[0])
    reduced, pivots = _row_reduce([list(r) + [b] for r, b in zip(rows, rhs)], ncols)
    if any(row[ncols] != 0 for row in reduced[len(pivots):]):
        return None
    sol = [Fraction(0)] * ncols
    for row, c in zip(reduced, pivots):
        sol[c] = row[ncols]
    return sol
