"""Root-system and Cartan-matrix registry.

Conventions (they matter: eta values and tau labels depend on the node order):

* ``C[i][j] = alpha_i(h_{alpha_j})``, so the simple reflection ``s_i`` moves
  ``alpha_j`` to ``alpha_j - C[j][i] * alpha_i``.
* Rank-2 matrices match the classical display: B2 = [[2,-2],[-1,2]],
  C2 = [[2,-1],[-2,2]], G2 = [[2,-1],[-3,2]].
* All other types use Bourbaki numbering.  In B_l nodes 1..l-1 are long and
  node l is short (C[l-1][l] = -2); C_l is its transpose.  In D_l the two
  fork nodes are l-1 and l, attached to node l-2.  In E_l node 2 hangs off
  node 4 of the chain 1-3-4-5-...-l.  F4 has C[2][3] = -2.  In G2 node 1 is
  short.
* Affine types are the untwisted X_l(1), written ``A2(1)``, ``G2(1)`` etc.
  Their extended Cartan matrix puts node 0 first, alpha_0 = delta - theta
  with theta the highest root; the other nodes keep the finite numbering.

Everything in this module is exact: integer matrices and integer root
coordinates.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .errors import CapExceededError, UnsupportedTypeError, ValidationError

SERIES_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
SERIES_MAX_RANK = {"E": 8, "F": 4, "G": 2}
# A-D ranks above this are refused on parsing: commands build rank-sized
# tuples before their own caps, and every cap refuses far below it
MAX_CLASSICAL_RANK = 10**6
# the Toda flow refuses a rank above this before any work: type A sums 2^(l+1)
# Cauchy-Binet terms for the tau minors (A12 0.6 s, A14 1.4 s, A16 4.3 s in-process)
MAX_FLOW_RANK = 14
MAX_TIME_SPAN = 1e3  # the flow refuses |t1 - t0| above this before integrating


class _LieTypeFields(NamedTuple):
    series: str
    rank: int
    affine: bool = False


class LieType(_LieTypeFields):
    """A series letter, a rank, and an affine flag."""

    __slots__ = ()

    def __new__(cls, series: str, rank: int, affine: bool = False):
        if series not in SERIES_MIN_RANK:
            raise ValidationError(f"unknown series {series!r}")
        lo = SERIES_MIN_RANK[series]
        hi = SERIES_MAX_RANK.get(series, MAX_CLASSICAL_RANK)
        if not (lo <= rank <= hi):
            raise ValidationError(f"rank {rank} out of range [{lo},{hi}] for series {series}")
        return super().__new__(cls, series, rank, affine)

    @classmethod
    def parse(cls, text: str) -> "LieType":
        """Parse strings like ``"B3"``, ``"g2"`` or ``"A2(1)"`` (affine)."""
        s = text.strip()
        affine = False
        for suffix in ("(1)", "~"):
            if s.endswith(suffix):
                affine = True
                s = s[: -len(suffix)]
                break
        if len(s) < 2 or not s[0].isalpha():
            raise ValidationError(f"cannot parse Lie type {text!r}")
        series = s[0].upper()
        try:
            rank = int(s[1:])
        except ValueError:
            raise ValidationError(f"cannot parse rank in Lie type {text!r}") from None
        return cls(series, rank, affine)

    def __str__(self):
        return f"{self.series}{self.rank}" + ("(1)" if self.affine else "")


def require_finite(t: LieType):
    if t.affine:
        raise UnsupportedTypeError(f"{t} is affine; use extended_cartan / the affine module")


def check_flow_input(t: LieType, a0: list[float], b0: list[float], t_span):
    """Refuse Toda-flow input before numpy loads: the rank cap, non-finite
    initial data, an empty or non-finite span and the span cap."""
    if t.rank > MAX_FLOW_RANK:
        raise CapExceededError(f"{t}: rank {t.rank} exceeds the cap {MAX_FLOW_RANK}")
    if not all(map(math.isfinite, a0 + b0)):
        raise ValidationError(f"initial data must be finite, got a={a0} b={b0}")
    t0, t1 = t_span
    if not (math.isfinite(t0) and math.isfinite(t1)) or t0 == t1:
        raise ValidationError(f"time span must be finite with t0 != t1, got ({t0}, {t1})")
    if abs(t1 - t0) > MAX_TIME_SPAN:
        raise CapExceededError(
            f"time span |t1 - t0| = {abs(t1 - t0):g} exceeds the cap {MAX_TIME_SPAN:g}")


def cartan_matrix(t: LieType) -> tuple[tuple[int, ...], ...]:
    """The l x l Cartan matrix in the conventions spelled out above."""
    require_finite(t)
    l = t.rank
    C = [[2 if i == j else 0 for j in range(l)] for i in range(l)]

    def link(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    s = t.series
    if s in ("A", "B", "C"):
        for i in range(l - 1):
            link(i, i + 1)
        if s == "B" and l >= 2:
            link(l - 2, l - 1, -2, -1)
        if s == "C" and l >= 2:
            link(l - 2, l - 1, -1, -2)
    elif s == "D":
        for i in range(l - 3):
            link(i, i + 1)
        link(l - 3, l - 2)
        link(l - 3, l - 1)
    elif s == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: l - 1]  # nodes 1,3,4,5,... (0-based)
        for a, b in zip(chain, chain[1:]):
            link(a, b)
        link(1, 3)  # node 2 attaches to node 4
    elif s == "F":
        link(0, 1)
        link(1, 2, -2, -1)
        link(2, 3)
    elif s == "G":
        link(0, 1, -1, -3)
    return tuple(tuple(row) for row in C)


def extended_cartan(t: LieType) -> tuple[tuple[int, ...], ...]:
    """The (l+1) x (l+1) extended Cartan matrix of the untwisted affine type t.

    With theta the highest root, row 0 is -<theta, alpha_j^vee>; column 0 is
    -<alpha_i, theta^vee> = -2 (alpha_i, theta) / (theta, theta)
    = -(alpha_i, theta) / max(d), as theta is long: (theta, theta) = 2 max(d)
    in the form (alpha_i, alpha_j) = C[i][j] * d_j of the symmetrizer d.
    """
    if not t.affine:
        raise UnsupportedTypeError(f"expected an untwisted affine type, got {t}")
    finite = LieType(t.series, t.rank)
    C, d, theta = cartan_matrix(finite), symmetrizer(finite), positive_roots(finite)[-1]
    row0 = (2,) + tuple(-sum(th * row[j] for th, row in zip(theta, C)) for j in range(t.rank))
    col0 = (-sum(c * dj * th for c, dj, th in zip(row, d, theta)) // max(d) for row in C)
    return (row0,) + tuple((c0,) + row for c0, row in zip(col0, C))


def langlands_dual(t: LieType) -> LieType:
    """Transpose of the Cartan matrix as a type: swaps B and C, fixes the rest."""
    require_finite(t)
    if t.series == "B":
        return LieType("C", t.rank)
    if t.series == "C":
        return LieType("B", t.rank)
    return t


def tau_multiplicities(t: LieType) -> tuple[int, ...]:
    """nu_k, the order to which tau_k vanishes on the t1 axis: the k-th
    coefficient of 2 rho^vee, the sum of the positive coroots.  The positive
    roots of the transposed Cartan matrix are the coroots in simple-coroot
    coordinates, so nu_k is their k-th column sum."""
    C = cartan_matrix(t)
    return tuple(map(sum, zip(*_positive(tuple(zip(*C))))))


def two_rho_height(t: LieType) -> int:
    """Height of the sum of all positive roots, sum d_i (d_i - 1) / 2 over the
    degrees d_i of W (Kostant); it equals sum(nu_k), but needs no root
    closure."""
    d = weyl_degrees(t)
    return (sum(map(operator.mul, d, d)) - sum(d)) // 2


def symmetrizer(t: LieType) -> tuple[int, ...]:
    """Positive integers d_i = (alpha_i, alpha_i)/2 up to overall scale.

    Characterized by d_j * C[i][j] = d_i * C[j][i], which makes the matrix
    (alpha_i, alpha_j) = C[i][j] * d_j symmetric.  Walked in integers from
    d_0 = 6, then divided by the gcd: a connected finite diagram has at most
    one multiple edge, of ratio 2 or 3, so every division is exact.
    """
    C = cartan_matrix(t)
    d = [6] + [0] * (t.rank - 1)
    todo = [0]
    while todo:
        i = todo.pop()
        for j, cij in enumerate(C[i]):
            if cij and not d[j]:
                d[j] = d[i] * C[j][i] // cij
                todo.append(j)
    g = math.gcd(*d)
    return tuple(x // g for x in d)


class CompactDual(NamedTuple):
    """The maximal compact subgroup of the Langlands-dual group, as data.

    ``degrees`` are the basic invariant degrees d_1..d_g appearing as
    exponents in the factorization prod (q^{d_i} - 1) of the blow-up
    polynomial; ``dim`` is the real dimension and ``g`` the rank.
    """

    name: str
    dim: int
    degrees: tuple[int, ...]

    @property
    def g(self) -> int:
        return len(self.degrees)

    @property
    def r(self) -> int:
        """dim - deg p(q); the Frobenius weight shift."""
        return self.dim - sum(self.degrees)


def compact_dual_info(t: LieType) -> CompactDual:
    require_finite(t)
    s, l = t.series, t.rank
    if s == "A":
        name = f"SO({l + 1})"
        dim = l * (l + 1) // 2
        if l % 2 == 0:
            degrees = list(range(2, l + 1, 2))
        else:
            degrees = list(range(2, l, 2)) + [(l + 1) // 2]
    elif s == "B":
        name, dim, degrees = f"U({l})", l * l, list(range(1, l + 1))
    elif s == "C":
        name = f"SO({l})xSO({l + 1})"
        dim = l * l
        if l % 2 == 0:
            degrees = [d for d in range(2, l - 1, 2) for _ in (0, 1)] + [l, l // 2]
        else:
            degrees = [d for d in range(2, l, 2) for _ in (0, 1)] + [(l + 1) // 2]
    elif s == "D":
        name = f"SO({l})xSO({l})"
        dim = l * (l - 1)
        if l % 2 == 0:
            degrees = [d for d in range(2, l - 1, 2) for _ in (0, 1)] + [l // 2, l // 2]
        else:
            degrees = [d for d in range(2, l, 2) for _ in (0, 1)]
    elif s == "E":
        name, dim, degrees = {
            6: ("Sp(4)", 36, [2, 4, 6, 8]),
            7: ("SU(8)", 63, [2, 3, 4, 5, 6, 7, 8]),
            8: ("SO(16)", 120, [2, 4, 6, 8, 8, 10, 12, 14]),
        }[l]
    elif s == "F":
        name, dim, degrees = "Sp(1)xSp(3)", 24, [2, 2, 4, 6]
    else:  # G
        name, dim, degrees = "SU(2)xSU(2)", 6, [2, 2]
    info = CompactDual(name, dim, tuple(degrees))
    # Self-check of the stored dimensions against the Borel-dimension identity.
    if info.r < 0 or (info.dim + info.g) % 2 != 0 or (info.dim + info.g) // 2 != sum(info.degrees):
        raise ValidationError(f"inconsistent compact-dual table entry for {t}: {info}")
    return info


def weyl_degrees(t: LieType) -> tuple[int, ...]:
    """Degrees of the basic Weyl-group invariants, ascending (not the
    compact-dual degrees of ``compact_dual_info``).  Their product is |W| and
    the largest is the Coxeter number."""
    require_finite(t)
    s, l = t.series, t.rank
    if s == "A":
        return tuple(range(2, l + 2))
    if s in ("B", "C"):
        return tuple(range(2, 2 * l + 1, 2))
    if s == "D":
        return tuple(sorted([*range(2, 2 * l - 1, 2), l]))
    return {"E6": (2, 5, 6, 8, 9, 12), "E7": (2, 6, 8, 10, 12, 14, 18),
            "E8": (2, 8, 12, 14, 18, 20, 24, 30), "F4": (2, 6, 8, 12), "G2": (2, 6)}[str(t)]


def weyl_order(t: LieType) -> int:
    """|W|, the product of the Weyl-group degrees."""
    return math.prod(weyl_degrees(t))


def weyl_order_log10(t: LieType) -> float:
    """log10 |W| from ``math.lgamma``, without forming |W| (for A1000000
    the exact factorial has 5.6 million digits)."""
    require_finite(t)
    s, l = t.series, t.rank
    if s == "A":
        return math.lgamma(l + 2) / math.log(10)
    if s in ("B", "C", "D"):
        return (l - (s == "D")) * math.log10(2) + math.lgamma(l + 1) / math.log(10)
    return math.log10(weyl_order(t))


def reflect_root(C, beta, i: int) -> tuple[int, ...]:
    """s_i(beta) in simple-root coordinates: beta - (sum_j beta_j C[j][i]) alpha_i."""
    out = list(beta)
    out[i] -= sum(b * C[j][i] for j, b in enumerate(beta))
    return tuple(out)


def _positive(C) -> tuple[tuple[int, ...], ...]:
    """The positive roots of the Cartan matrix C in simple-root coordinates,
    by closure of the simples under simple reflections: the simple roots in
    node order, then the rest by (height, coordinates)."""
    l = len(C)
    simple = tuple(tuple(int(i == j) for j in range(l)) for i in range(l))
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(l):
                img = reflect_root(C, beta, i)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    rest = sorted((b for b in seen if all(c >= 0 for c in b) and sum(b) > 1),
                  key=lambda b: (sum(b), b))
    return simple + tuple(rest)


def positive_roots(t: LieType) -> tuple[tuple[int, ...], ...]:
    """The positive roots of t in simple-root coordinates, the simple roots
    first in node order, then the rest by (height, coordinates)."""
    require_finite(t)
    return _positive(cartan_matrix(t))


def conventions_table() -> dict:
    """JSON-ready record of the node-numbering conventions (for docs)."""
    entries = {}
    for name in ("A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "F4", "G2", "E6"):
        t = LieType.parse(name)
        entries[name] = {
            "cartan": [list(r) for r in cartan_matrix(t)],
            "dual": str(langlands_dual(t)),
            "nu": list(tau_multiplicities(t)),
            "compact_dual": compact_dual_info(t).name,
        }
    return {
        "convention": "C[i][j] = alpha_i(h_alpha_j); rank-2 matrices as displayed in "
                      "the classical B2/C2/G2 tables; Bourbaki numbering elsewhere",
        "types": entries,
    }
