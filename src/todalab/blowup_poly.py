"""The blow-up polynomial p_eps(q), its closed factorizations, and finite-group
point counts.

p_eps(q) = (-1)^{l(w*)} * sum_w (-1)^{l(w)} q^{eta(w, eps)}.  For the all-minus
sign it equals q^{-r} |K(F_q)| for the maximal compact K of the Langlands-dual
group, with the explicit per-type factorization prod (q^{d_i} - 1).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product

from .errors import AssumptionViolatedError, CapExceededError, InvalidQError
from .exact import UniPoly
from .rootdata import LieType, compact_dual_info
from .signflow import EtaTable, eta_table
from .weyl import WeylGroup


@dataclass(frozen=True)
class FactoredForm:
    """prod_i (q^{d_i} - 1), stored as the exponent list (d_1, ..., d_g)."""

    exponents: tuple[int, ...]

    def expand(self) -> UniPoly:
        acc = UniPoly([1])
        for d in self.exponents:
            acc = acc * UniPoly([-1] + [0] * (d - 1) + [1])
        return acc

    def __str__(self):
        out = []
        for d in sorted(set(self.exponents)):
            m = self.exponents.count(d)
            base = "(q-1)" if d == 1 else f"(q^{d}-1)"
            out.append(base if m == 1 else f"{base}^{m}")
        return "".join(out) if out else "1"


def p_epsilon(group: WeylGroup, eps) -> UniPoly:
    """Exact alternating sum of q^eta over the whole Weyl group."""
    return alternating_eta_sum(eta_table(group, eps))


def alternating_eta_sum(table: EtaTable) -> UniPoly:
    """(-1)^{l(w*)} sum_w (-1)^{l(w)} q^{eta(w, eps)} over the table's group."""
    lengths = table.group.lengths
    lw = max(lengths)
    coeffs = [0] * (max(table.values) + 1)
    for eid, e in enumerate(table.values):
        coeffs[e] += -1 if (lw - lengths[eid]) % 2 else 1
    return UniPoly(coeffs)


def closed_form_p(t: LieType) -> FactoredForm:
    """The theorem factorization of p(q), read off the compact-dual degrees."""
    return FactoredForm(compact_dual_info(t).degrees)


def smallest_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = smallest_prime_factor(q)
    while q % p == 0:
        q //= p
    return q == 1


def check_odd_prime_power(q: int):
    if q % 2 == 0:
        raise InvalidQError(f"q={q} is even; the point counts require odd characteristic")
    if not is_prime_power(q):
        raise InvalidQError(f"q={q} is not a prime power")


MAX_Q = 10**12  # trial division in is_prime_power stays under ~0.1 s
MAX_ORDER_DIGITS = 4000  # under Python's int-to-str limit; A130 at q=3 takes 0.7 s


def chevalley_order(t: LieType, q: int) -> int:
    """|K(F_q)| = q^r * p(q) with r = dim(K) - deg p(q)."""
    if q > MAX_Q:
        raise CapExceededError(f"q={q} exceeds the cap {MAX_Q}")
    check_odd_prime_power(q)
    info = compact_dual_info(t)
    if info.dim * math.log10(q) > MAX_ORDER_DIGITS:  # |K(F_q)| < q^dim
        raise CapExceededError(
            f"|K(F_{q})| of {t} may have {info.dim * math.log10(q):.0f} digits, "
            f"over the cap {MAX_ORDER_DIGITS}")
    return q ** info.r * closed_form_p(t).expand()(q)


# -- brute-force oracles over F_q -------------------------------------------

SO2_CAP = 10_000
SO3_CAP = 7


def brute_force_so_order(n: int, q: int) -> int:
    """|SO(n, F_q)| for prime q by raw enumeration; the independent check on q^r p(q).

    n=2 counts the solutions of x^2 + y^2 = 1 (requires sqrt(-1) in F_q,
    as in the circle example); n=3 counts the matrices whose rows are
    pairwise orthogonal unit vectors (A A^T = I) with det A = 1.  The
    arithmetic is mod q, so a prime power that is not prime is refused.
    """
    check_odd_prime_power(q)
    cap = {2: SO2_CAP, 3: SO3_CAP}.get(n)
    if cap is None:
        raise InvalidQError(f"brute-force SO order only implemented for n in (2, 3), got {n}")
    if q > cap:
        raise CapExceededError(f"SO({n}) enumeration capped at q<={cap}")
    if smallest_prime_factor(q) != q:
        raise InvalidQError(f"q={q} is not prime; Z/{q} is not the field F_{q}")
    if n == 2:
        squares = Counter(x * x % q for x in range(q))
        if not squares[q - 1]:
            raise AssumptionViolatedError(
                f"-1 is not a square in F_{q}; the q-1 count assumes sqrt(-1) exists"
            )
        return sum(squares[(1 - x * x) % q] for x in range(q))

    def dot(u, v):
        return (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]) % q

    units = [v for v in product(range(q), repeat=3) if dot(v, v) == 1]
    total = 0
    for r0 in units:
        perp = [v for v in units if dot(r0, v) == 0]
        for r1 in perp:  # det(r0, r1, r2) = (r0 x r1) . r2
            cross = (r0[1] * r1[2] - r0[2] * r1[1], r0[2] * r1[0] - r0[0] * r1[2],
                     r0[0] * r1[1] - r0[1] * r1[0])
            total += sum(1 for r2 in perp if dot(r1, r2) == 0 and dot(cross, r2) == 1)
    return total


def poincare_polynomial_k(t: LieType) -> UniPoly:
    """Rational Poincare polynomial of K: prod (1 + x^{2 d_i - 1})."""
    acc = UniPoly([1])
    for d in compact_dual_info(t).degrees:
        acc = acc * UniPoly([1] + [0] * (2 * d - 2) + [1])
    return acc
