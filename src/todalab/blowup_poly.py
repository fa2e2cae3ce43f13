"""The blow-up polynomial p_eps(q), its closed factorizations, and finite-group
point counts.

p_eps(q) = (-1)^{l(w*)} * sum_w (-1)^{l(w)} q^{eta(w, eps)}.  For the all-minus
sign it equals q^{-r} |K(F_q)| for the maximal compact K of the Langlands-dual
group, with the explicit per-type factorization prod (q^{d_i} - 1); every
mixed sign gives 0.

The sum runs over a parabolic coset chain instead of the whole group
(Bjorner-Brenti, section 2.4): with J_k = {0..k}, every w in W_{J_k} is uniquely
v * u with v in W_{J_(k-1)}, u a minimal right coset representative and
l(w) = l(v) + l(u), so eta(w, eps) = eta(v, eps) + eta(u, v.eps).  The
enumeration sum ``alternating_eta_sum`` stays as the oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product

from .errors import AssumptionViolatedError, CapExceededError, InvalidQError, ValidationError
from .exact import UniPoly
from .rootdata import LieType, cartan_matrix, compact_dual_info
from .signflow import EtaTable, propagate
from .weyl import WordTree


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


class CosetTree(WordTree):
    """Minimal representatives u of the right cosets W_{J_(k-1)} u in W_{J_k}.

    u is keyed by the Dynkin labels on J_k of u^{-1} omega_k, the numbers
    game of ``affine.py`` started at (0, ..., 0, 1): u * s_i has
    m_j - m_i * C[i][j], and s_i is an ascent exactly when m_i > 0 (at
    m_i = 0 it fixes the key, so the coset does not change).  The tree words
    are reduced words of the representatives.
    """

    def __init__(self, lie_type: LieType, C, k: int):
        super().__init__(tuple(int(j == k) for j in range(k + 1)), k + 1)
        self.lie_type = lie_type
        self._rows = [row[:k + 1] for row in C[:k + 1]]

    def _mul(self, m, i):
        mi = m[i]
        return tuple(mj - mi * c for mj, c in zip(m, self._rows[i]))

    def _descent(self, m, i):
        return m[i] <= 0


class CosetChain:
    """W = U_0 * U_1 * ... * U_(r-1), U_k the representatives of step k.

    The transfer row of step k from the sign sigma maps each u * sigma to
    sum (-1)^{l(u)} q^{eta(u, sigma)} over the u that send sigma there; rows
    are cached per (step, sigma) on the chain, so one chain serves every
    sign of its type.
    """

    def __init__(self, lie_type: LieType):
        self.C = cartan_matrix(lie_type)
        self.steps = []
        for k in range(lie_type.rank):
            tree = CosetTree(lie_type, self.C, k)
            while tree.grow():
                pass
            self.steps.append(tree)
        self.longest_length = sum(tree.lengths[-1] for tree in self.steps)  # l(w*)
        self._rows = {}

    def _row(self, k: int, sigma) -> dict:
        row = self._rows.get((k, sigma))
        if row is None:
            tree = self.steps[k]
            values, transported = propagate(self.C, tree.parents, tree.letters, sigma)
            row = {}
            for length, e, sig in zip(tree.lengths, values, transported):
                poly = row.setdefault(sig, {})
                poly[e] = poly.get(e, 0) + (-1 if length % 2 else 1)
            self._rows[(k, sigma)] = row
        return row

    def p_epsilon(self, eps) -> UniPoly:
        eps = tuple(eps)
        if len(eps) != len(self.C):
            raise ValidationError(f"sign vector length {len(eps)} != rank {len(self.C)}")
        flow = {eps: {0: 1}}  # transported sign -> sum (-1)^{l(v)} q^{eta(v, eps)}
        for k in range(len(self.steps)):
            nxt = {}
            for sigma, poly in flow.items():
                for sig, transfer in self._row(k, sigma).items():
                    acc = nxt.setdefault(sig, {})
                    for a, x in poly.items():
                        for b, y in transfer.items():
                            acc[a + b] = acc.get(a + b, 0) + x * y
            flow = {}  # cancelled terms and signs carry nothing forward
            for sig, acc in nxt.items():
                poly = {e: c for e, c in acc.items() if c}
                if poly:
                    flow[sig] = poly
        total = Counter()
        for poly in flow.values():
            total.update(poly)
        sign = -1 if self.longest_length % 2 else 1
        return UniPoly.from_dict({e: sign * c for e, c in total.items()})


def p_epsilon(lie_type: LieType, eps) -> UniPoly:
    """Exact p_eps(q) of a finite type through its coset chain; no group is built."""
    return CosetChain(lie_type).p_epsilon(eps)


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
