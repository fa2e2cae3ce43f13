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
from typing import NamedTuple

from .errors import CapExceededError, InvalidQError, ValidationError
from .exact import UniPoly
from .rootdata import LieType, cartan_matrix, compact_dual_info
from .signflow import EtaTable, propagate
from .weyl import LabelTree


class FactoredForm(NamedTuple):
    """prod_i (q^{d_i} - 1), stored as the exponent list (d_1, ..., d_g)."""

    exponents: tuple[int, ...]

    def expand(self) -> UniPoly:
        acc = UniPoly([1])
        for d in self.exponents:
            acc = acc * UniPoly([-1] + [0] * (d - 1) + [1])
        return acc

    def __str__(self):
        out = []
        for d, m in sorted(Counter(self.exponents).items()):
            base = "(q-1)" if d == 1 else f"(q^{d}-1)"
            out.append(base if m == 1 else f"{base}^{m}")
        return "".join(out) if out else "1"


class CosetChain:
    """W = U_0 * U_1 * ... * U_(r-1), U_k the representatives of step k.

    Step k is a ``weyl.LabelTree`` on the leading (k+1) x (k+1) block of C
    started at omega_k, labels (0, ..., 0, 1).

    The transfer row of step k from the sign sigma maps each u * sigma to
    sum (-1)^{l(u)} q^{eta(u, sigma)} over the u that send sigma there; rows
    are cached per (step, sigma) on the chain, so one chain serves every
    sign of its type.
    """

    def __init__(self, lie_type: LieType):
        self.C = cartan_matrix(lie_type)
        self.steps = []
        for k in range(lie_type.rank):
            block = [row[:k + 1] for row in self.C[:k + 1]]
            tree = LabelTree(lie_type, block, (0,) * k + (1,))
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
            top = max(values) + 1
            coeffs = {}
            for length, e, sig in zip(tree.lengths, values, transported):
                if sig not in coeffs:
                    coeffs[sig] = [0] * top
                coeffs[sig][e] += -1 if length % 2 else 1
            row = self._rows[(k, sigma)] = {sig: UniPoly(c) for sig, c in coeffs.items()}
        return row

    def p_epsilon(self, eps) -> UniPoly:
        eps = tuple(eps)
        if len(eps) != len(self.C):
            raise ValidationError(f"sign vector length {len(eps)} != rank {len(self.C)}")
        flow = {eps: UniPoly([1])}  # transported sign -> sum (-1)^{l(v)} q^{eta(v, eps)}
        for k in range(len(self.steps)):
            nxt = {}
            for sigma, poly in flow.items():
                for sig, transfer in self._row(k, sigma).items():
                    term = poly * transfer
                    nxt[sig] = nxt[sig] + term if sig in nxt else term
            # cancelled terms and signs carry nothing forward
            flow = {sig: poly for sig, poly in nxt.items() if not poly.is_zero()}
        total = sum(flow.values(), UniPoly())
        return -total if self.longest_length % 2 else total


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

MAX_COUNT_WORK = 1_000_000  # products; every count under it takes under 1 s


def sphere_counts(n: int, q: int, group: str = "sphere") -> list[int]:
    """c_0..c_n, c_j = #{x in F_q^j : x_1^2 - x_2^2 + x_3^2 - ... = 1}, from a running
    convolution of the squares mod q whose sign alternates, q prime.  x^2 - y^2 is a
    hyperbolic plane H, so every form in the chain is split for every q.
    """
    check_odd_prime_power(q)
    work = q + max(n - 2, 0) * q * (q + 1) // 2  # the squares, then n-2 convolutions
    if work > MAX_COUNT_WORK:
        raise CapExceededError(
            f"{group} count over F_{q} needs {work} products, over the cap {MAX_COUNT_WORK}")
    if smallest_prime_factor(q) != q:
        raise InvalidQError(f"q={q} is not prime; Z/{q} is not the field F_{q}")
    squares = Counter(x * x % q for x in range(q))
    counts, sums = [0, squares[1]], [squares[a] for a in range(q)]  # sums: x_1^2
    for j in range(2, n + 1):  # x_j^2 enters with sign (-1)^(j-1); a - s wraps below 0
        shifts = [(s if j % 2 else -s % q, c) for s, c in squares.items()]
        counts.append(sum(c * sums[1 - s] for s, c in shifts))
        if j < n:
            sums = [sum(c * sums[a - s] for s, c in shifts) for a in range(q)]
    return counts[:n + 1]


def brute_force_order(t: LieType, q: int, counts: list[int] | None = None) -> int:
    """|K(F_q)| of the split form read off ``sphere_counts`` (taken here unless passed in).

    Each group is transitive on a sphere (Witt) with the group of the shorter form as
    stabilizer, so SO(n) = prod_{j=2..n} c_j, U(n) as GL(n) (pairs f(v) = 1 in H^k) =
    prod_{k<=n} c_2k, SU(n) as SL(n) = GL(n)/(q-1), compact Sp(n) as Sp(2n) = prod_{k<=n} c_4k.
    """
    dual = compact_dual_info(t).name  # SO(5)xSO(6), U(3), Sp(1)xSp(3), SU(8), ...
    spheres = []  # (group, the sphere lengths its order multiplies)
    for group, n in (factor[:-1].split("(") for factor in dual.split("x")):
        n = int(n)
        spheres.append((group, range(2, n + 1) if group == "SO" else
                        range(4, 4 * n + 1, 4) if group == "Sp" else range(2, 2 * n + 1, 2)))
    if counts is None:
        counts = sphere_counts(max(lengths[-1] for _, lengths in spheres), q, dual)
    return math.prod(math.prod(counts[j] for j in lengths) // (q - 1 if group == "SU" else 1)
                     for group, lengths in spheres)


def brute_force_so_order(n: int, q: int) -> int:
    """|SO(n, F_q)| of the split form, q prime: prod_{j=2..n} c_j of ``sphere_counts``."""
    if n < 2:
        raise ValidationError(f"SO(n) counts need n >= 2, got {n}")
    return math.prod(sphere_counts(n, q, f"SO({n})")[2:])


def poincare_polynomial_k(t: LieType) -> UniPoly:
    """Rational Poincare polynomial of K: prod (1 + x^{2 d_i - 1})."""
    acc = UniPoly([1])
    for d in compact_dual_info(t).degrees:
        acc = acc * UniPoly([1] + [0] * (2 * d - 2) + [1])
    return acc
