"""Exact polynomial engine for the nilpotent-Toda tau functions.

Everything here is exact rational arithmetic.  The complete homogeneous
polynomials h_k live in the weighted time variables of each type (only odd
times for B/C/D, only t1 and t5 for G2, plus the extra parameter s for D);
the Schur polynomial S_(i1<...<ik) is the Jacobi-Trudi determinant
det(h_{i_a - b}).  Because dh_n/dt1 = h_{n-1}, the t1-Wronskian of h_top,
h_{top-1}, ..., h_{top-k+1} is the leading k x k block of the Hankel matrix
(h_{top-i-j}), so every tau system reads its tau_k as leading blocks of one
matrix and never differentiates.

The per-type tau lists, their minimal degrees, tangent cones, the Hirota
bilinear check, and the real-root experiment all sit on top.  The experiment
runs one Sturm chain per tau factor, in plain integers, as a primitive
remainder sequence.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple

from .errors import (
    CapExceededError,
    NoConstantFitsError,
    NotAPerfectSquareError,
    UnsupportedTypeError,
    ValidationError,
    ZeroPolynomialError,
)
from .exact import UniPoly
from .rootdata import LieType, cartan_matrix, compact_dual_info, tau_multiplicities, two_rho_height

ZERO = Fraction(0)
ONE = Fraction(1)

# Refusal threshold on the height of 2rho.  Measured cold `schur --type X`
# runs on 2 vCPUs (median of 3): A9 (165) 1.2 s, D7 (182) 1.5 s; with the
# cap lifted, one run each, A10 (220) 5.4 s and B7 (252) 5.8 s.  The
# real-root experiment counts per tau factor, so the tau build bounds it:
# the worst admitted run, D7 at MAX_SAMPLES, took 3.9 s and 20 MB cold.
MAX_TAU_HEIGHT = 200
MAX_SAMPLES = 50


class PolyRing:
    """Variable names and weights for one Lie type's tau functions.

    ``times`` lists the (weight, position) pairs of the flow variables that
    feed the h_k recursion; the D-series parameter s is a ring variable but
    not a time.
    """

    def __init__(self, names, weights, time_positions=None):
        self.names = tuple(names)
        self.weights = tuple(weights)
        if time_positions is None:
            time_positions = tuple(range(len(names)))
        self.times = tuple((self.weights[p], p) for p in time_positions)
        self._h_cache = [self.one()]

    def zero(self) -> "ExactPoly":
        return ExactPoly(self, {})

    def one(self) -> "ExactPoly":
        return self.const(ONE)

    def const(self, c) -> "ExactPoly":
        c = Fraction(c)
        return ExactPoly(self, {} if c == 0 else {(0,) * len(self.names): c})

    def monomial(self, exps, coeff=ONE) -> "ExactPoly":
        coeff = Fraction(coeff)
        return ExactPoly(self, {} if coeff == 0 else {tuple(exps): coeff})

    def var(self, name) -> "ExactPoly":
        pos = self.names.index(name)
        exps = [0] * len(self.names)
        exps[pos] = 1
        return self.monomial(exps)

    def __repr__(self):
        return f"PolyRing({self.names}, weights={self.weights})"


class ExactPoly:
    """Multivariate polynomial with exact Fraction coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms  # exponent tuple -> nonzero Fraction

    # -- basics ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, ExactPoly)
            and self.ring.names == other.ring.names
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring.names, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other.ring.names != self.ring.names:
            raise ValidationError("polynomials live in different rings")
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, ZERO) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return ExactPoly(self.ring, out)

    def __neg__(self):
        return ExactPoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            if f == 0:
                return self.ring.zero()
            return ExactPoly(self.ring, {e: c * f for e, c in self.terms.items()})
        if other.ring.names != self.ring.names:
            raise ValidationError("polynomials live in different rings")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, ZERO) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return ExactPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValidationError("negative polynomial power")
        acc = self.ring.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def _coerce(self, other):
        if isinstance(other, ExactPoly):
            return other
        return self.ring.const(other)

    # -- calculus and structure -------------------------------------------

    def diff(self, name="t1") -> "ExactPoly":
        pos = self.ring.names.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[pos]:
                ne = list(e)
                ne[pos] -= 1
                out[tuple(ne)] = c * e[pos]
        return ExactPoly(self.ring, out)

    def min_degree(self) -> int:
        if not self.terms:
            raise ZeroPolynomialError("minimal degree of the zero polynomial")
        return min(sum(e) for e in self.terms)

    def lowest_part(self) -> "ExactPoly":
        d = self.min_degree()
        return ExactPoly(self.ring, {e: c for e, c in self.terms.items() if sum(e) == d})

    def leading(self):
        """(exponents, coefficient) maximal in graded-lex order."""
        if not self.terms:
            raise ZeroPolynomialError("leading term of the zero polynomial")
        e = max(self.terms, key=lambda e: (sum(e), e))
        return e, self.terms[e]

    def trailing(self):
        """(exponents, coefficient) minimal in graded-lex order."""
        if not self.terms:
            raise ZeroPolynomialError("trailing term of the zero polynomial")
        e = min(self.terms, key=lambda e: (sum(e), e))
        return e, self.terms[e]

    def slice_t1(self, values: dict) -> "UniPoly":
        """Substitute rationals for every variable except t1 (zeros restrict
        to the t1 axis)."""
        names = self.ring.names
        pos = names.index("t1")
        vals = {}
        for j, name in enumerate(names):
            if j == pos:
                continue
            if name not in values:
                raise ValidationError(f"missing substitution for {name}")
            vals[j] = Fraction(values[name])
        # integers over one common denominator: lcm of the coefficient
        # denominators times q_j^E_j per variable (v_j = p_j/q_j, E_j its top
        # exponent), so a term is c * prod p_j^e_j * q_j^(E_j - e_j)
        top = {j: max((e[j] for e in self.terms), default=0) for j in vals}
        powers = {j: [v.numerator ** k * v.denominator ** (top[j] - k)
                      for k in range(top[j] + 1)]
                  for j, v in vals.items() if top[j]}
        den = lcm(*(c.denominator for c in self.terms.values()))
        nums = {}
        for e, c in self.terms.items():
            f = c.numerator * (den // c.denominator)
            for j, pw in powers.items():
                f *= pw[e[j]]
            nums[e[pos]] = nums.get(e[pos], 0) + f
        den *= prod(v.denominator ** top[j] for j, v in vals.items())
        return UniPoly.from_dict({k: Fraction(n, den) for k, n in nums.items()})

    def to_json(self) -> dict:
        monos = sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]))
        return {
            "variables": list(self.ring.names),
            "weights": list(self.ring.weights),
            "monomials": [
                {"exponents": list(e), "numerator": c.numerator, "denominator": c.denominator}
                for e, c in monos
            ],
        }

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0])):
            factors = [
                self.ring.names[j] + (f"^{x}" if x > 1 else "")
                for j, x in enumerate(e)
                if x
            ]
            body = "*".join(factors) if factors else "1"
            parts.append(f"({c})*{body}")
        return " + ".join(parts)

    __repr__ = __str__


# -- Sturm counting ------------------------------------------------------------


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive multiple of the remainder of ``a`` by ``b`` (ints, low to
    high): each step r <- |lc(b)| r - sgn(lc(b)) lc(r) x^k b keeps its sign."""
    lead = b[-1]
    scale = abs(lead)
    r = a
    while len(r) >= len(b):
        m = r[-1] if lead > 0 else -r[-1]
        k = len(r) - len(b)
        r = [scale * c for c in r[:k]] + [scale * c - m * d for c, d in zip(r[k:-1], b)]
        while r and not r[-1]:
            r.pop()
    return r


def _primitive_part(p: UniPoly) -> list[int]:
    """The primitive integer polynomial that is a positive multiple of ``p``."""
    q = [Fraction(c) for c in p.coeffs]
    den = lcm(*(c.denominator for c in q))
    ints = [c.numerator * (den // c.denominator) for c in q]
    g = gcd(*ints)
    return [c // g for c in ints]


def sturm_real_roots(f: UniPoly) -> int:
    """Exact count of distinct real roots via a Sturm chain.

    The chain is the signed remainder sequence of f and f', which ends at
    gcd(f, f'), so multiple roots count once without taking the square-free
    part first.  Only signs matter, so each member is kept as a primitive
    integer polynomial, a positive multiple of the rational one
    (Basu-Pollack-Roy, Algorithms in Real Algebraic Geometry, ch. 2 and 8).
    """
    if f.is_zero():
        raise ZeroPolynomialError("root count of the zero polynomial")
    if f.degree < 1:
        return 0
    a, b = _primitive_part(f), _primitive_part(f.derivative())
    chain = [a, b]
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            break
        g = gcd(*r)
        a, b = b, [-c // g for c in r]
        chain.append(b)

    def variations(signs):
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    at_plus = [p[-1] > 0 for p in chain]
    at_minus = [pos == (len(p) % 2 == 1) for pos, p in zip(at_plus, chain)]
    return variations(at_minus) - variations(at_plus)


# -- complete homogeneous polynomials and Schur determinants ------------------


def _require_tau_type(t: LieType):
    if t.affine:
        raise UnsupportedTypeError("tau systems are for finite types")
    if t.series not in "ABCDG":
        raise UnsupportedTypeError(f"no tau-function realization for type {t}")


def ring_for(t: LieType) -> PolyRing:
    """The time variables (and weights) of the nilpotent tau system of t."""
    _require_tau_type(t)
    s, l = t.series, t.rank
    if s == "A":
        idx = list(range(1, l + 1))
    elif s in ("B", "C"):
        idx = list(range(1, 2 * l, 2))
    elif s == "G":
        idx = [1, 5]
    else:  # D
        idx = list(range(1, 2 * l - 2, 2))
        names = [f"t{j}" for j in idx] + ["s"]
        weights = idx + [l - 1]
        return PolyRing(names, weights, time_positions=range(len(idx)))
    return PolyRing([f"t{j}" for j in idx], idx)


def hk(n: int, ring: PolyRing) -> ExactPoly:
    """Complete homogeneous polynomial h_n in the ring's active times.

    h_n = sum over i_j >= 0 with sum j*i_j = n of prod t_j^{i_j} / i_j!,
    computed through n*h_n = sum_j j*t_j*h_{n-j}; h_0 = 1, h_{<0} = 0.
    """
    if n < 0:
        return ring.zero()
    cache = ring._h_cache
    while len(cache) <= n:
        m = len(cache)
        acc = ring.zero()
        for wt, pos in ring.times:
            if wt <= m:
                exps = [0] * len(ring.names)
                exps[pos] = 1
                acc = acc + ring.monomial(exps, Fraction(wt, m)) * cache[m - wt]
        cache.append(acc)
    return cache[n]


def _det(entries) -> ExactPoly:
    """Determinant of a square matrix of ExactPoly, memoized over column subsets."""
    k = len(entries)
    ring = entries[0][0].ring
    memo = {}

    def rec(cols):
        if not cols:
            return ring.one()
        got = memo.get(cols)
        if got is not None:
            return got
        row = k - len(cols)
        acc = ring.zero()
        for idx, c in enumerate(cols):
            if entries[row][c].is_zero():
                continue
            sub = rec(cols[:idx] + cols[idx + 1:])
            term = entries[row][c] * sub
            acc = acc + term if idx % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return rec(tuple(range(k)))


def schur_wronskian(indices, ring: PolyRing) -> ExactPoly:
    """S_(i1<...<ik) = det(h_{i_a - b}), a and b from 0, over the ring's active times.

    That matrix is the transpose of the t1-Wronskian of h_{i_1}, ..., h_{i_k},
    because dh_n/dt1 = h_{n-1}.
    """
    idx = list(indices)
    if any(a >= b for a, b in zip(idx, idx[1:])) or not idx:
        raise ValidationError(f"indices must be strictly increasing, got {indices}")
    return _det([[hk(i - b, ring) for b in range(len(idx))] for i in idx])


def wronskian(fns) -> ExactPoly:
    """Wronskian in t1, rows successive t1-derivatives: the Hankel blocks' reference."""
    fns = list(fns)
    k = len(fns)
    rows = [fns]
    for _ in range(k - 1):
        rows.append([f.diff("t1") for f in rows[-1]])
    return _det([[rows[i][j] for j in range(k)] for i in range(k)])


# -- perfect squares and exact division --------------------------------------


def _sqrt_fraction(c: Fraction) -> Fraction:
    if c < 0:
        raise NotAPerfectSquareError(f"negative leading coefficient {c}")
    n, d = c.numerator, c.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise NotAPerfectSquareError(f"{c} is not a rational square")
    return Fraction(rn, rd)


def _long_divide(rem: ExactPoly, lead, step):
    """Graded-lex long division: the quotient q that reduces ``rem`` to zero.

    Each step picks the monomial m with m * lead equal to the leading term of
    ``rem`` (``lead`` is an (exponents, coefficient) pair) and subtracts
    ``step(q, m)``, whose leading term is m * lead.  The leading monomial of
    ``rem`` falls at every step, so the division ends.  None means that a
    leading monomial of ``rem`` is not a multiple of lead's.
    """
    lead_e, lead_c = lead
    q = rem.ring.zero()
    while not rem.is_zero():
        e, c = rem.leading()
        t = tuple(a - b for a, b in zip(e, lead_e))
        if any(x < 0 for x in t):
            return None
        m = rem.ring.monomial(t, c / lead_c)
        rem = rem - step(q, m)
        q = q + m
    return q


def poly_sqrt(p: ExactPoly) -> ExactPoly:
    """Exact square root of a perfect-square polynomial.

    With r the root's leading term and q the terms found after it, each new
    term m takes m * (2(r + q) + m) off the residual p - (r + q)^2.
    """
    if p.is_zero():
        return p
    lead_e, lead_c = p.leading()
    if any(x % 2 for x in lead_e):
        raise NotAPerfectSquareError("leading monomial has odd exponents")
    half = tuple(x // 2 for x in lead_e)
    c = _sqrt_fraction(lead_c)
    r = p.ring.monomial(half, c)
    q = _long_divide(p - r * r, (half, 2 * c), lambda q, m: m * (2 * (r + q) + m))
    if q is None:
        raise NotAPerfectSquareError("stray monomial below the square root")
    return r + q


def _squarefree_decompose(n: int):
    """n > 0 as (squarefree, root) with n = squarefree * root**2."""
    sf, rt = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            rt *= d ** (e // 2)
            if e % 2:
                sf *= d
        d += 1 if d == 2 else 2
    return sf * n if n > 1 else sf, rt


def poly_sqrt_content(p: ExactPoly):
    """Write p = content * P**2 with a signed squarefree rational content.

    Tau functions are only defined up to constant scale, so a determinant
    that is c * (polynomial)^2 yields the polynomial; c is returned for the
    record.  Raises NotAPerfectSquareError when no such splitting exists.
    """
    if p.is_zero():
        raise NotAPerfectSquareError("zero polynomial has no square splitting")
    _, lead_c = p.leading()
    num_sf, _ = _squarefree_decompose(abs(lead_c.numerator))
    den_sf, _ = _squarefree_decompose(lead_c.denominator)
    content = Fraction(num_sf, den_sf)
    if lead_c < 0:
        content = -content
    root = poly_sqrt(p * (1 / content))
    # flip the overall sign so the graded-lex minimal monomial is positive
    return (-root if root.trailing()[1] < 0 else root), content


def exact_divide(p: ExactPoly, d: ExactPoly) -> ExactPoly:
    """Quotient p/d when the division is exact; raises ValidationError else."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    q = _long_divide(p, d.leading(), lambda q, m: m * d)
    if q is None:
        raise ValidationError("inexact polynomial division")
    return q


# -- tau systems --------------------------------------------------------------


class TauSystem(NamedTuple):
    lie_type: LieType
    ring: PolyRing
    taus: tuple[ExactPoly, ...]
    notes: tuple[str, ...] = ()


def tau_functions(t: LieType) -> TauSystem:
    """The nilpotent tau polynomials (types A, B, C, D, G2), refused before any
    ring is built when the height of 2rho exceeds MAX_TAU_HEIGHT."""
    _require_tau_type(t)
    height = two_rho_height(t)
    if height > MAX_TAU_HEIGHT:
        raise CapExceededError(
            f"{t}: tau system refused, height of 2rho {height} exceeds {MAX_TAU_HEIGHT}")
    ring = ring_for(t)
    s, l = t.series, t.rank
    if s == "D":
        taus, notes = _tau_functions_d(ring, l)
        return TauSystem(t, ring, tuple(taus), tuple(notes))
    # tau_k is the leading k x k block of the Hankel matrix (h_{top-i-j})
    top = {"A": l, "B": 2 * l, "C": 2 * l - 1, "G": 6}[s]
    h = [hk(top - n, ring) for n in range(2 * l - 1)]
    taus = [_det([h[i:i + k] for i in range(k)]) for k in range(1, l + 1)]
    notes = []
    if s == "B":
        taus[-1], content = poly_sqrt_content(taus[-1])
        notes.append(f"tau_{l}: Wronskian = ({content}) * tau_{l}^2, trailing sign +")
    elif s == "G":
        taus[1] = -taus[1]
        notes.append("tau_2 = S_(5,6) with the standard Wronskian sign "
                     "(reproduces the displayed polynomial)")
    return TauSystem(t, ring, tuple(taus), tuple(notes))


def _tau_functions_d(ring: PolyRing, l: int):
    """D-series tau functions: leading blocks of the f_{i+j+1} part of one
    bordered matrix, whose determinant is a square."""
    s_var = ring.var("s")
    # generating sequence with df_j/dt1 = f_{j+1}; the list holds f_1, f_2, ...
    if l % 2 == 0:
        f = [s_var * hk(l - j, ring) + 2 * hk(2 * l - 1 - j, ring) for j in range(1, 2 * l - 2)]
    else:
        f = [s_var * s_var + 2 * hk(2 * l - 2, ring)]
        f += [2 * hk(2 * l - 1 - j, ring) for j in range(2, 2 * l - 2)]

    border = [s_var + hk(l - 1, ring)] + [hk(l - a, ring) for a in range(2, l)]
    corner = ring.zero() if l % 2 == 0 else ring.one()
    m = [f[a:a + l - 1] + [border[a]] for a in range(l - 1)]
    m.append(border + [corner])
    # the leading k x k block is the t1-Wronskian of f_1, ..., f_k
    taus = [_det([row[:k] for row in m[:k]]) for k in range(1, l)]
    pair = taus.pop()

    tau_l, content = poly_sqrt_content(_det(m))
    taus.extend([exact_divide(pair, tau_l), tau_l])
    notes = [
        f"tau_{l}: bordered determinant = ({content}) * tau_{l}^2, trailing sign +; "
        f"tau_{l-1} = Wr(...)/tau_{l}",
    ]
    return taus, notes


def minimal_degrees(system: TauSystem) -> tuple[int, ...]:
    """Lowest total degree of a monomial of each tau (all variables graded by 1)."""
    return tuple(tau.min_degree() for tau in system.taus)


def tangent_cone(system: TauSystem):
    """(lowest homogeneous part of prod tau_j, its degree, cancellation flag).

    The flag is set when the product's minimal degree exceeds the sum of the
    factor minimal degrees, i.e. when lowest parts cancelled.
    """
    product = prod(system.taus)
    d = product.min_degree()
    expected = sum(minimal_degrees(system))
    return product.lowest_part(), d, d != expected


def nu_degrees(system: TauSystem) -> tuple[int, ...]:
    """Vanishing order of each tau_k along the t1 axis."""
    zeros = dict.fromkeys(system.ring.names, 0)
    out = []
    for k, tau in enumerate(system.taus, start=1):
        restricted = tau.slice_t1(zeros)
        if restricted.is_zero():
            raise ZeroPolynomialError(f"tau_{k} vanishes identically on the t1 axis")
        nu = next(i for i, c in enumerate(restricted.coeffs) if c != 0)
        out.append(nu)
    return tuple(out)


def nu_check(system: TauSystem) -> tuple[bool, ...]:
    """Per-tau flags: does the t1-axis vanishing order equal 2*rowsum(C^-1)?"""
    return tuple(a == b for a, b in
                 zip(nu_degrees(system), tau_multiplicities(system.lie_type)))


def hirota_residual(system: TauSystem, k: int):
    """Fit the constant in tau_k tau_k'' - (tau_k')^2 = a_k0 prod tau_j^{-C_kj}.

    ``k`` is 1-based.  Returns (a_k0, residual); the residual is the zero
    polynomial when the constant fits exactly, otherwise NoConstantFitsError
    is raised with the offending residual attached.
    """
    C = cartan_matrix(system.lie_type)
    l = system.lie_type.rank
    if not 1 <= k <= l:
        raise ValidationError(f"tau index {k} out of range 1..{l}")
    tau = system.taus[k - 1]
    dtau = tau.diff("t1")
    lhs = tau * dtau.diff("t1") - dtau * dtau
    rhs = system.ring.one()
    for j in range(1, l + 1):
        if j == k:
            continue
        e = -C[k - 1][j - 1]
        if e < 0:
            raise ValidationError(f"negative Cartan exponent -C[{k}][{j}] = {e}")
        if e:
            rhs = rhs * system.taus[j - 1] ** e
    if lhs.is_zero():
        return Fraction(0), system.ring.zero()
    e, c = rhs.leading()
    if e not in lhs.terms:
        err = NoConstantFitsError(f"no constant matches tau_{k} bilinear form")
        err.residual = lhs
        raise err
    a0 = lhs.terms[e] / c
    residual = lhs - a0 * rhs
    if not residual.is_zero():
        err = NoConstantFitsError(f"no constant matches tau_{k} bilinear form")
        err.residual = residual
        raise err
    return a0, residual


# -- real-root experiment -----------------------------------------------------


class RealRootReport(NamedTuple):
    lie_type: LieType
    samples: int
    seed: int
    counts: tuple[int, ...]
    modal_count: int
    modal_fraction: float
    expected: int
    matches_expected: bool
    exceptional: tuple[dict, ...]  # slices off the modal count, with assignments

    def as_dict(self) -> dict:
        return {
            "type": str(self.lie_type),
            "samples": self.samples,
            "seed": self.seed,
            "counts": list(self.counts),
            "modal_count": self.modal_count,
            "modal_fraction": self.modal_fraction,
            "expected_degree": self.expected,
            "matches_expected": self.matches_expected,
            "exceptional_slices": list(self.exceptional),
        }


def random_nonzero_rational(rng: random.Random, bound: int = 20) -> Fraction:
    num = rng.choice([n for n in range(-bound, bound + 1) if n != 0])
    den = rng.randint(1, bound)
    return Fraction(num, den)


def real_root_count_experiment(t: LieType, samples: int = 20, seed: int = 0) -> RealRootReport:
    """Sturm-count the real t1 roots of each tau_j on random generic slices.

    A sample's count is the sum over the factors, as eta counts one blow-up
    per zero of each tau_k: a root that two factors share counts twice.
    """
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    if samples > MAX_SAMPLES:
        raise CapExceededError(f"{samples} samples exceed the cap {MAX_SAMPLES}")
    system = tau_functions(t)
    rng = random.Random(seed)
    others = [n for n in system.ring.names if n != "t1"]
    counts = []
    assignments = []
    for _ in range(samples):
        values = {n: random_nonzero_rational(rng) for n in others}
        counts.append(sum(sturm_real_roots(tau.slice_t1(values)) for tau in system.taus))
        assignments.append({n: str(v) for n, v in values.items()})
    modal = max(set(counts), key=lambda c: (counts.count(c), -c))
    frac = counts.count(modal) / len(counts)
    expected = sum(compact_dual_info(t).degrees)
    exceptional = tuple(
        {"sample": i, "count": c, "assignment": assignments[i]}
        for i, c in enumerate(counts)
        if c != modal
    )
    return RealRootReport(
        t, samples, seed, tuple(counts), modal, frac, expected,
        modal == expected, exceptional,
    )
