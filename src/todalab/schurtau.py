"""Exact polynomial engine for the nilpotent-Toda tau functions.

Everything here is exact arithmetic in integers.  A polynomial is a dict of
integer numerators over one positive common denominator, keyed by packed
monomials: the total degree in the top 16-bit field, then the exponents
e_0 down to e_(n-1), so a monomial product is one int addition and int
order is graded-lex order.  Fractions appear only at the boundary: leading
coefficients, the ``terms`` view, JSON and pretty strings.

The complete homogeneous polynomials h_k live in weighted times: one time
t_m per exponent m of W, and D's exponent l - 1 of degree l is the
parameter s.  The Schur polynomial S_(i1<...<ik) is the Jacobi-Trudi
determinant det(h_{i_a - b}).  Because dh_n/dt1 = h_{n-1}, the
t1-Wronskian of h_top, h_{top-1}, ..., h_{top-k+1} is the leading k x k
block of the Hankel matrix (h_{top-i-j}), so every tau system reads its
tau_k as leading blocks of one matrix and never differentiates.

The per-type tau lists, their minimal degrees and t1-axis vanishing orders,
the Hirota bilinear check, and the real-root experiment all sit on top.  The experiment
slices each tau factor to integer coefficients in t1 and runs one Sturm
chain per factor, in plain integers, as a primitive remainder sequence.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, isqrt, lcm
from types import MappingProxyType
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
from .rootdata import (
    LieType,
    cartan_matrix,
    compact_dual_info,
    tau_multiplicities,
    two_rho_height,
    weyl_degrees,
)

# Refusal threshold on the height of 2rho.  Measured cold `schur --type X`
# runs on 2 vCPUs, byte-compiled (median of 3): A9 (165) 0.19 s, D7 (182)
# 0.14 s; with the cap lifted, one run each, A10 (220) 0.53 s and B7 (252)
# 0.39 s.  The real-root experiment counts per tau factor, so the Sturm
# chains on the tau slices bound it: the worst admitted run, D7 at
# MAX_SAMPLES, took 1.6 s and 17 MB cold.
MAX_TAU_HEIGHT = 200
MAX_SAMPLES = 50

# Width of one packed exponent field.  A total degree must stay below
# 2**FIELD_BITS; admitted tau systems peak at 40 per tau (B6, D7).
FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1


class PolyRing:
    """Variable names, weights and packed-monomial layout for one Lie type.

    ``times`` lists the (weight, position) pairs of the flow variables that
    feed the h_k recursion; the D-series parameter s is a ring variable but
    not a time.  A monomial with exponents e is the int key
    deg << deg_shift | e_0 << shifts[0] | ... | e_(n-1) << shifts[n-1].
    """

    def __init__(self, names, weights, time_positions=None):
        self.names = tuple(names)
        self.weights = tuple(weights)
        if time_positions is None:
            time_positions = tuple(range(len(names)))
        self.times = tuple((self.weights[p], p) for p in time_positions)
        n = len(self.names)
        self.shifts = tuple(FIELD_BITS * (n - 1 - j) for j in range(n))
        self.deg_shift = FIELD_BITS * n
        self.units = tuple((1 << self.deg_shift) | (1 << s) for s in self.shifts)
        self._h_cache = [self.one()]

    def position(self, name) -> int:
        if name not in self.names:
            raise ValidationError(
                f"unknown variable {name!r}; the ring's variables are {', '.join(self.names)}")
        return self.names.index(name)

    def check_degree(self, degree: int) -> None:
        """Refuse a total degree that would overflow the packed degree field."""
        if degree > FIELD_MASK:
            raise CapExceededError(
                f"total degree {degree} exceeds the packed exponent limit {FIELD_MASK}")

    def pack(self, exps) -> int:
        exps = tuple(exps)
        if len(exps) != len(self.names) or any(e < 0 for e in exps):
            raise ValidationError(f"exponents {exps} do not fit the ring {self.names}")
        degree = sum(exps)
        self.check_degree(degree)
        return sum(e << s for e, s in zip(exps, self.shifts)) | degree << self.deg_shift

    def unpack(self, key: int) -> tuple[int, ...]:
        return tuple(key >> s & FIELD_MASK for s in self.shifts)

    def divide_key(self, key: int, by: int):
        """The key of monomial key / by, or None when by does not divide it."""
        if any(key >> s & FIELD_MASK < by >> s & FIELD_MASK for s in self.shifts):
            return None
        return key - by

    def zero(self) -> "ExactPoly":
        return ExactPoly(self, {})

    def one(self) -> "ExactPoly":
        return ExactPoly(self, {0: 1})

    def const(self, c) -> "ExactPoly":
        return self.monomial((0,) * len(self.names), c)

    def monomial(self, exps, coeff=1) -> "ExactPoly":
        c = Fraction(coeff)
        return ExactPoly(self, {self.pack(exps): c.numerator}, c.denominator)

    def var(self, name) -> "ExactPoly":
        return ExactPoly(self, {self.units[self.position(name)]: 1})

    def __repr__(self):
        return f"PolyRing({self.names}, weights={self.weights})"


class ExactPoly:
    """Multivariate rational polynomial: integer numerators over one denominator.

    ``num`` maps packed monomial keys to nonzero ints and ``den`` is positive
    with gcd(den, *num) == 1, so equal polynomials have equal fields.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: PolyRing, num: dict, den: int = 1):
        num = {k: c for k, c in num.items() if c}
        g = gcd(den, *num.values())
        if den < 0:
            g = -g
        if g != 1:
            num = {k: c // g for k, c in num.items()}
            den //= g
        self.ring = ring
        self.num = num
        self.den = den

    @property
    def terms(self):
        """Read-only {exponent tuple: Fraction} view."""
        unpack, den = self.ring.unpack, self.den
        return MappingProxyType({unpack(k): Fraction(c, den) for k, c in self.num.items()})

    # -- basics ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other):
        return (
            isinstance(other, ExactPoly)
            and self.ring.names == other.ring.names
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.ring.names, self.den, frozenset(self.num.items())))

    def _combine(self, other, sign: int) -> "ExactPoly":
        """self + sign * other over the lcm of the two denominators."""
        other = self._coerce(other)
        if self.den == other.den:
            den, fa, fb = self.den, 1, sign
        else:
            den = lcm(self.den, other.den)
            fa, fb = den // self.den, sign * (den // other.den)
        out = dict(self.num) if fa == 1 else {k: c * fa for k, c in self.num.items()}
        get = out.get
        for k, c in other.num.items():
            out[k] = get(k, 0) + c * fb
        return ExactPoly(self.ring, out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return ExactPoly(self.ring, {k: -c for k, c in self.num.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return ExactPoly(self.ring, {k: c * f.numerator for k, c in self.num.items()},
                             self.den * f.denominator)
        other = self._coerce(other)
        a, b = self.num, other.num
        if not a or not b:
            return self.ring.zero()
        ring = self.ring
        ring.check_degree((max(a) >> ring.deg_shift) + (max(b) >> ring.deg_shift))
        out = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return ExactPoly(ring, out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValidationError("negative polynomial power")
        if n and self.num:
            self.ring.check_degree((max(self.num) >> self.ring.deg_shift) * n)
        acc = self.ring.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def _coerce(self, other):
        if not isinstance(other, ExactPoly):
            return self.ring.const(other)
        if other.ring.names != self.ring.names:
            raise ValidationError("polynomials live in different rings")
        return other

    # -- calculus and structure -------------------------------------------

    def diff(self, name="t1") -> "ExactPoly":
        pos = self.ring.position(name)
        shift, unit = self.ring.shifts[pos], self.ring.units[pos]
        return ExactPoly(self.ring, {k - unit: c * e for k, c in self.num.items()
                                     if (e := k >> shift & FIELD_MASK)}, self.den)

    def min_degree(self) -> int:
        if not self.num:
            raise ZeroPolynomialError("minimal degree of the zero polynomial")
        return min(self.num) >> self.ring.deg_shift

    def leading(self):
        """(exponents, coefficient) maximal in graded-lex order."""
        if not self.num:
            raise ZeroPolynomialError("leading term of the zero polynomial")
        k = max(self.num)
        return self.ring.unpack(k), Fraction(self.num[k], self.den)

    def _slice_ints(self, values: dict):
        """(integer coefficients in t1, low to high, positive denominator) of
        the slice that substitutes rationals for every other variable."""
        ring = self.ring
        t1_shift = ring.shifts[ring.position("t1")]
        # over one common denominator: with v = p/q and E the top exponent of
        # its variable, a term takes p^e q^(E - e), and den takes q^E
        den = self.den
        powers = []
        for name, shift in zip(ring.names, ring.shifts):
            if shift == t1_shift:
                continue
            if name not in values:
                raise ValidationError(f"missing substitution for {name}")
            v = Fraction(values[name])
            top = max((k >> shift & FIELD_MASK for k in self.num), default=0)
            if top:
                p, q = v.numerator, v.denominator
                powers.append((shift, [p ** e * q ** (top - e) for e in range(top + 1)]))
                den *= q ** top
        ints = [0] * (max((k >> t1_shift & FIELD_MASK for k in self.num), default=-1) + 1)
        for k, c in self.num.items():
            for shift, pw in powers:
                c *= pw[k >> shift & FIELD_MASK]
            ints[k >> t1_shift & FIELD_MASK] += c
        while ints and not ints[-1]:
            ints.pop()
        return ints, den

    def slice_t1(self, values: dict) -> "UniPoly":
        """Substitute rationals for every variable except t1 (zeros restrict
        to the t1 axis)."""
        ints, den = self._slice_ints(values)
        return UniPoly([Fraction(c, den) for c in ints])

    def _sorted_terms(self):
        """(exponents, Fraction) pairs in graded-lex order."""
        unpack, num, den = self.ring.unpack, self.num, self.den
        return [(unpack(k), Fraction(num[k], den)) for k in sorted(num)]

    def to_json(self) -> dict:
        return {
            "variables": list(self.ring.names),
            "weights": list(self.ring.weights),
            "monomials": [
                {"exponents": list(e), "numerator": c.numerator, "denominator": c.denominator}
                for e, c in self._sorted_terms()
            ],
        }

    def __str__(self):
        if not self.num:
            return "0"
        parts = []
        for e, c in self._sorted_terms():
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


def _primitive(a: list[int]) -> list[int]:
    """The primitive integer polynomial that is a positive multiple of ``a``."""
    g = gcd(*a)
    return [c // g for c in a]


def _sturm_count(a: list[int]) -> int:
    """Exact count of the distinct real roots of an integer polynomial (low to
    high, no trailing zero) via a Sturm chain.

    The chain is the signed remainder sequence of f and f', which ends at
    gcd(f, f'), so multiple roots count once without taking the square-free
    part first.  Only signs matter, so each member is kept as a primitive
    integer polynomial, a positive multiple of the rational one
    (Basu-Pollack-Roy, Algorithms in Real Algebraic Geometry, ch. 2 and 8).
    """
    if not a:
        raise ZeroPolynomialError("root count of the zero polynomial")
    if len(a) < 2:
        return 0
    a = _primitive(a)
    b = _primitive([k * c for k, c in enumerate(a)][1:])
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
    """One time t_m of weight m per exponent m of W (Kostant); for D_l one
    copy of the exponent l - 1 is the parameter s instead."""
    _require_tau_type(t)
    exps = [d - 1 for d in weyl_degrees(t)]
    if t.series != "D":
        return PolyRing([f"t{m}" for m in exps], exps)
    exps.remove(t.rank - 1)
    return PolyRing([f"t{m}" for m in exps] + ["s"], exps + [t.rank - 1],
                    time_positions=range(len(exps)))


def hk(n: int, ring: PolyRing) -> ExactPoly:
    """Complete homogeneous polynomial h_n in the ring's active times.

    h_n = sum over i_j >= 0 with sum j*i_j = n of prod t_j^{i_j} / i_j!,
    computed through n*h_n = sum_j j*t_j*h_{n-j}; h_0 = 1, h_{<0} = 0.
    """
    if n < 0:
        return ring.zero()
    ring.check_degree(n)  # weights are positive, so no monomial of h_n exceeds degree n
    cache = ring._h_cache
    while len(cache) <= n:
        m = len(cache)
        acc = ring.zero()
        for wt, pos in ring.times:
            if wt <= m:
                acc = acc + ExactPoly(ring, {ring.units[pos]: wt}, m) * cache[m - wt]
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


# -- perfect squares and exact division --------------------------------------


def _long_divide(ring: PolyRing, rem: dict, lead, q: dict, step):
    """Graded-lex long division in integers: extend ``q`` until ``rem`` is zero.

    ``rem`` is a numerator dict, reduced in place.  Each step takes the
    monomial c * x^k whose product with ``lead`` (a (key, int) pair) is the
    leading term of ``rem``, calls ``step(k, c)`` to subtract a polynomial
    with that leading term, and records q[k] = c.  The leading monomial of
    ``rem`` falls at every step, so the division ends.  None means that a
    leading term of ``rem`` is not an integer multiple of lead.
    """
    lead_k, lead_c = lead
    while rem:
        k = max(rem)
        mk = ring.divide_key(k, lead_k)
        mc, r = divmod(rem[k], lead_c)
        if mk is None or r:
            return None
        step(mk, mc)
        q[mk] = mc
    return q


def _subtract_shifted(rem: dict, key: int, c: int, num: dict) -> None:
    """rem -= c * x^key * num, dropping the terms that cancel."""
    for k2, c2 in num.items():
        k = key + k2
        v = rem.get(k, 0) - c * c2
        if v:
            rem[k] = v
        else:
            del rem[k]


def poly_sqrt(p: ExactPoly) -> ExactPoly:
    """Exact square root of a perfect-square polynomial.

    A square's normalized form is R^2 / r^2 with R integral (Gauss's lemma),
    so the root is found in integers: with R its terms so far, each new
    term m takes m * (2R + m) off the residual.
    """
    if p.is_zero():
        return p
    ring = p.ring
    lead_k = max(p.num)
    if any(x % 2 for x in ring.unpack(lead_k)):
        raise NotAPerfectSquareError("leading monomial has odd exponents")
    c = Fraction(p.num[lead_k], p.den)
    if c < 0:
        raise NotAPerfectSquareError(f"negative leading coefficient {c}")
    if any(isqrt(x) ** 2 != x for x in (c.numerator, c.denominator)):
        raise NotAPerfectSquareError(f"{c} is not a rational square")
    half, root_c, root_d = lead_k >> 1, isqrt(p.num[lead_k]), isqrt(p.den)
    root = {half: root_c}

    def step(k, c):
        _subtract_shifted(rem, k, 2 * c, root)
        _subtract_shifted(rem, k, c, {k: c})

    rem = dict(p.num)
    del rem[lead_k]
    if (root_c ** 2 != p.num[lead_k] or root_d ** 2 != p.den
            or _long_divide(ring, rem, (half, 2 * root_c), root, step) is None):
        raise NotAPerfectSquareError("stray monomial below the square root")
    return ExactPoly(ring, root, root_d)


def _squarefree_part(n: int) -> int:
    """The squarefree s with n = s * r**2 for some integer r (n > 0)."""
    sf = 1
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            sf *= d
        d += 1 if d == 2 else 2
    return sf * n


def poly_sqrt_content(p: ExactPoly):
    """Write p = content * P**2 with a signed squarefree rational content.

    Tau functions are only defined up to constant scale, so a determinant
    that is c * (polynomial)^2 yields the polynomial; c is returned for the
    record.  Raises NotAPerfectSquareError when no such splitting exists.
    """
    if p.is_zero():
        raise NotAPerfectSquareError("zero polynomial has no square splitting")
    _, lead_c = p.leading()
    content = Fraction(_squarefree_part(abs(lead_c.numerator)),
                       _squarefree_part(lead_c.denominator))
    if lead_c < 0:
        content = -content
    root = poly_sqrt(p * (1 / content))
    # flip the overall sign so the graded-lex minimal monomial is positive
    return (-root if root.num[min(root.num)] < 0 else root), content


def exact_divide(p: ExactPoly, d: ExactPoly) -> ExactPoly:
    """Quotient p/d when the division is exact; raises ValidationError else.

    With d's numerators made primitive, an exact quotient of p's integer
    numerators is integral (Gauss's lemma), so the division runs in integers.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    content = gcd(*d.num.values())
    divisor = {k: c // content for k, c in d.num.items()}
    lead_k = max(divisor)

    def step(k, c):
        _subtract_shifted(rem, k, c, divisor)

    rem = dict(p.num)
    q = _long_divide(p.ring, rem, (lead_k, divisor[lead_k]), {}, step)
    if q is None:
        raise ValidationError("inexact polynomial division")
    # p / d = (P / D') * d.den / (p.den * content) with D' the primitive divisor
    return ExactPoly(p.ring, {k: c * d.den for k, c in q.items()}, p.den * content)


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
    # tau_k is the leading k x k block of the Hankel matrix (h_{top-i-j});
    # tau_1 = h_top vanishes to order nu_1 on the t1 axis
    top = tau_multiplicities(t)[0]
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
        if j != k and C[k - 1][j - 1]:  # off-diagonal Cartan entries are <= 0
            rhs = rhs * system.taus[j - 1] ** -C[k - 1][j - 1]
    key = max(rhs.num)
    a0 = Fraction(lhs.num.get(key, 0) * rhs.den, lhs.den * rhs.num[key])
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
        counts.append(sum(_sturm_count(tau._slice_ints(values)[0]) for tau in system.taus))
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
