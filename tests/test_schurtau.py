import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from todalab.errors import (
    CapExceededError,
    NoConstantFitsError,
    NotAPerfectSquareError,
    UnsupportedTypeError,
    ValidationError,
    ZeroPolynomialError,
)
from todalab.exact import UniPoly
from todalab.rootdata import LieType, tau_multiplicities, two_rho_height
from todalab.schurtau import (
    ExactPoly,
    TauSystem,
    exact_divide,
    hirota_residual,
    hk,
    minimal_degrees,
    nu_check,
    nu_degrees,
    poly_sqrt,
    poly_sqrt_content,
    random_nonzero_rational,
    real_root_count_experiment,
    ring_for,
    schur_wronskian,
    sturm_real_roots,
    tangent_cone,
    tau_functions,
    wronskian,
)


def T(name):
    return LieType.parse(name)


def S(name):
    return tau_functions(T(name))


def weighted_degrees(p):
    """The weighted degrees of p's monomials under its ring's weights."""
    w = p.ring.weights
    return {sum(x * y for x, y in zip(e, w)) for e in p.terms}


def on_t1_axis(p):
    """p with every variable except t1 set to zero."""
    return p.slice_t1(dict.fromkeys(p.ring.names, 0))


def rng_poly(ring, rng, max_terms=4, max_exp=3, denom=6):
    p = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        exps = [rng.randint(0, max_exp) for _ in ring.names]
        p = p + ring.monomial(exps, Fraction(rng.randint(-8, 8), rng.randint(1, denom)))
    return p


class TestH:
    def test_low_cases(self):
        r = ring_for(T("A3"))
        t1, t2, t3 = (r.var(n) for n in ("t1", "t2", "t3"))
        assert hk(0, r) == r.one()
        assert hk(-2, r).is_zero()
        assert hk(2, r) == t2 + Fraction(1, 2) * t1 ** 2
        assert hk(3, r) == t3 + t1 * t2 + Fraction(1, 6) * t1 ** 3

    def test_only_odd_times_for_b(self):
        r = ring_for(T("B2"))
        assert r.names == ("t1", "t3")
        h4 = hk(4, r)
        assert h4 == r.var("t1") * r.var("t3") + Fraction(1, 24) * r.var("t1") ** 4

    @pytest.mark.parametrize("tname", ["A3", "B3", "G2", "D4"])
    def test_derivative_ladder(self, tname):
        r = ring_for(T(tname))
        for n in range(1, 13):
            assert hk(n, r).diff("t1") == hk(n - 1, r)

    def test_weighted_homogeneous(self):
        r = ring_for(T("B3"))
        for n in range(1, 12):
            assert weighted_degrees(hk(n, r)) == {n}


class TestSchurWronskian:
    def test_single_index(self):
        r = ring_for(T("A2"))
        assert schur_wronskian([2], r) == hk(2, r)

    def test_s12(self):
        r = ring_for(T("A2"))
        t1, t2 = r.var("t1"), r.var("t2")
        assert schur_wronskian([1, 2], r) == Fraction(1, 2) * t1 ** 2 - t2

    def test_g2_s56(self):
        r = ring_for(T("G2"))
        t1, t5 = r.var("t1"), r.var("t5")
        want = t5 ** 2 - Fraction(1, 40) * t5 * t1 ** 5 + Fraction(1, 86400) * t1 ** 10
        assert schur_wronskian([5, 6], r) == want

    def test_requires_increasing(self):
        r = ring_for(T("A2"))
        with pytest.raises(ValidationError):
            schur_wronskian([2, 2], r)
        with pytest.raises(ValidationError):
            schur_wronskian([], r)

    def test_wronskian_row_reversal_sign(self):
        # Wr with decreasing indices is (-1)^{k(k-1)/2} times the Schur form
        r = ring_for(T("C2"))
        assert wronskian([hk(3, r), hk(2, r)]) == -schur_wronskian([2, 3], r)


class TestTauLiterals:
    def test_a2(self):
        r = ring_for(T("A2"))
        t1, t2 = r.var("t1"), r.var("t2")
        assert tau_functions(T("A2")).taus == (
            t2 + Fraction(1, 2) * t1 ** 2, t2 - Fraction(1, 2) * t1 ** 2)

    def test_b2(self):
        r = ring_for(T("B2"))
        t1, t3 = r.var("t1"), r.var("t3")
        assert tau_functions(T("B2")).taus == (
            t1 * t3 + Fraction(1, 24) * t1 ** 4, t3 - Fraction(1, 12) * t1 ** 3)

    def test_c2(self):
        r = ring_for(T("C2"))
        t1, t3 = r.var("t1"), r.var("t3")
        assert tau_functions(T("C2")).taus == (
            t3 + Fraction(1, 6) * t1 ** 3, t1 * t3 - Fraction(1, 12) * t1 ** 4)

    def test_g2(self):
        r = ring_for(T("G2"))
        t1, t5 = r.var("t1"), r.var("t5")
        assert tau_functions(T("G2")).taus == (
            t1 * t5 + Fraction(1, 720) * t1 ** 6,
            t5 ** 2 - Fraction(1, 40) * t5 * t1 ** 5 + Fraction(1, 86400) * t1 ** 10)

    def test_a1(self):
        system = tau_functions(T("A1"))
        assert system.taus == (system.ring.var("t1"),)

    def test_unsupported(self):
        with pytest.raises(UnsupportedTypeError):
            tau_functions(T("E6"))
        with pytest.raises(UnsupportedTypeError):
            tau_functions(T("F4"))

    def test_d_pair_product_consistency(self):
        # tau_k for k <= l-2 is the Wronskian of f_1, ..., f_k, and the split
        # tau_{l-1} * tau_l must reproduce the paired Wronskian
        for name in ("D3", "D4", "D5"):
            system = tau_functions(T(name))
            l = system.lie_type.rank
            ring = system.ring
            s_var = ring.var("s")

            def f(j):
                if l % 2 == 0:
                    return s_var * hk(l - j, ring) + 2 * hk(2 * l - 1 - j, ring)
                if j == 1:
                    return s_var * s_var + 2 * hk(2 * l - 2, ring)
                return 2 * hk(2 * l - 1 - j, ring)

            for k in range(1, l - 1):
                assert system.taus[k - 1] == wronskian(f(j + 1) for j in range(k))
            pair = wronskian(f(j + 1) for j in range(l - 1))
            assert system.taus[l - 2] * system.taus[l - 1] == pair

    @pytest.mark.parametrize("name", [f"A{l}" for l in range(1, 8)]
                             + [f"B{l}" for l in range(2, 6)]
                             + [f"C{l}" for l in range(2, 6)] + ["G2"])
    def test_hankel_blocks_match_wronskians(self, name):
        # tau_k is the t1-Wronskian of h_top, ..., h_{top-k+1}, built here by
        # differentiation; B's tau_l is the square root of the last one, and
        # G2's tau_2 is S_(5,6), that Wronskian with the opposite sign
        system = S(name)
        t = system.lie_type
        l = t.rank
        top = {"A": l, "B": 2 * l, "C": 2 * l - 1, "G": 6}[t.series]
        want = [wronskian(hk(top - j, system.ring) for j in range(k)) for k in range(1, l + 1)]
        if t.series == "B":
            want[-1] = poly_sqrt_content(want[-1])[0]
        if t.series == "G":
            want[1] = -want[1]
        assert system.taus == tuple(want)

    @pytest.mark.parametrize("l", range(1, 8))
    def test_a_taus_are_signed_rectangular_schur_polynomials(self, l):
        # tau_k = (-1)^{k(k-1)/2} S_(l-k+1, ..., l): reversing the Jacobi-Trudi
        # rows of the k x (l+1-k) rectangle gives the Hankel block
        system = tau_functions(LieType("A", l))
        for k, tau in enumerate(system.taus, start=1):
            sign = -1 if k * (k - 1) // 2 % 2 else 1
            assert tau == sign * schur_wronskian(range(l - k + 1, l + 1), system.ring)


EXPECTED_MIN_DEGREES = {
    "A2": (1, 1), "A3": (1, 2, 1), "A4": (1, 2, 2, 1), "A5": (1, 2, 3, 2, 1),
    "B2": (2, 1), "B3": (2, 2, 2), "B4": (2, 2, 4, 2),
    "C2": (1, 2), "C3": (1, 2, 3), "C4": (1, 2, 3, 4),
    "D4": (2, 2, 2, 2), "D5": (2, 2, 4, 2, 2),
    "G2": (2, 2),
}


class TestDegrees:
    @pytest.mark.parametrize("name", sorted(EXPECTED_MIN_DEGREES))
    def test_minimal_degree_lists(self, name):
        assert minimal_degrees(S(name)) == EXPECTED_MIN_DEGREES[name]

    @pytest.mark.parametrize("name", sorted(EXPECTED_MIN_DEGREES))
    def test_nu_matches_inverse_cartan(self, name):
        assert nu_degrees(S(name)) == tau_multiplicities(T(name))
        assert all(nu_check(S(name)))

    def test_nu_pinned_coefficients(self):
        taus = tau_functions(T("B2")).taus
        assert on_t1_axis(taus[0]).coeffs == (0, 0, 0, 0, Fraction(1, 24))
        assert on_t1_axis(taus[1]).coeffs == (0, 0, 0, Fraction(-1, 12))
        g2 = tau_functions(T("G2")).taus
        assert on_t1_axis(g2[0]).coeffs[6] == Fraction(1, 720)
        assert on_t1_axis(g2[1]).coeffs[10] == Fraction(1, 86400)

    @pytest.mark.parametrize("name", sorted(EXPECTED_MIN_DEGREES))
    def test_weighted_homogeneity(self, name):
        system = tau_functions(T(name))
        for k, tau in enumerate(system.taus):
            degs = weighted_degrees(tau)
            assert len(degs) == 1
            assert degs == {tau_multiplicities(system.lie_type)[k]}

    def test_product_t1_degree_is_two_rho(self):
        for name in ("A2", "B2", "G2", "C3"):
            system = tau_functions(T(name))
            assert on_t1_axis(math.prod(system.taus)).degree == two_rho_height(T(name))

    def test_zero_polynomial_rejected(self):
        r = ring_for(T("A2"))
        with pytest.raises(ZeroPolynomialError):
            r.zero().min_degree()

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
    def test_a_type_nu_closed_form(self, l):
        # vanishing order of tau_k on the t1 axis is k(l-k+1) in type A
        nus = nu_degrees(tau_functions(LieType("A", l)))
        assert nus == tuple(k * (l - k + 1) for k in range(1, l + 1))

    @pytest.mark.parametrize("l", [2, 3, 4, 5])
    def test_a_type_pairs_give_dual_degrees(self, l):
        # min deg tau_k + min deg tau_{l+1-k} = d_k; an odd middle stands alone
        from todalab.rootdata import compact_dual_info

        mins = minimal_degrees(tau_functions(LieType("A", l)))
        degrees = compact_dual_info(LieType("A", l)).degrees
        g = len(degrees)
        for k in range(1, g + 1):
            if l % 2 == 1 and k == g:
                assert mins[k - 1] == degrees[k - 1]
            else:
                assert mins[k - 1] + mins[l - k] == degrees[k - 1]

    @pytest.mark.parametrize("name", ["B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2"])
    def test_min_degrees_are_dual_chevalley_degrees(self, name):
        # for B/C (and D, G2 with even rank) the k-th minimal degree equals
        # the k-th invariant degree of the Langlands-dual compact group
        from todalab.rootdata import compact_dual_info, langlands_dual

        t = T(name)
        mins = minimal_degrees(tau_functions(t))
        dual_degrees = compact_dual_info(langlands_dual(t)).degrees
        assert mins == dual_degrees


class TestTangentCone:
    def test_a2(self):
        cone, d, cancelled = tangent_cone(S("A2"))
        r = ring_for(T("A2"))
        assert (d, cancelled) == (2, False)
        assert cone == r.var("t2") * r.var("t2")

    def test_b2(self):
        cone, d, cancelled = tangent_cone(S("B2"))
        r = ring_for(T("B2"))
        assert (d, cancelled) == (3, False)
        assert cone == r.var("t1") * r.var("t3") ** 2

    def test_a1(self):
        cone, d, cancelled = tangent_cone(S("A1"))
        assert (d, cancelled) == (1, False)

    @pytest.mark.parametrize("name", sorted(EXPECTED_MIN_DEGREES))
    def test_no_cancellation_detected(self, name):
        _, d, cancelled = tangent_cone(S(name))
        assert not cancelled
        assert d == sum(EXPECTED_MIN_DEGREES[name])


class TestHirota:
    def test_a2_k1_rhs_is_tau2(self):
        system = tau_functions(T("A2"))
        a0, residual = hirota_residual(system, 1)
        assert (a0, residual.is_zero()) == (Fraction(1), True)
        tau1 = system.taus[0]
        d = tau1.diff("t1")
        assert tau1 * d.diff("t1") - d * d == system.taus[1]

    def test_b2_constants(self):
        system = tau_functions(T("B2"))
        assert hirota_residual(system, 1)[0] == Fraction(-1)
        assert hirota_residual(system, 2)[0] == Fraction(-1, 2)

    @pytest.mark.parametrize("name", ["A2", "A3", "B2", "B3", "C2", "C3", "D4", "G2"])
    def test_all_residuals_vanish(self, name):
        system = tau_functions(T(name))
        for k in range(1, system.lie_type.rank + 1):
            a0, residual = hirota_residual(system, k)
            assert residual.is_zero()
            assert a0 != 0

    def test_broken_system_reports(self):
        good = tau_functions(T("A2"))
        taus = (good.taus[0], good.taus[1] + good.ring.var("t1"))
        broken = TauSystem(good.lie_type, good.ring, taus)
        with pytest.raises(NoConstantFitsError) as info:
            hirota_residual(broken, 1)
        assert not info.value.residual.is_zero()

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            hirota_residual(tau_functions(T("A2")), 3)

    def test_rank_one_empty_product(self):
        # tau = t1: LHS = -1 against an empty right-hand product
        a0, residual = hirota_residual(tau_functions(T("A1")), 1)
        assert (a0, residual.is_zero()) == (Fraction(-1), True)


class TestSqrtAndDivision:
    def test_pinned_content(self):
        # the B3 inner Wronskian is -1/2 times a perfect square
        note = tau_functions(T("B3")).notes[0]
        assert "(-1/2)" in note

    def test_b2_schur_q_identification(self):
        # tau_2(B2) is proportional to S_(1,3) evaluated at half times,
        # the l=2 instance of the Schur Q-polynomial realization
        r = ring_for(T("B2"))
        s13 = schur_wronskian([1, 3], r)
        halved = ExactPoly(
            r, {e: c * Fraction(1, 2 ** sum(e)) for e, c in s13.terms.items()})
        assert Fraction(-2) * halved == tau_functions(T("B2")).taus[1]

    def test_sqrt_roundtrip_random(self):
        rng = random.Random(3)
        r = ring_for(T("B2"))
        for _ in range(25):
            p = rng_poly(r, rng)
            if p.is_zero():
                continue
            root = poly_sqrt(p * p) if p.leading()[1] > 0 else poly_sqrt(p * p)
            assert root * root == p * p

    def test_sqrt_content_random(self):
        rng = random.Random(4)
        r = ring_for(T("C2"))
        for content in (Fraction(3, 2), Fraction(-5), Fraction(7, 3)):
            p = rng_poly(r, rng) + r.one()
            got_root, got_content = poly_sqrt_content(content * p * p)
            assert got_content * got_root * got_root == content * p * p

    def test_not_a_square(self):
        r = ring_for(T("A2"))
        with pytest.raises(NotAPerfectSquareError):
            poly_sqrt(r.var("t1") + r.var("t2") ** 2)

    def test_exact_division(self):
        rng = random.Random(5)
        r = ring_for(T("A3"))
        for _ in range(25):
            p, q = rng_poly(r, rng), rng_poly(r, rng)
            if q.is_zero():
                continue
            assert exact_divide(p * q, q) == p

    def test_inexact_division_raises(self):
        r = ring_for(T("A2"))
        with pytest.raises(ValidationError):
            exact_divide(r.var("t1") + r.one(), r.var("t2"))

    def test_long_division_needs_no_step_cap(self):
        # 100 quotient terms from a 2-term dividend and a 2-term divisor
        r = ring_for(T("A2"))
        t1 = r.var("t1")
        quotient = exact_divide(t1 ** 100 - 1, t1 - 1)
        assert quotient == sum((t1 ** k for k in range(100)), r.zero())
        with pytest.raises(ValidationError, match="^inexact polynomial division$"):
            exact_divide(t1 ** 100 - 2, t1 - 1)

    def test_long_square_root(self):
        r = ring_for(T("A2"))
        t1 = r.var("t1")
        root = sum((t1 ** k for k in range(60)), r.zero())
        assert poly_sqrt(root * root) == root
        with pytest.raises(NotAPerfectSquareError, match="^stray monomial"):
            poly_sqrt(root * root + t1)
        with pytest.raises(NotAPerfectSquareError, match="^stray monomial"):
            poly_sqrt(t1 ** 2 + t1)


def power(p, k):
    out = UniPoly([1])
    for _ in range(k):
        out = out * p
    return out


def fraction_rem(a, b):
    """Remainder of the long division of ``a`` by ``b`` over Fraction."""
    r = [Fraction(c) for c in a.coeffs]
    lead = b.coeffs[-1]
    while len(r) > b.degree:
        f = r[-1] / lead
        shift = len(r) - 1 - b.degree
        for i, c in enumerate(b.coeffs):
            r[shift + i] -= f * c
        while r and r[-1] == 0:
            r.pop()
    return UniPoly(r)


def sturm_by_fractions(f):
    """Independent root-count oracle, the chain before the integer one: the
    signed remainder sequence of f and f' over Fraction, up to gcd(f, f')."""
    if f.degree < 1:
        return 0
    chain = [f, f.derivative()]
    while chain[-1].degree > 0:
        r = fraction_rem(chain[-2], chain[-1])
        if r.is_zero():
            break
        chain.append(-r)
    at_plus = [p.coeffs[-1] > 0 for p in chain]
    at_minus = [pos == (p.degree % 2 == 0) for pos, p in zip(at_plus, chain)]
    return sum(a != b for a, b in zip(at_minus, at_minus[1:])) - sum(
        a != b for a, b in zip(at_plus, at_plus[1:]))


def random_fraction_poly(rng):
    """A seeded product of linear, irreducible quadratic and sparse factors
    (odd gaps between exponents), some repeated, with large denominators and
    a leading coefficient of either sign; degree at most 12, where the
    Fraction oracle stays fast."""
    def frac():
        return Fraction(rng.randint(-10 ** 6, 10 ** 6) or 1, rng.randint(1, 10 ** 12))

    f = UniPoly([frac()])
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        if kind == 0:
            factor = UniPoly([frac(), frac()])
        elif kind == 1:  # x^2 + b x + c with b^2 < 4c
            b = frac()
            factor = UniPoly([b * b / 4 + frac() ** 2 + Fraction(1, 10 ** 9), b, 1])
        else:
            low = rng.randint(0, 2)
            gap = rng.choice((1, 3, 5))
            factor = UniPoly.from_dict({low: frac(), low + gap: frac(),
                                        low + gap + rng.choice((1, 3)): frac()})
        factor = power(factor, rng.choice((1, 1, 2, 3)))
        if f.degree + factor.degree <= 12:
            f = f * factor
    return f


def tau_slices(name, samples, seed):
    """Per sample, the tau_j restricted to the slice ``real_root_count_experiment``
    draws."""
    system = tau_functions(T(name))
    rng = random.Random(seed)
    others = [n for n in system.ring.names if n != "t1"]
    for _ in range(samples):
        values = {n: random_nonzero_rational(rng) for n in others}
        yield [tau.slice_t1(values) for tau in system.taus]


def product(polys):
    acc = UniPoly([1])
    for p in polys:
        acc = acc * p
    return acc


def fraction_gcd(a, b):
    """Greatest common divisor over Fraction, by Euclid's algorithm."""
    while not b.is_zero():
        a, b = b, fraction_rem(a, b)
    return a


class TestSturm:
    def test_pinned(self):
        assert sturm_real_roots(UniPoly([1, 0, 1])) == 0   # t^2 + 1
        assert sturm_real_roots(UniPoly([0, 1])) == 1      # t
        assert sturm_real_roots(UniPoly([-2, 0, 1])) == 2  # t^2 - 2
        assert sturm_real_roots(UniPoly([1])) == 0         # constants

    def test_a2_slice(self):
        system = tau_functions(T("A2"))
        f = (system.taus[0] * system.taus[1]).slice_t1({"t2": Fraction(1)})
        assert sturm_real_roots(f) == 2

    def test_g2_slice(self):
        system = tau_functions(T("G2"))
        f = (system.taus[0] * system.taus[1]).slice_t1({"t5": Fraction(1)})
        assert sturm_real_roots(f) == 4

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            sturm_real_roots(UniPoly([]))

    def test_multiple_roots_count_once(self):
        # (t-1)^2 (t+2) has two distinct real roots
        f = UniPoly([1, -2, 1]) * UniPoly([2, 1])
        assert sturm_real_roots(f) == 2

    def test_high_multiplicity(self):
        # (t-1)^3 (t+2)^4 (t^2+1): the chain ends at gcd(f, f') of degree 5
        f = power(UniPoly([-1, 1]), 3) * power(UniPoly([2, 1]), 4) * UniPoly([1, 0, 1])
        assert sturm_real_roots(f) == 2
        assert sturm_real_roots(power(UniPoly([-2, 0, 1]), 3)) == 2  # (t^2-2)^3
        assert sturm_real_roots(power(UniPoly([-1, 1]), 2)) == 1     # (t-1)^2

    def test_against_constructed_roots(self):
        rng = random.Random(9)
        for _ in range(40):
            roots = rng.sample(range(-12, 13), rng.randint(1, 5))
            f = UniPoly([1])
            for r0 in roots:
                mult = rng.choice((1, 1, 2))
                for _ in range(mult):
                    f = f * UniPoly([-r0, 1])
            for _ in range(rng.randint(0, 2)):
                f = f * UniPoly([rng.randint(1, 9), 0, 1])  # no real roots
            assert sturm_real_roots(f) == len(set(roots))

    def test_int_inputs_never_go_float(self):
        # int / int is a float in Python; no step may divide that way
        f = UniPoly([3, 0, -7, 2])
        assert not any(isinstance(c, float) for c in f.derivative().coeffs)
        # roots 1 and 1 + 10^-30 collapse in floating point
        n = 10 ** 30
        assert sturm_real_roots(UniPoly([-1, 1]) * UniPoly([-n - 1, n])) == 2

    def test_matches_fraction_chain(self):
        rng = random.Random(11)
        for _ in range(300):
            f = random_fraction_poly(rng)
            assert sturm_real_roots(f) == sturm_by_fractions(f), f

    @pytest.mark.parametrize("name", ["A2", "A3", "A4", "B2", "B3", "C2", "C3", "D4", "G2"])
    def test_matches_fraction_chain_on_tau_slices(self, name):
        want = [sum(map(sturm_by_fractions, taus)) for taus in tau_slices(name, 4, seed=7)]
        assert list(real_root_count_experiment(T(name), samples=4, seed=7).counts) == want

    @pytest.mark.parametrize("name", ["A3", "A4", "B2", "B3", "C2", "C3", "G2"])
    def test_product_chain_equals_per_tau_sum_on_generic_slices(self, name):
        # generic slices share no root between two tau_j, so one chain on the
        # product counts what the per-tau chains count
        for taus in tau_slices(name, 6, seed=3):
            assert sturm_real_roots(product(taus)) == sum(map(sturm_real_roots, taus))

    def test_shared_factor_counts_once_per_tau(self):
        # D4, seed 0, sample 15 (s = -11/2, t3 = 11/3, t5 = -3): the slices of
        # tau_1 and tau_3 agree up to a constant, so the product chain sees
        # their common roots once
        taus = list(tau_slices("D4", 16, seed=0))[-1]
        common = fraction_gcd(taus[0], taus[2])
        assert common.degree == 6 and sturm_real_roots(common) == 2
        per_tau = sum(map(sturm_real_roots, taus))
        assert per_tau == real_root_count_experiment(T("D4"), samples=16, seed=0).counts[15]
        assert per_tau - sturm_real_roots(product(taus)) == sturm_real_roots(common) == 2


class TestExperiment:
    def test_a2_modal(self):
        rep = real_root_count_experiment(T("A2"), samples=20, seed=7)
        assert rep.modal_count == rep.expected == 2
        assert rep.modal_fraction == 1.0
        assert rep.exceptional == ()

    def test_deterministic(self):
        a = real_root_count_experiment(T("B2"), samples=10, seed=3)
        b = real_root_count_experiment(T("B2"), samples=10, seed=3)
        assert a.counts == b.counts

    def test_seed_changes_slices(self):
        a = real_root_count_experiment(T("B2"), samples=10, seed=3)
        b = real_root_count_experiment(T("B2"), samples=10, seed=4)
        assert a.counts == b.counts  # counts are stable even though slices move
        assert a.as_dict() != b.as_dict()

    @pytest.mark.parametrize("name, degree_sum", [("A5", 9), ("B4", 10), ("C4", 10),
                                                  ("A6", 12), ("B5", 15), ("C5", 15),
                                                  ("D5", 12)])
    def test_conjecture_above_height_28(self, name, degree_sum):
        # the real t1-roots equal the degree sum of the compact dual K
        rep = real_root_count_experiment(T(name), samples=5, seed=7)
        assert rep.modal_count == rep.expected == degree_sum
        assert rep.matches_expected

    def test_needs_samples(self):
        with pytest.raises(ValidationError, match="got 0$"):
            real_root_count_experiment(T("A2"), samples=0)

    @pytest.mark.parametrize("refuse", [tau_functions, real_root_count_experiment])
    def test_height_refusal_builds_no_ring(self, refuse):
        # the height comes from the Weyl degrees; a 300000-variable ring took 0.26 s
        start = time.perf_counter()
        with pytest.raises(CapExceededError,
                           match=r"^A300000: .* height of 2rho 4500045000100000 exceeds"):
            refuse(T("A300000"))
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("name", ["E7", "E8", "F4", "A2(1)", "G2(1)"])
    @pytest.mark.parametrize("refuse", [tau_functions, real_root_count_experiment])
    def test_unsupported_before_height(self, refuse, name):
        # E7 and E8 are over both height caps, but have no tau system at all
        with pytest.raises(UnsupportedTypeError):
            refuse(T(name))


_A2_RING = ring_for(T("A2"))


@st.composite
def a2_polys(draw):
    p = _A2_RING.zero()
    for _ in range(draw(st.integers(0, 4))):
        exps = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
        coeff = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        p = p + _A2_RING.monomial(exps, coeff)
    return p


class TestExactPolyAlgebra:
    @given(a2_polys(), a2_polys(), a2_polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, f, g, h):
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert f + (-f) == _A2_RING.zero()

    @given(a2_polys(), a2_polys())
    @settings(max_examples=60, deadline=None)
    def test_leibniz(self, f, g):
        lhs = (f * g).diff("t1")
        assert lhs == f.diff("t1") * g + f * g.diff("t1")

    @given(a2_polys())
    @settings(max_examples=40, deadline=None)
    def test_slice_commutes_with_restrict(self, f):
        # the monomials free of t2, read off directly
        on_axis = {}
        for (e1, e2), c in f.terms.items():
            if e2 == 0:
                on_axis[e1] = c
        zeros = {"t2": Fraction(0)}
        assert f.slice_t1(zeros) == UniPoly.from_dict(on_axis)

    def test_cross_ring_arithmetic_rejected(self):
        a = ring_for(T("A2")).var("t1")
        b = ring_for(T("B2")).var("t1")
        with pytest.raises(ValidationError):
            a + b
        with pytest.raises(ValidationError):
            a * b

    def test_missing_substitution(self):
        r = ring_for(T("A3"))
        with pytest.raises(ValidationError):
            (r.var("t2") + r.var("t3")).slice_t1({"t2": Fraction(1)})

    def test_json_sorted(self):
        r = ring_for(T("A2"))
        doc = (r.var("t2") + Fraction(1, 2) * r.var("t1") ** 2).to_json()
        assert doc["monomials"][0] == {"exponents": [0, 1], "numerator": 1,
                                       "denominator": 1}
        assert doc["weights"] == [1, 2]
