import math
import re
import time
from itertools import product

import pytest
from hypothesis import given, strategies as st

from todalab.blowup_poly import (
    CosetChain,
    FactoredForm,
    alternating_eta_sum,
    brute_force_so_order,
    chevalley_order,
    closed_form_p,
    is_prime_power,
    p_epsilon,
    poincare_polynomial_k,
    so_factors,
)
from todalab.errors import (
    AssumptionViolatedError,
    CapExceededError,
    InvalidQError,
    UnsupportedTypeError,
    ValidationError,
)
from todalab.exact import UniPoly as IntPolynomial
from todalab.rootdata import LieType, compact_dual_info, positive_roots, weyl_order
from todalab.signflow import all_minus, eta_table, parse_signs


def T(name):
    return LieType.parse(name)


class TestIntPolynomial:
    def test_trailing_zeros_stripped(self):
        assert IntPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial([0, 0]).is_zero()
        assert IntPolynomial().degree == -1

    def test_str(self):
        assert str(IntPolynomial([-1, 0, 1])) == "q^2 - 1"
        assert str(IntPolynomial([1, -2, 2])) == "2*q^2 - 2*q + 1"
        assert str(IntPolynomial()) == "0"

    small_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=6)

    @given(small_polys, small_polys, st.integers(-5, 5))
    def test_arithmetic_matches_evaluation(self, a, b, x):
        pa, pb = IntPolynomial(a), IntPolynomial(b)
        assert (pa * pb)(x) == pa(x) * pb(x)
        assert (pa + pb)(x) == pa(x) + pb(x)
        assert (pa - pb)(x) == pa(x) - pb(x)


class TestPEpsilon:
    def test_pinned(self):
        assert p_epsilon(T("A2"), (-1, -1)) == IntPolynomial([-1, 0, 1])
        assert p_epsilon(T("G2"), (-1, -1)) == IntPolynomial([1, 0, -2, 0, 1])
        assert p_epsilon(T("A2"), (-1, 1)).is_zero()
        assert p_epsilon(T("C3"), (-1, -1, -1)) == \
            FactoredForm((2, 2, 2)).expand()
        assert p_epsilon(T("B2"), (-1, -1)) == FactoredForm((1, 2)).expand()

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"])
    def test_mixed_signs_vanish(self, name):
        t = T(name)
        for eps in product((1, -1), repeat=t.rank):
            if eps == all_minus(t.rank):
                assert p_epsilon(t, eps) == closed_form_p(t).expand()
            else:
                assert p_epsilon(t, eps).is_zero()

    def test_bad_input_refused(self):
        with pytest.raises(ValidationError, match="length 2 != rank 3"):
            p_epsilon(T("A3"), (-1, -1))
        with pytest.raises(UnsupportedTypeError):
            p_epsilon(T("A2(1)"), (-1, -1, -1))


# every finite type through rank 8
FINITE_TYPES = ([f"A{l}" for l in range(1, 9)] + [f"B{l}" for l in range(2, 9)]
                + [f"C{l}" for l in range(2, 9)] + [f"D{l}" for l in range(3, 9)]
                + ["E6", "E7", "E8", "F4", "G2"])

# E6 mixed signs compared with enumeration (all 64 would add about 4 s)
E6_SIGNS = ["+-----", "-+----", "--+---", "---+--", "----+-", "-----+", "+-+-+-", "++++++"]


class TestCosetChain:
    """The coset chain against the enumeration sum over the whole group."""

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4",
                                      "C2", "C3", "C4", "D4", "D5", "F4", "G2"])
    def test_every_sign_matches_enumeration(self, name, group):
        t, g = T(name), group(name)
        chain = CosetChain(t)
        for eps in product((1, -1), repeat=t.rank):
            assert chain.p_epsilon(eps) == alternating_eta_sum(eta_table(g, eps)), eps

    @pytest.mark.parametrize("sign", ["------"] + E6_SIGNS)
    def test_e6_matches_enumeration(self, sign, group):
        eps = parse_signs(sign)
        assert p_epsilon(T("E6"), eps) == alternating_eta_sum(eta_table(group("E6"), eps))

    @pytest.mark.parametrize("name", ["E7", "E8"])
    def test_e7_e8_closed_form_and_vanishing(self, name):
        t = T(name)
        chain = CosetChain(t)
        for eps in product((1, -1), repeat=t.rank):
            if eps == all_minus(t.rank):
                assert chain.p_epsilon(eps) == closed_form_p(t).expand()
            else:
                assert chain.p_epsilon(eps).is_zero(), eps

    @pytest.mark.parametrize("name", FINITE_TYPES)
    def test_steps_factor_the_group(self, name):
        t = T(name)
        chain = CosetChain(t)
        assert math.prod(len(step) for step in chain.steps) == weyl_order(t)
        assert chain.longest_length == len(positive_roots(t).positive)  # l(w*)


class TestClosedForms:
    def test_pinned_strings(self):
        assert str(closed_form_p(T("B3"))) == "(q-1)(q^2-1)(q^3-1)"
        assert str(closed_form_p(T("A3"))) == "(q^2-1)^2"
        assert closed_form_p(T("D4")).exponents == (2, 2, 2, 2)
        assert str(closed_form_p(T("A1"))) == "(q-1)"
        assert str(FactoredForm(())) == "1"

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3",
                                      "B4", "C2", "C3", "C4", "D3", "D4", "D5",
                                      "E6", "E7", "E8", "F4", "G2"])
    def test_vanish_at_one_and_degree(self, name):
        t = T(name)
        p = closed_form_p(t).expand()
        assert p(1) == 0
        assert p.degree == sum(compact_dual_info(t).degrees)

    @staticmethod
    def counted_per_exponent(f):
        """Reference: one list.count per distinct exponent (quadratic)."""
        out = []
        for d in sorted(set(f.exponents)):
            m = f.exponents.count(d)
            base = "(q-1)" if d == 1 else f"(q^{d}-1)"
            out.append(base if m == 1 else f"{base}^{m}")
        return "".join(out) if out else "1"

    @pytest.mark.parametrize("name", ["A1", "A3", "A6", "B4", "C5", "D4", "D7",
                                      "E6", "E7", "E8", "F4", "G2"])
    def test_str_matches_per_exponent_count(self, name):
        f = closed_form_p(T(name))
        assert str(f) == self.counted_per_exponent(f)

    def test_str_is_linear(self):
        f = closed_form_p(T("A200000"))
        start = time.perf_counter()
        text = str(f)
        assert time.perf_counter() - start < 1.0
        assert text.startswith("(q^2-1)(q^4-1)")
        assert text.count("(") == len(set(f.exponents))

    def test_expand_is_product(self):
        f = FactoredForm((2, 3))
        for q in (2, 3, 5):
            assert f.expand()(q) == (q ** 2 - 1) * (q ** 3 - 1)


class TestChevalleyOrders:
    def test_pinned(self):
        assert chevalley_order(T("A1"), 5) == 4
        assert chevalley_order(T("A2"), 5) == 120
        assert chevalley_order(T("B3"), 3) == 3 ** 3 * 2 * 8 * 26  # 11232

    def test_q_validation(self):
        for q in (2, 4, 16):
            with pytest.raises(InvalidQError):
                chevalley_order(T("A1"), q)
        with pytest.raises(InvalidQError):
            chevalley_order(T("A1"), 15)
        assert chevalley_order(T("A1"), 9) == 8  # 3^2 is a fine odd prime power

    def test_prime_power_predicate(self):
        assert all(is_prime_power(q) for q in (2, 3, 4, 5, 8, 9, 27, 121, 125))
        assert not any(is_prime_power(q) for q in (1, 6, 12, 15, 100))


def so3_by_rows(q):
    """|SO(3, Z/q)| by enumerating the matrices whose rows are pairwise
    orthogonal unit vectors (A A^T = I) with det A = 1."""
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


class TestBruteForce:
    def test_so2_pinned(self):
        assert brute_force_so_order(2, 5) == 4
        assert brute_force_so_order(2, 13) == 12
        assert brute_force_so_order(2, 17) == 16

    def test_so2_needs_sqrt_minus_one(self):
        with pytest.raises(AssumptionViolatedError):
            brute_force_so_order(2, 7)  # 7 = 3 mod 4

    def test_so3_pinned(self):
        assert brute_force_so_order(3, 3) == 24
        assert brute_force_so_order(3, 5) == 120

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_so3_matches_row_enumeration(self, q):
        assert brute_force_so_order(3, q) == so3_by_rows(q)

    @pytest.mark.parametrize("n, q", [(2, 1_000_003), (3, 1423), (3, 3 ** 13)])
    def test_first_input_over_the_cap_refused_at_once(self, n, q):
        # 1423 is the first odd prime power with 1423 + 1423 * 712 > 10^6; the
        # cap comes before the primality check, so 3^13 is cap-exceeded too
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match=f"SO\\({n}\\) count over F_{q}"):
            brute_force_so_order(n, q)
        assert time.perf_counter() - start < 0.01

    def test_prime_powers_refused(self):
        # Z/q is the field F_q only for prime q; -1 is a square in F_9 and F_25
        for n, q in ((2, 9), (2, 25), (3, 9)):
            with pytest.raises(InvalidQError, match="not the field"):
                brute_force_so_order(n, q)

    def test_every_n_from_two(self):
        for q in (3, 5):
            assert brute_force_so_order(4, q) ** 2 == chevalley_order(T("D4"), q)
        with pytest.raises(ValidationError, match="n >= 2"):
            brute_force_so_order(1, 5)

    def test_matches_formula(self):
        for q in (5, 13):
            assert brute_force_so_order(2, q) == chevalley_order(T("A1"), q)
        for q in (3, 5):
            assert brute_force_so_order(3, q) == chevalley_order(T("A2"), q)
        assert brute_force_so_order(3, 7) == 336 == chevalley_order(T("A2"), 7)

    def test_so_factors(self):
        assert so_factors(T("A1")) == (2,)
        assert so_factors(T("A7")) == (8,)
        assert so_factors(T("C5")) == (5, 6)
        assert so_factors(T("D4")) == (4, 4)
        assert so_factors(T("E8")) == (16,)
        for name, dual in (("B3", "U(3)"), ("E6", "Sp(4)"), ("E7", "SU(8)"),
                           ("F4", "Sp(1)xSp(3)"), ("G2", "SU(2)xSU(2)")):
            with pytest.raises(ValidationError, match=f"{name}: the compact dual "
                               f"{re.escape(dual)} is not"):
                so_factors(T(name))


class TestPoincare:
    def test_pinned(self):
        assert poincare_polynomial_k(T("A2")).coeffs == (1, 0, 0, 1)       # 1 + x^3
        assert poincare_polynomial_k(T("G2")).coeffs == (1, 0, 0, 2, 0, 0, 1)
        assert poincare_polynomial_k(T("A1")).coeffs == (1, 1)             # 1 + x

    def test_total_betti_is_power_of_two(self):
        for name in ("A2", "A3", "B3", "C3", "D4", "G2"):
            total = sum(poincare_polynomial_k(T(name)).coeffs)
            assert total == 2 ** compact_dual_info(T(name)).g
