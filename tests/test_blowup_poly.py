import math
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

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3",
                                      "B4", "C2", "C3", "C4", "D3", "D4", "D5",
                                      "E6", "E7", "E8", "F4", "G2"])
    def test_vanish_at_one_and_degree(self, name):
        t = T(name)
        p = closed_form_p(t).expand()
        assert p(1) == 0
        assert p.degree == sum(compact_dual_info(t).degrees)

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

    def test_caps(self):
        with pytest.raises(CapExceededError):
            brute_force_so_order(3, 9)
        with pytest.raises(CapExceededError):
            brute_force_so_order(2, 10007)

    def test_prime_powers_refused(self):
        # Z/q is the field F_q only for prime q; -1 is a square in F_9 and F_25
        for q in (9, 25):
            with pytest.raises(InvalidQError, match="not the field"):
                brute_force_so_order(2, q)

    def test_bad_n(self):
        with pytest.raises(InvalidQError):
            brute_force_so_order(4, 5)

    def test_matches_formula(self):
        for q in (5, 13):
            assert brute_force_so_order(2, q) == chevalley_order(T("A1"), q)
        for q in (3, 5):
            assert brute_force_so_order(3, q) == chevalley_order(T("A2"), q)
        assert brute_force_so_order(3, 7) == 336 == chevalley_order(T("A2"), 7)


class TestPoincare:
    def test_pinned(self):
        assert poincare_polynomial_k(T("A2")).coeffs == (1, 0, 0, 1)       # 1 + x^3
        assert poincare_polynomial_k(T("G2")).coeffs == (1, 0, 0, 2, 0, 0, 1)
        assert poincare_polynomial_k(T("A1")).coeffs == (1, 1)             # 1 + x

    def test_total_betti_is_power_of_two(self):
        for name in ("A2", "A3", "B3", "C3", "D4", "G2"):
            total = sum(poincare_polynomial_k(T(name)).coeffs)
            assert total == 2 ** compact_dual_info(T(name)).g
