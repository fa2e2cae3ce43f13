import math
import re
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, strategies as st

from todalab.blowup_poly import (
    CosetChain,
    FactoredForm,
    MAX_COUNT_WORK,
    alternating_eta_sum,
    brute_force_order,
    brute_force_so_order,
    chevalley_order,
    closed_form_p,
    is_prime_power,
    p_epsilon,
    poincare_polynomial_k,
    smallest_prime_factor,
    sphere_counts,
)
from todalab.errors import (
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
        assert chain.longest_length == len(positive_roots(t))  # l(w*)


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

    def test_so2_split_at_every_q(self):
        # x^2 - y^2 is split even where -1 is not a square (q = 3 mod 4)
        assert brute_force_so_order(2, 3) == 2
        assert brute_force_so_order(2, 7) == 6
        assert brute_force_so_order(6, 3) == chevalley_order(T("A5"), 3)

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


ORDER_TYPES = ([f"A{l}" for l in range(1, 9)] + [f"B{l}" for l in range(2, 9)]
               + [f"C{l}" for l in range(2, 9)] + [f"D{l}" for l in range(3, 9)]
               + ["E6", "E7", "E8", "F4", "G2"])


def invertible_by_entries(q, n):
    """(|GL(n, Z/q)|, |SL(n, Z/q)|) by enumerating every n x n matrix (n = 2, 3)."""
    def det(m):
        if n == 2:
            return m[0] * m[3] - m[1] * m[2]
        return (m[0] * (m[4] * m[8] - m[5] * m[7]) - m[1] * (m[3] * m[8] - m[5] * m[6])
                + m[2] * (m[3] * m[7] - m[4] * m[6]))

    dets = Counter(det(m) % q for m in product(range(q), repeat=n * n))
    return sum(dets.values()) - dets[0], dets[1]


def sphere_by_points(j, q):
    """#{x in (Z/q)^j : x_1^2 - x_2^2 + x_3^2 - ... = 1} by enumeration."""
    signs = [1 if i % 2 == 0 else -1 for i in range(j)]
    return sum(1 for x in product(range(q), repeat=j)
               if sum(s * v * v for s, v in zip(signs, x)) % q == 1)


class TestSphereCounts:
    @pytest.mark.parametrize("name", ORDER_TYPES)
    def test_matches_chevalley_order(self, name):
        for q in (3, 5, 7, 11, 13, 17):
            assert brute_force_order(T(name), q) == chevalley_order(T(name), q)

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_gl2_and_sl2_match_entry_enumeration(self, q):
        gl2, sl2 = invertible_by_entries(q, 2)
        assert brute_force_order(T("B2"), q) == gl2  # U(2), counted as GL(2)
        assert brute_force_order(T("G2"), q) == sl2 ** 2  # SU(2)xSU(2) as SL(2)^2

    def test_gl3_matches_entry_enumeration(self):
        assert brute_force_order(T("B3"), 3) == invertible_by_entries(3, 3)[0] == 11232

    @pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17])
    def test_matches_point_enumeration(self, q):
        longest = max(j for j in range(12) if q ** j <= 10 ** 5)
        assert sphere_counts(longest, q) == [sphere_by_points(j, q) for j in range(longest + 1)]

    # the longest sphere each family's dual reads: n for SO(n), 2n for U(n) and
    # SU(n), 4n for Sp(n); the cap counts the convolutions up to it
    @pytest.mark.parametrize("name, dual, longest", [
        ("A2", "SO(3)", 3), ("B3", "U(3)", 6), ("C3", "SO(3)xSO(4)", 4),
        ("D4", "SO(4)xSO(4)", 4), ("E6", "Sp(4)", 16), ("E7", "SU(8)", 16),
        ("E8", "SO(16)", 16), ("F4", "Sp(1)xSp(3)", 12), ("G2", "SU(2)xSU(2)", 4)])
    def test_first_prime_over_the_cap_refused_at_once(self, name, dual, longest):
        def work(q):
            return q + (longest - 2) * q * (q + 1) // 2

        q = next(q for q in range(3, 10 ** 4, 2)
                 if smallest_prime_factor(q) == q and work(q) > MAX_COUNT_WORK)
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match=re.escape(
                f"{dual} count over F_{q} needs {work(q)} products, over the cap")):
            brute_force_order(T(name), q)
        assert time.perf_counter() - start < 0.01


class TestPoincare:
    def test_pinned(self):
        assert poincare_polynomial_k(T("A2")).coeffs == (1, 0, 0, 1)       # 1 + x^3
        assert poincare_polynomial_k(T("G2")).coeffs == (1, 0, 0, 2, 0, 0, 1)
        assert poincare_polynomial_k(T("A1")).coeffs == (1, 1)             # 1 + x

    def test_total_betti_is_power_of_two(self):
        for name in ("A2", "A3", "B3", "C3", "D4", "G2"):
            total = sum(poincare_polynomial_k(T(name)).coeffs)
            assert total == 2 ** compact_dual_info(T(name)).g
