from fractions import Fraction

import pytest

from todalab.affine import (
    AffineWeylGroup,
    RationalFunction,
    TruncatedSeries,
    element_count,
    length_by_inversions,
    p_series,
    rational_guess,
)
from todalab.errors import (
    CapExceededError,
    InsufficientDataError,
    NonReducedWordError,
    ValidationError,
)
from todalab.rootdata import LieType
from todalab.signflow import eta, reflect_sign


def A(l):
    return LieType("A", l, affine=True)


@pytest.fixture(scope="module")
def aff1():
    g = AffineWeylGroup(A(1))
    g.extend_to(12)
    return g


@pytest.fixture(scope="module")
def aff2():
    g = AffineWeylGroup(A(2))
    g.extend_to(8)
    return g


class TestEnumeration:
    def test_a1_counts(self, aff1):
        assert aff1.count_per_length(4) == [1, 2, 2, 2, 2]
        assert len(aff1.elements_by_length(4)) == 9
        assert aff1.count_per_length(0) == [1]

    def test_a2_linear_growth(self, aff2):
        # Bott: the affine A2 length generating series is (1+q+q^2)/(1-q)^2,
        # i.e. 3n elements of each positive length n
        assert aff2.count_per_length(6) == [1, 3, 6, 9, 12, 15, 18]

    def test_length_formula_is_bfs_depth(self, aff2):
        for eid in range(len(aff2.windows)):
            win = aff2.windows[eid]
            assert length_by_inversions(win) == aff2.lengths[eid]
            for k in range(aff2.n):
                down = length_by_inversions(aff2._mul(win, k))
                assert aff2._descent(win, k) == (down < aff2.lengths[eid])

    def test_decomposition_roundtrip(self, aff2):
        n = aff2.n
        for eid in range(0, len(aff2.windows), 7):
            el = aff2.element(eid)
            assert sum(el.translation) == 0
            rebuilt = tuple(p + n * t for p, t in zip(el.perm, el.translation))
            assert rebuilt == el.window

    def test_words_are_reduced(self, aff2):
        for eid in range(0, len(aff2.windows), 5):
            el = aff2.element(eid)
            assert len(el.word) == el.length
            assert aff2.evaluate_word(el.word) == el.window

    def test_group_relations(self, aff2):
        e = aff2.windows[0]
        for k in range(3):
            assert aff2.evaluate_word((k, k)) == e
        for k in range(3):
            j = (k + 1) % 3
            assert aff2.evaluate_word((k, j) * 3) == e

    def test_cap(self):
        with pytest.raises(CapExceededError):
            AffineWeylGroup(A(1)).extend_to(100)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_element_count_matches_enumeration(self, rank):
        g = AffineWeylGroup(A(rank))
        for lmax in range(8):
            assert element_count(rank, lmax) == sum(g.count_per_length(lmax))

    def test_element_cap_refuses_before_enumerating(self):
        g = AffineWeylGroup(A(40))
        with pytest.raises(CapExceededError):
            g.extend_to(5)
        assert len(g.windows) == 1

    def test_requires_affine_type(self):
        with pytest.raises(ValidationError):
            AffineWeylGroup(LieType.parse("A2"))


class TestAffineEta:
    def test_eta_equals_length_a1(self, aff1):
        for eid in range(len(aff1.windows)):
            el = aff1.element(eid)
            assert eta(aff1.cartan, el, (-1, -1)) == el.length

    def test_identity(self, aff1):
        assert eta(aff1.cartan, (), (-1, -1)) == 0

    def test_word_independence_exhaustive_to_length_8(self, aff2):
        eps = (-1, -1, 1)
        for eid in range(len(aff2.windows)):
            if aff2.lengths[eid] <= 8:
                vals = {eta(aff2.cartan, w, eps)
                        for w in aff2.all_reduced_words(eid)}
                assert len(vals) == 1

    def test_verify_reduced(self, aff1):
        with pytest.raises(NonReducedWordError):
            eta(aff1.cartan, (0, 0), (-1, -1), group=aff1, verify_reduced=True)

    def test_sign_braid_relations(self, aff2):
        C = aff2.cartan
        from itertools import product

        for eps in product((1, -1), repeat=3):
            for k in range(3):
                assert reflect_sign(C, k, reflect_sign(C, k, eps)) == eps
                j = (k + 1) % 3
                cur = tuple(eps)
                for step in range(6):
                    cur = reflect_sign(C, (k, j)[step % 2], cur)
                assert cur == eps


class TestSeries:
    def test_a1_partial_sum(self):
        s = p_series(A(1), (-1, -1), 6)
        assert s.coeffs == (1, -2, 2, -2, 2, -2, 2)

    def test_lmax_zero(self):
        s = p_series(A(1), (-1, -1), 0)
        assert s.coeffs == (1,)

    def test_stability_marks(self, aff1):
        s = p_series(A(1), (-1, -1), 12, group=aff1)
        flags = s.stable()
        assert all(flags[: 12 - s.buffer + 1])
        assert not any(flags[12 - s.buffer + 1:])
        assert s.stable_coeffs() == [1, -2, 2, -2, 2, -2, 2, -2, 2]

    def test_a2_admissible_sign_vanishes_on_stable_range(self, aff2):
        s = p_series(A(2), (-1, -1, 1), 8, group=aff2)
        assert all(c == 0 for c in s.stable_coeffs())

    def test_sign_length_validated(self):
        with pytest.raises(ValidationError):
            p_series(A(1), (-1, -1, -1), 4)


class TestRationalGuess:
    def test_recovers_geometric_alternation(self, aff1):
        guess = rational_guess(p_series(A(1), (-1, -1), 12, group=aff1))
        assert guess == RationalFunction((1, -1), (1, 1))
        series = guess.series(8)
        assert series == [Fraction(c) for c in (1, -2, 2, -2, 2, -2, 2, -2, 2)]

    def test_constant_series(self):
        s = TruncatedSeries(A(1), (1, 1), 12, (1, 0, 0, 0, 0, 0, 0, 0),
                            (0,) * 8, 4)
        assert rational_guess(s) == RationalFunction((1,), (1,))

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            rational_guess(p_series(A(1), (-1, -1), 6))

    def test_no_low_degree_fit(self):
        coeffs = (1, -2, 2, -2, 2, 17, 2, -2, 1)
        s = TruncatedSeries(A(1), (-1, -1), 40, coeffs, (0,) * len(coeffs), 4)
        assert rational_guess(s) is None

    def test_str(self):
        assert str(RationalFunction((1, -1), (1, 1))) == "(-q + 1) / (q + 1)"

    def test_roundtrip_random_rational_functions(self):
        import random

        rng = random.Random(17)
        for _ in range(30):
            num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3)))
            den = (1,) + tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 2)))
            target = RationalFunction(num, den)
            coeffs = tuple(target.series(11))
            if any(c.denominator != 1 for c in coeffs):
                continue
            s = TruncatedSeries(A(1), (-1, -1), 40,
                                tuple(int(c) for c in coeffs),
                                (0,) * len(coeffs), 4)
            got = rational_guess(s)
            assert got is not None
            assert got.series(11) == list(coeffs)
