from collections import Counter
from fractions import Fraction

import pytest

from todalab.affine import (
    AffineWeylGroup,
    RationalFunction,
    TruncatedSeries,
    bott_counts,
    p_series,
    rational_guess,
)
from todalab.errors import (
    CapExceededError,
    InsufficientDataError,
    ValidationError,
)
from todalab.exact import UniPoly
from todalab.rootdata import LieType
from todalab.signflow import eta, reflect_sign


def A(l):
    return LieType("A", l, affine=True)


def counts_per_length(g, lmax):
    """Number of elements of each length 0..lmax already enumerated in g."""
    counts = Counter(g.lengths)
    return [counts[k] for k in range(lmax + 1)]


# -- independent A(1) oracle: affine permutations --------------------------
# An element of the affine Weyl group of A(1)_l is a bijection w of Z with
# w(i+n) = w(i)+n (n = l+1) and sum(w(1..n)) = sum(1..n); the window
# (w(1), ..., w(n)) determines it (Bjorner-Brenti 8.3).


def window_times_generator(window, k):
    """Window of w * s_k (generators k = 0..l)."""
    n = len(window)
    w = list(window)
    if k == 0:
        # s_0 swaps positions 0 <-> 1 modulo n-periodicity
        w[0], w[n - 1] = w[n - 1] - n, w[0] + n
    else:
        w[k - 1], w[k] = w[k], w[k - 1]
    return tuple(w)


def length_by_inversions(window) -> int:
    """Coxeter length from the affine inversion formula.

    l(w) = sum over 1 <= i < j <= n of |floor((w(j) - w(i)) / n)|.
    """
    n = len(window)
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += abs((window[j] - window[i]) // n)
    return total


def window_of_word(word, n):
    window = tuple(range(1, n + 1))
    for k in word:
        window = window_times_generator(window, k)
    return window


# Every untwisted type the enumeration is checked on, with its lmax.
UNTWISTED = [("A1", 12), ("A2", 10), ("A3", 9), ("A4", 8), ("B2", 10), ("B3", 8),
             ("B4", 7), ("C2", 10), ("C3", 8), ("C4", 7), ("D4", 7), ("D5", 6),
             ("E6", 6), ("F4", 7), ("G2", 12)]


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
        assert counts_per_length(aff1, 4) == [1, 2, 2, 2, 2]
        assert sum(n <= 4 for n in aff1.lengths) == 9
        assert counts_per_length(aff1, 0) == [1]

    def test_a2_linear_growth(self, aff2):
        # Bott: the affine A2 length generating series is (1+q+q^2)/(1-q)^2,
        # i.e. 3n elements of each positive length n
        assert counts_per_length(aff2, 6) == [1, 3, 6, 9, 12, 15, 18]

    def test_length_formula_is_bfs_depth(self):
        # replay each witness word through the window map: the inversion
        # length is the BFS depth and the label descents are the window ones
        for rank in (1, 2, 3, 4):
            g = AffineWeylGroup(A(rank)).extend_to(8)
            windows = set()
            for eid in range(len(g)):
                win = window_of_word(g.word(eid), g.generators)
                windows.add(win)
                assert length_by_inversions(win) == g.lengths[eid]
                for k in range(g.generators):
                    down = length_by_inversions(window_times_generator(win, k))
                    assert g._descent(g.keys[eid], k) == (down < g.lengths[eid])
            assert len(windows) == len(g)

    def test_words_are_reduced(self, aff2):
        for eid in range(0, len(aff2), 5):
            word = aff2.word(eid)
            assert len(word) == aff2.lengths[eid]
            assert aff2.key_of_word(word) == aff2.keys[eid]

    def test_group_relations(self, aff2):
        e = aff2.keys[0]
        for k in range(3):
            assert aff2.key_of_word((k, k)) == e
        for k in range(3):
            j = (k + 1) % 3
            assert aff2.key_of_word((k, j) * 3) == e

    def test_cap(self):
        with pytest.raises(CapExceededError):
            AffineWeylGroup(A(1)).extend_to(100)

    # ids: the rank for the A series, the type name otherwise
    @pytest.mark.parametrize("name, lmax", UNTWISTED,
                             ids=[n[1:] if n[0] == "A" else n for n, _ in UNTWISTED])
    def test_element_count_matches_enumeration(self, name, lmax):
        t = LieType.parse(name + "(1)")
        g = AffineWeylGroup(t).extend_to(lmax)
        for cut in range(lmax + 1):
            assert sum(bott_counts(t, cut)) == sum(counts_per_length(g, cut))
        assert len(set(g.keys)) == len(g)

    @pytest.mark.parametrize("name", ["A1", "A3", "B3", "C2", "G2"])
    def test_no_label_is_zero(self, name):
        # rho is regular, so the skip rule m_i <= 0 of weyl.LabelTree is the
        # strict descent test m_i < 0 on every affine key
        g = AffineWeylGroup(LieType.parse(name + "(1)")).extend_to(8)
        assert all(0 not in key for key in g.keys)

    def test_bott_counts_pinned(self):
        # G2(1): (1 + q)(1 + q + ... + q^5) / ((1 - q)(1 - q^5))
        assert bott_counts(LieType.parse("G2(1)"), 6) == [1, 3, 5, 7, 9, 12, 15]

    def test_element_cap_refuses_before_enumerating(self):
        g = AffineWeylGroup(A(20))  # 296,010 elements through length 6
        with pytest.raises(CapExceededError):
            g.extend_to(6)
        assert len(g) == 1

    def test_rank_cap_refuses_in_the_constructor(self):
        with pytest.raises(CapExceededError, match="affine rank 40 exceeds the cap 20"):
            AffineWeylGroup(A(40))

    def test_requires_affine_type(self):
        with pytest.raises(ValidationError):
            AffineWeylGroup(LieType.parse("A2"))


class TestAffineEta:
    def test_eta_equals_length_a1(self, aff1):
        for eid in range(len(aff1)):
            assert eta(aff1.cartan, aff1.word(eid), (-1, -1)) == aff1.lengths[eid]

    def test_identity(self, aff1):
        assert eta(aff1.cartan, (), (-1, -1)) == 0

    def test_word_independence_exhaustive_to_length_8(self, aff2):
        eps = (-1, -1, 1)
        for eid in range(len(aff2)):
            if aff2.lengths[eid] <= 8:
                vals = {eta(aff2.cartan, w, eps)
                        for w in aff2.all_reduced_words(eid)}
                assert len(vals) == 1

    @pytest.mark.parametrize("name", ["B2", "C2", "G2"])
    def test_word_independence_beyond_a(self, name):
        from itertools import product

        g = AffineWeylGroup(LieType.parse(name + "(1)")).extend_to(8)
        for eps in product((1, -1), repeat=g.generators):
            for eid in range(len(g)):
                vals = {eta(g.cartan, w, eps) for w in g.all_reduced_words(eid)}
                assert len(vals) == 1

    def test_verify_reduced(self, aff1):
        assert not aff1.is_reduced((0, 0))
        # the word rule is applied as given: s_0 flips no sign of A1(1)
        # (C[1][0] = -2), so both steps start at a minus and both count
        assert eta(aff1.cartan, (0, 0), (-1, -1)) == 2

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
        assert guess == RationalFunction(UniPoly([1, -1]), UniPoly([1, 1]))
        series = guess.series(8)
        assert series == [Fraction(c) for c in (1, -2, 2, -2, 2, -2, 2, -2, 2)]

    def test_constant_series(self):
        s = TruncatedSeries(A(1), (1, 1), 12, (1, 0, 0, 0, 0, 0, 0, 0),
                            (0,) * 8, 4)
        assert rational_guess(s) == RationalFunction(UniPoly([1]), UniPoly([1]))

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            rational_guess(p_series(A(1), (-1, -1), 6))

    def test_no_low_degree_fit(self):
        coeffs = (1, -2, 2, -2, 2, 17, 2, -2, 1)
        s = TruncatedSeries(A(1), (-1, -1), 40, coeffs, (0,) * len(coeffs), 4)
        assert rational_guess(s) is None

    def test_str(self):
        assert str(RationalFunction(UniPoly([1, -1]), UniPoly([1, 1]))) == "(-q + 1) / (q + 1)"

    def test_roundtrip_random_rational_functions(self):
        import random

        rng = random.Random(17)
        for _ in range(30):
            num = tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3)))
            den = (1,) + tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 2)))
            target = RationalFunction(UniPoly(num), UniPoly(den))
            coeffs = tuple(target.series(11))
            if any(c.denominator != 1 for c in coeffs):
                continue
            s = TruncatedSeries(A(1), (-1, -1), 40,
                                tuple(int(c) for c in coeffs),
                                (0,) * len(coeffs), 4)
            got = rational_guess(s)
            assert got is not None
            assert got.series(11) == list(coeffs)
