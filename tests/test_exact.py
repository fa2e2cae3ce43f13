from fractions import Fraction

import pytest

from todalab.affine import RationalFunction, bott_counts, p_series, rational_guess
from todalab.errors import ValidationError
from todalab.exact import UniPoly, inverse
from todalab.rootdata import LieType, weyl_degrees

UNTWISTED = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
             + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
             + ["E6", "E7", "E8", "F4", "G2"])


def three_loop_bott(finite: LieType, lmax: int) -> list[int]:
    """prod (1 - q^d) / ((1 - q)(1 - q^(d-1))) by in-place recurrences."""
    c = [1] + [0] * lmax
    for d in weyl_degrees(finite):
        for k in range(lmax, d - 1, -1):  # * (1 - q^d)
            c[k] -= c[k - d]
        for k in range(1, lmax + 1):      # / (1 - q)
            c[k] += c[k - 1]
        for k in range(d - 1, lmax + 1):  # / (1 - q^(d-1))
            c[k] += c[k - d + 1]
    return c


class TestSeriesQuotient:
    def test_unit_constant_term_keeps_ints(self):
        got = UniPoly([1]).series_quotient(UniPoly([1, -1]), 5)  # 1 / (1 - q)
        assert got == [1] * 6
        assert all(type(c) is int for c in got)

    def test_minus_one_constant_term_keeps_ints(self):
        got = UniPoly([1, 1]).series_quotient(UniPoly([-1, 1]), 4)  # (1 + q) / (q - 1)
        assert got == [-1, -2, -2, -2, -2]
        assert all(type(c) is int for c in got)

    def test_other_constant_term_gives_fractions(self):
        got = UniPoly([1]).series_quotient(UniPoly([2, -1]), 3)  # 1 / (2 - q)
        assert got == [Fraction(1, 2 ** (k + 1)) for k in range(4)]
        assert all(type(c) is Fraction for c in got)

    def test_order_zero(self):
        assert UniPoly([3, 5]).series_quotient(UniPoly([1, 7]), 0) == [3]
        assert UniPoly().series_quotient(UniPoly([1]), 0) == [0]

    def test_times_den_gives_num_back(self):
        num, den = UniPoly([2, -1, 4]), UniPoly([1, 3, 0, -2])
        series = UniPoly(num.series_quotient(den, 9))
        assert list((series * den).coeffs[:10]) == [2, -1, 4] + [0] * 7


class TestInverse:
    def test_inverse(self):
        assert inverse([[2, 1], [1, 1]]) == ((1, -1), (-1, 2))
        assert inverse([]) == ()

    def test_singular_refused(self):
        with pytest.raises(ValidationError, match="singular"):
            inverse([[1, 2], [2, 4]])


class TestStr:
    def test_format(self):
        assert str(UniPoly([1, -1, 0, 2])) == "2*q^3 - q + 1"
        assert str(UniPoly([0, 0, -1])) == "-q^2"
        assert str(UniPoly()) == "0"

    def test_zero_rational_function(self):
        assert str(RationalFunction(UniPoly([0]), UniPoly([1]))) == "(0) / (1)"


@pytest.mark.parametrize("name", UNTWISTED)
def test_bott_counts_match_the_recurrence(name):
    finite = LieType.parse(name)
    affine = LieType(finite.series, finite.rank, affine=True)
    for lmax in (0, 40):
        assert bott_counts(affine, lmax) == three_loop_bott(finite, lmax)


def test_a3_all_minus_guess():
    t = LieType.parse("A3(1)")
    guess = rational_guess(p_series(t, (-1,) * 4, 20))
    assert str(guess) == "(-q^2 + 1) / (q^2 + 1)"
    assert guess.series(7) == [1, 0, -2, 0, 2, 0, -2, 0]
