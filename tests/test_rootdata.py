import math
from fractions import Fraction

import pytest

from todalab.errors import UnsupportedTypeError, ValidationError
from todalab.exact import inverse as _invert_exact
from todalab.rootdata import (
    LieType,
    cartan_matrix,
    compact_dual_info,
    conventions_table,
    extended_cartan,
    langlands_dual,
    positive_roots,
    symmetrizer,
    tau_multiplicities,
    two_rho_height,
    weyl_degrees,
)

ALL_SMALL = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5", "B6",
             "C2", "C3", "C4", "C5", "C6", "D3", "D4", "D5", "D6",
             "E6", "F4", "G2"]
# every finite type up to rank 24 in A, 19 in B, C and D
SWEEP = ([f"A{l}" for l in range(1, 25)] + [f"{s}{l}" for s in "BC" for l in range(2, 20)]
         + [f"D{l}" for l in range(3, 20)] + ["E6", "E7", "E8", "F4", "G2"])


def root_sums(t):
    """n_k, the k-th coefficient of 2 rho, the sum of the positive roots: the
    k-th column sum of ``positive_roots``."""
    return tuple(map(sum, zip(*positive_roots(t))))


def T(name):
    return LieType.parse(name)


def affine_marks(t):
    """The comarks: the null vector m of the extended Cartan matrix (C m = 0)
    with m_0 = 1, i.e. the coordinates of theta^vee in the simple coroots."""
    finite = LieType(t.series, t.rank)
    d, theta = symmetrizer(finite), positive_roots(finite)[-1]
    return (1,) + tuple(th * dj // max(d) for th, dj in zip(theta, d))


class TestLieType:
    def test_parse_roundtrip(self):
        for name in ALL_SMALL:
            assert str(T(name)) == name
        assert str(LieType.parse("a2(1)")) == "A2(1)"
        assert LieType.parse("A1~").affine

    @pytest.mark.parametrize("bad", ["D2", "E5", "E9", "F3", "F5", "G3", "G1", "A0", "H3", "B1"])
    def test_rank_bounds(self, bad):
        with pytest.raises(ValidationError):
            LieType.parse(bad)

    def test_affine_any_untwisted_type(self):
        assert str(LieType("B", 3, affine=True)) == "B3(1)"
        assert LieType.parse("g2(1)") == LieType("G", 2, affine=True)
        with pytest.raises(ValidationError):
            LieType.parse("E9(1)")

    def test_parse_garbage(self):
        for text in ["", "B", "Bx", "3B"]:
            with pytest.raises(ValidationError):
                LieType.parse(text)


class TestCartan:
    def test_rank2_displays(self):
        assert cartan_matrix(T("B2")) == ((2, -2), (-1, 2))
        assert cartan_matrix(T("C2")) == ((2, -1), (-2, 2))
        assert cartan_matrix(T("G2")) == ((2, -1), (-3, 2))
        assert cartan_matrix(T("A1")) == ((2,),)

    def test_shape_invariants(self):
        for name in ALL_SMALL:
            C = cartan_matrix(T(name))
            n = len(C)
            for i in range(n):
                assert C[i][i] == 2
                for j in range(n):
                    if i != j:
                        assert C[i][j] in (0, -1, -2, -3)
                        assert (C[i][j] == 0) == (C[j][i] == 0)

    def test_affine_input_rejected(self):
        with pytest.raises(UnsupportedTypeError):
            cartan_matrix(LieType("A", 2, affine=True))

    def test_extended_a1(self):
        t = LieType("A", 1, affine=True)
        assert extended_cartan(t) == ((2, -2), (-2, 2))

    def test_extended_a2_cyclic(self):
        t = LieType("A", 2, affine=True)
        C = extended_cartan(t)
        assert C == ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))

    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_extended_null_vector(self, l):
        t = LieType("A", l, affine=True)
        C = extended_cartan(t)
        marks = affine_marks(t)
        for row in C:
            assert sum(c * m for c, m in zip(row, marks)) == 0

    @pytest.mark.parametrize("name, dual_coxeter", [
        ("A1", 2), ("A2", 3), ("A3", 4), ("A4", 5), ("B2", 3), ("B3", 5), ("B4", 7),
        ("C2", 3), ("C3", 4), ("C4", 5), ("D4", 6), ("D5", 8), ("E6", 12), ("E7", 18),
        ("E8", 30), ("F4", 9), ("G2", 4)])
    def test_extended_every_untwisted_type(self, name, dual_coxeter):
        t = LieType.parse(name + "(1)")
        C = extended_cartan(t)
        # the finite Cartan matrix is the lower-right block; the whole is singular
        assert tuple(row[1:] for row in C[1:]) == cartan_matrix(T(name))
        with pytest.raises(ValidationError, match="singular"):
            _invert_exact(C)
        for i in range(len(C)):
            assert C[i][i] == 2
            for j in range(len(C)):
                if i != j:
                    assert C[i][j] <= 0 and (C[i][j] == 0) == (C[j][i] == 0)
        # theta has height h - 1, h the Coxeter number (the largest degree)
        theta = positive_roots(T(name))[-1]
        assert 1 + sum(theta) == max(weyl_degrees(T(name)))
        # comarks: C m = 0, m_0 = 1, summing to the dual Coxeter number
        marks = affine_marks(t)
        assert marks[0] == 1 and all(m > 0 for m in marks)
        for row in C:
            assert sum(c * m for c, m in zip(row, marks)) == 0
        assert sum(marks) == dual_coxeter

    def test_extended_rejects_finite(self):
        with pytest.raises(UnsupportedTypeError):
            extended_cartan(T("A2"))


class TestDuality:
    def test_series_swap(self):
        assert langlands_dual(T("B3")) == T("C3")
        assert langlands_dual(T("C2")) == T("B2")
        assert langlands_dual(T("A4")) == T("A4")
        assert langlands_dual(T("D4")) == T("D4")
        assert langlands_dual(T("G2")) == T("G2")

    def test_bc_transpose(self):
        for l in (2, 3, 4, 5):
            C = cartan_matrix(LieType("B", l))
            Cd = cartan_matrix(langlands_dual(LieType("B", l)))
            assert Cd == tuple(tuple(C[j][i] for j in range(l)) for i in range(l))

    def test_g2_f4_transpose_is_node_reversal(self):
        for name in ("G2", "F4"):
            C = cartan_matrix(T(name))
            n = len(C)
            rev_t = tuple(
                tuple(C[n - 1 - j][n - 1 - i] for j in range(n)) for i in range(n)
            )
            assert rev_t == C


class TestInverseAndMultiplicities:
    @pytest.mark.parametrize("name", SWEEP)
    def test_inverse_exact(self, name):
        # oracle: nu_k and n_k are twice the k-th row and column sums of the
        # exact inverse Cartan matrix
        inv = _invert_exact(cartan_matrix(T(name)))
        assert tau_multiplicities(T(name)) == tuple(2 * sum(row) for row in inv)
        assert root_sums(T(name)) == tuple(2 * sum(col) for col in zip(*inv))

    def test_pinned_nu(self):
        assert tau_multiplicities(T("A2")) == (2, 2)
        assert tau_multiplicities(T("B2")) == (4, 3)
        assert tau_multiplicities(T("G2")) == (6, 10)

    def test_pinned_n(self):
        assert root_sums(T("A2")) == (2, 2)
        assert root_sums(T("B2")) == (3, 4)
        assert root_sums(T("G2")) == (10, 6)

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                      "C2", "C3", "C4", "D3", "D4", "F4", "G2"])
    def test_transpose_identity(self, name):
        # n_k computed from C must be nu_k computed from the transpose
        C = cartan_matrix(T(name))
        n = len(C)
        inv_t = _invert_exact([[C[j][i] for j in range(n)] for i in range(n)])
        nu_of_transpose = tuple(int(2 * sum(row, Fraction(0))) for row in inv_t)
        assert root_sums(T(name)) == nu_of_transpose

    def test_two_rho_pinned(self):
        assert two_rho_height(T("A2")) == 4
        assert two_rho_height(T("B2")) == 7
        assert two_rho_height(T("G2")) == 16

    @pytest.mark.parametrize("name", ALL_SMALL)
    def test_two_rho_consistency(self, name):
        t = T(name)
        assert two_rho_height(t) == sum(tau_multiplicities(t)) == sum(root_sums(t))

    @pytest.mark.parametrize("name", SWEEP)
    def test_symmetrizer(self, name):
        C = cartan_matrix(T(name))
        d = symmetrizer(T(name))
        n = len(C)
        for i in range(n):
            for j in range(n):
                assert d[j] * C[i][j] == d[i] * C[j][i]
        assert all(x > 0 for x in d)
        assert math.gcd(*d) == 1


class TestCompactDual:
    def test_pinned_entries(self):
        a2 = compact_dual_info(T("A2"))
        assert (a2.name, a2.dim, a2.g, a2.degrees) == ("SO(3)", 3, 1, (2,))
        b3 = compact_dual_info(T("B3"))
        assert (b3.name, b3.dim, b3.g, b3.degrees) == ("U(3)", 9, 3, (1, 2, 3))
        g2 = compact_dual_info(T("G2"))
        assert (g2.name, g2.dim, g2.g, g2.degrees) == ("SU(2)xSU(2)", 6, 2, (2, 2))
        assert b3.r == 3
        assert compact_dual_info(T("A1")).r == 0

    def test_exceptional_degree_sums(self):
        assert sum(compact_dual_info(LieType("E", 6)).degrees) == 20
        assert sum(compact_dual_info(LieType("E", 7)).degrees) == 35
        assert sum(compact_dual_info(LieType("E", 8)).degrees) == 64
        assert sum(compact_dual_info(T("F4")).degrees) == 14

    @pytest.mark.parametrize("name", ALL_SMALL + ["E7", "E8"])
    def test_borel_dimension_identity(self, name):
        info = compact_dual_info(T(name))
        assert info.r >= 0
        assert (info.dim + info.g) % 2 == 0
        assert (info.dim + info.g) // 2 == sum(info.degrees)

    @pytest.mark.parametrize("name", ALL_SMALL + ["E7", "E8"])
    def test_total_blowup_closed_forms(self, name):
        # sum of the invariant degrees against the per-series closed forms
        t = T(name)
        l = t.rank
        if t.series == "A":
            want = l * (l + 2) // 4 if l % 2 == 0 else (l + 1) ** 2 // 4
        elif t.series in ("B", "C"):
            want = l * (l + 1) // 2
        elif t.series == "D":
            want = l * l // 2 if l % 2 == 0 else (l * l - 1) // 2
        elif t.series == "E":
            want = {6: 20, 7: 35, 8: 64}[l]
        elif t.series == "F":
            want = 14
        else:
            want = 4
        assert sum(compact_dual_info(t).degrees) == want


class TestRoots:
    @pytest.mark.parametrize("name,count", [
        ("A1", 1), ("A2", 3), ("A3", 6), ("B2", 4), ("B3", 9), ("C3", 9),
        ("D4", 12), ("G2", 6), ("F4", 24), ("E6", 36)])
    def test_counts(self, name, count):
        assert len(positive_roots(T(name))) == count

    def test_simples_lead_in_node_order(self):
        assert positive_roots(T("B3"))[:3] == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_closure(self):
        # reflecting any positive root lands on another root
        t = T("G2")
        C = cartan_matrix(t)
        pos = positive_roots(t)
        allroots = set(pos) | {tuple(-c for c in b) for b in pos}
        for beta in pos:
            for i in range(2):
                coeff = sum(beta[j] * C[j][i] for j in range(2))
                img = list(beta)
                img[i] -= coeff
                assert tuple(img) in allroots


def test_conventions_table_is_jsonable():
    import json

    doc = conventions_table()
    text = json.dumps(doc, sort_keys=True)
    assert "B2" in doc["types"]
    assert doc["types"]["B2"]["cartan"] == [[2, -2], [-1, 2]]
    assert json.loads(text) == doc
