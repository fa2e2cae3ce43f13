from itertools import product

import pytest

from conftest import FINITE_TYPES
from todalab.blowup_poly import CosetChain
from todalab.errors import ValidationError
from todalab.rootdata import LieType, cartan_matrix, compact_dual_info
from todalab.signflow import (
    act_word,
    all_minus,
    eta,
    eta_table,
    format_signs,
    parse_signs,
    propagate,
    reflect_sign,
    reflect_sign_by_exponent,
)

A2 = cartan_matrix(LieType.parse("A2"))
B2 = cartan_matrix(LieType.parse("B2"))
G2 = cartan_matrix(LieType.parse("G2"))


def signs(rank):
    return [tuple(e) for e in product((1, -1), repeat=rank)]


class TestParsing:
    def test_roundtrip(self):
        assert parse_signs("--+") == (-1, -1, 1)
        assert format_signs((-1, -1, 1)) == "--+"
        assert parse_signs(" -- ") == (-1, -1)

    def test_bad_characters(self):
        with pytest.raises(ValidationError):
            parse_signs("-0-")
        with pytest.raises(ValidationError):
            parse_signs("")


class TestReflect:
    def test_pinned_a2(self):
        assert reflect_sign(A2, 0, (-1, -1)) == (-1, 1)   # s1(--) = (-+)
        assert reflect_sign(A2, 1, (-1, 1)) == (-1, 1)    # s2(-+) = (-+)
        assert reflect_sign(A2, 0, (-1, 1)) == (-1, -1)   # s1(-+) = (--)

    def test_all_plus_fixed(self):
        for C in (A2, B2, G2):
            for i in range(2):
                assert reflect_sign(C, i, (1, 1)) == (1, 1)

    def test_even_entry_no_flip(self):
        # B2: C[0][1] = -2, so s2 never flips eps_1
        assert reflect_sign(B2, 1, (-1, -1)) == (-1, -1)
        assert reflect_sign(B2, 0, (-1, -1)) == (-1, 1)

    def test_errors(self):
        with pytest.raises(IndexError):
            reflect_sign(A2, 2, (-1, -1))
        with pytest.raises(ValidationError):
            reflect_sign(A2, 0, (-1, -1, -1))

    @pytest.mark.parametrize("name", ["A2", "A3", "A4", "B2", "B3", "B4",
                                      "C3", "C4", "D4", "F4", "G2"])
    def test_parity_shortcut_equals_exponent_rule(self, name):
        C = cartan_matrix(LieType.parse(name))
        for eps in signs(len(C)):
            for i in range(len(C)):
                assert reflect_sign(C, i, eps) == reflect_sign_by_exponent(C, i, eps)

    @pytest.mark.parametrize("name", ["A3", "B3", "C4", "D4", "F4", "G2"])
    def test_involution_and_braid(self, name):
        C = cartan_matrix(LieType.parse(name))
        l = len(C)
        for eps in signs(l):
            for i in range(l):
                assert reflect_sign(C, i, reflect_sign(C, i, eps)) == eps
            for i in range(l):
                for j in range(i + 1, l):
                    m = {0: 2, 1: 3, 2: 4, 3: 6}[C[i][j] * C[j][i]]
                    cur = eps
                    for step in range(2 * m):
                        cur = reflect_sign(C, (i, j)[step % 2], cur)
                    assert cur == eps


class TestActWord:
    def test_pinned(self):
        assert act_word(A2, (0, 1), (-1, -1)) == (-1, 1)
        assert act_word(A2, (), (-1, -1)) == (-1, -1)
        assert act_word(A2, (0, 0), (-1, 1)) == (-1, 1)

    def test_matches_step_by_step(self):
        cur = (-1, -1)
        for i in (1, 0, 1, 0):
            cur = reflect_sign(G2, i, cur)
        assert act_word(G2, (1, 0, 1, 0), (-1, -1)) == cur


class TestEta:
    def test_pinned_values(self):
        assert eta(A2, (0,), (-1, -1)) == 1
        assert eta(A2, (0, 1), (-1, -1)) == 1
        assert eta(A2, (0, 1, 0), (-1, -1)) == 2
        assert eta(G2, (0, 1, 0, 1, 0, 1), (-1, -1)) == 4
        assert eta(A2, (), (-1, -1)) == 0

    def test_element_uses_witness_word(self, group):
        g = group("A2")
        assert eta(A2, g.word(g.longest_element()), (-1, -1)) == 2

    def test_verify_reduced(self, group):
        g = group("A2")
        assert not g.is_reduced((0, 0))
        # without verification the word rule is applied as given:
        # both s1 steps start at a minus, so both count
        assert eta(A2, (0, 0), (-1, -1)) == 2

    def test_a1_tables(self, group):
        g = group("A1")
        assert list(eta_table(g, (-1,)).values) == [0, 1]
        assert list(eta_table(g, (1,)).values) == [0, 0]

    def test_pinned_tables(self, group):
        assert list(eta_table(group("A2"), (-1, -1)).values) == [0, 1, 1, 1, 1, 2]
        assert list(eta_table(group("G2"), (-1, -1)).values) == \
            [0, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 4]

    def test_table_matches_word_replay(self, group):
        for name in ("A3", "B3", "G2"):
            g = group(name)
            C = cartan_matrix(g.lie_type)
            for eps in signs(g.lie_type.rank):
                table = eta_table(g, eps)
                for eid in range(len(g)):
                    word = g.word(eid)
                    assert table.values[eid] == eta(C, word, eps)
                    assert table.transported[eid] == act_word(C, word, eps)

    @pytest.mark.parametrize("name", FINITE_TYPES)
    def test_propagate_matches_reflect_sign_replay(self, name):
        # the coset-chain trees, node by node: each child is its parent's
        # sign under reflect_sign, one blow-up more when the letter sits at a minus
        t = LieType.parse(name)
        C = cartan_matrix(t)
        for tree in CosetChain(t).steps:
            for eps in signs(t.rank):
                values, transported = propagate(C, tree.parents, tree.letters, eps)
                assert values[0] == 0 and transported[0] == eps
                for eid in range(1, len(tree)):
                    par, i = tree.parents[eid], tree.letters[eid]
                    sig = transported[par]
                    assert transported[eid] == reflect_sign(C, i, sig)
                    assert values[eid] == values[par] + (sig[i] < 0)

    def test_bounds_and_increments(self, group):
        g = group("B3")
        C = cartan_matrix(g.lie_type)
        for eps in signs(3):
            table = eta_table(g, eps)
            for eid in range(len(g)):
                assert 0 <= table.values[eid] <= g.lengths[eid]
                if eid:
                    par = g.parents[eid]
                    assert table.values[eid] - table.values[par] in (0, 1)

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3",
                                      "B4", "B5", "C2", "C3", "C4", "C5",
                                      "D3", "D4", "D5", "G2", "F4", "E6"])
    def test_max_blowups_equals_degree_sum(self, name, group):
        t = LieType.parse(name)
        g = group(name)
        table = eta_table(g, all_minus(t.rank))
        w0 = g.longest_element()
        assert table.values[w0] == table.max_value()
        assert table.values[w0] == sum(compact_dual_info(t).degrees)

    def test_length_mismatch_rejected(self, group):
        with pytest.raises(ValidationError):
            eta_table(group("A2"), (-1, -1, -1))

    def test_as_rows(self, group):
        rows = list(eta_table(group("A1"), (-1,)).as_rows())
        assert rows == [
            {"word": "e", "length": 0, "eta": 0, "sign": "-"},
            {"word": "1", "length": 1, "eta": 1, "sign": "-"},
        ]
