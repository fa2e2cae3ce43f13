import hashlib
import math

import pytest

from todalab.errors import CapExceededError
from todalab.rootdata import (
    LieType,
    cartan_matrix,
    positive_roots,
    reflect_root,
    symmetrizer,
    weyl_degrees,
    weyl_order,
    weyl_order_log10,
)
from todalab.weyl import MAX_ELEMENTS, WeylGroup, check_order, pad_table

CLOSED_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720, "A6": 5040,
    "B2": 8, "B3": 48, "B4": 384, "B5": 3840,
    "C2": 8, "C3": 48, "C4": 384, "C5": 3840,
    "D3": 24, "D4": 192, "D5": 1920, "D6": 23040,
    "G2": 12, "F4": 1152, "E6": 51840,
}


def closed_order(name):
    s, l = name[0], int(name[1:])
    if s == "A":
        return math.factorial(l + 1)
    if s in ("B", "C"):
        return 2 ** l * math.factorial(l)
    if s == "D":
        return 2 ** (l - 1) * math.factorial(l)
    return {"G2": 12, "F4": 1152, "E6": 51840}[name]


@pytest.mark.parametrize("name", sorted(CLOSED_ORDERS))
def test_orders_match_closed_forms(name, group):
    g = group(name)
    assert len(g) == CLOSED_ORDERS[name] == closed_order(name)
    assert weyl_order(LieType.parse(name)) == len(g)
    assert math.prod(weyl_degrees(LieType.parse(name))) == len(g)


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "C3", "G2", "D4"])
def test_length_counts_inverted_positive_roots(name, group):
    # l(w) must equal the number of positive roots sent negative
    g = group(name)
    npos = g.num_positive
    for eid in range(len(g)):
        p = g.perms[eid]
        inverted = sum(1 for i in range(npos) if p[i] >= npos)
        assert inverted == g.lengths[eid]


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B3", "G2", "F4"])
def test_longest_element(name, group):
    g = group(name)
    w0 = g.longest_element()
    assert w0.length == len(positive_roots(g.lie_type))
    assert g.lengths.count(w0.length) == 1
    assert g.act_on_word(w0.word).perm == w0.perm


def test_longest_pinned(group):
    assert group("A1").longest_element().word == (0,)
    a2 = group("A2")
    w0 = a2.longest_element()
    assert w0.length == 3
    assert a2.all_reduced_words(w0) == {(0, 1, 0), (1, 0, 1)}
    assert group("A3").longest_element().length == 6


class TestReducedWords:
    def test_identity(self, group):
        assert group("A2").all_reduced_words(group("A2").identity()) == {()}

    def test_b2_longest(self, group):
        b2 = group("B2")
        assert b2.all_reduced_words(b2.longest_element()) == {(0, 1, 0, 1), (1, 0, 1, 0)}

    @pytest.mark.parametrize("name", ["A2", "A3", "B3", "G2"])
    def test_every_word_is_reduced_and_evaluates(self, name, group):
        g = group(name)
        for eid in range(len(g)):
            el = g.element(eid)
            words = g.all_reduced_words(eid)
            assert el.word in words
            for w in words:
                assert len(w) == el.length
                assert g.act_on_word(w).perm == el.perm


class TestGroupLaws:
    def test_involutions(self, group):
        g = group("B3")
        for i in range(3):
            s = g.act_on_word((i,))
            assert g.multiply(s, s).length == 0

    def test_identity_neutral(self, group):
        g = group("A3")
        e = g.identity()
        for eid in range(len(g)):
            w = g.element(eid)
            assert g.multiply(e, w) == w
            assert g.multiply(w, e) == w

    def test_pinned_product(self, group):
        g = group("A2")
        s1s2 = g.act_on_word((0, 1))
        s1 = g.act_on_word((0,))
        assert g.multiply(s1s2, s1) == g.longest_element()

    def test_inverse(self, group):
        g = group("B3")
        for eid in range(0, len(g), 5):
            w = g.element(eid)
            assert g.multiply(w, g.inverse(w)).length == 0
            assert g.inverse(w).length == w.length

    def test_associativity_sampled(self, group):
        import random

        g = group("B3")
        rng = random.Random(11)
        for _ in range(50):
            x, y, z = (g.element(rng.randrange(len(g))) for _ in range(3))
            assert g.multiply(g.multiply(x, y), z) == g.multiply(x, g.multiply(y, z))


def bruhat_leq_by_subwords(g, lo, hi):
    """Independent Bruhat-order oracle: some reduced word of hi contains a
    reduced word of lo as a subsequence."""
    lo_words = g.all_reduced_words(lo)
    hi_words = g.all_reduced_words(hi)

    def contains(big, small):
        it = iter(big)
        return all(ch in it for ch in small)

    return any(contains(b, s) for b in hi_words for s in lo_words)


def covers_by_translate(g):
    """Independent cover oracle, the definition before the id tables: look
    w * r_beta up by its permutation for every element and reflection."""
    covers = []
    for eid, p in enumerate(g.perms):
        for t in g.reflections():
            vid = g.index[t.translate(p)]
            if g.lengths[vid] == g.lengths[eid] + 1:
                covers.append((eid, vid))
    covers.sort()
    return covers


class TestBruhatCovers:
    @pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
    def test_covers_match_subword_oracle(self, name, group):
        g = group(name)
        got = set(g.bruhat_covers())
        want = set()
        for lo in range(len(g)):
            for hi in range(len(g)):
                if g.lengths[hi] == g.lengths[lo] + 1 and bruhat_leq_by_subwords(g, lo, hi):
                    want.add((lo, hi))
        assert got == want

    @pytest.mark.parametrize("name", ["B3", "C4", "D5", "F4"])
    def test_covers_match_translate_oracle(self, name, group):
        g = group(name)
        assert g.bruhat_covers() == covers_by_translate(g)

    def test_e6_pinned(self, group):
        # count and digest recorded from the translate-and-lookup loop
        covers = group("E6").bruhat_covers()
        assert len(covers) == 459588
        assert hashlib.sha256(str(covers).encode()).hexdigest() == (
            "70811fe4e91c3ce0c131a7e3ee14e7a27e7a95df971b7c6a26b263d0ac562036")

    @pytest.mark.parametrize("name", ["B3", "C3", "D4", "F4", "G2", "E6"])
    def test_reflections_match_symmetrized_form(self, name, group):
        # r_beta(gamma) = gamma - <gamma, beta^v> beta, with the form
        # (alpha_i, alpha_j) = d_j C[i][j] from the symmetrizer
        g = group(name)
        C = cartan_matrix(g.lie_type)
        d = symmetrizer(g.lie_type)
        l = len(C)

        def form(x, y):
            return sum(d[j] * C[i][j] * x[i] * y[j] for i in range(l) for j in range(l))

        where = {b: i for i, b in enumerate(g.roots)}
        refl = g.reflections()
        assert len(refl) == g.num_positive
        for k, beta in enumerate(g.roots[: g.num_positive]):
            bb = form(beta, beta)
            for gamma_id, gamma in enumerate(g.roots):
                pairing, rest = divmod(2 * form(gamma, beta), bb)
                assert rest == 0
                img = tuple(c - pairing * b for c, b in zip(gamma, beta))
                assert refl[k][gamma_id] == where[img]

    def test_pinned_a2(self, group):
        g = group("A2")
        names = {(str(g.element(a)), str(g.element(b))) for a, b in g.bruhat_covers()}
        assert names == {("e", "1"), ("e", "2"), ("1", "12"), ("1", "21"),
                         ("2", "12"), ("2", "21"), ("12", "121"), ("21", "121")}

    def test_pinned_a1(self, group):
        g = group("A1")
        assert g.bruhat_covers() == [(0, 1)]

    def test_graded(self, group):
        g = group("B3")
        for lo, hi in g.bruhat_covers():
            assert g.lengths[hi] == g.lengths[lo] + 1


class TestWordLabels:
    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3",
                                      "C4", "D4", "D5", "F4", "G2", "E6"])
    def test_match_element_str(self, name, group):
        g = group(name)
        assert g.word_labels() == [str(g.element(e)) for e in range(len(g))]
        assert g.word_labels() is g.word_labels()

    def test_dotted_letters_on_partial_a10(self):
        # built as generate builds it, grown to length 3 (|W(A10)| is 11!)
        t = LieType.parse("A10")
        C = cartan_matrix(t)
        pos = list(positive_roots(t).positive)
        roots = pos + [tuple(-c for c in b) for b in pos]
        where = {b: i for i, b in enumerate(roots)}
        simple = [pad_table(bytes(where[reflect_root(C, b, i)] for b in roots))
                  for i in range(t.rank)]
        g = WeylGroup(t, tuple(roots), simple)
        for _ in range(3):
            assert g.grow()
        labels = g.word_labels()
        assert labels == [str(g.element(e)) for e in range(len(g))]
        assert {"9.10", "10.9", "10", "9", "123"} <= set(labels)
        for eid, label in enumerate(labels):
            assert ("." in label) == (max(g.word(eid), default=0) > 8 and g.lengths[eid] > 1)


class TestCapsAndDeterminism:
    def test_e8_refused_by_default(self):
        with pytest.raises(CapExceededError):
            WeylGroup.generate(LieType.parse("E8"))

    def test_e7_needs_opt_in(self):
        with pytest.raises(CapExceededError):
            WeylGroup.generate(LieType.parse("E7"))

    def test_tiny_cap(self):
        with pytest.raises(CapExceededError):
            WeylGroup.generate(LieType.parse("A3"), cap=10)

    def test_order_log10_gives_the_digit_count(self):
        types = [LieType(s, l) for s, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                 for l in range(lo, 400)]
        types += [LieType.parse(name) for name in ("E6", "E7", "E8", "F4", "G2")]
        for t in types:
            assert int(weyl_order_log10(t)) == len(str(weyl_order(t))) - 1, t

    def test_huge_groups_refused_from_the_log_order(self):
        with pytest.raises(CapExceededError, match=r"above 10\^5565714 exceeds cap"):
            WeylGroup.generate(LieType("A", 10**6))
        # a cap above |W| still cannot build a root system of over 255 roots
        with pytest.raises(CapExceededError, match="byte keys"):
            WeylGroup.generate(LieType("A", 20), cap=10**30)

    def test_enumeration_ceiling_whatever_the_cap(self):
        # A9 (3,628,800) and D8 (5,160,960) are over the ceiling; E7 (2,903,040) is not
        assert weyl_order(LieType.parse("E7")) <= MAX_ELEMENTS < weyl_order(LieType.parse("A9"))
        for name in ("A9", "D8", "B11", "A14"):
            with pytest.raises(CapExceededError,
                               match=f"enumeration ceiling {MAX_ELEMENTS}$"):
                WeylGroup.generate(LieType.parse(name), cap=10**17)
        # the byte-key refusal comes first and keeps its text
        with pytest.raises(CapExceededError, match="byte keys"):
            WeylGroup.generate(LieType("A", 16), cap=10**17)

    def test_check_order_is_the_up_front_refusal(self):
        assert check_order(LieType.parse("E7"), 3_000_000) == 2_903_040
        with pytest.raises(CapExceededError,
                           match=r"^E7: group of order 2903040 exceeds cap=1000000$"):
            check_order(LieType.parse("E7"))
        with pytest.raises(CapExceededError, match=r"above 10\^5565714 exceeds cap"):
            check_order(LieType("A", 10**6))

    def test_regeneration_is_deterministic(self):
        a = WeylGroup.generate(LieType.parse("B3"))
        b = WeylGroup.generate(LieType.parse("B3"))
        assert a.perms == b.perms
        assert a.lengths == b.lengths
        assert a.parents == b.parents

