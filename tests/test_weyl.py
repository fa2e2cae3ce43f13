import hashlib
import math
import random
from collections import Counter
from itertools import product

import pytest

from conftest import (
    FINITE_TYPES,
    act_on_word,
    act_word,
    inverse,
    is_reduced,
    multiply,
    word_str,
)
from todalab.affine import AffineWeylGroup
from todalab.blowup_poly import CosetChain
from todalab.errors import CapExceededError
from todalab.rootdata import (
    LieType,
    cartan_matrix,
    extended_cartan,
    positive_roots,
    reflect_root,
    symmetrizer,
    weyl_degrees,
    weyl_order,
    weyl_order_log10,
)
from todalab.weyl import MAX_ELEMENTS, LabelTree, WeylGroup, check_order, pad_table

CLOSED_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720, "A6": 5040,
    "B2": 8, "B3": 48, "B4": 384, "B5": 3840,
    "C2": 8, "C3": 48, "C4": 384, "C5": 3840,
    "D3": 24, "D4": 192, "D5": 1920, "D6": 23040,
    "G2": 12, "F4": 1152, "E6": 51840,
}


# untwisted affine types for the numbers game on the extended Cartan matrix
AFFINE_TYPES = [f"A{l}(1)" for l in range(1, 21)] + ["B3(1)", "C2(1)", "D4(1)", "E6(1)",
                                                     "F4(1)", "G2(1)"]


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
    assert g.lengths[w0] == len(positive_roots(g.lie_type)) == max(g.lengths)
    assert g.lengths.count(g.lengths[w0]) == 1
    assert act_on_word(g, g.word(w0)) == w0


def test_longest_pinned(group):
    a1 = group("A1")
    assert a1.word(a1.longest_element()) == (0,)
    a2 = group("A2")
    w0 = a2.longest_element()
    assert a2.lengths[w0] == 3
    assert a2.all_reduced_words(w0) == {(0, 1, 0), (1, 0, 1)}
    a3 = group("A3")
    assert a3.lengths[a3.longest_element()] == 6


class TestReducedWords:
    def test_identity(self, group):
        a2 = group("A2")
        assert a2.word(0) == () and a2.lengths[0] == 0
        assert a2.all_reduced_words(0) == {()}

    def test_b2_longest(self, group):
        b2 = group("B2")
        assert b2.all_reduced_words(b2.longest_element()) == {(0, 1, 0, 1), (1, 0, 1, 0)}

    @pytest.mark.parametrize("name", ["A2", "A3", "B3", "G2"])
    def test_every_word_is_reduced_and_evaluates(self, name, group):
        g = group(name)
        for eid in range(len(g)):
            words = g.all_reduced_words(eid)
            assert g.word(eid) in words
            for w in words:
                assert len(w) == g.lengths[eid]
                assert act_on_word(g, w) == eid

    @pytest.mark.parametrize("name", ["A3", "B3", "G2"])
    def test_witness_words_are_reduced(self, name, group):
        g = group(name)
        assert all(is_reduced(g, g.word(eid)) for eid in range(len(g)))

    def test_affine_witness_words_are_reduced(self):
        g = AffineWeylGroup(LieType("A", 2, affine=True))
        g.extend_to(6)
        assert max(g.lengths) == 6
        assert all(is_reduced(g, g.word(eid)) for eid in range(len(g)))


class TestLabelTree:
    @pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
    def test_from_rho_matches_root_permutations(self, name, group):
        # the numbers game on Dynkin labels against the root-permutation model
        t = LieType.parse(name)
        tree = LabelTree(t, cartan_matrix(t), (1,) * t.rank)
        while tree.grow():
            pass
        assert Counter(tree.lengths) == Counter(group(name).lengths)

    @pytest.mark.parametrize("name", FINITE_TYPES + AFFINE_TYPES)
    def test_sparse_move_matches_dense_row(self, name):
        # w * s_i touches only the Cartan neighbours of i; the dense formula
        # m_j - m_i * C[i][j] over the whole row is the oracle, on every
        # leading block of a finite type and on the extended matrices
        t = LieType.parse(name)
        if t.affine:
            matrices = [extended_cartan(t)]
        else:
            C = cartan_matrix(t)
            matrices = [[row[:k] for row in C[:k]] for k in range(1, t.rank + 1)]
        rng = random.Random(name)
        for C in matrices:
            tree = LabelTree(t, C, (1,) * len(C))
            for _ in range(20):
                m = tuple(rng.randint(-9, 9) for _ in C)
                for i, row in enumerate(C):
                    assert tree._mul(m, i) == tuple(mj - m[i] * c for mj, c in zip(m, row))

    def test_fundamental_weight_stabilizer_is_skipped(self):
        # from omega_2 of A2, s_1 fixes the labels (0, 1) and is not taken
        t = LieType.parse("A2")
        tree = LabelTree(t, cartan_matrix(t), (0, 1))
        while tree.grow():
            pass
        assert tree.keys == [(0, 1), (1, -1), (-1, 0)]
        assert [tree.word(eid) for eid in range(3)] == [(), (1,), (1, 0)]


class TestGroupLaws:
    def test_involutions(self, group):
        g = group("B3")
        for i in range(3):
            s = act_on_word(g, (i,))
            assert g.lengths[multiply(g, s, s)] == 0

    def test_identity_neutral(self, group):
        g = group("A3")
        e = 0  # ids run in length order
        assert g.lengths[e] == 0 and act_on_word(g, ()) == e
        for w in range(len(g)):
            assert multiply(g, e, w) == w
            assert multiply(g, w, e) == w

    def test_pinned_product(self, group):
        g = group("A2")
        s1s2 = act_on_word(g, (0, 1))
        s1 = act_on_word(g, (0,))
        assert multiply(g, s1s2, s1) == g.longest_element()

    def test_inverse(self, group):
        g = group("B3")
        for w in range(0, len(g), 5):
            assert g.lengths[multiply(g, w, inverse(g, w))] == 0
            assert g.lengths[inverse(g, w)] == g.lengths[w]

    def test_associativity_sampled(self, group):
        import random

        g = group("B3")
        rng = random.Random(11)
        for _ in range(50):
            x, y, z = (rng.randrange(len(g)) for _ in range(3))
            assert multiply(g, multiply(g, x, y), z) == multiply(g, x, multiply(g, y, z))


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
            vid = g.index[t.translate(pad_table(p))[:g.generators]]
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

    @pytest.mark.parametrize("name", ["A1", "A3", "B3", "G2", "D4", "F4"])
    def test_reflection_tables_are_the_reflections(self, name, group):
        # one involution per positive root, T[w] = id(r_beta * w) for the
        # permutations of reflections()
        g = group(name)
        tables = list(g.reflection_tables())
        assert len(tables) == g.num_positive
        assert all(t[x] == w for t in tables for w, x in enumerate(t))
        want = {tuple(g.index[p[:g.generators].translate(r)] for p in g.perms)
                for r in g.reflections()}
        assert set(map(tuple, tables)) == want

    @pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "F4", "G2"])
    def test_reflection_tables_of_root_sets_are_left_products(self, name, group):
        # for all positive roots and for the roots whose reflection fixes a
        # sign (a set closed under its own reflections): each root yields one
        # table, T[w] = multiply(id(r_beta), w), and each table is an involution
        g = group(name)
        C = cartan_matrix(g.lie_type)
        rank = g.generators
        refl_ids = [g.index[r[:rank]] for r in g.reflections()]
        root_sets = [None] + [
            [k for k, r in enumerate(refl_ids) if act_word(C, g.word(r), eps) == eps]
            for eps in product((1, -1), repeat=rank)]
        for roots in root_sets:
            want = range(g.num_positive) if roots is None else roots
            tables = list(g.reflection_tables(roots))
            got = sorted(refl_ids.index(t[0]) for t in tables)  # T[e] = id(r_beta)
            assert got == sorted(want)
            for t in tables:
                assert t == [multiply(g, t[0], w) for w in range(len(g))]
                assert all(t[x] == w for w, x in enumerate(t))

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
        names = {(word_str(g.word(a)), word_str(g.word(b))) for a, b in g.bruhat_covers()}
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
        assert g.word_labels() == [word_str(g.word(e)) for e in range(len(g))]
        assert g.word_labels() is g.word_labels()

    def test_dotted_letters_on_partial_a10(self):
        # built as generate builds it, grown to length 3 (|W(A10)| is 11!)
        g = unexpanded_group("A10")
        for _ in range(3):
            assert g.grow()
        labels = g.word_labels()
        assert labels == [word_str(g.word(e)) for e in range(len(g))]
        assert {"9.10", "10.9", "10", "9", "123"} <= set(labels)
        for eid, label in enumerate(labels):
            assert ("." in label) == (max(g.word(eid), default=0) > 8 and g.lengths[eid] > 1)


# every FINITE_TYPES group no larger than W(E6)
UP_TO_E6 = [name for name in FINITE_TYPES
            if weyl_order(LieType.parse(name)) <= weyl_order(LieType.parse("E6"))]


def padded_bfs(name):
    """Reference generation over 256-byte padded root permutations, deduped
    and sorted by the whole table: (keys, lengths, parents, letters, simple)."""
    t = LieType.parse(name)
    C = cartan_matrix(t)
    pos = list(positive_roots(t))
    roots = pos + [tuple(-c for c in b) for b in pos]
    where = {b: i for i, b in enumerate(roots)}
    simple = [pad_table(bytes(where[reflect_root(C, b, i)] for b in roots))
              for i in range(t.rank)]
    keys, lengths, parents, letters = [pad_table(b"")], [0], [-1], [-1]
    top = 0
    while True:
        new = {}
        for eid in range(top, len(keys)):
            p = keys[eid]
            for i, s in enumerate(simple):
                if p[i] < len(pos):  # w(alpha_i) > 0: an ascent
                    new.setdefault(s.translate(p), (eid, i))
        if not new:
            return keys, lengths, parents, letters, simple
        top = len(keys)
        for q in sorted(new):
            par, i = new[q]
            keys.append(q)
            lengths.append(lengths[par] + 1)
            parents.append(par)
            letters.append(i)


@pytest.mark.parametrize("name", UP_TO_E6)
def test_prefix_index_matches_padded_bfs(name, group):
    # the images of the simple roots fix w and sort as the whole permutation
    g = group(name)
    keys, lengths, parents, letters, simple = padded_bfs(name)
    n, rank = len(g.roots), g.generators
    assert all(len(p) == n for p in g.perms)
    assert [pad_table(p) for p in g.perms] == keys
    assert (g.lengths, g.parents, g.letters) == (lengths, parents, letters)
    assert len({p[:rank] for p in g.perms}) == len(g)
    assert g.index == {p[:rank]: eid for eid, p in enumerate(g.perms)}
    # the group operations against their full-permutation definitions
    full = {p: eid for eid, p in enumerate(keys)}
    rng = random.Random(name)
    for a in rng.sample(range(len(g)), min(len(g), 500)):
        b = rng.randrange(len(g))
        assert multiply(g, a, b) == full[keys[b].translate(keys[a])]
        inv = bytes(sorted(range(256), key=keys[a].__getitem__))
        assert inverse(g, a) == full[inv]
        word = [rng.randrange(rank) for _ in range(rng.randrange(2 * g.num_positive))]
        p = keys[0]
        for i in word:
            p = simple[i].translate(p)
        assert act_on_word(g, word) == full[p]


def reference_grow(tree, cap=None) -> bool:
    """One level of the word tree, one (element, generator) product at a
    time through ``_table``, ``_descent``, ``_mul`` and ``_key``: the oracle
    for each tree's ``_expand``."""
    keys = tree.keys
    new = {}
    for eid in range(tree._top, len(keys)):
        t = tree._table(keys[eid])
        for i in range(tree.generators):
            if tree._descent(t, i):
                continue
            q = tree._mul(t, i)
            if q not in new:
                new[q] = (eid, i, t)
    if cap is not None and len(keys) + len(new) > cap:
        raise CapExceededError(f"{tree.lie_type}: group exceeds cap={cap} during generation")
    tree._top = len(keys)
    for q in sorted(new):
        par, i, t = new[q]
        tree.index[q] = len(keys)
        keys.append(tree._key(q, t, i))
        tree.lengths.append(tree.lengths[par] + 1)
        tree.parents.append(par)
        tree.letters.append(i)
    return bool(new)


def unexpanded_group(name):
    """W(name) before its first level, built as ``WeylGroup.generate`` builds it."""
    t = LieType.parse(name)
    C = cartan_matrix(t)
    pos = list(positive_roots(t))
    roots = pos + [tuple(-c for c in b) for b in pos]
    where = {b: i for i, b in enumerate(roots)}
    simple = [pad_table(bytes(where[reflect_root(C, b, i)] for b in roots))
              for i in range(t.rank)]
    return WeylGroup(t, tuple(roots), simple)


def tree_state(tree):
    return tree.keys, tree.index, tree.lengths, tree.parents, tree.letters


class TestExpandMatchesReference:
    @pytest.mark.parametrize("name", UP_TO_E6)
    def test_weyl_group(self, name, group):
        ref = unexpanded_group(name)
        while reference_grow(ref):
            pass
        assert tree_state(group(name)) == tree_state(ref)

    @pytest.mark.parametrize("name", FINITE_TYPES)
    def test_coset_chain_trees(self, name):
        t = LieType.parse(name)
        for k, tree in enumerate(CosetChain(t).steps):
            ref = LabelTree(t, tree.cartan, (0,) * k + (1,))
            while reference_grow(ref):
                pass
            assert tree_state(tree) == tree_state(ref)

    @pytest.mark.parametrize("name", [f"A{l}(1)" for l in range(1, 9)]
                             + ["B3(1)", "C2(1)", "G2(1)"])
    def test_affine_through_length_8(self, name):
        t = LieType.parse(name)
        ref = AffineWeylGroup(t)
        while ref.lengths[-1] < 8:
            reference_grow(ref)
        assert tree_state(AffineWeylGroup(t).extend_to(8)) == tree_state(ref)

    def test_cap_refused_during_generation(self):
        # past the up-front order check: the per-level backstop in grow
        g = unexpanded_group("A3")
        assert g.grow(cap=4) and len(g) == 4
        with pytest.raises(CapExceededError,
                           match=r"^A3: group exceeds cap=8 during generation$"):
            g.grow(cap=8)
        assert len(g) == 4  # the refused level is not appended


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

