from functools import reduce

import pytest

from todalab.rootdata import LieType
from todalab.signflow import reflect_sign
from todalab.weyl import WeylGroup

# every finite type of rank 1-8
FINITE_TYPES = ([f"{s}{l}" for s, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
                 for l in range(lo, 9)] + ["E6", "E7", "E8", "F4", "G2"])


def word_str(word) -> str:
    """Test oracle for a word label, 1-based letters: "e", "121", or dotted
    ("1.10") once any letter is above 9."""
    if not word:
        return "e"
    if max(word) > 8:  # two-digit letters need a separator
        return ".".join(str(i + 1) for i in word)
    return "".join(str(i + 1) for i in word)


def act_word(C, word, eps) -> tuple[int, ...]:
    """The letters applied left to right by ``reflect_sign``, eps -> s_{j1} eps
    -> s_{j2} s_{j1} eps -> ...: the transported sign w^{-1} eps of the graph
    conditions, independent of ``eta``'s replay."""
    return reduce(lambda sig, i: reflect_sign(C, i, sig), word, tuple(eps))


def key_of_word(tree, word):
    """The stored key of the product of the simple reflections of ``word``,
    one ``WordTree`` primitive step per letter."""
    key = tree.keys[0]
    for i in word:
        t = tree._table(key)
        key = tree._key(tree._mul(t, i), t, i)
    return key


def is_reduced(tree, word) -> bool:
    """A word is reduced iff each letter is an ascent of the prefix before it."""
    key = tree.keys[0]
    for i in word:
        t = tree._table(key)
        if tree._descent(t, i):
            return False
        key = tree._key(tree._mul(t, i), t, i)
    return True


def act_on_word(g, word) -> int:
    """Id of the product of the simple reflections of ``word`` in a WeylGroup."""
    return g.index[key_of_word(g, word)[:g.generators]]


def multiply(g, a, b) -> int:
    """Id of w_a * w_b, looked up by (w_a w_b)(alpha_j) = w_a(w_b(alpha_j))."""
    return g.index[g.perms[b][:g.generators].translate(g._table(g.perms[a]))]


def inverse(g, a) -> int:
    """Id of w_a^{-1}: the inverse root permutation's prefix, looked up in ``index``."""
    p = g.perms[a]
    out = bytearray(len(p))
    for i, v in enumerate(p):
        out[v] = i
    return g.index[bytes(out[:g.generators])]


@pytest.fixture(scope="session")
def group():
    """Shared Weyl group factory; generation is deterministic and cached."""
    built = {}

    def get(name: str) -> WeylGroup:
        if name not in built:
            built[name] = WeylGroup.generate(LieType.parse(name))
        return built[name]

    return get


@pytest.fixture(scope="session")
def full_results():
    """One full-scope run of the verification matrix, shared by the
    acceptance tests."""
    from todalab import verify

    return {r.number: r for r in verify.run("full")}
