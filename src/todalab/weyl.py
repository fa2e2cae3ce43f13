"""Finite Weyl group engine.

Elements are keyed by their permutation of the root list (stored as
``bytes``: root index -> root index), which makes equality canonical
and lets ``bytes.translate`` do permutation composition at C speed.
Generation is a breadth-first closure over the simple reflections
(``WordTree``, shared with the affine group); the BFS tree also hands every
element a witness reduced word for free.

Whole-group passes work on element ids, not keys: Bruhat covers come from
one right-multiplication table of ids per reflection, and the witness-word
labels from one walk over the tree's parents and letters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapExceededError, ValidationError
from .rootdata import (
    LieType,
    cartan_matrix,
    positive_roots,
    reflect_root,
    weyl_order,
    weyl_order_log10,
)

DEFAULT_CAP = 1_000_000
MAX_ELEMENTS = 3_000_000  # enumeration ceiling whatever the cap; E7 (2,903,040) fits

_PAD = bytes(range(256))


def pad_table(prefix: bytes) -> bytes:
    """Extend a root permutation to the 256-byte table bytes.translate needs."""
    return prefix + _PAD[len(prefix):]


@dataclass(frozen=True)
class WeylElement:
    """One group element: canonical permutation key plus length data."""

    perm: bytes
    length: int
    word: tuple[int, ...]  # one reduced word, letters are 0-based node indices

    def __str__(self):
        if not self.word:
            return "e"
        if max(self.word) > 8:  # two-digit letters need a separator
            return ".".join(str(i + 1) for i in self.word)
        return "".join(str(i + 1) for i in self.word)


def compose(p: bytes, q: bytes) -> bytes:
    """Permutation of w1*w2 from the permutations of w1 and w2."""
    return q.translate(p)


def invert(p: bytes) -> bytes:
    out = bytearray(len(p))
    for i, v in enumerate(p):
        out[v] = i
    return bytes(out)


def check_order(lie_type: LieType, cap: int = DEFAULT_CAP) -> int:
    """|W|, or ``CapExceededError`` when it exceeds ``cap``; |W| is sized from
    its logarithm first, so a huge group is refused without forming it."""
    log_order = weyl_order_log10(lie_type)
    if log_order >= 18:  # A19+, B16+, C16+, D17+: over 255 roots; |W| is not formed
        if log_order > math.log10(max(cap, 1)):
            raise CapExceededError(
                f"{lie_type}: group of order above 10^{int(log_order)} exceeds cap={cap}")
        raise CapExceededError(f"{lie_type}: root system too large for byte keys")
    order = weyl_order(lie_type)
    if order > cap:
        raise CapExceededError(f"{lie_type}: group of order {order} exceeds cap={cap}")
    return order


class WordTree:
    """Breadth-first tree of reduced words over the simple generators.

    Element ids run in (length, key) order; node k > 0 is node
    ``parents[k]`` followed by the letter ``letters[k]``, so the tree hands
    every element a witness reduced word.  A subclass supplies the identity
    key, the generator count, a ``lie_type`` and two primitives:
    ``_mul(key, i)``, the key of w * s_i, and ``_descent(key, i)``, whether
    l(w * s_i) < l(w).
    """

    def __init__(self, identity, generators: int):
        self.generators = generators
        self.keys = [identity]
        self.lengths = [0]
        self.parents = [-1]
        self.letters = [-1]
        self.index = {identity: 0}
        self._top = 0  # first id of the longest level
        self._words_memo = {0: frozenset({()})}

    def __len__(self):
        return len(self.keys)

    def grow(self, cap=None) -> bool:
        """Add the next length level; False once the group is exhausted.

        Within a level new keys are sorted, and the first (parent, letter)
        found in frontier x generator order becomes the tree edge.
        """
        mul, descent = self._mul, self._descent
        new = {}
        for eid in range(self._top, len(self.keys)):
            key = self.keys[eid]
            for i in range(self.generators):
                if descent(key, i):
                    continue
                q = mul(key, i)
                if q not in new:
                    new[q] = (eid, i)
        if cap is not None and len(self.keys) + len(new) > cap:
            raise CapExceededError(f"{self.lie_type}: group exceeds cap={cap} during generation")
        self._top = len(self.keys)
        for q in sorted(new):
            par, i = new[q]
            self.index[q] = len(self.keys)
            self.keys.append(q)
            self.lengths.append(self.lengths[par] + 1)
            self.parents.append(par)
            self.letters.append(i)
        return bool(new)

    def word(self, eid: int) -> tuple[int, ...]:
        out = []
        while eid > 0:
            out.append(self.letters[eid])
            eid = self.parents[eid]
        return tuple(reversed(out))

    def _check_letter(self, i):
        if not 0 <= i < self.generators:
            raise ValidationError(f"letter {i} out of range 0..{self.generators - 1}")

    def key_of_word(self, word):
        key = self.keys[0]
        for i in word:
            self._check_letter(i)
            key = self._mul(key, i)
        return key

    def is_reduced(self, word) -> bool:
        """A word is reduced iff each letter is an ascent of the prefix before it."""
        key = self.keys[0]
        for i in word:
            self._check_letter(i)
            if self._descent(key, i):
                return False
            key = self._mul(key, i)
        return True

    def all_reduced_words(self, eid: int) -> frozenset:
        """Exhaustive set of reduced words of element ``eid`` (memoized)."""
        memo = self._words_memo
        got = memo.get(eid)
        if got is None:
            key = self.keys[eid]
            got = memo[eid] = frozenset(
                wd + (i,)
                for i in range(self.generators) if self._descent(key, i)
                for wd in self.all_reduced_words(self.index[self._mul(key, i)])
            )
        return got


class WeylGroup(WordTree):
    """Fully enumerated Weyl group of a finite type, keyed by root permutations."""

    def __init__(self, lie_type: LieType, roots, simple_perms):
        super().__init__(_PAD, len(simple_perms))
        self.lie_type = lie_type
        self.roots = roots                  # positives then negatives, same order
        self.num_positive = len(roots) // 2
        self.simple_perms = simple_perms
        self.perms = self.keys              # list[bytes], id order = (length, perm)
        self._reflections = None
        self._labels = None

    def _mul(self, p: bytes, i: int) -> bytes:
        return self.simple_perms[i].translate(p)

    def _descent(self, p: bytes, i: int) -> bool:
        return p[i] >= self.num_positive     # w(alpha_i) < 0

    # -- construction ------------------------------------------------------

    @classmethod
    def generate(cls, lie_type: LieType, cap: int = DEFAULT_CAP) -> "WeylGroup":
        """BFS closure over the simple reflections acting on the roots.

        Refuses up front, from the closed-form order, a group of more than
        ``cap`` elements or more than ``MAX_ELEMENTS`` whatever the cap; the
        per-level check in ``grow`` stays as a backstop.  E7 is opt-in by
        raising the cap (cap=3_000_000): its 2.9e6 elements take about 30 s
        and 1.8 GB of padded permutation tables.
        """
        order = check_order(lie_type, cap)
        rs = positive_roots(lie_type)
        l = lie_type.rank
        C = cartan_matrix(lie_type)
        pos = list(rs.positive)
        roots = pos + [tuple(-c for c in b) for b in pos]
        if len(roots) > 255:
            raise CapExceededError(f"{lie_type}: root system too large for byte keys")
        if order > MAX_ELEMENTS:
            raise CapExceededError(
                f"{lie_type}: group of order {order} exceeds the enumeration ceiling "
                f"{MAX_ELEMENTS}")
        where = {b: i for i, b in enumerate(roots)}
        simple_perms = [
            pad_table(bytes(where[reflect_root(C, b, i)] for b in roots)) for i in range(l)
        ]
        # simple root alpha_i sits at index i (positives sorted by height).
        assert all(roots[i] == rs.simple[i] for i in range(l))

        group = cls(lie_type, tuple(roots), simple_perms)
        while group.grow(cap):
            pass
        return group

    # -- basic queries -------------------------------------------------------

    def element(self, eid: int) -> WeylElement:
        return WeylElement(self.perms[eid], self.lengths[eid], self.word(eid))

    def word_labels(self) -> list[str]:
        """``str(self.element(eid))`` for every id, in one pass over the tree.

        A label is its parent's label plus one letter.  Once a word holds a
        letter above 9 the whole label switches to the dotted form, as
        ``WeylElement.__str__`` does.
        """
        if self._labels is not None:
            return self._labels
        digits = [str(i + 1) for i in range(self.generators)]
        labels, dotted = [""], [False]
        for par, i in zip(self.parents[1:], self.letters[1:]):
            head, dot = labels[par], dotted[par] or i > 8
            if dot and not dotted[par]:
                head = ".".join(head)  # the parent's letters are single digits
            labels.append(head + "." + digits[i] if dot and head else head + digits[i])
            dotted.append(dot)
        labels[0] = "e"
        self._labels = labels
        return labels

    def id_of(self, el) -> int:
        perm = el.perm if isinstance(el, WeylElement) else el
        return self.index[perm]

    def identity(self) -> WeylElement:
        return self.element(0)

    def longest_element(self) -> WeylElement:
        eid = max(range(len(self)), key=lambda i: self.lengths[i])
        assert self.lengths.count(self.lengths[eid]) == 1
        return self.element(eid)

    def multiply(self, w1: WeylElement, w2: WeylElement) -> WeylElement:
        return self.element(self.index[compose(w1.perm, w2.perm)])

    def act_on_word(self, word) -> WeylElement:
        return self.element(self.index[self.key_of_word(word)])

    def inverse(self, w: WeylElement) -> WeylElement:
        return self.element(self.index[invert(w.perm)])

    def all_reduced_words(self, el) -> frozenset:
        return super().all_reduced_words(el if isinstance(el, int) else self.id_of(el))

    # -- Bruhat covers ---------------------------------------------------------

    def reflections(self) -> list[bytes]:
        """Permutations of the reflections r_beta, one per positive root.

        Built by conjugation, r_{s_i beta} = s_i r_beta s_i, walking up from
        the simple roots through positive roots.
        """
        if self._reflections is not None:
            return self._reflections
        npos = self.num_positive
        refl = list(self.simple_perms) + [None] * (npos - len(self.simple_perms))
        frontier = list(range(len(self.simple_perms)))
        while frontier:
            nxt = []
            for k in frontier:
                for s in self.simple_perms:
                    j = s[k]  # index of s_i(beta_k)
                    if j < npos and refl[j] is None:
                        refl[j] = s.translate(refl[k].translate(s))
                        nxt.append(j)
            frontier = nxt
        self._reflections = refl
        return refl

    def bruhat_covers(self) -> list[tuple[int, int]]:
        """All pairs (id(w), id(v)) with w -> v a Bruhat cover (l(v)=l(w)+1), sorted.

        The covers of w are the w*t of length l(w)+1 over the reflections t
        (Bjorner-Brenti, ch. 2).  Right multiplication by t is an id table:
        R_i[w] = id(w*s_i) for the simple reflections, and the conjugation
        walk of ``reflections()`` gives T_{s_i beta}[w] = R_i[T_beta[R_i[w]]].
        Only the current frontier of tables is held.
        """
        index, lengths = self.index, self.lengths
        ids = list(range(len(self)))  # one int object per id, shared by the pairs
        up = [n + 1 for n in lengths]
        right = [[index[s.translate(p)] for p in self.perms] for s in self.simple_perms]
        npos = self.num_positive
        done = [k < self.generators for k in range(npos)]
        covers = []
        frontier = list(enumerate(right))  # simple root alpha_i sits at index i
        while frontier:
            nxt = []
            for k, table in frontier:
                covers += [(w, v) for w, v, n in zip(ids, table, up) if lengths[v] == n]
                for s, r in zip(self.simple_perms, right):
                    j = s[k]  # index of s_i(beta_k)
                    if j < npos and not done[j]:
                        done[j] = True
                        nxt.append((j, [r[table[x]] for x in r]))
            frontier = nxt
        covers.sort()
        return covers
