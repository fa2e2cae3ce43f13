"""Finite Weyl group engine.

Elements are keyed by their permutation of the root list (stored as
``bytes``: root index -> root index), which makes equality canonical
and lets ``bytes.translate`` do permutation composition at C speed.
Generation is a breadth-first closure over the simple reflections; the
BFS tree also hands every element a witness reduced word for free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapExceededError
from .rootdata import LieType, cartan_matrix, positive_roots, reflect_root, weyl_order

DEFAULT_CAP = 1_000_000

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


class WeylGroup:
    """Fully enumerated Weyl group of a finite type."""

    def __init__(self, lie_type: LieType, roots, simple_perms, perms, lengths,
                 parents, letters):
        self.lie_type = lie_type
        self.roots = roots                  # positives then negatives, same order
        self.num_positive = len(roots) // 2
        self.simple_perms = simple_perms
        self.perms = perms                  # list[bytes], id order = (length, perm)
        self.lengths = lengths
        self.parents = parents              # BFS tree: parents[id], letters[id]
        self.letters = letters
        self.index = {p: i for i, p in enumerate(perms)}
        self._words_memo = None
        self._reflections = None

    # -- construction ------------------------------------------------------

    @classmethod
    def generate(cls, lie_type: LieType, cap: int = DEFAULT_CAP) -> "WeylGroup":
        """BFS closure over the simple reflections acting on the roots.

        Refuses up front, from the closed-form order, a group of more than
        ``cap`` elements; the per-level check in the BFS stays as a backstop.
        E7 is opt-in by raising the cap (cap=3_000_000): its 2.9e6 elements
        take about 30 s and 1.8 GB of padded permutation tables; E8 at 7e8
        elements is out of desk scale.
        """
        order = weyl_order(lie_type)
        if order > cap:
            raise CapExceededError(f"{lie_type}: group of order {order} exceeds cap={cap}")

        rs = positive_roots(lie_type)
        l = lie_type.rank
        C = cartan_matrix(lie_type)
        pos = list(rs.positive)
        roots = pos + [tuple(-c for c in b) for b in pos]
        if len(roots) > 255:
            raise CapExceededError(f"{lie_type}: root system too large for byte keys")
        where = {b: i for i, b in enumerate(roots)}
        simple_perms = [
            pad_table(bytes(where[reflect_root(C, b, i)] for b in roots)) for i in range(l)
        ]
        # simple root alpha_i sits at index i (positives sorted by height).
        assert all(roots[i] == rs.simple[i] for i in range(l))

        ident = _PAD
        perms = [ident]
        lengths = [0]
        parents = [-1]
        letters = [-1]
        index = {ident: 0}
        frontier = [0]
        while frontier:
            new = {}
            for eid in frontier:
                p = perms[eid]
                for i, s in enumerate(simple_perms):
                    if p[i] >= len(pos):      # w(alpha_i) < 0: length goes down
                        continue
                    q = s.translate(p)        # w * s_i
                    if q not in index and q not in new:
                        new[q] = (eid, i)
            if len(perms) + len(new) > cap:
                raise CapExceededError(
                    f"{lie_type}: group exceeds cap={cap} during generation"
                )
            frontier = []
            for q in sorted(new):
                par, i = new[q]
                index[q] = len(perms)
                frontier.append(len(perms))
                perms.append(q)
                lengths.append(lengths[par] + 1)
                parents.append(par)
                letters.append(i)

        return cls(lie_type, tuple(roots), simple_perms, perms, lengths,
                   parents, letters)

    # -- basic queries -------------------------------------------------------

    def __len__(self):
        return len(self.perms)

    def word(self, eid: int) -> tuple[int, ...]:
        out = []
        while eid > 0:
            out.append(self.letters[eid])
            eid = self.parents[eid]
        return tuple(reversed(out))

    def element(self, eid: int) -> WeylElement:
        return WeylElement(self.perms[eid], self.lengths[eid], self.word(eid))

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
        p = self.perms[0]
        for i in word:
            p = self.simple_perms[i].translate(p)
        return self.element(self.index[p])

    def inverse(self, w: WeylElement) -> WeylElement:
        return self.element(self.index[invert(w.perm)])

    def right_descents(self, eid: int):
        p = self.perms[eid]
        return [i for i in range(self.lie_type.rank) if p[i] >= self.num_positive]

    # -- reduced words -------------------------------------------------------

    def iter_reduced_words(self, el):
        """Lazy enumeration of all reduced words of ``el`` (DFS on descents)."""
        eid = el if isinstance(el, int) else self.id_of(el)

        def rec(eid, suffix):
            if eid == 0:
                yield tuple(suffix[::-1])
                return
            p = self.perms[eid]
            for i in range(self.lie_type.rank):
                if p[i] >= self.num_positive:
                    down = self.index[self.simple_perms[i].translate(p)]
                    suffix.append(i)
                    yield from rec(down, suffix)
                    suffix.pop()

        yield from rec(eid, [])

    def all_reduced_words(self, el) -> frozenset:
        """Exhaustive set of reduced words (memoized over the whole group)."""
        eid = el if isinstance(el, int) else self.id_of(el)
        if self._words_memo is None:
            self._words_memo = {0: frozenset({()})}
        memo = self._words_memo

        def rec(eid):
            got = memo.get(eid)
            if got is not None:
                return got
            p = self.perms[eid]
            acc = set()
            for i in range(self.lie_type.rank):
                if p[i] >= self.num_positive:
                    down = self.index[self.simple_perms[i].translate(p)]
                    for wd in rec(down):
                        acc.add(wd + (i,))
            memo[eid] = frozenset(acc)
            return memo[eid]

        return rec(eid)

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
        """All pairs (id(w), id(v)) with w -> v a Bruhat cover (l(v)=l(w)+1)."""
        covers = []
        for eid, p in enumerate(self.perms):
            lw = self.lengths[eid]
            for t in self.reflections():
                vid = self.index[t.translate(p)]
                if self.lengths[vid] == lw + 1:
                    covers.append((eid, vid))
        covers.sort()
        return covers
