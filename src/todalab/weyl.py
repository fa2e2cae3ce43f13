"""Finite Weyl group engine.

A group element is an integer id.  Ids run in (length, key) order, so the
identity is id 0 and the longest element the last id; ``multiply``,
``inverse``, ``act_on_word`` and ``longest_element`` all return ids.
Behind each id the group keeps the element's permutation of the 2N roots
(``perms``: 2N ``bytes``, root index -> root index).  The simple roots sit
at indices 0..rank-1 and form a basis, so the first ``rank`` bytes, the
images of the simple roots, already fix the element: ``index`` is keyed by
that prefix, which sorts as the whole permutation does.  Composition is
``bytes.translate`` at C speed, on a 256-byte table ``p + tail`` formed
only where one is read (the BFS frontier and ``multiply``).  Generation
is a breadth-first closure over the simple reflections (``WordTree``)
that dedupes children by their prefix and forms the whole permutation
once, for the child it keeps; the BFS tree also hands every element a
witness reduced word for free.
``LabelTree`` runs the same tree on Dynkin labels instead of root
permutations: it walks the coset chain of ``blowup_poly`` and the affine
Weyl groups of ``affine``.

Whole-group passes work on ids, not keys: Bruhat covers come from one
left-multiplication table of ids per reflection, T[w] = id(r_beta * w)
(``reflection_tables``), and the witness-word labels from one walk over
the tree's parents and letters.  The walker takes any set of positive
roots closed under its own reflections: it reads the tables of the set's
simple roots from ``index``, by the images r_beta(w(alpha_j)) of the
simple roots, and composes the rest by conjugation.  The blow-up graph
walks only the reflections that fix its sign.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

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
    every element a witness reduced word.  ``index`` maps the index key of
    each element to its id, in id order.  A subclass supplies the identity
    key, the generator count, a ``lie_type`` and two primitives on the table
    ``_table(key)`` of w: ``_mul(t, i)``, the index key of w * s_i, and
    ``_descent(t, i)``, whether l(w * s_i) < l(w).  By default the table,
    the stored key and the index key are all the key itself;
    ``_key(q, t, i)`` gives the stored key of w * s_i when it is not q.
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

    def _table(self, key):
        return key

    def _key(self, q, t, i):
        return q

    def grow(self, cap=None) -> bool:
        """Add the next length level; False once the group is exhausted.

        Within a level new index keys are sorted, and the first (parent,
        letter) found in frontier x generator order becomes the tree edge;
        the stored key is formed once, for that edge.
        """
        mul, descent, table = self._mul, self._descent, self._table
        keys = self.keys
        new = {}
        for eid in range(self._top, len(keys)):
            t = table(keys[eid])
            for i in range(self.generators):
                if descent(t, i):
                    continue
                q = mul(t, i)
                if q not in new:
                    new[q] = (eid, i, t)
        if cap is not None and len(keys) + len(new) > cap:
            raise CapExceededError(f"{self.lie_type}: group exceeds cap={cap} during generation")
        self._top = len(keys)
        key = self._key
        for q in sorted(new):
            par, i, t = new[q]
            self.index[q] = len(keys)
            keys.append(key(q, t, i))
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
            t = self._table(key)
            key = self._key(self._mul(t, i), t, i)
        return key

    def is_reduced(self, word) -> bool:
        """A word is reduced iff each letter is an ascent of the prefix before it."""
        key = self.keys[0]
        for i in word:
            self._check_letter(i)
            t = self._table(key)
            if self._descent(t, i):
                return False
            key = self._key(self._mul(t, i), t, i)
        return True

    def all_reduced_words(self, eid: int) -> frozenset:
        """Exhaustive set of reduced words of element ``eid`` (memoized)."""
        memo = self._words_memo
        got = memo.get(eid)
        if got is None:
            t = self._table(self.keys[eid])
            got = memo[eid] = frozenset(
                wd + (i,)
                for i in range(self.generators) if self._descent(t, i)
                for wd in self.all_reduced_words(self.index[self._mul(t, i)])
            )
        return got


class LabelTree(WordTree):
    """The numbers game (Bjorner-Brenti ch. 4): w is keyed by the Dynkin labels
    m of w^{-1} lambda, started at the labels of lambda.

    w * s_i has m_j - m_i * C[i][j], so only m_i and the labels of the
    Cartan neighbours of i change; each row's nonzero (j, C[i][j]) pairs
    are stored once.  s_i is skipped exactly when m_i <= 0: a descent when
    m_i < 0, and at m_i = 0 s_i fixes the key.
    From rho no label is ever 0, so the tree is the whole group; from the
    fundamental weight omega_k over the leading (k+1) x (k+1) block it is
    the minimal right coset representatives of W_{J_(k-1)} in W_{J_k}.
    """

    def __init__(self, lie_type: LieType, cartan, labels):
        super().__init__(tuple(labels), len(cartan))
        self.lie_type = lie_type
        self.cartan = cartan
        self._row_support = [tuple((j, c) for j, c in enumerate(row) if c) for row in cartan]

    def _mul(self, m, i):
        mi = m[i]
        out = list(m)
        for j, c in self._row_support[i]:
            out[j] -= mi * c
        return tuple(out)

    def _descent(self, m, i):
        return m[i] <= 0


class WeylGroup(WordTree):
    """Fully enumerated Weyl group of a finite type, keyed by the images of
    the simple roots.

    ``perms[k]`` is the 2N-byte root permutation of element k and
    ``index`` maps its first ``rank`` bytes to k.  ``simple_perms`` are
    256-byte ``bytes.translate`` tables; the table of w is ``p + tail``.
    """

    def __init__(self, lie_type: LieType, roots, simple_perms):
        n, rank = len(roots), len(simple_perms)
        super().__init__(_PAD[:n], rank)
        self.index = {_PAD[:rank]: 0}
        self.lie_type = lie_type
        self.roots = roots                  # positives then negatives, same order
        self.num_positive = n // 2
        self.simple_perms = simple_perms
        self.perms = self.keys              # list[bytes], id order = (length, perm)
        self._tail = _PAD[n:]
        self._heads = [s[:rank] for s in simple_perms]  # s_i(alpha_j), j < rank
        self._bodies = [s[:n] for s in simple_perms]
        self._reflections = None
        self._labels = None

    def _table(self, p: bytes) -> bytes:
        return p + self._tail

    def _mul(self, t: bytes, i: int) -> bytes:
        # (w s_i)(alpha_j) = w(s_i alpha_j): the prefix of w * s_i
        return self._heads[i].translate(t)

    def _key(self, q: bytes, t: bytes, i: int) -> bytes:
        return self._bodies[i].translate(t)

    def _descent(self, t: bytes, i: int) -> bool:
        return t[i] >= self.num_positive     # w(alpha_i) < 0

    # -- construction ------------------------------------------------------

    @classmethod
    def generate(cls, lie_type: LieType, cap: int = DEFAULT_CAP) -> "WeylGroup":
        """BFS closure over the simple reflections acting on the roots.

        Refuses up front, from the closed-form order, a group of more than
        ``cap`` elements or more than ``MAX_ELEMENTS`` whatever the cap; the
        per-level check in ``grow`` stays as a backstop.  E7 is opt-in by
        raising the cap (cap=3_000_000): its 2.9e6 elements, each a 126-byte
        permutation under a 7-byte index key, take about 10 s and 1.1 GB.
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

    def word_labels(self) -> list[str]:
        """The witness word of every id as text, in one pass over the tree.

        The identity is ``e``; otherwise a word is its 1-based letters, run
        together ("121") while every letter is a single digit and joined by
        dots ("9.10") once a letter above 9 occurs.  A label is its parent's
        label plus one letter, rewritten in the dotted form when the new
        letter is the first above 9.
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

    def longest_element(self) -> int:
        """Id of w0: ids run in length order and w0 alone has maximal length."""
        return len(self) - 1

    def multiply(self, a: int, b: int) -> int:
        """Id of w_a * w_b, looked up by (w_a w_b)(alpha_j) = w_a(w_b(alpha_j))."""
        return self.index[self.perms[b][:self.generators].translate(self._table(self.perms[a]))]

    def act_on_word(self, word) -> int:
        """Id of the product of the simple reflections of ``word``."""
        return self.index[self.key_of_word(word)[:self.generators]]

    def inverse(self, a: int) -> int:
        return self.index[invert(self.perms[a])[:self.generators]]

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

    def reflection_tables(self, roots=None) -> Iterator[list[int]]:
        """Yield one left-multiplication id table per root of ``roots``,
        T[w] = id(r_beta * w); each table is an involution, and T[0] is
        the id of r_beta itself.

        ``roots`` are positive-root indices closed under their own
        reflections (default: every positive root).  Only the tables of the
        set's simple roots, those whose reflection keeps every other root of
        the set positive, are read from ``index``: r_beta * w sends alpha_j
        to r_beta(w(alpha_j)), and ``index`` lists the prefixes in id order.
        The conjugation walk r_{r_d beta} = r_d r_beta r_d then composes
        T_{r_d beta}[w] = T_d[T_beta[T_d[w]]], holding only the simple
        tables and the frontier.
        """
        refl, index, npos = self.reflections(), self.index, self.num_positive
        todo = set(range(npos) if roots is None else roots)
        simple = [k for k in sorted(todo) if all(refl[k][j] < npos for j in todo if j != k)]
        todo.difference_update(simple)
        tables = [[index[q.translate(refl[k])] for q in index] for k in simple]
        frontier = list(zip(simple, tables))
        while frontier:
            nxt = []
            for k, table in frontier:
                yield table
                for d, dt in zip(simple, tables):
                    j = refl[d][k]  # index of r_d(beta_k)
                    if j in todo:
                        todo.remove(j)
                        nxt.append((j, [dt[table[x]] for x in dt]))
            frontier = nxt

    def bruhat_covers(self) -> list[tuple[int, int]]:
        """All pairs (id(w), id(v)) with w -> v a Bruhat cover (l(v)=l(w)+1), sorted.

        The covers of w are the w*t of length l(w)+1 over the reflections t
        (Bjorner-Brenti, ch. 2); as w*t = (w t w^{-1})*w they are also the
        r_beta*w of length l(w)+1, read off the left tables of
        ``reflection_tables()``.
        """
        lengths = self.lengths
        ids = list(range(len(self)))  # one int object per id, shared by the pairs
        up = [n + 1 for n in lengths]
        covers = []
        for table in self.reflection_tables():
            covers += [(w, v) for w, v, n in zip(ids, table, up) if lengths[v] == n]
        covers.sort()
        return covers
