"""Sign dynamics of the simple reflections and the blow-up count eta.

A sign vector tracks sgn(a_i).  The reflection s_i sends eps_j to
eps_j * eps_i^(-C[j][i]); since signs square to one this means: nothing
moves when eps_i = +, and when eps_i = - exactly the eps_j with C[j][i]
odd flip.  Applying a reduced word letter by letter, eta counts the steps
taken at a node currently carrying a minus sign; those are the blow-ups.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ValidationError
from .rootdata import cartan_matrix
from .weyl import WeylGroup


def parse_signs(text: str) -> tuple[int, ...]:
    """``"--+"`` -> (-1, -1, +1).  Accepts ASCII + and -."""
    out = []
    for ch in text.strip():
        if ch == "+":
            out.append(1)
        elif ch == "-":
            out.append(-1)
        else:
            raise ValidationError(f"bad sign character {ch!r} in {text!r}")
    if not out:
        raise ValidationError("empty sign vector")
    return tuple(out)


def format_signs(eps) -> str:
    return "".join("+" if e > 0 else "-" for e in eps)


def all_minus(rank: int) -> tuple[int, ...]:
    return (-1,) * rank


def _flip_sets(C):
    """For each node i, the j whose sign flips when s_i fires at a minus."""
    n = len(C)
    return [tuple(j for j in range(n) if C[j][i] % 2 != 0) for i in range(n)]


def reflect_sign(C, i: int, eps) -> tuple[int, ...]:
    """Apply s_i to a sign vector (entries +1/-1) under the Cartan matrix C."""
    n = len(C)
    if not 0 <= i < n:
        raise IndexError(f"node index {i} out of range for rank {n}")
    if len(eps) != n:
        raise ValidationError(f"sign vector length {len(eps)} != matrix size {n}")
    if eps[i] > 0:
        return tuple(eps)
    return tuple(-e if C[j][i] % 2 != 0 else e for j, e in enumerate(eps))


def reflect_sign_by_exponent(C, i: int, eps) -> tuple[int, ...]:
    """Same action computed literally as eps_j * eps_i^(-C[j][i]) (test oracle)."""
    return tuple(e * eps[i] ** ((-C[j][i]) % 2) for j, e in enumerate(eps))


def act_word(C, word, eps) -> tuple[int, ...]:
    """Apply the letters left to right: eps -> s_{j1} eps -> s_{j2} s_{j1} eps -> ...

    The result is the transported sign that the graph conditions call w^{-1} eps.
    """
    cur = tuple(eps)
    for i in word:
        cur = reflect_sign(C, i, cur)
    return cur


def eta(C, word, eps) -> int:
    """Number of blow-up steps along a reduced word starting from eps.

    The word rule is applied as given: eta is reduced-word independent only
    on reduced words, which ``WordTree.is_reduced`` decides.
    """
    count = 0
    cur = tuple(eps)
    for i in word:
        if cur[i] < 0:
            count += 1
            cur = reflect_sign(C, i, cur)
        # a step at eps_i = + leaves the vector unchanged
    return count


class Records:
    """A list of like dicts kept as one column per key: row k is
    {key: columns[key][k]}.  Iterating or indexing gives the dicts; the JSON
    encoder of ``cli`` renders a run of rows from one template when every
    column holds only str or only plain ints, and the dicts otherwise."""

    __slots__ = ("columns",)

    def __init__(self, **columns):
        if len(set(map(len, columns.values()))) != 1:
            raise ValueError("Records needs at least one column, all of one length")
        self.columns = columns

    def __len__(self):
        return len(next(iter(self.columns.values())))

    def __getitem__(self, k):
        return {key: col[k] for key, col in self.columns.items()}

    def __iter__(self):
        keys = tuple(self.columns)
        return (dict(zip(keys, row)) for row in zip(*self.columns.values()))


class EtaTable(NamedTuple):
    """eta(w, eps) for every group element, plus the transported signs."""

    group: WeylGroup
    eps: tuple[int, ...]
    values: tuple[int, ...]                   # indexed by element id
    transported: tuple[tuple[int, ...], ...]  # w^{-1} eps per element id

    def max_value(self) -> int:
        return max(self.values)

    def sign_labels(self) -> list[str]:
        """The transported sign of every id as text, each distinct sign formatted once."""
        text = {sig: format_signs(sig) for sig in set(self.transported)}
        return [text[sig] for sig in self.transported]

    def as_rows(self) -> Records:
        """One {word, length, eta, sign} row per id, as typed columns."""
        return Records(word=self.group.word_labels(), length=self.group.lengths,
                       eta=self.values, sign=self.sign_labels())


def propagate(C, parents, letters, eps):
    """eta and the transported sign for every node of a BFS tree of words.

    Node k > 0 is node ``parents[k]`` followed by the letter ``letters[k]``;
    parents precede their children.  Returns (values, transported) as lists.
    """
    flips = _flip_sets(C)
    n = len(parents)
    values = [0] * n
    transported = [eps] * n
    for eid in range(1, n):
        par = parents[eid]
        i = letters[eid]
        sig = transported[par]
        if sig[i] < 0:
            values[eid] = values[par] + 1
            new = list(sig)
            for j in flips[i]:
                new[j] = -new[j]
            transported[eid] = tuple(new)
        else:
            values[eid] = values[par]
            transported[eid] = sig
    return values, transported


def eta_table(group: WeylGroup, eps) -> EtaTable:
    """eta for every element in one pass over the BFS tree (no word replay)."""
    eps = tuple(eps)
    C = cartan_matrix(group.lie_type)
    if len(eps) != len(C):
        raise ValidationError(f"sign vector length {len(eps)} != rank {len(C)}")
    values, transported = propagate(C, group.parents, group.letters, eps)
    return EtaTable(group, eps, tuple(values), tuple(transported))
