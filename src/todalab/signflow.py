"""Sign dynamics of the simple reflections and the blow-up count eta.

A sign vector tracks sgn(a_i).  The reflection s_i sends eps_j to
eps_j * eps_i^(-C[j][i]); since signs square to one this means: nothing
moves when eps_i = +, and when eps_i = - exactly the eps_j with C[j][i]
odd flip.  Applying a reduced word letter by letter, eta counts the steps
taken at a node currently carrying a minus sign; those are the blow-ups.

``eta`` replays one word: it checks the letters and signs once, then flips
one list in place, scanning column i of C at each minus step.
``propagate``, which walks a whole tree of words, keeps the flip set of each
node it fires at for the rest of that call.
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


def eta(C, word, eps) -> int:
    """Number of blow-up steps along a reduced word starting from eps.

    The letters are applied left to right, eps -> s_{j1} eps -> s_{j2} s_{j1}
    eps -> ..., as given: eta is reduced-word independent only on reduced
    words.  A letter outside the nodes (IndexError) or a sign vector of the
    wrong length (ValidationError) is refused before the first step.
    """
    word = tuple(word)
    n = len(C)
    if word and not (0 <= min(word) and max(word) < n):
        i = next(i for i in word if not 0 <= i < n)
        raise IndexError(f"node index {i} out of range for rank {n}")
    if len(eps) != n:
        raise ValidationError(f"sign vector length {len(eps)} != matrix size {n}")
    count = 0
    cur = list(eps)
    for i in word:
        if cur[i] < 0:  # a step at eps_i = + leaves the vector unchanged
            count += 1
            for j, row in enumerate(C):
                if row[i] % 2 != 0:
                    cur[j] = -cur[j]
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
    flips = [None] * len(C)  # node i -> the j that flip when s_i fires at a minus
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
            f = flips[i]
            if f is None:
                f = flips[i] = [j for j, row in enumerate(C) if row[i] % 2 != 0]
            for j in f:
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
