"""The blow-up graph: vertices are Weyl elements, edges are the Bruhat covers
along which nothing blows up (equal eta, equal transported sign).

Undirected connected components of this graph reproduce the connected
components of the sign polytope minus the divisors; when the edge set is a
partial matching, the unmatched vertices per length are candidate rational
Betti numbers of the compact group.
"""

from __future__ import annotations

from itertools import chain, count, islice
from typing import NamedTuple

from .exact import UniPoly
from .signflow import EtaTable, eta_table, format_signs
from .weyl import WeylGroup


class BlowupGraph(NamedTuple):
    group: WeylGroup
    eps: tuple[int, ...]
    table: EtaTable
    edges: tuple[tuple[int, int], ...]  # (lower id, upper id), lexicographic

    @property
    def num_vertices(self) -> int:
        return len(self.group)


def build_graph(group: WeylGroup, eps) -> BlowupGraph:
    """Edges = Bruhat covers with equal eta and equal transported sign.

    r_beta * w carries the sign w^{-1} r_beta eps, which is w's exactly when
    r_beta fixes eps, so only the tables of the reflections fixing eps are
    walked; they are closed under their own reflections.  With M = max eta + 1
    and key[w] = l(w) M + eta(w), such a table's entry w -> v is an edge
    exactly when key[v] == key[w] + M, so only the edges are ever formed.
    """
    table = eta_table(group, eps)
    rank, index, signs = group.generators, group.index, table.transported
    fixed = [k for k, r in enumerate(group.reflections()) if signs[index[r[:rank]]] == table.eps]
    m = max(table.values) + 1
    key = [n * m + e for n, e in zip(group.lengths, table.values)]
    edges = group.rising_pairs(key, m, fixed)
    return BlowupGraph(group, table.eps, table, tuple(edges))


def components(graph: BlowupGraph) -> list[list[int]]:
    """Undirected connected components, each sorted, ordered by smallest member.

    Union-find with path halving, rooted at the smallest id of each set, so
    parent[v] <= v throughout: one pass in id order then resolves every
    vertex from its already-resolved parent.
    """
    parent = list(range(graph.num_vertices))
    for a, b in graph.edges:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    groups = {}  # a root is its set's smallest id, so its first vertex
    for v in range(len(parent)):
        root = parent[v] = parent[parent[v]]
        groups.setdefault(root, []).append(v)
    return list(groups.values())


ROWS_PER_SLICE = 4096


def fill_rows(row: str, sep: str, rows):
    """``sep.join(row % r for r in rows)`` cut into slices of ``ROWS_PER_SLICE`` rows.

    The one row renderer: CSV and text rows (``sep`` empty, the line end in
    ``row``), DOT vertex and edge lines and JSON template rows all come from
    it.  Each slice fills one joined template from its rows' flattened
    cells, so no string is made per row; ``rows`` may be any iterable, and
    only one slice of it is held at a time.  ``sep.join`` of the yielded
    slices is the whole text.
    """
    size = ROWS_PER_SLICE
    block = sep.join([row] * size)
    rows = iter(rows)
    while piece := list(islice(rows, size)):
        text = block if len(piece) == size else sep.join([row] * len(piece))
        yield text % tuple(chain.from_iterable(piece))


def to_dot(graph: BlowupGraph) -> str:
    """Deterministic DOT rendering with word/eta/sign labels."""
    comps = components(graph)
    lines = [
        "digraph blowup {",
        f'  // type={graph.group.lie_type} sign={format_signs(graph.eps)} '
        f"vertices={graph.num_vertices} edges={len(graph.edges)} "
        f"components={len(comps)}",
        "  rankdir=TB;",
        '  node [shape=box, fontname="monospace"];',
    ]
    rows = zip(count(), graph.group.word_labels(), graph.table.values,
               graph.table.sign_labels())
    lines += fill_rows('  n%d [label="%s|eta=%d|%s"];', "\n", rows)
    lines += fill_rows("  n%d -> n%d;", "\n", graph.edges)
    lines += ["}", ""]  # the final newline, without copying the joined text
    return "\n".join(lines)


def graph_to_dict(graph: BlowupGraph) -> dict:
    """Adjacency document for ``cli._json_slices``; ``vertices`` are
    ``signflow.Records``, whose iteration gives the vertex dicts."""
    return {
        "type": str(graph.group.lie_type),
        "sign": format_signs(graph.eps),
        "vertices": graph.table.as_rows(),
        "edges": graph.edges,  # tuples encode as JSON lists
        "components": components(graph),
    }


class MatchingReport(NamedTuple):
    """Whether the edge set is a partial matching, and the Betti candidates.

    The incidence numbers on the edges are +/-2, so over the rationals each
    matched pair cancels; when every vertex meets at most one edge the
    unmatched vertices counted by length give the rational Betti numbers.
    When the matching property fails the Betti numbers are withheld (the
    unsigned graph does not determine the boundary ranks).
    """

    is_matching: bool
    max_degree: int
    betti: tuple[int, ...] | None
    offending: tuple[int, ...]  # vertex ids with degree >= 2

    def betti_polynomial(self) -> UniPoly:
        if self.betti is None:
            raise ValueError("no Betti numbers: edge set is not a matching")
        return UniPoly(self.betti)


def matching_report(graph: BlowupGraph) -> MatchingReport:
    deg = [0] * graph.num_vertices
    for a, b in graph.edges:
        deg[a] += 1
        deg[b] += 1
    offending = tuple(v for v, d in enumerate(deg) if d >= 2)
    if offending:
        return MatchingReport(False, max(deg), None, offending)
    max_len = max(graph.group.lengths)
    betti = [0] * (max_len + 1)
    for v, d in enumerate(deg):
        if d == 0:
            betti[graph.group.lengths[v]] += 1
    return MatchingReport(True, max(deg, default=0), tuple(betti), ())
