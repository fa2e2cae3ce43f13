import random
from itertools import product

import pytest

from conftest import act_word, multiply, word_str
from todalab.blowup_poly import alternating_eta_sum, p_epsilon, poincare_polynomial_k
from todalab.exact import UniPoly as IntPolynomial
from todalab.rootdata import LieType, cartan_matrix
from todalab.signflow import all_minus, eta
from todalab.todagraph import (
    build_graph,
    components,
    graph_to_dict,
    matching_report,
    to_dot,
)


def word_pairs(graph):
    g = graph.group
    return {(word_str(g.word(a)), word_str(g.word(b))) for a, b in graph.edges}


class TestEdges:
    def test_a2_all_minus(self, group):
        graph = build_graph(group("A2"), (-1, -1))
        assert word_pairs(graph) == {("1", "12"), ("2", "21")}

    def test_a2_minus_plus(self, group):
        graph = build_graph(group("A2"), (-1, 1))
        assert word_pairs(graph) == {("e", "2"), ("1", "21"), ("12", "121")}

    def test_a1_minus_has_none(self, group):
        assert build_graph(group("A1"), (-1,)).edges == ()

    @pytest.mark.parametrize("name", ["A2", "A3", "B2", "B3", "G2"])
    def test_edges_revalidated_independently(self, name, group):
        # each edge must be a Bruhat cover with equal eta and transported sign,
        # recomputed here by word replay rather than through the table
        g = group(name)
        C = cartan_matrix(g.lie_type)
        for eps in product((1, -1), repeat=g.lie_type.rank):
            graph = build_graph(g, eps)
            cover_set = set(g.bruhat_covers())
            for a, b in graph.edges:
                assert (a, b) in cover_set
                wa, wb = g.word(a), g.word(b)
                assert eta(C, wa, eps) == eta(C, wb, eps)
                assert act_word(C, wa, eps) == act_word(C, wb, eps)


    @pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2"])
    def test_every_qualifying_cover_is_an_edge(self, name, group):
        # the converse: each cover whose ends have equal eta and equal
        # transported sign, by word replay, is an edge; edges come sorted
        g = group(name)
        C = cartan_matrix(g.lie_type)
        covers = g.bruhat_covers()
        for eps in product((1, -1), repeat=g.lie_type.rank):
            graph = build_graph(g, eps)
            key = [(eta(C, g.word(v), eps), act_word(C, g.word(v), eps))
                   for v in range(len(g))]
            edges = set(graph.edges)
            for a, b in covers:
                if key[a] == key[b]:
                    assert (a, b) in edges
            assert list(graph.edges) == sorted(graph.edges)

    @pytest.mark.parametrize("name, eps", [
        *((name, eps) for name in ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "G2", "D4"]
          for eps in product((-1, 1), repeat=int(name[1:]))),
        ("D5", (-1, 1, -1, 1, -1)), ("F4", (-1, -1, -1, -1)), ("F4", (-1, 1, -1, 1)),
        *((name, eps) for name in ["B4", "C4", "D5", "F4"]
          for eps in product((-1, 1), repeat=int(name[1:]))
          if (name, eps) not in {("D5", (-1, 1, -1, 1, -1)), ("F4", (-1, -1, -1, -1)),
                                 ("F4", (-1, 1, -1, 1))}),
        ("E6", (1,) * 6), ("E6", (1, -1) * 3),
    ])
    def test_edges_are_the_same_class_covers(self, name, eps, group):
        # the key filter over the tables of the sign-fixing reflections
        # against the sorted covers filtered by equal eta and equal
        # transported sign
        g = group(name)
        graph = build_graph(g, eps)
        cls = list(zip(graph.table.values, graph.table.transported))
        assert graph.edges == tuple(c for c in g.bruhat_covers() if cls[c[0]] == cls[c[1]])

    @pytest.mark.parametrize("name", ["A1", "A3", "B3", "C3", "D4", "F4", "G2"])
    def test_reflection_keeps_the_sign_iff_it_fixes_eps(self, name, group):
        # r_beta * w carries w's transported sign exactly when r_beta fixes
        # eps, for every (w, beta, eps); signs replayed along witness words
        g = group(name)
        C = cartan_matrix(g.lie_type)
        rank = g.generators
        left = {r: [multiply(g, r, w) for w in range(len(g))]
                for r in (g.index[p[:rank]] for p in g.reflections())}
        for eps in product((-1, 1), repeat=rank):
            sign = [act_word(C, g.word(w), eps) for w in range(len(g))]
            for r, products in left.items():
                fixes = sign[r] == eps
                assert all((sign[v] == sign[w]) == fixes for w, v in enumerate(products))

class TestComponents:
    def test_a2_exact_partition(self, group):
        g = group("A2")
        comps = components(build_graph(g, (-1, -1)))
        as_words = sorted(sorted(word_str(g.word(v)) for v in c) for c in comps)
        assert as_words == [["1", "12"], ["121"], ["2", "21"], ["e"]]

    def test_counts(self, group):
        assert len(components(build_graph(group("A3"), all_minus(3)))) == 10
        assert len(components(build_graph(group("A1"), (-1,)))) == 2
        assert len(components(build_graph(group("A1"), (1,)))) == 1

    def test_all_vertices_covered_once(self, group):
        graph = build_graph(group("B3"), all_minus(3))
        comps = components(graph)
        seen = [v for c in comps for v in c]
        assert sorted(seen) == list(range(graph.num_vertices))


    @pytest.mark.parametrize("seed", range(6))
    def test_random_edges_match_search(self, seed, group):
        # union-find against a depth-first search, on random edge sets over D4
        rng = random.Random(seed)
        graph = build_graph(group("D4"), all_minus(4))
        n = graph.num_vertices
        edges = tuple(sorted((rng.randrange(n), rng.randrange(n))
                             for _ in range(rng.choice([10, n // 2, n, 3 * n]))))
        graph = graph._replace(edges=edges)
        adj = [[] for _ in range(n)]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        seen, want = set(), []
        for v in range(n):
            if v not in seen:
                seen.add(v)
                stack, comp = [v], []
                while stack:
                    x = stack.pop()
                    comp.append(x)
                    for y in adj[x]:
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
                want.append(sorted(comp))
        assert components(graph) == want


class TestPolynomialConsistency:
    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C3", "G2"])
    def test_alternating_sum_is_p(self, name, group):
        g = group(name)
        for eps in product((1, -1), repeat=g.lie_type.rank):
            assert alternating_eta_sum(build_graph(g, eps).table) == p_epsilon(g.lie_type, eps)


class TestMatching:
    def test_a2_betti(self, group):
        report = matching_report(build_graph(group("A2"), (-1, -1)))
        assert report.is_matching
        assert report.betti == (1, 0, 0, 1)
        assert report.betti_polynomial() == IntPolynomial([1, 0, 0, 1])

    def test_a1_vacuous(self, group):
        report = matching_report(build_graph(group("A1"), (-1,)))
        assert report.is_matching
        assert report.betti == (1, 1)

    def test_a3_flagged_without_betti(self, group):
        report = matching_report(build_graph(group("A3"), all_minus(3)))
        assert not report.is_matching
        assert report.betti is None
        assert report.offending
        with pytest.raises(ValueError):
            report.betti_polynomial()

    @pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2"])
    def test_betti_matches_compact_group(self, name, group):
        t = LieType.parse(name)
        report = matching_report(build_graph(group(name), all_minus(t.rank)))
        assert report.is_matching
        assert IntPolynomial(report.betti) == poincare_polynomial_k(t)

    def test_minus_plus_perfect_matching(self, group):
        # the twisted local system has no cohomology: every vertex pairs off
        report = matching_report(build_graph(group("A2"), (-1, 1)))
        assert report.is_matching
        assert report.betti == (0, 0, 0, 0)


class TestExports:
    def test_dot_a1(self, group):
        dot = to_dot(build_graph(group("A1"), (-1,)))
        assert dot.count("[label=") == 2
        assert "->" not in dot
        assert "components=2" in dot

    def test_dot_a2(self, group):
        dot = to_dot(build_graph(group("A2"), (-1, -1)))
        assert dot.count("[label=") == 6
        assert dot.count("->") == 2
        assert dot.startswith("digraph blowup {")
        assert dot.rstrip().endswith("}")

    def test_dot_deterministic(self, group):
        g1 = to_dot(build_graph(group("A3"), all_minus(3)))
        g2 = to_dot(build_graph(group("A3"), all_minus(3)))
        assert g1 == g2

    @pytest.mark.parametrize("name, eps", [("D5", (1, -1, 1, -1, 1)), ("B5", all_minus(5))])
    def test_dot_matches_per_line_rendering(self, name, eps, group):
        # 5672 and 8428 edges: edge lines are filled one template per 4096
        graph = build_graph(group(name), eps)
        assert len(graph.edges) > 4096
        head, _, _ = to_dot(graph).partition("  n0 [")
        rows = zip(graph.group.word_labels(), graph.table.values, graph.table.sign_labels())
        lines = [f'  n{eid} [label="{word}|eta={value}|{sign}"];'
                 for eid, (word, value, sign) in enumerate(rows)]
        lines += [f"  n{a} -> n{b};" for a, b in graph.edges]
        assert to_dot(graph) == head + "\n".join(lines) + "\n}\n"

    def test_json_schema(self, group):
        doc = graph_to_dict(build_graph(group("A2"), (-1, -1)))
        assert len(doc["vertices"]) == 6
        assert set(doc["vertices"][0]) == {"word", "length", "eta", "sign"}
        edge_words = {(doc["vertices"][a]["word"], doc["vertices"][b]["word"])
                      for a, b in doc["edges"]}
        assert edge_words == {("1", "12"), ("2", "21")}
        assert len(doc["components"]) == 4
