"""Acceptance suite: runs the full-scope verification matrix and reports one
pass/fail line per criterion (run with ``pytest -s`` to see all lines live).

Tolerances are pinned inside todalab.verify: exact equality for everything
combinatorial and algebraic, 1e-6 against numerical closed forms, 1e-8
invariant drift, and a 90% modal threshold for the real-root experiment.
"""

import pytest

TITLES = {
    1: "closed-form blow-up polynomials (A1-A5, B2-B4, C2-C4, D4, D5, G2, F4, E6-E8)",
    2: "p_eps = 0 for every mixed sign (rank <= 3, G2, A4-A5, B4, C4, D4-D5, F4, E6-E8)",
    3: "eta independent of the reduced word (A3, B3, C3, G2; all words, all signs)",
    4: "pinned eta tables for A2 and G2",
    5: "graph components: A2 -> 4 (exact partition), A3 -> 10, A1 -> 2",
    6: "q^r p(q) equals brute-force |SO(n, F_q)| (A1: q=5,13,17; A2: q=3,5)",
    7: "tau-function literals for A2, B2, C2, G2",
    8: "minimal degrees match; sum = eta(w*) = deg p; t1-degree of product = |2rho|",
    9: "Hirota residuals vanish with fitted constants (A2-A3, B2-B3, C2-C3, D4, G2)",
    10: "modal Sturm count = deg p(q) on >= 20 seeded slices (>= 90% modal)",
    11: "affine A1(1): eta = length, stable series = (1-q)/(1+q), reconstruction",
    12: "numerics: closed forms to 1e-6, one blow-up detected, A2 total = 2, drift <= 1e-8",
    13: "property suites: involution/braid, eta increments, graph vs p, Betti matching",
}


@pytest.mark.parametrize("number", sorted(TITLES))
def test_criterion(number, full_results):
    result = full_results[number]
    print(f"\n{result.line()}")
    assert result.passed, f"criterion {number} [{TITLES[number]}]: {result.detail}"


def test_all_criteria_present(full_results):
    assert sorted(full_results) == list(range(1, 14))
