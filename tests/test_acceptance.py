"""Acceptance suite: runs the full-scope verification matrix and reports one
pass/fail line per criterion (run with ``pytest -s`` to see all lines live).

Tolerances are pinned inside todalab.verify: exact equality for everything
combinatorial and algebraic, 1e-6 against numerical closed forms, 1e-8
invariant drift, and a 90% modal threshold for the real-root experiment.
"""

import functools
from fractions import Fraction
from types import SimpleNamespace

import pytest

from todalab import numtoda, verify
from todalab.blowup_poly import CosetChain, FactoredForm, brute_force_so_order
from todalab.exact import UniPoly
from todalab.rootdata import LieType
from todalab.schurtau import tau_functions
from todalab.signflow import eta_table
from todalab.weyl import WeylGroup

TITLES = {
    1: "closed-form blow-up polynomials (A1-A5, B2-B4, C2-C4, D4, D5, G2, F4, E6-E8)",
    2: "p_eps = 0 for every mixed sign (rank <= 3, G2, A4-A5, B4, C4, D4-D5, F4, E6-E8)",
    3: "eta independent of the reduced word (A3, B3, C3, G2; all words, all signs)",
    4: "pinned eta tables for A2 and G2",
    5: "graph components: A2 -> 4 (exact partition), A3 -> 10, A1 -> 2",
    6: "q^r p(q) equals |SO(n, F_q)| counted on quadrics (A1-A7, C2-C6, D3-D6, E8; "
       "q=3,5,7,13,17; non-split forms refused)",
    7: "tau-function literals for A2, B2, C2, G2",
    8: "minimal degrees match; sum = eta(w*) = deg p; t1-degree of product = |2rho|",
    9: "Hirota residuals vanish with fitted constants (A2-A3, B2-B3, C2-C3, D4, G2)",
    10: "modal Sturm count = deg p(q) on >= 20 seeded slices (>= 90% modal)",
    11: "affine A1(1): eta = length, stable series = (1-q)/(1+q), reconstruction",
    12: "numerics: closed forms to 1e-6, one blow-up detected, A2 total = 2, drift <= 1e-8",
    13: "property suites: involution/braid, eta increments, graph vs p, Betti matching",
}

groups = functools.cache(lambda name: WeylGroup.generate(LieType.parse(name)))


@pytest.mark.parametrize("number", sorted(TITLES))
def test_criterion(number, full_results):
    result = full_results[number]
    print(f"\n{result.line()}")
    assert result.passed, f"criterion {number} [{TITLES[number]}]: {result.detail}"


def test_all_criteria_present(full_results):
    assert sorted(full_results) == list(range(1, 14))


def test_closed_form_failure_names_the_type(monkeypatch):
    monkeypatch.setattr(verify, "closed_form_p", lambda t: FactoredForm((1,) * t.rank))
    passed, detail = verify.check_closed_forms(None, "fast")
    assert not passed
    # A1's p(q) is q - 1, so A1 alone passes
    assert detail.startswith("8 types, exact equality; A2: q^2 - 1 != q^2 - 2*q + 1; A3: ")
    assert detail.endswith("; G2: q^4 - 2*q^2 + 1 != q^2 - 2*q + 1")


def test_vanishing_failure_names_the_type(monkeypatch):
    monkeypatch.setattr(CosetChain, "p_epsilon", lambda self, eps: UniPoly([1]))
    passed, detail = verify.check_vanishing(None, "fast")
    assert not passed
    assert detail.startswith("all mixed signs vanish over 9 types; A1 +: 1; A2 ++: 1; A2 +-: 1; ")
    assert detail.endswith("; G2 -+: 1")


def test_word_independence_failure_names_the_type(monkeypatch):
    # an eta that reads the first letter of the word
    monkeypatch.setattr(verify, "eta", lambda C, word, eps: word[0] if word else 0)
    passed, detail = verify.check_word_independence(groups, "fast")
    assert not passed
    assert detail == ("580 word evaluations constant per element; "
                      "A3 +++ id=1: {2}; A3 +++ id=2: {1}; A3 +++ id=5: {1}")


def test_eta_table_failure_names_the_type(monkeypatch):
    monkeypatch.setattr(verify, "eta_table", lambda g, eps: (
        eta_table(g, eps) if g.lie_type.series == "A" else SimpleNamespace(values=[0] * len(g))))
    passed, detail = verify.check_eta_tables(groups, "fast")
    assert not passed
    assert detail == "A2 table [0, 1, 1, 1, 1, 2], G2 table [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]"


def test_components_failure_names_the_type(monkeypatch):
    # every vertex its own component
    monkeypatch.setattr(verify, "components",
                        lambda graph: [[v] for v in range(len(graph.group))])
    passed, detail = verify.check_components(groups, "fast")
    assert not passed
    assert detail == "A2: 6 components, partition WRONG; A3: 24 components; A1: 2 components"


def test_chevalley_failure_names_the_type(monkeypatch):
    # one point too many on every SO(4) count
    monkeypatch.setattr(verify, "brute_force_so_order",
                        lambda n, q: brute_force_so_order(n, q) + (n == 4))
    passed, detail = verify.check_chevalley_orders(groups, "fast")
    assert not passed
    assert detail.startswith("26 quadric counts equal q^r p(q), 4 non-split forms refused; "
                             "A3 q=3: 577 != 576; A3 q=5: 14401 != 14400; ")
    assert detail.endswith("; C3 q=17: 117361120032 != 117361115136")


def test_property_suite_failure_names_the_type(monkeypatch):
    # a parity shortcut that never flips a sign
    monkeypatch.setattr(verify, "reflect_sign_by_exponent", lambda C, i, eps: eps)
    passed, detail = verify.check_property_suites(groups, "fast")
    assert not passed
    assert detail == "; ".join(["A2: parity shortcut != exponent rule"] * 4
                               + ["A3: parity shortcut != exponent rule"])


def test_affine_failure_names_the_guess(monkeypatch):
    monkeypatch.setattr(verify, "rational_guess", lambda series: None)
    passed, detail = verify.check_affine(None, "fast")
    assert not passed
    assert detail == "rational guess None"


def test_tau_literal_failure_names_the_type(monkeypatch):
    # G2's tau_2 with the Hankel sign instead of S_(5,6)'s
    def hankel_sign_g2(t):
        system = tau_functions(t)
        if t.series != "G":
            return system
        return system._replace(taus=(system.taus[0], -system.taus[1]))

    monkeypatch.setattr(verify, "tau_functions", hankel_sign_g2)
    passed, detail = verify.check_tau_literals(None, "fast")
    assert not passed
    assert detail == "A2/B2/C2/G2 tau polynomials exact; mismatch in ['G2']"


def test_degree_failure_names_the_type(monkeypatch):
    a1 = tau_functions(LieType.parse("A1"))
    monkeypatch.setattr(verify, "tau_functions", lambda t: a1)
    passed, detail = verify.check_degree_bookkeeping(None, "fast")
    assert not passed
    assert detail == (
        "minimal-degree lists and degree identities over 7 types; "
        "A2 degrees (1,); A3 degrees (1,); B2 degrees (1,); B3 degrees (1,); "
        "C2 degrees (1,); C3 degrees (1,); G2 degrees (1,); "
        "B2 t1-degree 1 != 7; G2 t1-degree 1 != 16; A2 t1-degree 1 != 4")


def test_hirota_failure_names_the_type(monkeypatch):
    # a residual left for the last tau of each type
    monkeypatch.setattr(verify, "hirota_residual", lambda system, k: (
        Fraction(1), system.ring.one() if k == system.lie_type.rank else system.ring.zero()))
    passed, detail = verify.check_hirota(None, "fast")
    assert not passed
    assert detail == "nonzero residuals: A2 k=2, B2 k=2, C2 k=2, G2 k=2"


def test_real_root_failure_names_the_type(monkeypatch):
    monkeypatch.setattr(verify, "real_root_count_experiment",
                        lambda t, samples, seed: SimpleNamespace(modal_count=0,
                                                                 modal_fraction=1.0))
    passed, detail = verify.check_real_roots(None, "fast")
    assert not passed
    assert detail == "A2: modal 0 frac 1.0; B2: modal 0 frac 1.0; C2: modal 0 frac 1.0"


def test_numerics_failure_names_the_type(monkeypatch):
    monkeypatch.setattr(numtoda, "count_zero_crossings", lambda *args, **kwargs: 0)
    passed, detail = verify.check_numerics(None, "fast")
    assert not passed
    assert detail == "A1 negative minor crossings 0; A2 crossings (0, 0)"
