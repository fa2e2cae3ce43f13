"""Acceptance suite: runs the full-scope verification matrix and reports one
pass/fail line per criterion (run with ``pytest -s`` to see all lines live).

Tolerances are pinned inside todalab.verify: exact equality for everything
combinatorial and algebraic, 1e-6 against numerical closed forms, 1e-8
invariant drift, and every real-root count equal to sum d_i.
"""

import functools
import re
from fractions import Fraction
from types import SimpleNamespace

import pytest

from todalab import numtoda, verify
from todalab.affine import p_series
from todalab.blowup_poly import CosetChain, FactoredForm, sphere_counts
from todalab.errors import StepCollapseError
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
    6: "q^r p(q) equals |K(F_q)| counted on spheres (A1-A7, B2-B8, C2-C6, D3-D6, E6-E8, "
       "F4, G2; q=3,5,7,13,17; every form split)",
    7: "tau-function literals for A2, B2, C2, G2",
    8: "minimal degrees match; sum = eta(w*) = deg p; t1-degree of product = |2rho|",
    9: "Hirota residuals vanish with fitted constants (A2-A3, B2-B3, C2-C3, D4, G2)",
    10: "every Sturm count = deg p(q) = sum d_i on 20 seeded slices",
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
    assert detail.startswith("7 of 8 types differ from the closed form; "
                             "A2: q^2 - 1 != q^2 - 2*q + 1; A3: ")
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
    # one point too many on the length-4 sphere: SO(4), U(2) and SU(2) read it
    def one_too_many(n, q):
        counts = sphere_counts(n, q)
        counts[4] += 1
        return counts

    monkeypatch.setattr(verify, "sphere_counts", one_too_many)
    passed, detail = verify.check_chevalley_orders(groups, "fast")
    assert not passed
    assert detail.startswith("20 of 40 sphere-point counts differ from q^r p(q); "
                             "A3 q=3: 600 != 576; A3 q=5: 14520 != 14400; ")
    assert "; B2 q=3: 50 != 48; " in detail and "; C3 q=17: " in detail
    assert detail.endswith("; G2 q=17: 23980609 != 23970816")


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


def _negated_series(*args, **kwargs):
    series = p_series(*args, **kwargs)
    return series._replace(coeffs=[-c for c in series.coeffs])


@pytest.mark.parametrize("name, fake, detail", [
    # an eta that is 0 everywhere misses every length from 1 to 12, twice each
    ("eta", lambda C, word, eps: 0,
     r"(eta != length at \([01, ]+\); ){23}eta != length at \([01, ]+\)"),
    # the series with every sign flipped: -(1 - q)/(1 + q)
    ("p_series", _negated_series, re.escape(
        "stable coeffs [-1, 2, -2, 2, -2, 2, -2, 2, -2]; rational guess (q - 1) / (q + 1)")),
], ids=["eta", "series"])
def test_affine_branch_names_the_case(monkeypatch, name, fake, detail):
    monkeypatch.setattr(verify, name, fake)
    passed, got = verify.check_affine(None, "fast")
    assert not passed
    assert re.fullmatch(detail, got), got


def _last_a_off(traj):
    a = traj.a.copy()
    a[-1] += 1e-7
    return traj._replace(a=a)


@pytest.mark.parametrize("tamper, detail", [
    (lambda traj: traj._replace(t=traj.t + 1e-3), r"A1 closed-form error 1\.00e-03"),
    (_last_a_off, r"A1 invariant drift 9\.99e-08"),
    (lambda traj: traj._replace(events=()), r"A1 negative case events \(\)"),
    (lambda traj: traj._replace(status="complete") if traj.lie_type.rank == 2 else traj,
     r"A2 negative-flow drift \d\.\d\de-\d\d \(complete\)"),
], ids=["closed-form", "drift", "events", "a2-status"])
def test_numerics_branch_names_the_case(monkeypatch, tamper, detail):
    ode_integrate = numtoda.ode_integrate
    monkeypatch.setattr(numtoda, "ode_integrate", lambda *args: tamper(ode_integrate(*args)))
    passed, got = verify.check_numerics(None, "fast")
    assert not passed
    assert re.fullmatch(detail, got), got


def _all_plus(C, i, eps):
    return (1,) * len(eps)


def _flip_own_sign(C, i, eps):
    return eps[:i] + (-eps[i],) + eps[i + 1:]


@pytest.mark.parametrize("patches, detail", [
    # both sign rules agree, but neither is an involution
    ({"reflect_sign": _all_plus, "reflect_sign_by_exponent": _all_plus},
     "A1: s_0 not an involution; A2: s_0 not an involution; A2: s_1 not an involution; "
     "A2: braid (0,1) broken; A2: s_0 not an involution"),
    # involutions that fail the order-3 braid relation of A2 and A3
    ({"reflect_sign": _flip_own_sign, "reflect_sign_by_exponent": _flip_own_sign},
     "; ".join(["A2: braid (0,1) broken"] * 4 + ["A3: braid (0,1) broken"])),
    ({"eta_table": lambda g, eps: SimpleNamespace(values=[0] * len(g))},
     "A1: replay mismatch at (0,); A2: replay mismatch at (1,); A2: replay mismatch at (0, 1); "
     "A2: replay mismatch at (1, 0); A2: replay mismatch at (0, 1, 0)"),
    # a replay and a table that agree, and step by 2
    ({"eta": lambda C, word, eps: 2 * len(word),
      "eta_table": lambda g, eps: SimpleNamespace(values=[2 * len(g.word(i)) for i in range(len(g))])},
     "A1: eta increment out of range at (0,); A1: eta increment out of range at (0,); "
     "A2: eta increment out of range at (1,); A2: eta increment out of range at (0,); "
     "A2: eta increment out of range at (0, 1)"),
    ({"alternating_eta_sum": lambda table: UniPoly([7])},
     "A1 +: graph sum != p_eps; A1 -: graph sum != p_eps; A2 ++: graph sum != p_eps; "
     "A2 +-: graph sum != p_eps; A2 -+: graph sum != p_eps"),
    ({"poincare_polynomial_k": lambda t: UniPoly([1])},
     "A1: Betti (1, 1) != Poincare; A2: Betti (1, 0, 0, 1) != Poincare; "
     "B2: Betti (1, 1, 0, 1, 1) != Poincare; G2: Betti (1, 0, 0, 2, 0, 0, 1) != Poincare"),
], ids=["involution", "braid", "replay", "increment", "graph-sum", "betti"])
def test_property_suite_branch_names_the_case(monkeypatch, patches, detail):
    for name, fn in patches.items():
        monkeypatch.setattr(verify, name, fn)
    passed, got = verify.check_property_suites(groups, "fast")
    assert not passed
    assert got == detail


def test_crashed_check_is_a_failed_check(monkeypatch):
    def collapse(*args):
        raise StepCollapseError("integrator failed at t=0.5")

    monkeypatch.setattr(verify, "CHECKS", [c for c in verify.CHECKS if c[0] == 12])
    monkeypatch.setattr(numtoda, "ode_integrate", collapse)
    (result,) = verify.run("fast")
    assert (result.number, result.title, result.passed) == (12, "numerical flow checks", False)
    assert result.detail == "exception: StepCollapseError: integrator failed at t=0.5"


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
        "C2 degrees (1,); C3 degrees (1,); G2 degrees (1,)")


def test_t1_degree_failure_names_the_type(monkeypatch):
    # every tau system's t1-axis degrees add up to |2rho|, never to 0
    monkeypatch.setattr(verify, "two_rho_height", lambda t: 0)
    passed, detail = verify.check_degree_bookkeeping(groups, "fast")
    assert not passed
    assert detail == "minimal-degree lists and degree identities over 7 types; " + "; ".join(
        f"{name} t1-degree {height} != 0" for name, height in (
            ("A2", 4), ("A3", 10), ("B2", 7), ("B3", 22), ("C2", 7), ("C3", 22), ("G2", 16)))


def test_reversed_degree_list_names_the_type(monkeypatch):
    # C3's minimal degrees (1, 2, 3) read backwards: the order is checked
    def reversed_c3(t):
        system = tau_functions(t)
        return system._replace(taus=system.taus[::-1]) if str(t) == "C3" else system

    monkeypatch.setattr(verify, "tau_functions", reversed_c3)
    passed, detail = verify.check_degree_bookkeeping(groups, "fast")
    assert not passed
    assert detail == ("minimal-degree lists and degree identities over 7 types; "
                      "C3 degrees (3, 2, 1)")


@pytest.mark.parametrize("name, degrees", [
    ("A5", (1, 2, 3, 2, 1)), ("D5", (2, 2, 4, 2, 2)), ("C4", (1, 2, 3, 4)), ("G2", (2, 2))])
def test_expected_min_degrees_pinned(name, degrees):
    assert verify.expected_min_degrees(LieType.parse(name), groups(name)) == degrees


def test_degree_sum_failure_names_the_type(monkeypatch):
    # a constant p_eps: sum d_i = eta(w*) holds, deg p does not
    monkeypatch.setattr(verify, "p_epsilon", lambda t, eps: UniPoly([1]))
    passed, detail = verify.check_degree_bookkeeping(groups, "fast")
    assert not passed
    assert detail == "minimal-degree lists and degree identities over 7 types; " + "; ".join(
        f"{name} sum/eta/deg mismatch" for name in ("A2", "A3", "B2", "B3", "C2", "C3", "G2"))


def test_hirota_failure_names_the_type(monkeypatch):
    # a residual left for the last tau of each type
    monkeypatch.setattr(verify, "hirota_residual", lambda system, k: (
        Fraction(1), system.ring.one() if k == system.lie_type.rank else system.ring.zero()))
    passed, detail = verify.check_hirota(None, "fast")
    assert not passed
    assert detail == "nonzero residuals: A2 k=2, B2 k=2, C2 k=2, G2 k=2"


def test_real_root_failure_names_the_type(monkeypatch):
    # one sample off sum d_i fails a type, however many agree
    monkeypatch.setattr(verify, "real_root_count_experiment",
                        lambda t, samples, seed: SimpleNamespace(counts=(2, 2, 1, 2),
                                                                 expected=2))
    passed, detail = verify.check_real_roots(None, "fast")
    assert not passed
    assert detail == ("A2: 1 of 4 counts != 2: [1]; B2: 1 of 4 counts != 2: [1]; "
                      "C2: 1 of 4 counts != 2: [1]")


def test_numerics_failure_names_the_type(monkeypatch):
    monkeypatch.setattr(numtoda, "count_zero_crossings", lambda *args, **kwargs: 0)
    passed, detail = verify.check_numerics(None, "fast")
    assert not passed
    assert detail == "A1 negative minor crossings 0; A2 crossings (0, 0)"
