"""Self-verification matrix: every headline identity the package claims.

Each check is an independent recomputation (brute enumeration, word replay,
exact arithmetic, or closed forms from the literature) pitted against the
fast path.  ``fast`` scope covers the rank <= 3 material; ``full`` adds the
higher-rank and exceptional types.  p_eps comes from the coset chain, so E7
and E8 are checked exactly without enumerating their groups; enumeration
(``eta_table``, the blow-up graph) is the cross-check through rank 5.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction
from itertools import product as iproduct
from typing import NamedTuple

import numpy as np

from .affine import AffineWeylGroup, p_series, rational_guess
from .blowup_poly import (
    CosetChain,
    alternating_eta_sum,
    brute_force_order,
    chevalley_order,
    closed_form_p,
    p_epsilon,
    poincare_polynomial_k,
    sphere_counts,
)
from .errors import ValidationError
from .rootdata import LieType, cartan_matrix, compact_dual_info, langlands_dual, two_rho_height
from .schurtau import (
    hirota_residual,
    minimal_degrees,
    real_root_count_experiment,
    ring_for,
    tau_functions,
)
from .signflow import (
    all_minus,
    eta,
    eta_table,
    format_signs,
    reflect_sign,
    reflect_sign_by_exponent,
)
from .todagraph import build_graph, components, matching_report
from .weyl import WeylGroup
from . import numtoda

NUMERIC_CLOSED_FORM_TOL = 1e-6
INVARIANT_DRIFT_TOL = 1e-8


class CheckResult(NamedTuple):
    number: int
    title: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d} ({self.seconds:6.2f}s): {self.title} -- {self.detail}"


def _all_signs(rank):
    return [tuple(eps) for eps in iproduct((1, -1), repeat=rank)]


def _types(fast_list, full_extra, scope):
    return fast_list + (full_extra if scope == "full" else [])


# -- the criteria -------------------------------------------------------------


def check_closed_forms(groups, scope):
    names = _types(["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"],
                   ["A4", "A5", "B4", "C4", "D4", "D5", "F4", "E6", "E7", "E8"], scope)
    bad = []
    for name in names:
        t = LieType.parse(name)
        got = p_epsilon(t, all_minus(t.rank))
        want = closed_form_p(t).expand()
        if got != want:
            bad.append(f"{name}: {got} != {want}")
    if not bad:
        return True, f"{len(names)} types, exact equality"
    return False, f"{len(bad)} of {len(names)} types differ from the closed form; " \
        + "; ".join(bad)


def check_vanishing(groups, scope):
    names = _types(["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "G2"],
                   ["A4", "A5", "B4", "C4", "D4", "D5", "F4", "E6", "E7", "E8"], scope)
    bad = []
    for name in names:
        t = LieType.parse(name)
        chain = CosetChain(t)  # one chain serves all 2^r signs
        for eps in _all_signs(t.rank):
            if eps == all_minus(t.rank):
                continue
            p = chain.p_epsilon(eps)
            if not p.is_zero():
                bad.append(f"{name} {format_signs(eps)}: {p}")
    return not bad, f"all mixed signs vanish over {len(names)} types" + (
        "" if not bad else "; " + "; ".join(bad))


def check_word_independence(groups, scope):
    names = _types(["A3", "G2"], ["B3", "C3"], scope)
    bad = []
    words_checked = 0
    for name in names:
        t = LieType.parse(name)
        g = groups(name)
        C = cartan_matrix(t)
        for eps in _all_signs(t.rank):
            table = eta_table(g, eps)
            for eid in range(len(g)):
                vals = {eta(C, w, eps) for w in g.all_reduced_words(eid)}
                words_checked += len(g.all_reduced_words(eid))
                if vals != {table.values[eid]}:
                    bad.append(f"{name} {format_signs(eps)} id={eid}: {vals}")
    return not bad, f"{words_checked} word evaluations constant per element" + (
        "" if not bad else "; " + "; ".join(bad[:3]))


def check_eta_tables(groups, scope):
    got_a2 = list(eta_table(groups("A2"), all_minus(2)).values)
    got_g2 = list(eta_table(groups("G2"), all_minus(2)).values)
    ok_a2 = got_a2 == [0, 1, 1, 1, 1, 2]
    ok_g2 = got_g2 == [0, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 4]
    return ok_a2 and ok_g2, f"A2 table {got_a2}, G2 table {got_g2}"


def check_components(groups, scope):
    out = []
    g = build_graph(groups("A2"), all_minus(2))
    comps = components(g)
    labels = g.group.word_labels()
    words = [frozenset(labels[v] for v in comp) for comp in comps]
    expected = [frozenset({"e"}), frozenset({"1", "12"}), frozenset({"2", "21"}),
                frozenset({"121"})]
    ok_a2 = sorted(words, key=sorted) == sorted(expected, key=sorted)
    out.append(f"A2: {len(comps)} components, partition {'ok' if ok_a2 else 'WRONG'}")
    n_a3 = len(components(build_graph(groups("A3"), all_minus(3))))
    out.append(f"A3: {n_a3} components")
    n_a1 = len(components(build_graph(groups("A1"), (-1,))))
    out.append(f"A1: {n_a1} components")
    return ok_a2 and n_a3 == 10 and n_a1 == 2, "; ".join(out)


def check_chevalley_orders(groups, scope):
    names = _types(["A1", "A2", "A3", "B2", "C2", "C3", "D3", "G2"],
                   ["A4", "A5", "A6", "A7", "B3", "B4", "B5", "B6", "B7", "B8", "C4", "C5",
                    "C6", "D4", "D5", "D6", "E6", "E7", "E8", "F4"], scope)
    counts = {q: sphere_counts(16, q) for q in (3, 5, 7, 13, 17)}  # 16: SO(16), Sp(4), SU(8)
    bad = []
    for name, q in iproduct(names, counts):
        t = LieType.parse(name)
        got, want = brute_force_order(t, q, counts[q]), chevalley_order(t, q)
        if got != want:
            bad.append(f"{name} q={q}: {got} != {want}")
    total = len(names) * len(counts)
    if not bad:
        return True, f"{total} sphere-point counts equal q^r p(q)"
    return False, f"{len(bad)} of {total} sphere-point counts differ from q^r p(q); " \
        + "; ".join(bad)


def _expected_tau_literals():
    """The four rank-2 tau lists, written out monomial by monomial."""
    out = {}
    r = ring_for(LieType("A", 2))
    t1, t2 = r.var("t1"), r.var("t2")
    out["A2"] = (t2 + Fraction(1, 2) * t1 ** 2, t2 - Fraction(1, 2) * t1 ** 2)
    r = ring_for(LieType("B", 2))
    t1, t3 = r.var("t1"), r.var("t3")
    out["B2"] = (t1 * t3 + Fraction(1, 24) * t1 ** 4, t3 - Fraction(1, 12) * t1 ** 3)
    r = ring_for(LieType("C", 2))
    t1, t3 = r.var("t1"), r.var("t3")
    out["C2"] = (t3 + Fraction(1, 6) * t1 ** 3,
                 t1 * t3 - Fraction(1, 12) * t1 ** 4)
    r = ring_for(LieType("G", 2))
    t1, t5 = r.var("t1"), r.var("t5")
    out["G2"] = (t1 * t5 + Fraction(1, 720) * t1 ** 6,
                 t5 ** 2 - Fraction(1, 40) * t5 * t1 ** 5 + Fraction(1, 86400) * t1 ** 10)
    return out


def check_tau_literals(groups, scope):
    bad = []
    for name, want in _expected_tau_literals().items():
        got = tau_functions(LieType.parse(name)).taus
        if tuple(got) != tuple(want):
            bad.append(name)
    return not bad, "A2/B2/C2/G2 tau polynomials exact" + (
        "" if not bad else f"; mismatch in {bad}")


def expected_min_degrees(t: LieType, group: WeylGroup) -> tuple[int, ...]:
    """The degrees d_i of K for the Langlands dual of t, node by node: one per
    orbit of the opposition involution i -> i* (w0 alpha_i = -alpha_{i*}),
    orbits in the order of their first node, and a two-node orbit carries
    d_i / 2 on each node (Casian-Kodama)."""
    w0, npos = group.perms[group.longest_element()], group.num_positive
    degrees = iter(compact_dual_info(langlands_dual(t)).degrees)
    out = [0] * t.rank
    for i in range(t.rank):
        if not out[i]:
            j, d = w0[i] - npos, next(degrees)
            out[i] = out[j] = d if i == j else d // 2
    return tuple(out)


def check_degree_bookkeeping(groups, scope):
    """min deg tau_k is ``expected_min_degrees`` node by node; their sum is
    sum d_i = eta(w*) = deg p_eps at eps = all minus; and the degrees of the
    tau_k on the t1 axis add up to the height of 2rho."""
    names = _types(["A2", "A3", "B2", "B3", "C2", "C3", "G2"],
                   ["A4", "A5", "B4", "C4", "D4", "D5"], scope)
    bad = []
    for name in names:
        t = LieType.parse(name)
        system = tau_functions(t)
        mins = minimal_degrees(system)
        if len(mins) != t.rank or mins != expected_min_degrees(t, groups(name)):
            bad.append(f"{name} degrees {mins}")
            continue
        d_sum = sum(mins)
        degs = compact_dual_info(t).degrees
        p = p_epsilon(t, all_minus(t.rank))
        table = eta_table(groups(name), all_minus(t.rank))  # enumeration side
        eta_star = table.max_value()
        if not d_sum == sum(degs) == eta_star == p.degree:
            bad.append(f"{name} sum/eta/deg mismatch")
        zeros = dict.fromkeys(system.ring.names, 0)
        deg_t1 = sum(tau.slice_t1(zeros).degree for tau in system.taus)
        if deg_t1 != two_rho_height(t):
            bad.append(f"{name} t1-degree {deg_t1} != {two_rho_height(t)}")
    return not bad, f"minimal-degree lists and degree identities over {len(names)} types" + (
        "" if not bad else "; " + "; ".join(bad))


def check_hirota(groups, scope):
    names = _types(["A2", "B2", "C2", "G2"], ["A3", "B3", "C3", "D4"], scope)
    bad = []
    fitted = []
    for name in names:
        t = LieType.parse(name)
        system = tau_functions(t)
        for k in range(1, t.rank + 1):
            a0, residual = hirota_residual(system, k)
            if not residual.is_zero() or a0 == 0:
                bad.append(f"{name} k={k}")
            fitted.append(f"{name}:a_{k}={a0}")
    return not bad, ("all residuals vanish; " + ", ".join(fitted[:8]) + "...") if not bad else (
        "nonzero residuals: " + ", ".join(bad))


def check_real_roots(groups, scope):
    names = _types(["A2", "B2", "C2"], ["G2", "A3", "C3"], scope)
    bad = []
    details = []
    for name in names:
        rep = real_root_count_experiment(LieType.parse(name), samples=20, seed=7)
        off = [c for c in rep.counts if c != rep.expected]
        details.append(f"{name} {rep.expected}")
        if off:
            bad.append(f"{name}: {len(off)} of {len(rep.counts)} counts != {rep.expected}: {off}")
    return not bad, (f"every count of 20 slices = sum d_i: {', '.join(details)}"
                     if not bad else "; ".join(bad))


def check_affine(groups, scope):
    t = LieType("A", 1, affine=True)
    g = AffineWeylGroup(t)
    g.extend_to(12)
    bad = []
    for eid, length in enumerate(g.lengths):  # g holds lengths 0..12 only
        if eta(g.cartan, g.word(eid), (-1, -1)) != length:
            bad.append(f"eta != length at {g.word(eid)}")
    series = p_series(t, (-1, -1), 12, group=g)
    stable = series.stable_coeffs()
    want = [1] + [(-2 if k % 2 else 2) for k in range(1, len(stable))]
    if stable != want:
        bad.append(f"stable coeffs {stable}")
    guess = rational_guess(series)
    if guess is None or (guess.num.coeffs, guess.den.coeffs) != ((1, -1), (1, 1)):
        bad.append(f"rational guess {guess}")
    return not bad, (f"eta=length through 12, {len(stable)} stable coefficients, "
                     f"recovered (1 - q) / (1 + q)") if not bad else "; ".join(bad)


def check_numerics(groups, scope):
    bad = []
    # positive A1: closed forms sech^2 / tanh
    traj_f = numtoda.ode_integrate(LieType("A", 1), [1.0], [0.0], (0.0, 5.0))
    traj_b = numtoda.ode_integrate(LieType("A", 1), [1.0], [0.0], (0.0, -5.0))
    err = 0.0
    for traj in (traj_f, traj_b):
        err = max(err, np.max(np.abs(traj.a[:, 0] - 1.0 / np.cosh(traj.t) ** 2)))
        err = max(err, np.max(np.abs(traj.b[:, 0] - np.tanh(traj.t))))
    if err > NUMERIC_CLOSED_FORM_TOL:
        bad.append(f"A1 closed-form error {err:.2e}")
    drift = max(traj_f.invariant_drift(), traj_b.invariant_drift())
    if drift > INVARIANT_DRIFT_TOL:
        bad.append(f"A1 invariant drift {drift:.2e}")
    # negative A1: one blow-up, found by both the integrator and the minors
    s1, c1 = math.sinh(1.0), math.cosh(1.0)
    a0, b0 = -1.0 / s1 ** 2, -c1 / s1
    traj = numtoda.ode_integrate(LieType("A", 1), [a0], [b0], (0.0, 4.0))
    if traj.status != "blow-up" or len(traj.events) != 1 or abs(traj.events[0].time - 1.0) > 0.01:
        bad.append(f"A1 negative case events {traj.events}")
    n_minor = numtoda.count_zero_crossings(numtoda.TauMinors([b0], [a0]), 1, window=(-6.0, 6.0))
    if n_minor != 1:
        bad.append(f"A1 negative minor crossings {n_minor}")
    # A2 all-negative: minor-based total = eta(w*) = 2, grid-stable
    b0, a0 = numtoda.example_a2_all_negative()
    rep = numtoda.signs_vs_eta_report(b0, a0)
    if rep.total_crossings != 2 or not rep.matches:
        bad.append(f"A2 crossings {rep.crossings_per_tau}")
    # ... and its flow conserves the invariant up to the blow-up
    traj_a2 = numtoda.ode_integrate(LieType("A", 2), a0, b0, (0.0, 10.0))
    drift_a2 = traj_a2.invariant_drift()
    if traj_a2.status != "blow-up" or drift_a2 > INVARIANT_DRIFT_TOL:
        bad.append(f"A2 negative-flow drift {drift_a2:.2e} ({traj_a2.status})")
    return not bad, ("closed forms to 1e-6, drift <= 1e-8 between events, "
                     "crossing counts grid-stable and equal to eta(w*)") if not bad \
        else "; ".join(bad)


def check_property_suites(groups, scope):
    bad = []
    # involution and braid relations, exhaustive through rank 4
    names = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D3", "D4", "F4", "G2"]
    for name in names:
        t = LieType.parse(name)
        C = cartan_matrix(t)
        l = t.rank
        for eps in _all_signs(l):
            for i in range(l):
                twice = reflect_sign(C, i, reflect_sign(C, i, eps))
                if twice != eps:
                    bad.append(f"{name}: s_{i} not an involution")
                if reflect_sign(C, i, eps) != reflect_sign_by_exponent(C, i, eps):
                    bad.append(f"{name}: parity shortcut != exponent rule")
            for i in range(l):
                for j in range(i + 1, l):
                    m = {0: 2, 1: 3, 2: 4, 3: 6}[C[i][j] * C[j][i]]
                    cur = eps
                    for step in range(2 * m):
                        cur = reflect_sign(C, (i, j)[step % 2], cur)
                    if cur != eps:
                        bad.append(f"{name}: braid ({i},{j}) broken")
    # eta increments in {0,1}; eta's letter-by-letter replay, which reads C at
    # every step, checks eta_table's tree walk with its own flip sets
    for name in ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]:
        t = LieType.parse(name)
        g = groups(name)
        C = cartan_matrix(t)
        for eps in _all_signs(t.rank):
            table = eta_table(g, eps)
            for eid in range(len(g)):
                word = g.word(eid)
                replay = eta(C, word, eps)
                if replay != table.values[eid]:
                    bad.append(f"{name}: replay mismatch at {word}")
                if word and replay - eta(C, word[:-1], eps) not in (0, 1):
                    bad.append(f"{name}: eta increment out of range at {word}")
    # graph vertices alternate-sum back to p_eps
    for name in ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]:
        t = LieType.parse(name)
        g = groups(name)
        for eps in _all_signs(t.rank):
            graph = build_graph(g, eps)
            if alternating_eta_sum(graph.table) != p_epsilon(t, eps):
                bad.append(f"{name} {format_signs(eps)}: graph sum != p_eps")
    # matching-derived Betti numbers against the compact-group Poincare polynomial
    matched = []
    for name in ["A1", "A2", "A3", "B2", "B3", "C3", "G2"]:
        t = LieType.parse(name)
        graph = build_graph(groups(name), all_minus(t.rank))
        report = matching_report(graph)
        if report.is_matching:
            matched.append(name)
            if report.betti_polynomial() != poincare_polynomial_k(t):
                bad.append(f"{name}: Betti {report.betti} != Poincare")
    return not bad, (f"involution/braid rank<=4, eta increments, graph/p consistency; "
                     f"matching holds for {matched}") if not bad else "; ".join(bad[:5])


CHECKS = [
    (1, "closed-form blow-up polynomials", check_closed_forms),
    (2, "mixed-sign polynomials vanish", check_vanishing),
    (3, "eta is reduced-word independent", check_word_independence),
    (4, "pinned eta tables (A2, G2)", check_eta_tables),
    (5, "graph component counts", check_components),
    (6, "Chevalley order = brute-force count", check_chevalley_orders),
    (7, "tau-function literals", check_tau_literals),
    (8, "degree bookkeeping", check_degree_bookkeeping),
    (9, "Hirota residuals vanish", check_hirota),
    (10, "real-root counts", check_real_roots),
    (11, "affine A1(1) series", check_affine),
    (12, "numerical flow checks", check_numerics),
    (13, "property suites", check_property_suites),
]


def run(scope: str = "fast") -> list[CheckResult]:
    if scope not in ("fast", "full"):
        raise ValidationError(f"scope must be 'fast' or 'full', got {scope!r}")
    # each run generates its own groups, shared by its checks
    groups = functools.cache(lambda name: WeylGroup.generate(LieType.parse(name)))
    results = []
    for number, title, fn in CHECKS:
        start = time.perf_counter()
        try:
            passed, detail = fn(groups, scope)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"exception: {type(exc).__name__}: {exc}"
        results.append(CheckResult(number, title, passed, detail,
                                   time.perf_counter() - start))
    return results
