import math
import time
import warnings
from itertools import product

import numpy as np
import pytest
from scipy.linalg import expm

from todalab import numtoda
from todalab.errors import (
    CapExceededError,
    DegenerateSpectrumError,
    GridUnstableError,
    ValidationError,
)
from todalab.rootdata import LieType, cartan_matrix, compact_dual_info
from todalab.signflow import eta, eta_table


def spread_all_negative(l):
    """Type-A Lax matrix with diagonal (l, l-2, ..., -l) and every a_i = -1."""
    d = np.arange(l, -l - 1, -2, dtype=float)
    return numtoda.lax_matrix(np.cumsum(d[:-1]), [-1.0] * l)


def a1_negative_data():
    s1, c1 = math.sinh(1.0), math.cosh(1.0)
    return [-1.0 / s1 ** 2], [-c1 / s1]  # blow-up at t = 1 on the curve I = 1


class TestLaxMatrix:
    def test_structure(self):
        L = numtoda.lax_matrix([1.0, -1.0], [-1.0, -1.0])
        assert np.allclose(L, [[1, 1, 0], [-1, -2, 1], [0, -1, 1]])
        assert abs(np.trace(L)) < 1e-14

    def test_roundtrip(self):
        b, a = [0.3, -0.7, 0.2], [1.0, 2.0, 0.5]
        L = numtoda.lax_matrix(b, a)
        b2, a2 = numtoda.lax_data(L)
        assert np.allclose(b, b2) and np.allclose(a, a2)

    def test_validation(self):
        with pytest.raises(ValidationError):
            numtoda.lax_matrix([1.0], [1.0, 2.0])
        bad = numtoda.lax_matrix([0.5], [1.0])
        bad[0, 0] += 0.5  # break tracelessness
        with pytest.raises(ValidationError):
            numtoda.TauMinors(bad)

    def test_non_square_names_shape(self):
        with pytest.raises(ValidationError, match=r"square, got shape \(2, 3\)"):
            numtoda.TauMinors(np.zeros((2, 3)))

    def test_superdiagonal_names_entry(self):
        bad = numtoda.lax_matrix([0.5, -0.5], [1.0, 1.0])
        bad[1, 2] = 2.0
        with pytest.raises(ValidationError, match=r"must be 1, got L\[1,2\] = 2$"):
            numtoda.TauMinors(bad)

    def test_above_superdiagonal_names_entry(self):
        bad = numtoda.lax_matrix([0.5, -0.5], [1.0, 1.0])
        bad[0, 2] = 0.25
        with pytest.raises(ValidationError, match=r"must vanish, got L\[0,2\] = 0.25$"):
            numtoda.TauMinors(bad)

    def test_repeated_eigenvalues_refused(self):
        # [[0, 1], [0, 0]] is a nilpotent Jordan block: spectrum {0, 0}
        with pytest.raises(DegenerateSpectrumError, match="repeated eigenvalues"):
            numtoda.TauMinors(numtoda.lax_matrix([0.0], [0.0]))


class TestTauMinors:
    def test_cosh_case(self):
        m = numtoda.TauMinors(np.array([[0.0, 1.0], [1.0, 0.0]]))
        for t in (-2.0, -0.5, 0.0, 1.3, 4.0):
            assert abs(m.grid_values(1, [t])[0] - math.cosh(t)) < 1e-12

    def test_sinh_type_case(self):
        m = numtoda.TauMinors(np.array([[2.0, 1.0], [-3.0, -2.0]]))
        for t in (-1.0, 0.3, 2.0):
            assert abs(m.grid_values(1, [t])[0] - (math.cosh(t) + 2 * math.sinh(t))) < 1e-12

    def test_tau_at_zero_is_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            b = rng.normal(size=3)
            a = rng.uniform(0.3, 2.0, size=3)  # positive a: real simple spectrum
            m = numtoda.TauMinors(numtoda.lax_matrix(b, a))
            assert np.allclose([m.grid_values(j, [0.0])[0] for j in (1, 2, 3)], 1.0, atol=1e-11)

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            numtoda.TauMinors(numtoda.lax_matrix([0.0], [-1.0]))  # eigenvalues +-i

    def test_near_degenerate_refused(self):
        # a = 1e-14 puts the eigenvalues at +-1e-7: gap 2e-07
        with pytest.raises(DegenerateSpectrumError,
                           match=r"repeated eigenvalues: gap 2e-07 at or below 1e-06"):
            numtoda.TauMinors(numtoda.lax_matrix([0.0], [1e-14]))

    def test_grid_matches_expm(self):
        L = numtoda.lax_matrix([0.4, -0.2, 0.1], [1.0, 0.7, 0.5])
        m = numtoda.TauMinors(L)
        ts = np.linspace(-1.5, 1.5, 7)
        for j in (1, 2, 3):
            want = [np.linalg.det(expm(t * L)[:j, :j]) for t in ts]
            assert np.allclose(m.grid_values(j, ts), want, rtol=1e-9, atol=1e-12)

    def test_log_derivative_matches_finite_difference(self):
        m = numtoda.TauMinors(numtoda.example_a2_all_negative())
        h = 1e-6
        for t in (-0.7, 0.2, 1.1):
            for j in (1, 2):
                fd = (math.log(abs(m.grid_values(j, [t + h])[0]))
                      - math.log(abs(m.grid_values(j, [t - h])[0]))) / (2 * h)
                assert abs(m.log_derivative(j, t) - fd) < 1e-5


class TestCrossings:
    def test_a1_positive_none(self):
        assert numtoda.count_zero_crossings(
            numtoda.TauMinors(numtoda.lax_matrix([0.0], [1.0])), 1, window=(-6, 6)) == 0

    def test_a1_negative_one(self):
        a0, b0 = a1_negative_data()
        l0 = numtoda.lax_matrix(b0, a0)
        assert numtoda.count_zero_crossings(numtoda.TauMinors(l0), 1, window=(-6, 6)) == 1

    def test_a2_total_two(self):
        minors = numtoda.TauMinors(numtoda.example_a2_all_negative())
        total = sum(numtoda.count_zero_crossings(minors, j, window=(-12, 12)) for j in (1, 2))
        assert total == 2

    def test_grid_instability_reported(self, monkeypatch):
        calls = {}

        def fake(minors, j, window, grid):
            calls[grid] = True
            return 1 if grid < 100 else 2

        monkeypatch.setattr(numtoda, "_sign_changes", fake)
        with pytest.raises(GridUnstableError) as info:
            numtoda.count_zero_crossings(
                numtoda.TauMinors(numtoda.lax_matrix([0.0], [1.0])), 1, grid=51)
        assert (info.value.count_coarse, info.value.count_fine) == (1, 2)

    @pytest.mark.parametrize("values, want", [
        ([1.0, -1.0, 1.0], 2),
        ([1.0, 0.0, -1.0], 1),   # a grid zero never ends a crossing
        ([0.0, 0.0, 0.0], 0),
        ([-1e300, 1e300, -1e300], 2),
        ([-1.0, 0.0, 1.0], 1),   # passing through an exact zero crosses once
        ([-1.0, 0.0, -1.0], 0),  # touching an exact zero does not cross
    ])
    def test_sign_change_rule(self, values, want):
        class Grid:
            def grid_values(self, j, ts):
                assert len(ts) == len(values)
                return np.array(values)

        assert numtoda._sign_changes(Grid(), 1, (0.0, 1.0), len(values)) == want


class TestOde:
    def test_positive_matches_closed_form(self):
        traj = numtoda.ode_integrate(LieType("A", 1), [1.0], [0.0], (0.0, 5.0))
        assert traj.status == "complete"
        assert traj.tau is not None
        assert np.max(np.abs(traj.tau[:, 0] - np.cosh(traj.t))) < 1e-9
        assert np.max(np.abs(traj.a[:, 0] - 1 / np.cosh(traj.t) ** 2)) < 1e-6
        assert np.max(np.abs(traj.b[:, 0] - np.tanh(traj.t))) < 1e-6
        assert traj.invariant_drift() < 1e-8

    def test_negative_blows_up_once(self):
        a0, b0 = a1_negative_data()
        traj = numtoda.ode_integrate(LieType("A", 1), a0, b0, (0.0, 4.0))
        assert traj.status == "blow-up"
        assert len(traj.events) == 1
        assert traj.events[0].tau_index == 1
        assert abs(traj.events[0].time - 1.0) < 0.01
        assert traj.invariant_drift(a_bound=100.0) < 1e-7
        # the event bracket straddles the tau sign change
        minors = numtoda.TauMinors(numtoda.lax_matrix(b0, a0))
        lo, hi = traj.events[0].bracket
        assert minors.grid_values(1, [lo])[0] * minors.grid_values(1, [hi])[0] < 0

    def test_a2_positive_sorts_spectrum(self):
        b0, a0 = [1.0, -1.0], [1.0, 1.0]
        L0 = numtoda.lax_matrix(b0, a0)
        eigs = np.sort(np.linalg.eigvals(L0).real)
        fwd = numtoda.ode_integrate(LieType("A", 2), a0, b0, (0.0, 40.0))
        bwd = numtoda.ode_integrate(LieType("A", 2), a0, b0, (0.0, -40.0))
        assert np.max(np.abs(fwd.a[-1])) < 1e-8 and np.max(np.abs(bwd.a[-1])) < 1e-8
        diag_fwd = np.diag(numtoda.lax_matrix(fwd.b[-1], fwd.a[-1]))
        diag_bwd = np.diag(numtoda.lax_matrix(bwd.b[-1], bwd.a[-1]))
        assert np.allclose(diag_fwd, eigs[::-1], atol=1e-6)  # descending at +inf
        assert np.allclose(diag_bwd, eigs, atol=1e-6)        # ascending at -inf

    def test_generic_types_conserve_energy(self):
        for name, a0, b0 in (("B2", [0.5, 0.5], [0.1, -0.2]),
                             ("C3", [0.3, 0.4, 0.5], [0.0, 0.0, 0.0]),
                             ("D4", [0.2, 0.3, 0.2, 0.4], [0.0] * 4)):
            traj = numtoda.ode_integrate(LieType.parse(name), a0, b0, (0.0, 5.0))
            assert traj.status == "complete"
            assert traj.invariant_drift() < 1e-8

    def test_g2_negative_stops_at_blowup(self):
        traj = numtoda.ode_integrate(LieType("G", 2), [-0.5, 0.4], [0.1, -0.2], (0.0, 8.0))
        assert traj.status == "blow-up"
        assert len(traj.events) == 1

    def test_validates_shapes(self):
        with pytest.raises(ValidationError):
            numtoda.ode_integrate(LieType("A", 2), [1.0], [0.0], (0.0, 1.0))

    @pytest.mark.parametrize("series", "ABD")
    def test_rank_cap_refuses_before_integrating(self, series):
        l = numtoda.MAX_FLOW_RANK + 1
        with pytest.raises(CapExceededError, match=f"rank {l} exceeds the cap"):
            numtoda.ode_integrate(LieType(series, l), [1.0] * l, [0.0] * l, (0.0, 1.0))


class TestTauOdeConsistency:
    @pytest.mark.parametrize("b0, a0, method", [
        ([-3.0, -3.0, 0.0], [-1.0, -1.0, -1.0], "eigen"),
        # gap 3.16e-07 <= EIGEN_GAP: the minors are refused, so no tau track
        ([0.0, 0.0, 0.0], [1e-13, 1e-13, 1e-13], "expm"),
    ])
    def test_tau_track_equals_pointwise_minors(self, b0, a0, method):
        traj = numtoda.ode_integrate(LieType("A", 3), a0, b0, (0.0, 3.0))
        if method == "expm":
            assert traj.tau is None
            return
        minors = numtoda.TauMinors(numtoda.lax_matrix(b0, a0))
        assert traj.tau.shape == (len(traj.t), 3)
        pointwise = [[minors.grid_values(j, [t])[0] for j in (1, 2, 3)] for t in traj.t]
        assert np.array_equal(traj.tau, np.array(pointwise))

    def test_b_is_log_derivative_of_tau(self):
        L = numtoda.example_a2_all_negative()
        minors = numtoda.TauMinors(L)
        b0, a0 = numtoda.lax_data(L)
        traj = numtoda.ode_integrate(LieType("A", 2), a0, b0, (0.0, 0.5))
        for i in range(0, len(traj.t), 50):
            for j in (1, 2):
                assert abs(minors.log_derivative(j, traj.t[i]) - traj.b[i, j - 1]) < 1e-6


class TestSignsVsEta:
    def test_all_negative_a2(self):
        rep = numtoda.signs_vs_eta_report(numtoda.example_a2_all_negative())
        assert rep.eps == (-1, -1)
        assert rep.crossings_per_tau == (1, 1)
        assert rep.total_crossings == rep.eta_longest == 2
        assert rep.matches

    def test_all_positive_a2(self):
        rep = numtoda.signs_vs_eta_report(numtoda.lax_matrix([1.0, -1.0], [1.0, 1.0]))
        assert rep.total_crossings == rep.eta_longest == 0
        assert rep.matches

    def test_a1_negative(self):
        a0, b0 = a1_negative_data()
        rep = numtoda.signs_vs_eta_report(numtoda.lax_matrix(b0, a0))
        assert rep.total_crossings == rep.eta_longest == 1

    def test_mixed_sign_a2(self):
        # a = (-1, +1), spectrum approx (-2.58, -0.71, 3.29): two blow-ups
        rep = numtoda.signs_vs_eta_report(numtoda.lax_matrix([-3.0, -3.0], [-1.0, 1.0]))
        assert rep.eps == (-1, 1)
        assert rep.total_crossings == rep.eta_longest == 2
        assert rep.matches

    def test_all_negative_a3(self):
        # b = (-3, -3, 0), a = (-1, -1, -1): four blow-ups, eta(w*) = 4
        rep = numtoda.signs_vs_eta_report(
            numtoda.lax_matrix([-3.0, -3.0, 0.0], [-1.0, -1.0, -1.0]),
            window=(-16.0, 16.0))
        assert rep.eps == (-1, -1, -1)
        assert rep.crossings_per_tau == (2, 0, 2)
        assert rep.total_crossings == rep.eta_longest == 4
        assert rep.matches

    def test_zero_a_rejected(self):
        with pytest.raises(ValidationError):
            numtoda.signs_vs_eta_report(numtoda.lax_matrix([0.5], [0.0]))

    def test_zero_a_refused_before_the_minors(self, monkeypatch):
        def no_minors(L0):
            raise AssertionError("TauMinors built for a refused sign pattern")

        monkeypatch.setattr(numtoda, "TauMinors", no_minors)
        L0 = spread_all_negative(14)
        L0[4, 3] = 0.0  # a_4
        with pytest.raises(ValidationError, match=r"sign pattern, got a_4 = 0$"):
            numtoda.signs_vs_eta_report(L0)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_longest_word_is_w0(self, rank, group):
        g = group(f"A{rank}")
        word = numtoda.longest_word_a(rank)
        assert g.is_reduced(word)
        assert len(word) == g.num_positive == rank * (rank + 1) // 2
        assert g.act_on_word(word) == g.longest_element()

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_eta_on_the_word_matches_the_table(self, rank, group):
        g = group(f"A{rank}")
        C = cartan_matrix(g.lie_type)
        word = numtoda.longest_word_a(rank)
        for eps in product((1, -1), repeat=rank):
            assert eta(C, word, eps) == eta_table(g, eps).values[-1]

    def test_a9_answers_without_a_group(self):
        # |W(A9)| = 3,628,800 is over the enumeration ceiling
        start = time.perf_counter()
        rep = numtoda.signs_vs_eta_report(spread_all_negative(9))
        assert time.perf_counter() - start < 5
        assert rep.eps == (-1,) * 9
        assert len(rep.crossings_per_tau) == 9
        assert rep.eta_longest == sum(compact_dual_info(rep.lie_type).degrees) == 25

    def test_a14_near_the_clamp_warns_nothing(self):
        # both neighbours of some grid steps sit near exp(600); comparing
        # signs must not overflow the way multiplying them did
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = numtoda.signs_vs_eta_report(spread_all_negative(14))
        assert rep.crossings_per_tau == (3, 1, 2) + (0,) * 8 + (2, 1, 3)


class TestRankCap:
    @pytest.mark.parametrize("refuse", [numtoda.TauMinors, numtoda.signs_vs_eta_report])
    def test_a16_refused_before_the_subsets(self, refuse):
        L0 = spread_all_negative(16)
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match=r"^A16: rank 16 exceeds the cap 14$"):
            refuse(L0)
        assert time.perf_counter() - start < 0.1

    def test_a14_still_builds(self):
        assert numtoda.TauMinors(spread_all_negative(14)).n == 15
