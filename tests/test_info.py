import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    info_from_probabilities,
    kron_observable,
    loop_info_upper_bound,
    loop_least_directions,
    projected_plane_sum,
    random_correlation_tensor,
    random_density_matrix,
    random_product_state,
    random_separable_state,
    random_unit_vectors,
)
from entcrit import info
from entcrit.info import (
    DECISION_TOLERANCE,
    corr_info,
    info_upper_bound,
    maximize_corr_info,
    two_qubit_info_criterion,
)
from entcrit.pauli import (
    LocalFrame,
    correlation_tensor,
    frame_from_normals,
    plane_subtensor,
    rotate_frame_in_plane,
)
from entcrit.search import OptimizerOptions, SearchResult
from entcrit.states import FIXED_QUBITS, PRESET_KINDS, InputError, StatePreset, build_preset
from entcrit.werner import visibility_threshold

FAST = OptimizerOptions(restarts=6)
LOOSE = OptimizerOptions(restarts=2)


class TestInfoMeasure:
    def test_certain_outcome(self):
        assert info_from_probabilities(1.0, 0.0) == pytest.approx(1.0)

    def test_equal_probabilities(self):
        assert info_from_probabilities(0.5, 0.5) == pytest.approx(0.0)

    def test_biased(self):
        assert info_from_probabilities(0.9, 0.1) == pytest.approx(0.64, abs=1e-12)

    def test_sum_violation(self):
        with pytest.raises(InputError, match="sum"):
            info_from_probabilities(0.7, 0.7)

    def test_negative_probability(self):
        with pytest.raises(InputError):
            info_from_probabilities(-0.1, 1.1)

    @given(p=st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_range_and_formula(self, p):
        val = info_from_probabilities(p, 1.0 - p)
        assert 0.0 <= val <= 1.0
        assert val == pytest.approx((2.0 * p - 1.0) ** 2, abs=1e-12)

    def test_definition_matches_squared_tensor_entries(self, rng):
        # (p+ - p-)^2 with p+- = Tr[rho (I +- O)/2] for the in-plane product
        # observable O, against the entry corr_info reads off the tensor
        for n in range(1, 5):
            dm = random_density_matrix(rng, n)
            f = rotate_frame_in_plane(
                frame_from_normals(random_unit_vectors(rng, n)), rng.uniform(0, 2 * np.pi, n)
            )
            per_index = corr_info(correlation_tensor(dm), f).per_index
            eye = np.eye(2**n)
            for idx in itertools.product((1, 2), repeat=n):
                op = kron_observable([(f.axis1, f.axis2)[k - 1][q] for q, k in enumerate(idx)])
                p_plus, p_minus = (np.trace(dm.matrix @ (eye + c * op)).real / 2 for c in (1, -1))
                assert abs(per_index[idx] - info_from_probabilities(p_plus, p_minus)) <= 1e-12


class TestCorrInfo:
    def test_product_plus_x_minus_x(self):
        t = correlation_tensor(build_preset(StatePreset("product_plus_x_minus_x", 2)))
        res = corr_info(t, LocalFrame.canonical(2))
        assert res.total == pytest.approx(1.0, abs=1e-10)
        assert res.per_index[(1, 1)] == pytest.approx(1.0, abs=1e-10)
        for idx in [(1, 2), (2, 1), (2, 2)]:
            assert res.per_index[idx] == pytest.approx(0.0, abs=1e-10)

    def test_bell_state_two_bits(self):
        t = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))
        res = corr_info(t, LocalFrame.canonical(2))
        assert res.total == pytest.approx(2.0, abs=1e-10)
        assert res.per_index[(1, 1)] == pytest.approx(1.0, abs=1e-10)
        assert res.per_index[(2, 2)] == pytest.approx(1.0, abs=1e-10)

    def test_ghz3_four_units(self):
        t = correlation_tensor(build_preset(StatePreset("ghz", 3)))
        res = corr_info(t, LocalFrame.canonical(3))
        assert res.total == pytest.approx(4.0, abs=1e-10)
        for idx in [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)]:
            assert res.per_index[idx] == pytest.approx(1.0, abs=1e-10)

    def test_total_is_sum(self, rng):
        t = correlation_tensor(random_density_matrix(rng, 3))
        res = corr_info(t, LocalFrame.canonical(3))
        assert res.total == pytest.approx(sum(res.per_index.values()), abs=1e-12)
        # the one in-plane sum, the table's, that acceptance check c11 reads
        assert res.total == plane_subtensor(t, LocalFrame.canonical(3)).squared_sum()

    def test_total_invariant_under_in_plane_rotation(self, rng):
        t = correlation_tensor(random_density_matrix(rng, 3))
        frame = LocalFrame.canonical(3)
        base = corr_info(t, frame).total
        for _ in range(5):
            rotated = rotate_frame_in_plane(frame, rng.uniform(-np.pi, np.pi, 3))
            assert abs(corr_info(t, rotated).total - base) <= 1e-9


class TestMaximize:
    def test_maximally_mixed_zero(self):
        t = correlation_tensor(build_preset(StatePreset("maximally_mixed", 3)))
        verdict = maximize_corr_info(t, FAST)
        assert verdict.max_total == pytest.approx(0.0, abs=1e-9)
        assert not verdict.entangled_by_info_criterion

    def test_bell_state_two(self):
        t = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))
        verdict = maximize_corr_info(t, FAST)
        assert verdict.max_total == pytest.approx(2.0, abs=1e-6)
        assert verdict.entangled_by_info_criterion

    def test_product_states_bounded(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            t = correlation_tensor(random_product_state(rng, n))
            verdict = maximize_corr_info(t, LOOSE)
            assert verdict.max_total <= 1.0 + 1e-6

    def test_separable_mixtures_bounded(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 4))
            t = correlation_tensor(random_separable_state(rng, n))
            verdict = maximize_corr_info(t, LOOSE)
            assert verdict.max_total <= 1.0 + 1e-6

    def test_matches_closed_form_on_random_states(self, rng):
        from conftest import random_pure_state

        for i in range(100):
            if i % 2 == 0:
                dm = random_density_matrix(rng, 2)
            else:
                dm = random_pure_state(rng, 2)
            t = correlation_tensor(dm)
            closed = two_qubit_info_criterion(t).max_total
            searched = maximize_corr_info(t, LOOSE).max_total
            assert searched == pytest.approx(closed, abs=1e-6)

    def test_werner_monotone_in_visibility(self):
        totals = []
        for v in np.linspace(0.0, 1.0, 21):
            t = correlation_tensor(build_preset(StatePreset("werner_ghz", 3, float(v))))
            totals.append(maximize_corr_info(t, LOOSE).max_total)
        diffs = np.diff(totals)
        assert np.all(diffs >= -1e-9)

    def test_deterministic_given_seed(self, rng):
        t = correlation_tensor(random_density_matrix(rng, 2))
        a = maximize_corr_info(t, OptimizerOptions(restarts=5, seed=3))
        b = maximize_corr_info(t, OptimizerOptions(restarts=5, seed=3))
        assert a.max_total == b.max_total
        np.testing.assert_array_equal(a.argmax_frame.axis1, b.argmax_frame.axis1)

    def test_report_fields(self):
        t = correlation_tensor(build_preset(StatePreset("maximally_mixed", 2)))
        verdict = maximize_corr_info(t, OptimizerOptions(restarts=3))
        rep = verdict.optimizer_report
        assert rep.restarts >= 3
        assert rep.iterations > 0
        assert rep.residual >= 0.0

    def test_report_is_the_search_result(self):
        # sweeps of the HOOI search at restarts=3, seed=1, as reported before
        # the search result became the report; 4 warm starts + 3 random ones
        rng = np.random.default_rng(31)
        for n, sweeps in ((2, 2), (3, 124), (4, 99)):
            t = correlation_tensor(random_density_matrix(rng, n))
            verdict = maximize_corr_info(t, OptimizerOptions(restarts=3, seed=1))
            rep = verdict.optimizer_report
            assert isinstance(rep, SearchResult)
            assert (rep.restarts, rep.iterations, rep.converged) == (7, sweeps, True)
            assert rep.value == verdict.max_total
            if n == 2:
                closed = two_qubit_info_criterion(t).optimizer_report
                assert isinstance(closed, SearchResult)
                assert (closed.restarts, closed.iterations, closed.converged) == (0, 0, True)
                assert closed.residual == 0.0


    @pytest.mark.parametrize(
        "kind,n,v",
        [("product_all_plus_x", 3, None), ("maximally_mixed", 3, None), ("ghz", 3, None),
         ("werner_ghz", 3, 0.45), ("werner_ghz", 4, 0.55)],
    )
    def test_fixed_warm_start_takes_one_sweep(self, kind, n, v):
        # the HOSVD start of a GHZ-family or product preset is a fixed point
        # of the sweep, which returns it byte for byte
        t = correlation_tensor(build_preset(StatePreset(kind, n, v)))
        rep = maximize_corr_info(t, OptimizerOptions(restarts=8, seed=1)).optimizer_report
        assert (rep.iterations, rep.converged, rep.residual) == (1, True, 0.0)


class TestPresetValues:
    """The sweep reads its value off its last environment.  On every preset
    that value equals, bit for bit, the projector contraction at the
    reported normals (renormalized), so no preset value moves in its last
    digits, and GHZ's maximum is exactly 2^(N-1)."""

    def test_values_are_the_projected_sums(self):
        grid = [*np.linspace(0.0, 1.0, 11), *map(visibility_threshold, range(2, 9))]
        presets = [
            StatePreset(kind, n)
            for kind in PRESET_KINDS
            if kind != "werner_ghz"
            for n in range(1, 7)
            if FIXED_QUBITS.get(kind, n) == n
        ]
        presets += [StatePreset("werner_ghz", n, float(v)) for n in range(1, 9) for v in grid]
        for p in presets:
            t = correlation_tensor(build_preset(p))
            rep = maximize_corr_info(t).optimizer_report
            assert rep.value == projected_plane_sum(t, rep.x), p

    def test_ghz_is_exactly_a_power_of_two(self):
        for n in range(1, 11):
            t = correlation_tensor(build_preset(StatePreset("ghz", n)))
            assert maximize_corr_info(t).max_total == 2.0 ** (n - 1), n


class TestUpperBound:
    def test_bounds_every_plane_choice(self, rng):
        for n in (2, 3, 4):
            t = correlation_tensor(random_density_matrix(rng, n))
            ceiling = info_upper_bound(t)
            for _ in range(20):
                frame = frame_from_normals(rng.standard_normal((n, 3)))
                assert corr_info(t, frame).total <= ceiling + 1e-12
            assert maximize_corr_info(t, LOOSE).max_total <= ceiling + 1e-12

    def test_exact_for_two_qubits_and_ghz_werner(self, rng):
        t = correlation_tensor(random_density_matrix(rng, 2))
        assert info_upper_bound(t) == pytest.approx(
            two_qubit_info_criterion(t).max_total, abs=1e-12
        )
        for n in (3, 4):
            t = correlation_tensor(build_preset(StatePreset("werner_ghz", n, 0.7)))
            assert info_upper_bound(t) == pytest.approx(2 ** (n - 1) * 0.49, abs=1e-12)

    def test_search_ends_at_the_ceiling_with_the_same_result(self, rng, monkeypatch):
        # two qubits: the HOSVD start meets the ceiling, so no other start runs
        t = correlation_tensor(random_density_matrix(rng, 2))
        cut = maximize_corr_info(t, FAST)
        monkeypatch.setattr("entcrit.info.info_upper_bound", lambda t: np.inf)
        full = maximize_corr_info(t, FAST)
        assert cut.max_total == full.max_total
        np.testing.assert_array_equal(cut.argmax_frame.axis1, full.argmax_frame.axis1)
        assert cut.optimizer_report.restarts == full.optimizer_report.restarts
        assert cut.optimizer_report.iterations <= 3 < full.optimizer_report.iterations


class TestStackedModeGramSolves:
    """One stacked eigh and one stacked eigvalsh per tensor give the bytes of
    the per-qubit solves they replaced."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_hosvd_start_and_ceiling(self, rng, n, monkeypatch):
        calls = []
        original = info.maximize

        def spy(sweep, warm, options, ceiling, default_restarts):
            calls.append((warm, ceiling))
            return original(sweep, warm[:1], options, ceiling, default_restarts)

        monkeypatch.setattr(info, "maximize", spy)
        physical = correlation_tensor(random_density_matrix(rng, min(n, 6)))
        for t in (random_correlation_tensor(rng, n), physical):
            want = loop_info_upper_bound(t)
            assert info_upper_bound(t).hex() == want.hex()
            maximize_corr_info(t, OptimizerOptions(restarts=0))
            warm, ceiling = calls.pop()
            assert warm[0].tobytes() == loop_least_directions(t).tobytes()
            assert ceiling.hex() == want.hex()
            if n == 2:
                x = two_qubit_info_criterion(t).optimizer_report.x
                assert x.tobytes() == loop_least_directions(t).tobytes()


class TestTwoQubitClosedForm:
    def test_bell_state(self):
        t = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))
        assert two_qubit_info_criterion(t).max_total == pytest.approx(2.0, abs=1e-10)

    def test_werner_boundary(self):
        v = 1.0 / np.sqrt(2.0)
        t = correlation_tensor(build_preset(StatePreset("werner_ghz", 2, v)))
        verdict = two_qubit_info_criterion(t)
        assert verdict.max_total == pytest.approx(1.0, abs=1e-10)
        assert not verdict.entangled_by_info_criterion  # within decision tolerance

    def test_product_states_exactly_one(self, rng):
        for _ in range(50):
            t = correlation_tensor(random_product_state(rng, 2))
            closed = two_qubit_info_criterion(t).max_total
            assert closed == pytest.approx(1.0, abs=1e-10)
            searched = maximize_corr_info(t, LOOSE).max_total
            assert searched == pytest.approx(closed, abs=1e-6)

    def test_rejects_other_sizes(self, rng):
        t = correlation_tensor(random_density_matrix(rng, 3))
        with pytest.raises(InputError):
            two_qubit_info_criterion(t)

    def test_objective_matches_frame_evaluation(self, rng):
        # the value the search reports, read off its last environment, is
        # the in-plane sum of an explicit contraction at the frame it reports
        for n in (2, 3, 4, 5):
            t = correlation_tensor(random_density_matrix(rng, n))
            verdict = maximize_corr_info(t, LOOSE)
            assert abs(verdict.max_total - corr_info(t, verdict.argmax_frame).total) <= 1e-12

    def test_decision_tolerance_boundary(self):
        # just above the tolerance flips the verdict
        t = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))
        verdict = two_qubit_info_criterion(t)
        assert verdict.max_total > 1.0 + DECISION_TOLERANCE
        assert verdict.entangled_by_info_criterion
