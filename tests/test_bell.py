import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cosine_bk_signs,
    kron_trace_table,
    random_density_matrix,
    random_separable_state,
    random_unit_vectors,
)
from entcrit.bell import (
    CorrelationTable,
    SettingsPair,
    SignFunction,
    _seesaw,
    belinskii_klyshko_sign_function,
    belinskii_klyshko_value,
    bell_report_dict,
    correlation_table,
    general_bell_lhs,
    maximize_general_bell,
    maximize_sign_function_value,
    necsuf_lhs,
    parse_settings_file,
    sign_function_inequality,
    sign_grid,
    signed_sums,
    sufficient_lr_condition,
)
from entcrit.info import corr_info, info_upper_bound, maximize_corr_info
from entcrit.pauli import LocalFrame, correlation_tensor, plane_subtensor, rotate_frame_in_plane
from entcrit.search import OptimizerOptions, SearchResult
from entcrit.states import InputError, StatePreset, build_preset

SQ2 = np.sqrt(2.0)
FAST = OptimizerOptions(restarts=6)


def inplane_settings(azimuths1, azimuths2):
    """Settings in each qubit's x-y plane at the given azimuths."""
    n1 = np.array([[np.cos(a), np.sin(a), 0.0] for a in azimuths1])
    n2 = np.array([[np.cos(a), np.sin(a), 0.0] for a in azimuths2])
    return SettingsPair(n1, n2)


def random_table(rng, n):
    return CorrelationTable(n, rng.uniform(-1.0, 1.0, size=(2,) * n))


def random_sign_function(rng, n):
    return SignFunction(n, rng.choice([-1.0, 1.0], size=(2,) * n))


def strategy_table(a1, a2):
    """Correlation table of one deterministic strategy."""
    n = len(a1)
    vals = np.empty((2,) * n)
    for pos, k in enumerate(itertools.product((0, 1), repeat=n)):
        prod = 1.0
        for q in range(n):
            prod *= a1[q] if k[q] == 0 else a2[q]
        vals.ravel()[pos] = prod
    return CorrelationTable(n, vals)


class TestQuantumCorrelation:
    """Single entries of correlation_table: the quantum correlation function
    along one direction per qubit."""

    def test_bell_state_xx(self):
        t = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))
        x = [1.0, 0.0, 0.0]
        y = [0.0, 1.0, 0.0]
        table = correlation_table(t, SettingsPair([x, x], [y, y]))
        assert table.values[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert table.values[1, 1] == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_zero(self, rng):
        t = correlation_tensor(build_preset(StatePreset("maximally_mixed", 3)))
        pair = SettingsPair(random_unit_vectors(rng, 3), random_unit_vectors(rng, 3))
        np.testing.assert_allclose(correlation_table(t, pair).values, 0.0, atol=1e-12)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(InputError):
            SettingsPair([[1.0, 0, 0], [2.0, 0, 0]], [[1.0, 0, 0], [1.0, 0, 0]])

    def test_nan_direction_rejected(self):
        with pytest.raises(InputError):
            SettingsPair([[np.nan, 0, 0], [1.0, 0, 0]], [[0, 1.0, 0], [0, 1.0, 0]])

    def test_matches_direct_trace(self, rng):
        # every entry, at independent n1 != n2, against Kronecker products
        for n in (1, 2, 3, 4):
            for _ in range(5):
                dm = random_density_matrix(rng, n)
                n1 = random_unit_vectors(rng, n)
                n2 = random_unit_vectors(rng, n)
                table = correlation_table(correlation_tensor(dm), SettingsPair(n1, n2))
                np.testing.assert_allclose(
                    table.values, kron_trace_table(dm, n1, n2), rtol=0, atol=1e-10
                )


class TestCorrelationTable:
    def test_werner_cosine_form(self, rng):
        for n in (2, 3):
            v = float(rng.uniform(0.2, 1.0))
            t = correlation_tensor(build_preset(StatePreset("werner_ghz", n, v)))
            az1 = rng.uniform(-np.pi, np.pi, n)
            az2 = rng.uniform(-np.pi, np.pi, n)
            table = correlation_table(t, inplane_settings(az1, az2))
            for k in itertools.product((0, 1), repeat=n):
                phase = sum(az1[q] if k[q] == 0 else az2[q] for q in range(n))
                assert table.values[k] == pytest.approx(v * np.cos(phase), abs=1e-10)

    def test_degenerate_settings_constant(self, rng):
        t = correlation_tensor(random_density_matrix(rng, 2))
        dirs = random_unit_vectors(rng, 2)
        table = correlation_table(t, SettingsPair(dirs, dirs.copy()))
        assert np.ptp(table.values) <= 1e-12

    def test_chsh_optimal_values(self):
        t = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))
        # x/y for one observer, diagonal pair rotated for the other
        table = correlation_table(
            t, inplane_settings([0.0, 3 * np.pi / 4], [np.pi / 2, -3 * np.pi / 4])
        )
        vals = table.values
        np.testing.assert_allclose(np.abs(vals), 1.0 / SQ2, atol=1e-12)
        chsh = abs(vals[0, 0] + vals[0, 1] + vals[1, 0] - vals[1, 1])
        assert chsh == pytest.approx(2.0 * SQ2, abs=1e-12)

    def test_nan_entry_rejected(self):
        with pytest.raises(InputError):
            CorrelationTable(2, [[np.nan, 0.0], [0.0, 0.0]])


class TestGeneralBell:
    def test_zero_table(self):
        ev = general_bell_lhs(CorrelationTable(2, np.zeros((2, 2))))
        assert ev.lhs_general == 0.0
        assert not ev.violated

    def test_deterministic_strategies_saturate_bound(self):
        for n in (1, 2, 3):
            for a1 in itertools.product((1, -1), repeat=n):
                for a2 in itertools.product((1, -1), repeat=n):
                    ev = general_bell_lhs(strategy_table(a1, a2))
                    assert ev.lhs_general <= 2.0**n + 1e-12
                    # deterministic strategies land exactly on the bound
                    assert ev.lhs_general == pytest.approx(2.0**n, abs=1e-12)

    def test_strategy_mixtures_stay_bounded(self, rng):
        n = 3
        for _ in range(20):
            k = int(rng.integers(2, 6))
            weights = rng.dirichlet(np.ones(k))
            vals = np.zeros((2,) * n)
            for w in weights:
                a1 = rng.choice([1, -1], n)
                a2 = rng.choice([1, -1], n)
                vals += w * strategy_table(a1, a2).values
            ev = general_bell_lhs(CorrelationTable(n, vals))
            assert ev.lhs_general <= 2.0**n + 1e-9

    def test_ghz3_mermin_settings(self):
        t = correlation_tensor(build_preset(StatePreset("ghz", 3)))
        alpha = np.pi / 3
        table = correlation_table(
            t,
            inplane_settings([alpha] * 3, [alpha + np.pi / 2] * 3),
        )
        ev = general_bell_lhs(table)
        assert ev.lhs_general == pytest.approx(16.0, abs=1e-10)
        assert ev.lhs_general > 8.0
        assert belinskii_klyshko_value(table) == pytest.approx(4.0, abs=1e-10)

    def test_per_s_sum_matches_lhs(self, rng):
        table = random_table(rng, 3)
        ev = general_bell_lhs(table)
        assert ev.lhs_general == pytest.approx(ev.moduli.sum(), abs=1e-12)
        assert ev.moduli.shape == (2, 2, 2)

    def test_sign_grid_is_product_order(self):
        # row i is the sign tuple at flat C-order index i, +1 first
        for n in range(1, 8):
            grid = sign_grid(n)
            assert grid.shape == (2**n, n)
            assert grid.tolist() == [list(s) for s in itertools.product((1, -1), repeat=n)]

    def test_signed_sums_match_explicit_expansion(self, rng):
        # coefficients in the orthogonal sign-monomial basis equal B(s)
        for _ in range(50):
            table = random_table(rng, 2)
            b = signed_sums(table)
            for pos, s in enumerate(sign_grid(2).tolist()):
                manual = 0.0
                for k_pos, k in enumerate(itertools.product((1, 2), repeat=2)):
                    coeff = 1.0
                    for sj, kj in zip(s, k):
                        coeff *= sj if kj == 1 else 1.0
                    manual += coeff * table.values.ravel()[k_pos]
                assert b.ravel()[pos] == pytest.approx(manual, abs=1e-12)


class TestSignFunctions:
    def test_constant_sign_function_reduces_to_last_entry(self, rng):
        for n in (2, 3):
            table = random_table(rng, n)
            sgn = SignFunction(n, np.ones((2,) * n))
            expected = 2.0**n * abs(table.values[(1,) * n])
            assert sign_function_inequality(table, sgn) == pytest.approx(expected, abs=1e-12)

    def test_bk_n2_is_chsh(self, rng):
        for _ in range(20):
            table = random_table(rng, 2)
            e = table.values
            chsh = abs(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])
            assert belinskii_klyshko_value(table) == pytest.approx(chsh, abs=1e-12)

    def test_bk_n3_is_mermin(self, rng):
        for _ in range(20):
            table = random_table(rng, 3)
            e = table.values
            mermin = abs(e[0, 1, 1] + e[1, 0, 1] + e[1, 1, 0] - e[0, 0, 0])
            assert belinskii_klyshko_value(table) == pytest.approx(mermin, abs=1e-12)

    def test_bk_values_exactly_pm_one(self):
        for n in range(1, 7):
            sgn = belinskii_klyshko_sign_function(n)
            assert np.all(np.abs(sgn.values) == 1.0)

    def test_bk_lookup_bitwise_equal_to_cosine_formula(self):
        for n in range(1, 13):
            got = belinskii_klyshko_sign_function(n).values
            want = cosine_bk_signs(n)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), n

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_triangle_dominance(self, data):
        seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(2, 4))
        table = random_table(rng, n)
        sgn = random_sign_function(rng, n)
        assert sign_function_inequality(table, sgn) <= general_bell_lhs(table).lhs_general + 1e-12

    def test_triangle_dominance_corpus(self, rng):
        tables = [random_table(rng, 3) for _ in range(50)]
        sign_functions = [random_sign_function(rng, 3) for _ in range(50)]
        for table in tables:
            lhs = general_bell_lhs(table).lhs_general
            for sgn in sign_functions:
                assert sign_function_inequality(table, sgn) <= lhs + 1e-12


class TestMaximizeGeneralBell:
    def test_maximally_mixed_never_violates(self):
        t = correlation_tensor(build_preset(StatePreset("maximally_mixed", 2)))
        ev, _ = maximize_general_bell(t, FAST)
        assert not ev.violated
        assert ev.lhs_general <= 4.0 + 1e-9

    def test_bell_state_reaches_4_sqrt2(self):
        t = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))
        ev, settings_pair = maximize_general_bell(t, FAST)
        assert ev.lhs_general == pytest.approx(4.0 * SQ2, abs=1e-4)
        assert ev.lhs_general / ev.bound == pytest.approx(SQ2, abs=1e-4)
        assert ev.violated
        # returned settings reproduce the returned evaluation
        again = general_bell_lhs(correlation_table(t, settings_pair))
        assert again.lhs_general == pytest.approx(ev.lhs_general, abs=1e-12)
        # and carry the table evaluated there, which the local model reads
        assert ev.table.values.tobytes() == again.table.values.tobytes()

    def test_bell_state_grid_oracle(self):
        # two-stage in-plane azimuth scan; the refinement step is one degree
        t = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))

        def lhs_of(a1, a2, b1, b2):
            e00 = -np.cos(a1 + b1)
            e01 = -np.cos(a1 + b2)
            e10 = -np.cos(a2 + b1)
            e11 = -np.cos(a2 + b2)
            return (
                np.abs(e00 + e01 + e10 + e11)
                + np.abs(-e00 + e01 - e10 + e11)
                + np.abs(-e00 - e01 + e10 + e11)
                + np.abs(e00 - e01 - e10 + e11)
            )

        def scan(axes):
            grids = np.meshgrid(*axes, indexing="ij")
            values = lhs_of(*grids)
            best = np.unravel_index(np.argmax(values), values.shape)
            return [ax[i] for ax, i in zip(axes, best)], float(values[best])

        coarse = np.linspace(-np.pi, np.pi, 31)
        center, _ = scan([coarse] * 4)
        span = coarse[1] - coarse[0]
        count = int(round(2 * np.degrees(span))) + 1
        _, oracle = scan([np.linspace(c - span, c + span, count) for c in center])

        assert oracle == pytest.approx(4.0 * SQ2, abs=2e-3)
        ev, _ = maximize_general_bell(t, FAST)
        assert ev.lhs_general >= oracle - 1e-3

    def test_werner_above_threshold_violates(self):
        t = correlation_tensor(build_preset(StatePreset("werner_ghz", 3, 0.51)))
        ev, _ = maximize_general_bell(t, FAST)
        assert ev.violated

    def test_named_combination_maxima(self):
        t2 = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))
        val2, s2 = maximize_sign_function_value(
            t2, belinskii_klyshko_sign_function(2), FAST
        )
        assert val2 / 2.0 == pytest.approx(2.0 * SQ2, abs=1e-4)
        assert belinskii_klyshko_value(correlation_table(t2, s2)) == pytest.approx(
            2.0 * SQ2, abs=1e-4
        )

    def test_deterministic_given_seed(self, rng):
        t = correlation_tensor(random_density_matrix(rng, 2))
        a, sa = maximize_general_bell(t, OptimizerOptions(restarts=4, seed=9))
        b, sb = maximize_general_bell(t, OptimizerOptions(restarts=4, seed=9))
        assert a.lhs_general == b.lhs_general
        np.testing.assert_array_equal(sa.n1, sb.n1)

    def test_member_search_rejects_qubit_mismatch(self):
        t = correlation_tensor(build_preset(StatePreset("ghz", 3)))
        with pytest.raises(InputError):
            maximize_sign_function_value(t, belinskii_klyshko_sign_function(2), FAST)

    def test_two_qubit_ratio_matches_closed_form(self):
        # two qubits: the master ratio is sqrt(t1^2 + t2^2), t1 >= t2 the two
        # largest singular values of the 3x3 Cartesian block (Horodecki 1995)
        rng = np.random.default_rng(20)
        for i in range(20):
            t = correlation_tensor(random_density_matrix(rng, 2, terms=1 + i % 3))
            sv = np.linalg.svd(t.cartesian(), compute_uv=False)
            ev, _ = maximize_general_bell(t, FAST)
            assert ev.lhs_general / ev.bound == pytest.approx(np.hypot(sv[0], sv[1]), abs=1e-9)

    def test_ratio_never_exceeds_root_of_info_ceiling(self, rng):
        # Cauchy-Schwarz over the sign tuples: ratio <= sqrt(in-plane information)
        for n in (2, 3, 4):
            t = correlation_tensor(random_density_matrix(rng, n))
            root = np.sqrt(info_upper_bound(t))
            for _ in range(20):
                v = random_unit_vectors(rng, 2 * n)
                pair = SettingsPair(v[:n], v[n:])
                ev = general_bell_lhs(correlation_table(t, pair))
                assert ev.lhs_general / ev.bound <= root + 1e-12
            if n < 4:  # a four-qubit search alone takes seconds
                ev = maximize_general_bell(t, FAST)[0]
                assert ev.lhs_general / ev.bound <= root + 1e-12

    def test_search_ends_at_the_ceiling_with_the_same_result(self, rng, monkeypatch):
        t = correlation_tensor(random_density_matrix(rng, 2))
        cut, s_cut = maximize_general_bell(t, FAST)
        monkeypatch.setattr("entcrit.bell.info_upper_bound", lambda t: np.inf)
        full, s_full = maximize_general_bell(t, FAST)
        assert cut.lhs_general == full.lhs_general
        np.testing.assert_array_equal(s_cut.n1, s_full.n1)
        np.testing.assert_array_equal(s_cut.n2, s_full.n2)

    def test_search_result_is_pinned(self):
        # sweeps of the see-saw at restarts=3, seed=1, as counted before the
        # sweep contracted through pauli.environment; the warm starts are the
        # SVD start at N=2 and the 8 azimuth families
        rng = np.random.default_rng(31)
        opts = OptimizerOptions(restarts=3, seed=1)
        for n, starts, master, member in ((2, 12, 2, 2), (3, 11, 401, 395), (4, 11, 3990, 4001)):
            t = correlation_tensor(random_density_matrix(rng, n))
            res = _seesaw(t, None, opts)
            assert isinstance(res, SearchResult)
            assert (res.restarts, res.iterations, res.converged) == (starts, master, True)
            pair = SettingsPair(res.x[0], res.x[1])
            # the sweep's value is read off the last qubit's environment
            lhs = general_bell_lhs(correlation_table(t, pair)).lhs_general
            assert res.value == pytest.approx(lhs, rel=1e-12, abs=0.0)

            sgn = belinskii_klyshko_sign_function(n)
            res = _seesaw(t, sgn.values, opts)
            assert (res.restarts, res.iterations, res.converged) == (starts, member, True)
            pair = SettingsPair(res.x[0], res.x[1])
            value = sign_function_inequality(correlation_table(t, pair), sgn)
            assert res.value == pytest.approx(value, rel=1e-12, abs=0.0)


class TestMasterSumIdentity:
    def test_master_sum_is_a_weighted_in_plane_sum(self):
        # with e1, e2 the normalized n1 + n2 and n2 - n1, each qubit's rows
        # n2 + s n1 are 2 cos(theta) e1 and 2 sin(theta) e2, so the master sum
        # is 2^N times the cosine-weighted in-plane sum at angles pi/2 - theta
        rng = np.random.default_rng(44)
        for n in (2, 3, 4, 5):
            t = correlation_tensor(random_density_matrix(rng, n))
            for _ in range(20):
                v = random_unit_vectors(rng, 2 * n)
                n1, n2 = v[:n], v[n:]
                plus, minus = n1 + n2, n2 - n1
                e1 = plus / np.linalg.norm(plus, axis=1, keepdims=True)
                e2 = minus / np.linalg.norm(minus, axis=1, keepdims=True)
                theta = np.arccos(np.linalg.norm(plus, axis=1) / 2.0)
                frame = LocalFrame(e1, e2)
                lhs = general_bell_lhs(correlation_table(t, SettingsPair(n1, n2))).lhs_general
                weighted = 2.0**n * necsuf_lhs(plane_subtensor(t, frame), np.pi / 2 - theta)
                assert lhs == pytest.approx(weighted, rel=1e-12, abs=0.0)
                # Cauchy-Schwarz: the two criteria agree in essence
                assert lhs <= 2.0**n * np.sqrt(corr_info(t, frame).total) * (1 + 1e-12)


class TestNecsufLhs:
    def test_zero_alphas_leave_second_axis_term(self, rng):
        t = correlation_tensor(random_density_matrix(rng, 2))
        pt = plane_subtensor(t, LocalFrame.canonical(2))
        value = necsuf_lhs(pt, [0.0, 0.0])
        assert value == pytest.approx(abs(pt.values[1, 1]), abs=1e-12)

    def test_bell_state_saturation(self):
        # quarter-turn on one side equalizes the block; alphas pi/4 saturate
        t = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))
        frame = rotate_frame_in_plane(LocalFrame.canonical(2), [np.pi / 4, 0.0])
        pt = plane_subtensor(t, frame)
        assert necsuf_lhs(pt, [np.pi / 4, np.pi / 4]) == pytest.approx(SQ2, abs=1e-12)

    def test_bell_state_scan_oracle(self):
        t = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))
        frame = rotate_frame_in_plane(LocalFrame.canonical(2), [np.pi / 4, 0.0])
        pt = plane_subtensor(t, frame)
        # |T| entries are all 1/sqrt(2), so the sum factorizes per qubit
        step = np.deg2rad(0.1)
        alphas = np.arange(0.0, np.pi / 2 + step, step)
        w1 = np.abs(np.sin(alphas)) + np.abs(np.cos(alphas))
        best = float(np.max(np.outer(w1, w1))) / SQ2
        assert best == pytest.approx(SQ2, abs=1e-6)

    def test_cauchy_schwarz_bound(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 4))
            t = correlation_tensor(random_density_matrix(rng, n))
            pt = plane_subtensor(t, LocalFrame.canonical(n))
            alphas = rng.uniform(-np.pi, np.pi, n)
            assert necsuf_lhs(pt, alphas) <= np.sqrt(pt.squared_sum()) + 1e-12


class TestSufficientCondition:
    def test_werner_below_root_half(self):
        t = correlation_tensor(build_preset(StatePreset("werner_ghz", 2, 0.6)))
        max_sum, holds = sufficient_lr_condition(t)
        assert holds
        ev, _ = maximize_general_bell(t, FAST)
        assert not ev.violated

    def test_bell_state_fails_condition(self):
        t = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))
        max_sum, holds = sufficient_lr_condition(t)
        assert not holds
        assert max_sum == pytest.approx(2.0, abs=1e-6)

    def test_product_states_hold_at_one(self, rng):
        from conftest import random_product_state

        t = correlation_tensor(random_product_state(rng, 2))
        max_sum, holds = sufficient_lr_condition(t)
        assert holds
        assert max_sum == pytest.approx(1.0, abs=1e-6)

    def test_implication_chain(self, rng):
        # condition holds => no violation; violation => information above one
        loose = OptimizerOptions(restarts=2)
        for _ in range(12):
            n = int(rng.integers(2, 4))
            if rng.uniform() < 0.5:
                dm = random_separable_state(rng, n)
            else:
                v = float(rng.uniform(0.3, 1.0))
                dm = build_preset(StatePreset("werner_ghz", n, v))
            t = correlation_tensor(dm)
            max_sum, holds = sufficient_lr_condition(t)
            ev, _ = maximize_general_bell(t, loose)
            if holds:
                assert not ev.violated
            if ev.violated:
                assert max_sum > 1.0


class TestSettingsIO:
    def test_parse_settings_file(self):
        doc = '{"pairs":[{"n1":[1,0,0],"n2":[0,1,0]},{"n1":[0,0,1],"n2":[1,0,0]}]}'
        pair = parse_settings_file(doc, 2)
        np.testing.assert_allclose(pair.n1[0], [1, 0, 0])
        np.testing.assert_allclose(pair.n2[1], [1, 0, 0])

    def test_settings_count_mismatch(self):
        doc = '{"pairs":[{"n1":[1,0,0],"n2":[0,1,0]}]}'
        with pytest.raises(InputError):
            parse_settings_file(doc, 2)

    def test_report_dict_schema(self):
        t = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))
        ev, settings_pair = maximize_general_bell(t, FAST)
        doc = bell_report_dict(ev, settings_pair)
        assert set(doc) == {"n_qubits", "lhs", "bound", "ratio", "violated", "settings", "per_s"}
        assert len(doc["per_s"]) == 4
        assert [e["s"] for e in doc["per_s"]] == [list(s) for s in itertools.product((1, -1), repeat=2)]
        assert len(doc["settings"]) == 2
