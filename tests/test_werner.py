import json

import numpy as np
import pytest

from conftest import loop_scan_reports, loop_scan_rows
from entcrit.bell import maximize_general_bell
from entcrit.info import maximize_corr_info
from entcrit.pauli import LocalFrame, correlation_tensor, plane_subtensor
from entcrit.search import OptimizerOptions
from entcrit.states import InputError, StatePreset, build_preset
from entcrit.werner import (
    analyze_werner,
    count_nonzero_inplane,
    ScanRow,
    scan_to_csv,
    scan_to_json_dict,
    visibility_scan,
    visibility_threshold,
    werner_inplane_tensor,
)

FAST = OptimizerOptions(restarts=4)


class TestInplaneTensor:
    def test_two_qubits_full_visibility(self):
        pt = werner_inplane_tensor(2, 1.0)
        assert pt.values[0, 0] == 1.0
        assert pt.values[1, 1] == -1.0
        assert pt.values[0, 1] == 0.0
        assert pt.values[1, 0] == 0.0

    def test_three_qubits_half_visibility(self):
        pt = werner_inplane_tensor(3, 0.5)
        assert pt.values[0, 0, 0] == 0.5
        for idx in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            assert pt.values[idx] == -0.5
        for idx in [(1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            assert pt.values[idx] == 0.0

    def test_zero_visibility_all_zero(self):
        for n in (1, 2, 5):
            assert np.all(werner_inplane_tensor(n, 0.0).values == 0.0)

    def test_matches_numerical_tensor(self):
        for n in (2, 3, 4, 5, 6):
            for v in (0.0, 0.3, 0.7, 1.0):
                closed = werner_inplane_tensor(n, v).values
                t = correlation_tensor(build_preset(StatePreset("werner_ghz", n, v)))
                numeric = plane_subtensor(t, LocalFrame.canonical(n)).values
                np.testing.assert_allclose(closed, numeric, atol=1e-10)

    def test_range_validation(self):
        with pytest.raises(InputError):
            werner_inplane_tensor(2, 1.5)
        with pytest.raises(InputError):
            werner_inplane_tensor(0, 0.5)


class TestCounts:
    def test_small_counts(self):
        assert count_nonzero_inplane(2) == 2
        assert count_nonzero_inplane(3) == 4
        assert count_nonzero_inplane(5) == 16

    def test_binomial_sum_oracle(self):
        from math import comb

        for n in range(1, 9):
            direct = 1 + sum(comb(n, 2 * k) for k in range(1, n // 2 + 1))
            assert count_nonzero_inplane(n) == direct

    def test_matches_direct_count(self):
        for n in range(2, 9):
            pt = werner_inplane_tensor(n, 1.0)
            assert count_nonzero_inplane(n) == int(np.count_nonzero(pt.values))


class TestThreshold:
    def test_reference_values(self):
        # matched to one ulp; the double closest to the N=4 real value is
        # 0.3535533905932738
        assert visibility_threshold(2) == pytest.approx(0.7071067811865476, abs=1e-16)
        assert visibility_threshold(3) == pytest.approx(0.5, abs=0)
        assert visibility_threshold(4) == pytest.approx(0.35355339059327373, abs=1e-16)

    def test_single_qubit_closed_forms(self):
        # one qubit: threshold 1, information sum V^2, Bell ratio V
        assert visibility_threshold(1) == 1.0
        for v in (0.0, 0.3, 0.5, 1.0):
            a = analyze_werner(1, v)
            assert (a.nonzero_inplane_count, a.info_sum, a.threshold) == (1, v * v, 1.0)
            assert a.lr_describable
        for r in visibility_scan(1, 11, FAST):
            assert r.info_sum == r.visibility * r.visibility
            assert r.bell_ratio == pytest.approx(r.visibility, abs=1e-12)
            assert not (r.info_entangled or r.bell_violated)
        with pytest.raises(InputError):
            visibility_threshold(0)

    def test_analysis_fields(self):
        a = analyze_werner(3, 0.4)
        assert a.nonzero_inplane_count == 4
        assert a.info_sum == pytest.approx(4 * 0.16, abs=1e-12)
        assert a.lr_describable
        b = analyze_werner(3, 0.6)
        assert not b.lr_describable

    def test_info_sum_exact_powers(self):
        for n in range(2, 11):
            assert analyze_werner(n, 1.0).info_sum == 2.0 ** (n - 1)


class TestScan:
    def test_two_qubit_crossing(self):
        rows = visibility_scan(2, 101, FAST)
        crossing = next(r.visibility for r in rows if r.info_entangled)
        assert 0.70 < crossing <= 0.71 + 1e-12

    def test_three_qubit_crossing_on_grid_point(self):
        rows = visibility_scan(3, 101, FAST)
        at_half = next(r for r in rows if abs(r.visibility - 0.5) < 1e-12)
        assert at_half.info_sum == pytest.approx(1.0, abs=1e-12)
        assert not at_half.info_entangled
        just_above = next(r for r in rows if abs(r.visibility - 0.51) < 1e-12)
        assert just_above.info_entangled

    def test_full_visibility_info_sum(self):
        for n in (2, 3):
            rows = visibility_scan(n, 11, FAST)
            assert rows[-1].info_sum == 2.0 ** (n - 1)

    def test_columns_monotone(self):
        rows = visibility_scan(3, 51, FAST)
        info = [r.info_sum for r in rows]
        lhs = [r.bell_lhs for r in rows]
        assert np.all(np.diff(info) >= 0)
        assert np.all(np.diff(lhs) >= 0)

    def test_criteria_agree_on_family(self):
        # the headline coincidence: both verdict columns flip at the same row
        rows = visibility_scan(3, 101, FAST)
        info_flip = next(r.visibility for r in rows if r.info_entangled)
        bell_flip = next(r.visibility for r in rows if r.bell_violated)
        assert info_flip == bell_flip

    def test_scan_rows_ordered(self):
        rows = visibility_scan(2, 11, FAST)
        vs = [r.visibility for r in rows]
        assert vs == sorted(vs)
        assert vs[0] == 0.0
        assert vs[-1] == 1.0

    def test_csv_format(self):
        rows = visibility_scan(2, 5, FAST)
        csv = scan_to_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "V,info_sum,bell_lhs,bell_ratio,info_entangled,bell_violated"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[4] in ("true", "false")

    def test_grid_validation(self):
        with pytest.raises(InputError):
            visibility_scan(2, 1)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rows_bitwise_equal_to_scalar_formulas(self, n):
        tensor = correlation_tensor(build_preset(StatePreset("ghz", n)))
        full_lhs = maximize_general_bell(tensor, FAST)[0].lhs_general
        for grid in (2, 11, 1001):
            rows = visibility_scan(n, grid, FAST)
            want = loop_scan_rows(n, grid, full_lhs)
            assert len(rows) == grid
            for row, ref in zip(rows, want):
                for field in ScanRow._fields:
                    got, exp = getattr(row, field), getattr(ref, field)
                    assert type(got) is type(exp)
                    assert got == exp and np.signbit(got) == np.signbit(exp)
            csv, doc = loop_scan_reports(n, want)
            assert scan_to_csv(rows) == csv
            assert json.dumps(scan_to_json_dict(n, rows), indent=2) == json.dumps(doc, indent=2)


class TestOptimizerAgreement:
    def test_search_matches_closed_form_at_full_visibility(self):
        for n in (2, 3):
            t = correlation_tensor(build_preset(StatePreset("ghz", n)))
            found = maximize_corr_info(t, FAST).max_total
            assert found == pytest.approx(2.0 ** (n - 1), rel=1e-6)
