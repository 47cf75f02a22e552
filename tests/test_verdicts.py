"""Each criterion decides by one rule: `info.entangled` and `bell.violates`.
Every verdict the package reports must agree with them, at the tolerance
edge as well as on seeded states."""

import json

import numpy as np
import pytest

from conftest import random_density_matrix
from entcrit.bell import (
    VIOLATION_TOLERANCE,
    CorrelationTable,
    general_bell_lhs,
    sufficient_lr_condition,
    violates,
)
from entcrit.cli import main
from entcrit.info import DECISION_TOLERANCE, _verdict, entangled, maximize_corr_info
from entcrit.lhv import MASS_TOL, BellBoundError, construct_lhv
from entcrit.pauli import CorrelationTensor, correlation_tensor
from entcrit.search import OptimizerOptions, SearchResult
from entcrit.werner import analyze_werner, visibility_scan, visibility_threshold

FAST = OptimizerOptions(restarts=2)


def edge(x):
    """x and its two floating-point neighbours, in increasing order."""
    return np.array([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


class TestRules:
    def test_entangled_at_the_edge(self):
        values = edge(1.0 + DECISION_TOLERANCE)
        assert [entangled(float(v)) for v in values] == [False, False, True]
        assert entangled(values).tolist() == [False, False, True]
        assert type(entangled(float(values[2]))) is bool

    def test_violates_at_the_edge(self):
        for n in range(1, 5):
            bound = float(2**n)
            values = edge(bound + VIOLATION_TOLERANCE)
            assert [violates(float(v), bound) for v in values] == [False, False, True]
            assert violates(values, bound).tolist() == [False, False, True]
            assert type(violates(float(values[2]), bound)) is bool


class TestVerdictsAgree:
    def test_info_verdict(self, rng):
        x = np.tile([0.0, 0.0, 1.0], (2, 1))
        for value in edge(1.0 + DECISION_TOLERANCE):
            verdict = _verdict(SearchResult(x, float(value), 0, 0, True, 0.0))
            assert verdict.entangled_by_info_criterion == entangled(verdict.max_total)
        for n in (2, 3):
            verdict = maximize_corr_info(correlation_tensor(random_density_matrix(rng, n)), FAST)
            assert verdict.entangled_by_info_criterion == entangled(verdict.max_total)

    def test_bell_evaluation_and_local_model(self, rng):
        # seeded tables, and the same tables scaled onto the bound and its
        # tolerance; at N=12 the tolerance exceeds MASS_TOL * 2^N, so there a
        # violation is refused for itself and not for its mass
        seen = set()
        for n in (1, 2, 3, 4, 5, 12):
            vals = rng.uniform(-1.0, 1.0, (2,) * n)
            bound = float(2**n)
            lhs = general_bell_lhs(CorrelationTable(n, vals)).lhs_general
            targets = [lhs, bound] + [bound + c * VIOLATION_TOLERANCE for c in (1, 1.5, 2)]
            for scale in (t / lhs for t in targets):
                if scale > 1.0 / np.abs(vals).max():
                    continue
                table = CorrelationTable(n, vals * scale)
                ev = general_bell_lhs(table)
                assert ev.violated == violates(ev.lhs_general, ev.bound)
                over_mass = (ev.moduli / ev.bound).sum() - 1.0 > MASS_TOL
                try:
                    construct_lhv(table)
                    refused = False
                except BellBoundError:
                    refused = True
                assert refused == (violates(ev.lhs_general, ev.bound) or over_mass), (n, scale)
                seen.add((ev.violated, refused, over_mass))
        assert {(False, False, False), (True, True, True), (True, True, False)} <= seen

    def test_sufficient_lr_condition(self, rng):
        # the ceiling scales with the square of the Cartesian block
        for n in (2, 3, 4):
            t = correlation_tensor(random_density_matrix(rng, n))
            upper, certified = sufficient_lr_condition(t)
            assert certified == (not entangled(upper))
            for target in edge(1.0 + DECISION_TOLERANCE):
                vals = t.values.copy()
                vals[(slice(1, 4),) * n] *= np.sqrt(target / upper)
                ceiling, certified = sufficient_lr_condition(CorrelationTensor(n, vals))
                assert certified == (not entangled(ceiling))

    @pytest.mark.parametrize("n, grid", [(2, 8120), (3, 201)])
    def test_scan_columns(self, n, grid):
        # at N=2 the grid point V = 5741/8119 lies 5e-9 above 1/sqrt(2): both
        # columns pass their bare threshold there but not its tolerance
        rows = visibility_scan(n, grid, FAST)
        bound = float(2**n)
        for r in rows:
            assert r.info_entangled == entangled(r.info_sum)
            assert r.bell_violated == violates(r.bell_lhs, bound)
        assert {r.info_entangled for r in rows} == {r.bell_violated for r in rows} == {False, True}
        if n == 2:
            assert any(1.0 < r.info_sum and not r.info_entangled for r in rows)
            assert any(bound < r.bell_lhs and not r.bell_violated for r in rows)


class TestWernerVerdict:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_closed_form_verdict_is_the_bell_rule(self, n):
        # the family's master sum is 2^N V 2^((N-1)/2); N=1 stops at V = 1
        thr = visibility_threshold(n)
        bound = 2.0**n
        near = [thr * (1.0 + s * d) for d in (1e-8, 1e-6) for s in (-1.0, 1.0)]
        seen = set()
        for v in [float(v) for v in (*edge(thr), *near) if v <= 1.0]:
            describable = not violates(bound * v * 2.0 ** ((n - 1) / 2.0), bound)
            assert analyze_werner(n, v).lr_describable == describable, (n, v)
            seen.add(describable)
        assert seen == ({True} if n == 1 else {True, False})

    @pytest.mark.parametrize("n, v", [(2, "0.70710679"), (3, "0.500000002")])
    def test_report_sections_agree_above_the_bare_threshold(self, capsys, n, v):
        assert main(["analyze", "--preset", "werner_ghz", "--n", str(n), "--visibility", v]) == 0
        report = json.loads(capsys.readouterr().out)
        assert float(v) > visibility_threshold(n) + 1e-9
        assert report["werner"]["lr_describable"] == (not report["bell"]["violated"])
