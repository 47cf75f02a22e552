"""Every verdict decides against one threshold, 1 + DECISION_TOLERANCE on the
normalized scale: `info.entangled` on the root of the information sum,
`bell.violates` on the ratio lhs / 2^N, and `lhv.construct_lhv` refuses
exactly when `violates`.  Every verdict the package reports must agree with
them, at the tolerance edge as well as on seeded states."""

import json

import numpy as np
import pytest

from conftest import random_density_matrix
from entcrit.bell import (
    CorrelationTable,
    SignFunction,
    correlation_table,
    general_bell_lhs,
    maximize_general_bell,
    sufficient_lr_condition,
    violates,
)
from entcrit.cli import main
from entcrit.info import (
    DECISION_TOLERANCE,
    _verdict,
    entangled,
    info_upper_bound,
    maximize_corr_info,
)
from entcrit.lhv import BellBoundError, LhvModel, construct_lhv
from entcrit.pauli import CorrelationTensor, correlation_tensor
from entcrit.search import OptimizerOptions, SearchResult
from entcrit.states import InputError
from entcrit.werner import analyze_werner, visibility_scan, visibility_threshold

FAST = OptimizerOptions(restarts=2)
EDGE = 1.0 + DECISION_TOLERANCE


def edge(x):
    """x and its two floating-point neighbours, in increasing order."""
    return np.array([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


def refused(table):
    try:
        construct_lhv(table)
    except BellBoundError:
        return True
    return False


class TestRules:
    def test_entangled_at_the_edge(self):
        # sqrt(I) > 1 + tau, decided on I against (1 + tau)^2
        values = edge(EDGE**2)
        assert [entangled(float(v)) for v in values] == [False, False, True]
        assert entangled(values).tolist() == [False, False, True]
        assert type(entangled(float(values[2]))) is bool
        assert np.sqrt(values[2]) >= EDGE and np.sqrt(values[0]) <= EDGE

    def test_violates_at_the_edge(self):
        # lhs / 2^N > 1 + tau; scaling by 2^N is exact
        for n in range(1, 13):
            bound = float(2**n)
            values = bound * edge(EDGE)
            assert [violates(float(v), bound) for v in values] == [False, False, True]
            assert violates(values, bound).tolist() == [False, False, True]
            assert type(violates(float(values[2]), bound)) is bool

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12])
    def test_local_model_at_the_edge(self, n):
        # E(2,...,2) = x alone gives B(s) = x for every s: the ratio is x, and
        # the model's class masses sum to x with no noise
        for x in edge(EDGE):
            vals = np.zeros((2,) * n)
            vals[(1,) * n] = x
            table = CorrelationTable(n, vals)
            ev = general_bell_lhs(table)
            assert ev.lhs_general / ev.bound == x
            assert refused(table) == ev.violated == (x > EDGE)
            if not ev.violated:
                model = construct_lhv(table)
                assert model.total_atom_mass() == x and model.noise_weight == 0.0
            # a model holding all of that mass in one class
            sign = SignFunction(n, np.ones((2,) * n))
            weights = np.zeros((2,) * n)
            weights[(0,) * n] = x
            if ev.violated:
                with pytest.raises(InputError, match="probability mass"):
                    LhvModel(n, weights, sign)
            else:
                assert LhvModel(n, weights, sign).noise_weight == max(0.0, 1.0 - x)


class TestVerdictsAgree:
    def test_info_verdict(self, rng):
        x = np.tile([0.0, 0.0, 1.0], (2, 1))
        for value in edge(EDGE**2):
            verdict = _verdict(SearchResult(x, float(value), 0, 0, True, 0.0))
            assert verdict.entangled_by_info_criterion == entangled(verdict.max_total)
        for n in (2, 3):
            verdict = maximize_corr_info(correlation_tensor(random_density_matrix(rng, n)), FAST)
            assert verdict.entangled_by_info_criterion == entangled(verdict.max_total)

    def test_bell_evaluation_and_local_model(self, rng):
        # seeded tables, and the same tables scaled onto the bound and past it
        # by tau and its multiples; the model is refused exactly when violated
        seen = set()
        for n in (1, 2, 3, 4, 5, 12):
            vals = rng.uniform(-1.0, 1.0, (2,) * n)
            bound = float(2**n)
            lhs = general_bell_lhs(CorrelationTable(n, vals)).lhs_general
            targets = [lhs, bound] + [bound * (1.0 + c * DECISION_TOLERANCE) for c in (0.5, 1.5, 2)]
            for scale in (t / lhs for t in targets):
                if scale > 1.0 / np.abs(vals).max():
                    continue
                table = CorrelationTable(n, vals * scale)
                ev = general_bell_lhs(table)
                assert ev.violated == violates(ev.lhs_general, ev.bound)
                assert refused(table) == ev.violated, (n, scale)
                if not ev.violated:
                    # the masses are |B(s)| / 2^N, an exact scaling
                    assert construct_lhv(table).total_atom_mass() == ev.lhs_general / ev.bound
                seen.add(ev.violated)
        assert seen == {False, True}

    def test_sufficient_lr_condition(self, rng):
        # the ceiling scales with the square of the Cartesian block
        for n in (2, 3, 4):
            t = correlation_tensor(random_density_matrix(rng, n))
            upper, certified = sufficient_lr_condition(t)
            assert certified == (not entangled(upper))
            for target in edge(EDGE**2):
                vals = t.values.copy()
                vals[(slice(1, 4),) * n] *= np.sqrt(target / upper)
                ceiling, certified = sufficient_lr_condition(CorrelationTensor(n, vals))
                assert certified == (not entangled(ceiling))

    @pytest.mark.parametrize("n, grid", [(2, 275808), (3, 201)])
    def test_scan_columns(self, n, grid):
        # at N=2 the grid point V = 195025/275807 lies 6.5e-12 above
        # 1/sqrt(2): both columns pass their bare threshold there but not tau
        rows = visibility_scan(n, grid, FAST)
        bound = float(2**n)
        for r in rows:
            assert r.info_entangled == entangled(r.info_sum) == r.bell_violated
            assert r.bell_violated == violates(r.bell_lhs, bound)
        assert {r.info_entangled for r in rows} == {False, True}
        if n == 2:
            assert any(1.0 < r.info_sum and not r.info_entangled for r in rows)
            assert any(bound < r.bell_lhs and not r.bell_violated for r in rows)

    def test_two_qubit_verdicts_and_certificate(self):
        # at N=2 the Bell ratio lhs / 4 is the root of the information sum:
        # generic states with their Cartesian block scaled so that the
        # information ceiling sits at 1 + k 1e-8 get one verdict from the
        # information search, the Bell search, the local model at the found
        # settings and the local-realism certificate
        seen = set()
        for seed in range(20):
            t = correlation_tensor(random_density_matrix(np.random.default_rng(seed), 2))
            upper = info_upper_bound(t)
            for k in range(-2, 7):
                vals = t.values.copy()
                vals[1:, 1:] *= np.sqrt((1.0 + k * 1e-8) / upper)
                scaled = CorrelationTensor(2, vals)
                entangled_ = maximize_corr_info(scaled).entangled_by_info_criterion
                ev, settings = maximize_general_bell(scaled)
                _, certified = sufficient_lr_condition(scaled)
                verdicts = (
                    bool(entangled_),
                    bool(ev.violated),
                    refused(correlation_table(scaled, settings)),
                    not certified,
                )
                assert verdicts == (k > 0,) * 4, (seed, k)
                seen.add(k > 0)
        assert seen == {False, True}


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

    @pytest.mark.parametrize("n, v", [(2, "0.70710679"), (2, "0.7071068"), (3, "0.500000002")])
    def test_report_sections_agree_above_the_bare_threshold(self, capsys, n, v):
        assert main(["analyze", "--preset", "werner_ghz", "--n", str(n), "--visibility", v]) == 0
        report = json.loads(capsys.readouterr().out)
        assert float(v) > visibility_threshold(n) + 1e-9
        verdicts = {
            report["info"]["entangled"],
            report["bell"]["violated"],
            report["lhv"]["refused"],
            not report["werner"]["lr_describable"],
        }
        assert verdicts == {True}

    def test_reports_agree_near_every_threshold(self, capsys):
        # 41 visibilities in thr (1 +- 2e-7) at each N, warm starts only: the
        # four verdicts of one report never disagree
        seen = set()
        for n in range(1, 6):
            thr = visibility_threshold(n)
            for k in range(-20, 21):
                v = thr * (1.0 + k * 1e-8)
                if v > 1.0:
                    continue
                args = ["--preset", "werner_ghz", "--n", str(n), "--visibility", repr(v)]
                assert main(["analyze", *args, "--restarts", "0"]) == 0
                report = json.loads(capsys.readouterr().out)
                verdicts = {
                    report["info"]["entangled"],
                    report["bell"]["violated"],
                    report["lhv"]["refused"],
                    not report["werner"]["lr_describable"],
                }
                assert len(verdicts) == 1, (n, v)
                seen |= verdicts
        assert seen == {False, True}
