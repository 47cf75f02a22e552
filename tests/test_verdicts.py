"""Every verdict decides against one threshold, 1 + DECISION_TOLERANCE on the
normalized scale: `info.entangled` on the root of the information sum,
`bell.violates` on the ratio lhs / 2^N, and `lhv.construct_lhv` refuses
exactly when `violates`.  Every verdict the package reports must agree with
them, at the tolerance edge as well as on seeded states."""

import json

import numpy as np
import pytest

from conftest import generalized_ghz_vector, random_density_matrix, random_unit_vectors
from entcrit.bell import (
    CorrelationTable,
    SettingsPair,
    correlation_table,
    general_bell_lhs,
    maximize_general_bell,
    violates,
)
from entcrit.cli import main
from entcrit.info import (
    DECISION_TOLERANCE,
    CriterionVerdict,
    corr_info,
    entangled,
    info_upper_bound,
    maximize_corr_info,
)
from entcrit.lhv import BellBoundError, LhvModel, construct_lhv
from entcrit.pauli import CorrelationTensor, correlation_tensor, frame_from_normals
from entcrit.search import OptimizerOptions, SearchResult
from entcrit.states import DensityMatrix, StateVector, from_state_vector, serialize_state
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
            # every entry x gives B(+,...,+) = 2^N x and B(s) = 0 otherwise: a
            # model holding all of that mass in one class
            one = general_bell_lhs(CorrelationTable(n, np.full((2,) * n, x)))
            assert one.sums[(0,) * n] == 2.0**n * x and np.count_nonzero(one.sums) == 1
            assert one.violated == ev.violated
            if one.violated:
                with pytest.raises(BellBoundError):
                    LhvModel(one)
            else:
                model = LhvModel(one)
                assert model.total_atom_mass() == x
                assert model.noise_weight == max(0.0, 1.0 - x)


class TestVerdictsAgree:
    def test_info_verdict(self, rng):
        x = np.tile([0.0, 0.0, 1.0], (2, 1))
        for value in edge(EDGE**2):
            verdict = CriterionVerdict(SearchResult(x, float(value), 0, 0, True, 0.0))
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
                    assert construct_lhv(table).weights.sum() == ev.lhs_general / ev.bound
                seen.add(ev.violated)
        assert seen == {False, True}

    def test_sufficient_lr_condition(self, rng):
        # local realism is certified as not entangled(info_upper_bound(t)):
        # the ceiling scales with the square of the Cartesian block, and the
        # master sum at any settings is at most 2^N sqrt(ceiling)
        for n in (2, 3, 4):
            t = correlation_tensor(random_density_matrix(rng, n))
            upper = info_upper_bound(t)
            for target in edge(EDGE**2):
                vals = t.values.copy()
                vals[(slice(1, 4),) * n] *= np.sqrt(target / upper)
                scaled = CorrelationTensor(n, vals)
                ceiling = info_upper_bound(scaled)
                assert ceiling == pytest.approx(target, rel=1e-12, abs=0.0)
                if not entangled(ceiling):
                    for _ in range(5):
                        v = random_unit_vectors(rng, 2 * n)
                        table = correlation_table(scaled, SettingsPair(v[:n], v[n:]))
                        assert not general_bell_lhs(table).violated

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
                certified = not entangled(info_upper_bound(scaled))
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


# N = 2..7 and s as a multiple of the odd-N threshold 2^(-(N-1)/2)
GGHZ_POINTS = [(n, f) for n in range(2, 8) for f in (0.5, 0.9, 1.0, 1.1)]


def gghz_parameters(n, f):
    """s = f 2^(-(N-1)/2) and the all-z tensor entry t = cos^2 a + (-1)^N sin^2 a."""
    s = f * 2.0 ** (-(n - 1) / 2)
    a = 0.5 * np.arcsin(s)
    return s, np.cos(a) ** 2 + (-1) ** n * np.sin(a) ** 2


class TestGeneralizedGhz:
    """cos a|0...0> + sin a|1...1> with s = sin 2a: both maxima in closed form.

    Tensor.  The Cartesian block is T = s Re(u^(x)N) + t z^(x)N, with
    u = x - i y and t = cos^2 a + (-1)^N sin^2 a, so t = 1 at even N and
    t^2 = 1 - s^2 at odd N.  No entry mixes z with x or y.

    Information.  Give qubit j the plane with unit normal n_j of height
    zeta_j, horizontal length rho_j and azimuth phi_j, and let w_j = zeta_j^2,
    H = prod(1 + w_j), P = prod(1 - w_j), m = prod(rho_j zeta_j),
    e = cos(sum phi_j) and eps = (-1)^N.  In |T x_j (1 - n_j n_j^T)|^2 the
    s-part gives (s^2/2)(H + eps P cos(2 sum phi_j)), the t-part gives t^2 P
    and their cross term gives 2 eps s t e m, so with t^2 = 1 or 1 - s^2

        I = (s^2/2) H + (1 - s^2/2 + eps s^2 e^2) P + 2 eps s t e m.

    Planes normal to z (w = 1) give 2^(N-1) s^2.  Planes through z (w = 0)
    give 1 + eps s^2 e^2: 1 + s^2 at even N (e = 1), 1 at odd N (e = 0).
    Nothing does better.  The signs of e and m are free, so
    I <= alpha H + beta P + gamma sqrt(PQ), with Q = prod w_j, alpha = s^2/2,
    beta = 1 - s^2/2 + eps s^2 e^2 (>= 0 while s^2 <= 2/3) and
    gamma = 2 s |t e|.  Each of H, P and sqrt(PQ) is a product over the
    qubits of a nonnegative factor, so by Hoelder's inequality the bound is
    largest at equal w_j = 1 - x, where it is

        l(x) = alpha (2 - x)^N + beta x^N + gamma (x (1 - x))^(N/2).

    l is convex in x at every point tested here (`test_symmetric_bound_is_convex`),
    so its maximum is at x = 0 or x = 1:

        max I = max(1 + s^2, 2^(N-1) s^2) at even N,
        max I = max(1, 2^(N-1) s^2) at odd N.

    Bell.  Cauchy-Schwarz over the sign tuples bounds the ratio R = lhs/2^N
    by the root of the information at the planes the settings span, so
    R <= sqrt(max I).  Two kinds of settings reach it.
    Horizontal settings at azimuths phi_j and phi_j + pi/2 give
    B(s) = s 2^(N/2) cos(Psi + k pi/2), with Psi = sum phi_j + N pi/4 and k
    the number of s_j = -1, so R = 2^(N/2-1) s (|cos Psi| + |sin Psi|), which
    is 2^((N-1)/2) s at Psi = pi/4.  Settings (z, h_j) on qubits j < N, with
    h_j horizontal, and cos b z +- sin b h_N on qubit N give
    R = |t| cos b + s |e| sin b, which is at best sqrt(t^2 + s^2 e^2):
    sqrt(1 + s^2) at even N and 1 at odd N.  So R = sqrt(max I):

        R = sqrt(max(1 + s^2, 2^(N-1) s^2)) at even N,
        R = max(1, 2^((N-1)/2) s) at odd N.

    At odd N and s <= 2^(-(N-1)/2) the state is entangled and pure, yet
    neither criterion detects it: it satisfies every two-setting correlation
    Bell inequality (Zukowski & Brukner, PRL 88, 210401 (2002)).
    """

    @pytest.mark.parametrize("n, f", GGHZ_POINTS)
    def test_search_maxima_meet_the_closed_forms(self, n, f):
        s, _ = gghz_parameters(n, f)
        tensor = correlation_tensor(from_state_vector(generalized_ghz_vector(n, s)))
        # warm starts alone miss the Bell maximum (0.5 against 1 at N=3, f=0.5)
        options = OptimizerOptions(restarts=8)
        verdict = maximize_corr_info(tensor, options)
        evaluation, _ = maximize_general_bell(tensor, options)
        if n % 2:
            info, ratio = max(1.0, 2.0 ** (n - 1) * s * s), max(1.0, 2.0 ** ((n - 1) / 2) * s)
        else:
            info = max(1.0 + s * s, 2.0 ** (n - 1) * s * s)
            ratio = np.sqrt(info)
        assert abs(verdict.max_total - info) <= 1e-12
        assert abs(evaluation.lhs_general / evaluation.bound - ratio) <= 1e-12
        assert verdict.entangled_by_info_criterion == evaluation.violated == entangled(info)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_information_at_any_planes(self, rng, n):
        for f in (0.5, 1.1):
            s, t = gghz_parameters(n, f)
            tensor = correlation_tensor(from_state_vector(generalized_ghz_vector(n, s)))
            for _ in range(3):
                normals = random_unit_vectors(rng, n)
                zeta = normals[:, 2]
                rho = np.hypot(normals[:, 0], normals[:, 1])
                e = np.cos(np.arctan2(normals[:, 1], normals[:, 0]).sum())
                eps = (-1) ** n
                closed = (s * s / 2 * np.prod(1 + zeta**2)
                          + (1 - s * s / 2 + eps * s * s * e * e) * np.prod(1 - zeta**2)
                          + 2 * eps * s * t * e * np.prod(rho * zeta))
                assert abs(corr_info(tensor, frame_from_normals(normals)).total - closed) <= 1e-12

    def test_symmetric_bound_is_convex(self):
        x = np.linspace(0.0, 1.0, 2001)[:, None]
        e = np.linspace(0.0, 1.0, 101)
        for n, f in GGHZ_POINTS:
            s, t = gghz_parameters(n, f)
            alpha, gamma = s * s / 2, 2 * s * abs(t) * e
            beta = 1 - alpha + (-1) ** n * s * s * e * e
            assert np.all(beta >= 0.0)
            bound = alpha * (2 - x) ** n + beta * x**n + gamma * (x * (1 - x)) ** (n / 2)
            assert np.all(np.diff(bound, 2, axis=0) > 0.0), (n, f)

    def test_analyze_finds_neither_below_the_odd_threshold(self, tmp_path, capsys):
        s, _ = gghz_parameters(3, 0.5)
        amplitudes = generalized_ghz_vector(3, s).amplitudes
        path = tmp_path / "gghz.json"
        path.write_text(json.dumps({"vector": {
            "n_qubits": 3, "amplitudes": [[z.real, z.imag] for z in amplitudes.tolist()],
        }}))
        assert main(["analyze", "-i", str(path), "--restarts", "8"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["info"]["entangled"] is False
        assert report["bell"]["violated"] is False


def w_vector(n):
    """(|10...0> + |01...0> + ... + |00...1>)/sqrt(N)."""
    amplitudes = np.zeros(2**n, dtype=complex)
    amplitudes[[1 << q for q in range(n)]] = 1.0 / np.sqrt(n)
    return StateVector(n, amplitudes)


class TestKnownWrongVerdicts:
    """Verdicts the package gets wrong today, one strict xfail per input, so
    that the fix of each shows up as an XPASS."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 20")
    @pytest.mark.parametrize(
        "command, key", [("info", "entangled"), ("bell", "violated"), ("lhv", "refused")]
    )
    def test_product_state_within_psd_tol(self, tmp_path, capsys, command, key):
        # |00> with an eigenvalue -0.45e-9, inside PSD_TOL: the reader accepts
        # it, and its zz correlation 1 + 0.9e-9 passes 1 + DECISION_TOLERANCE
        state, settings = tmp_path / "state.json", tmp_path / "settings.json"
        m = np.diag([1.0 + 0.45e-9, -0.45e-9, 0.0, 0.0])
        state.write_text(serialize_state(DensityMatrix(2, m)))
        z = [0.0, 0.0, 1.0]
        settings.write_text(json.dumps({"pairs": [{"n1": z, "n2": z}] * 2}))
        extra = ["--restarts", "0"] if command == "info" else ["--settings", str(settings)]
        assert main([command, "-i", str(state), *extra]) == 0
        assert json.loads(capsys.readouterr().out)[key] is False

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 20")
    def test_tensor_of_a_qubit_within_psd_tol(self, tmp_path, capsys):
        # the reader accepts diag(1 + 0.9e-9, -0.9e-9), and its T_z of
        # 1 + 1.8e-9 then fails ENTRY_TOL
        state = tmp_path / "state.json"
        m = np.diag([1.0 + 0.9e-9, -0.9e-9])
        state.write_text(serialize_state(DensityMatrix(1, m)))
        assert main(["tensor", "-i", str(state)]) == 0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_w_state_violates_without_restarts(self, n):
        # the true maxima are ratios 1.523-1.628; the warm starts alone stay
        # in the x-y plane and reach 0.943 at N=3 and 0 from N=4
        tensor = correlation_tensor(from_state_vector(w_vector(n)))
        assert maximize_general_bell(tensor, OptimizerOptions(restarts=0))[0].violated
