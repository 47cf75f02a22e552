import json
import sys
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SMALL_OBJECTS,
    eigvalsh_validate,
    full_rank_state,
    ghz_vector,
    loop_read_pairs,
    loop_serialize_state,
    low_rank_plus_diagonal,
    prescribed_spectrum_matrix,
    random_density_matrix,
    random_pure_state,
    reference_preset_matrix,
    reference_validate,
    traced_peak,
)
from entcrit import pauli
from entcrit import states as states_module
from entcrit.bell import parse_settings_file
from entcrit.states import (
    FIXED_QUBITS,
    HERMITICITY_TOL,
    PRESET_KINDS,
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    InputError,
    StateFormatError,
    StatePreset,
    StateValidationError,
    StateVector,
    _cholesky_certifies_psd,
    _discs_certify_psd,
    _hermitian_part,
    _hermitian_residual,
    _read_pairs,
    build_preset,
    decode_json,
    from_state_vector,
    parse_state_file,
    read_state_file,
    serialize_state,
    validate_density_matrix,
)

SQ2 = np.sqrt(2.0)


class TestValidation:
    def test_maximally_mixed_qubit_is_valid(self):
        dm = DensityMatrix(1, np.eye(2) / 2)
        assert validate_density_matrix(dm) == []

    def test_trace_violation_reports_residual(self):
        dm = DensityMatrix(1, np.diag([1.0, 0.5]).astype(complex))
        report = validate_density_matrix(dm)
        names = {v.invariant for v in report}
        assert "trace" in names
        residual = next(v.residual for v in report if v.invariant == "trace")
        assert residual == pytest.approx(0.5, abs=1e-12)

    def test_hermiticity_violation(self):
        m = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
        report = validate_density_matrix(DensityMatrix(1, m))
        assert any(v.invariant == "hermiticity" for v in report)

    def test_negative_eigenvalue_detected(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        report = validate_density_matrix(DensityMatrix(1, m))
        assert any(v.invariant == "positive_semidefinite" for v in report)

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_overflowing_hermitian_part_is_not_psd(self, n):
        # corners of 1e308 overflow (m + m^H)/2 to inf: the disc certificate
        # refuses the infinite norm, the Cholesky factorization fails, and
        # eigvalsh returns NaN or fails; none of them is a certificate
        m = np.diag(np.full(2**n, 2.0**-n))
        m[0, -1] = m[-1, 0] = 1e308
        assert _hermitian_residual(m)[0] == 0.0  # exact: H is formed once both certificates refuse
        report = validate_density_matrix(DensityMatrix(n, m))
        assert [(v.invariant, v.residual) for v in report] == [("positive_semidefinite", np.inf)]

    @pytest.mark.parametrize("count", [True, np.True_, False])
    def test_bool_qubit_count_refused(self, count):
        # a Python bool is an int, yet no count
        message = f"n_qubits must be a positive integer, got {count!r}"
        with pytest.raises(InputError) as e:
            DensityMatrix(count, np.eye(2) / 2)
        assert str(e.value) == message
        with pytest.raises(InputError) as e:
            StatePreset("ghz", count)
        assert str(e.value) == message

    def test_pure_projector_is_valid(self):
        dm = build_preset(StatePreset("bell_phi_minus", 2))
        assert validate_density_matrix(dm) == []

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InputError):
            DensityMatrix(2, np.eye(2) / 2)

    def test_every_preset_validates_clean(self):
        presets = [
            StatePreset("ghz", 3),
            StatePreset("bell_phi_minus", 2),
            StatePreset("product_plus_x_minus_x", 2),
            StatePreset("werner_ghz", 3, 0.42),
            StatePreset("maximally_mixed", 2),
            StatePreset("product_all_plus_x", 4),
        ]
        for p in presets:
            assert validate_density_matrix(build_preset(p)) == []


class TestPsdGate:
    """The Cholesky certificate gives eigvalsh's report on every input."""

    @pytest.mark.parametrize("factor", [-0.4, -0.6, -0.99, -1.01, -2.0])
    def test_prescribed_min_eigenvalue_matches_oracle(self, rng, factor):
        # real orthogonal eigenbases too: the real path's eigvalsh fallback
        # must run on the complex Hermitian part to measure the same residual
        for n in range(1, 9):
            for real in (False, True):
                dm = prescribed_spectrum_matrix(rng, n, factor * PSD_TOL, real)
                report = validate_density_matrix(dm)
                assert report == eigvalsh_validate(dm)
                assert [v.invariant for v in report] == (
                    ["positive_semidefinite"] if factor < -1.0 else []
                )

    def test_states_up_to_nine_qubits_match_oracle(self, rng):
        for n in range(1, 10):
            for dm in (
                random_pure_state(rng, n),
                random_density_matrix(rng, n, terms=4),
                full_rank_state(rng, n),
            ):
                assert validate_density_matrix(dm) == eigvalsh_validate(dm) == []

    def test_trace_off_matches_oracle(self, rng):
        dm = DensityMatrix(3, 1.5 * random_density_matrix(rng, 3).matrix)
        report = validate_density_matrix(dm)
        assert report == eigvalsh_validate(dm)
        assert [v.invariant for v in report] == ["trace"]

    def test_non_hermitian_matches_oracle(self, rng):
        m = random_density_matrix(rng, 3).matrix.copy()
        m[0, 1] += 1e-3
        dm = DensityMatrix(3, m)
        report = validate_density_matrix(dm)
        assert report == eigvalsh_validate(dm)
        assert report[0].invariant == "hermiticity"

    def test_discs_run_first_at_every_qubit_count(self, rng, monkeypatch):
        # the ladder does not depend on n: the discs take a small pure state
        # before any factorization
        calls = _record_factorizations(monkeypatch)
        assert validate_density_matrix(random_pure_state(rng, 2)) == []
        assert calls == []

    def test_eigvalsh_skipped_through_nine_qubits(self, rng, monkeypatch):
        calls = _record_factorizations(monkeypatch)
        assert validate_density_matrix(random_pure_state(rng, 9)) == []
        assert validate_density_matrix(full_rank_state(rng, 9)) == []
        # the discs refuse the full-rank state, and the Cholesky certificate takes it
        assert calls == ["cholesky"]

    @pytest.mark.parametrize("n", [10, 11])
    def test_low_rank_states_skip_both_factorizations(self, rng, monkeypatch, n):
        # the disc certificate, the first rung at every n, takes pure,
        # rank-4 and GHZ-Werner states with no O(n^3) factorization
        calls = _record_factorizations(monkeypatch)
        for dm in (
            random_pure_state(rng, n),
            random_density_matrix(rng, n, terms=4),
            build_preset(StatePreset("werner_ghz", n, 0.5)),
        ):
            assert validate_density_matrix(dm) == []
        assert calls == []

    @pytest.mark.parametrize("n", [10, 11])
    def test_full_rank_states_skip_eigvalsh(self, rng, monkeypatch, n):
        # the discs refuse a full-rank state and a V = 0.9 white-noise mixture
        # of a pure state, and the Cholesky certificate takes both at any purity
        dim = 2**n
        noisy = random_pure_state(rng, n).matrix * 0.9 + np.eye(dim) * (0.1 / dim)
        calls = _record_factorizations(monkeypatch)
        for dm in (full_rank_state(rng, n), DensityMatrix(n, noisy)):
            assert validate_density_matrix(dm) == []
        assert calls == ["cholesky", "cholesky"]


def _validation_corpus(rng, n):
    """Real and complex matrices at n qubits: a valid mixture and spectra with
    the smallest eigenvalue around -PSD_TOL and at -0.3, each exactly
    Hermitian and off by 1e-12; the mixture and the -0.3 spectrum also off by
    1e-3 and with the trace scaled by 1.5; the real mixture with -0.0
    imaginary parts."""
    dim = 2**n
    for real in (True, False):
        a = rng.standard_normal((dim, 3))
        if not real:
            a = a + 1j * rng.standard_normal((dim, 3))
        mixture = a @ a.conj().T
        mixture /= np.trace(mixture).real
        if real:
            yield mixture.real.astype(complex).conj()
        bases = [mixture]
        for min_eig in (-2.0 * PSD_TOL, -1.01 * PSD_TOL, -0.99 * PSD_TOL, -0.5 * PSD_TOL, -0.3):
            bases.append(prescribed_spectrum_matrix(rng, n, min_eig, real).matrix)
        for i, m in enumerate(bases):
            yield m
            for off in (1e-12, 1e-3) if i in (0, len(bases) - 1) else (1e-12,):
                skewed = m.copy()
                skewed[0, -1] += off if real else off * (1.0 + 1.0j)
                yield skewed
            if i in (0, len(bases) - 1):
                yield 1.5 * m


def _record_factorizations(monkeypatch):
    """The list that records every np.linalg.cholesky call by name and every
    np.linalg.eigvalsh call with the dtype of its argument."""
    calls = []
    cholesky, eigvalsh = np.linalg.cholesky, np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append("cholesky") or cholesky(a))
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a: calls.append(("eigvalsh", a.dtype)) or eigvalsh(a)
    )
    return calls


class TestReferenceValidation:
    """Every report equals the complex-arithmetic reference's, bit for bit."""

    @staticmethod
    def _assert_same_report(dm):
        got, want = validate_density_matrix(dm), reference_validate(dm)
        assert [(v.invariant, v.residual.hex()) for v in got] == [
            (v.invariant, v.residual.hex()) for v in want
        ]
        return got

    @pytest.mark.parametrize("n", range(1, 10))
    def test_corpus_matches_reference(self, rng, n):
        names = set()
        for m in _validation_corpus(rng, n):
            names.update(v.invariant for v in self._assert_same_report(DensityMatrix(n, m)))
        assert names == {"hermiticity", "trace", "positive_semidefinite"}

    def test_real_pure_state_beyond_certificate(self, rng, monkeypatch):
        # the disc certificate takes it in real arithmetic with no
        # factorization; the reference's a-priori bound refuses a pure state
        # at n = 1024, so it alone calls eigvalsh
        calls = _record_factorizations(monkeypatch)
        v = rng.standard_normal(2**10)
        v /= np.linalg.norm(v)
        dm = DensityMatrix(10, np.outer(v, v))
        assert validate_density_matrix(dm) == []
        assert calls == []
        assert self._assert_same_report(dm) == []
        assert calls == [("eigvalsh", np.dtype(complex))]

    def test_real_state_beyond_both_certificates(self, rng, monkeypatch):
        # a full-rank real spectrum with its smallest eigenvalue between
        # -PSD_TOL and -PSD_TOL/2: the discs refuse it, the shifted Cholesky
        # factorization fails, and eigvalsh decides on the complex H
        calls = _record_factorizations(monkeypatch)
        dm = prescribed_spectrum_matrix(rng, 8, -0.99 * PSD_TOL, real=True)
        assert validate_density_matrix(dm) == []
        assert calls == ["cholesky", ("eigvalsh", np.dtype(complex))]
        assert self._assert_same_report(dm) == []

    def test_report_does_not_depend_on_factor_rank(self, rng, monkeypatch):
        # the disc certificate is exact for any V: where its factorization
        # stops changes which test decides, never the report
        n, dim = 8, 2**8
        noisy = random_pure_state(rng, n).matrix * 0.5 + np.eye(dim) * (0.5 / dim)
        huge = random_pure_state(rng, n).matrix.copy()
        huge[0, -1] = 1.5e308  # overflows ||m||_F to inf, not H
        # H's corner is 0.01 and its lambda_min about -2e-4, though m's rows,
        # 0.02 in one and 0 in the other, pass the discs with no factor
        lopsided = np.diag(np.full(dim, 0.5 / (dim - 2)))
        lopsided[0, 0], lopsided[-1, -1], lopsided[-1, 0] = 0.0, 0.5, 0.02
        corpus = [
            random_pure_state(rng, n),
            random_density_matrix(rng, n, terms=4),
            random_density_matrix(rng, n, terms=16),
            build_preset(StatePreset("werner_ghz", n, 0.5)),
            full_rank_state(rng, n),
            DensityMatrix(n, noisy),
            prescribed_spectrum_matrix(rng, n, -0.99 * PSD_TOL),
            prescribed_spectrum_matrix(rng, n, -1.01 * PSD_TOL),
            low_rank_plus_diagonal(rng, n, -1.01 * PSD_TOL),
            DensityMatrix(n, huge),
            DensityMatrix(n, lopsided),
        ]
        with np.errstate(over="ignore"):
            wants = [
                [(v.invariant, v.residual.hex()) for v in reference_validate(dm)] for dm in corpus
            ]
        calls = _record_factorizations(monkeypatch)
        factored = []  # per rank, the states that reached a factorization
        for rank in (0, 1, 2, 4, 8, 16):
            monkeypatch.setattr(states_module, "_RANK", rank)
            factored.append(0)
            for dm, want in zip(corpus, wants):
                calls.clear()
                got = validate_density_matrix(dm)
                assert [(v.invariant, v.residual.hex()) for v in got] == want
                factored[-1] += bool(calls)
        # the discs take more of the corpus as the factor grows
        assert factored[0] > factored[-1]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_low_rank_plus_diagonal_boundary(self, rng, n):
        # the disc certificate decides these: it certifies exactly the states
        # whose smallest eigenvalue is -PSD_TOL/2, above its -3 PSD_TOL/4
        for real in (False, True):
            for factor in (-2.0, -1.01, -0.99, -0.5):
                dm = low_rank_plus_diagonal(rng, n, factor * PSD_TOL, real)
                m = dm.matrix.real if real else dm.matrix
                certified = _discs_certify_psd(_hermitian_part(m), np.zeros(2**n))
                assert certified == (factor == -0.5)
                report = self._assert_same_report(dm)
                assert [(v.invariant, v.residual.hex()) for v in report] == [
                    (v.invariant, v.residual.hex()) for v in eigvalsh_validate(dm)
                ]
                assert [v.invariant for v in report] == (
                    ["positive_semidefinite"] if factor < -1.0 else []
                )


class TestValidationMemory:
    """Peak traced allocation of one validation at N=9, in units of the
    complex matrix, for states the disc certificate takes.

    No state the discs take forms H, exactly Hermitian or not: the peak is
    the disc test's row block of S (128 rows) with the factor V and V^H
    beside it, 1/8 + 1/32 on a real state and 1/4 + 1/16 on a complex one;
    the Hermiticity residual's 128 x 128 tiles (a mask, a conjugated copy,
    and in a tile that differs their difference and its modulus) and the
    skew's n floats come to less."""

    UNIT = 16 * 4**9

    def test_exact_real_state(self):
        dm = build_preset(StatePreset("werner_ghz", 9, 0.05))
        assert _hermitian_residual(dm.matrix)[0] == 0.0
        peak = traced_peak(validate_density_matrix, dm)
        assert peak <= (1 / 8 + 1 / 32) * self.UNIT + SMALL_OBJECTS

    def test_exact_complex_product(self):
        # a pure product of qubit projectors off the xz plane: complex, exact
        qubit = np.array([[0.5, 0.3 - 0.4j], [0.3 + 0.4j, 0.5]])
        dm = DensityMatrix(9, reduce(np.kron, [qubit] * 9))
        assert dm.matrix.dtype == np.complex128 and _hermitian_residual(dm.matrix)[0] == 0.0
        peak = traced_peak(validate_density_matrix, dm)
        assert peak <= (1 / 4 + 1 / 16) * self.UNIT + SMALL_OBJECTS

    def test_real_state(self):
        m = build_preset(StatePreset("werner_ghz", 9, 0.05)).matrix.copy()
        m[-1, 0] = np.nextafter(m[-1, 0], 1.0)  # one ulp from its mirror
        dm = DensityMatrix(9, m)
        assert _hermitian_residual(dm.matrix)[0] > 0.0
        peak = traced_peak(validate_density_matrix, dm)
        assert peak <= (1 / 8 + 1 / 32) * self.UNIT + SMALL_OBJECTS

    def test_complex_state(self, rng):
        dm = random_density_matrix(rng, 9, terms=3)
        assert _hermitian_residual(dm.matrix)[0] > 0.0
        peak = traced_peak(validate_density_matrix, dm)
        assert peak <= (1 / 4 + 1 / 16) * self.UNIT + SMALL_OBJECTS


def _mirror_forms(n, m):
    """The stored form of m made exactly Hermitian, (m + m^H)/2, and a copy
    with the lower-left corner's imaginary part (its real part in a float64
    matrix) moved by one ulp, which m == m^H no longer passes."""
    stored = DensityMatrix(n, m).matrix
    exact = (stored + stored.conj().T) / 2.0
    off = exact.copy()
    parts, k = off.view(float), int(np.iscomplexobj(off))
    parts[-1, k] = np.nextafter(parts[-1, k], np.inf)
    return exact, off


def _count_hermitian_parts(monkeypatch):
    """The list that records every _hermitian_part call."""
    calls = []
    hermitian_part = states_module._hermitian_part
    monkeypatch.setattr(
        states_module, "_hermitian_part", lambda m: calls.append(m.shape) or hermitian_part(m)
    )
    return calls


class TestExactHermitian:
    """Every matrix is validated on m itself, equal to its conjugate
    transpose or not: both certificates read m with each row lowered by its
    skew, the report is the reference's, and H is formed only when both
    certificates refuse."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_mirror_forms_match_reference(self, rng, monkeypatch, n):
        # the corpus as built holds exact and non-exact matrices alike
        # (TestReferenceValidation); each made exact and moved by one ulp
        calls = _count_hermitian_parts(monkeypatch)
        formed, names = set(), set()
        for m in _validation_corpus(rng, n):
            exact, off = _mirror_forms(n, m)
            assert _hermitian_residual(exact)[0] == 0.0 < _hermitian_residual(off)[0]
            counts = []
            for form in (exact, off):
                calls.clear()
                report = TestReferenceValidation._assert_same_report(DensityMatrix(n, form))
                names.update(v.invariant for v in report)
                counts.append(len(calls))
            formed.add(counts[0])  # 1 where both certificates refused the exact form
            # one ulp lowers two rows by half an ulp: the certificates decide alike
            assert counts[1] == counts[0]
        assert formed == {0, 1}
        assert names == {"trace", "positive_semidefinite"}

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_signs_of_zeros_do_not_change_the_report(self, rng, n):
        # m == m^H does not see the sign of a zero, and H may differ from m
        # in it: mirrored zero parts and the imaginary diagonal take either
        # sign, on a state the discs certify and on one they refuse
        for factor in (-0.5, -2.0):
            dm = low_rank_plus_diagonal(rng, n, factor * PSD_TOL)
            want = TestReferenceValidation._assert_same_report(dm)
            for _ in range(3):
                signed = dm.matrix.copy()
                parts = signed.view(float)
                zero = parts == 0.0
                parts[zero] = np.where(rng.random(zero.sum()) < 0.5, -0.0, 0.0)
                assert signed.dtype == np.complex128 and _hermitian_residual(signed)[0] == 0.0
                assert TestReferenceValidation._assert_same_report(DensityMatrix(n, signed)) == want

    def test_hermitian_part_formed_only_when_both_certificates_refuse(self, rng, monkeypatch):
        pure = random_pure_state(rng, 6).matrix
        real = build_preset(StatePreset("werner_ghz", 6, 0.3)).matrix.copy()
        real[-1, 0] = np.nextafter(real[-1, 0], 1.0)
        noisy = 0.9 * random_density_matrix(rng, 6, terms=40).matrix + np.eye(64) * (0.1 / 64)
        # the discs take an exact pure state and, off m itself, a complex
        # mixture of outer products and a real state one ulp from its mirror;
        # the Cholesky rung takes, off m itself too, the full-rank states the
        # discs refuse: an exact Gram product and a noisy mixture of outer products
        certified = [
            DensityMatrix(6, (pure + pure.conj().T) / 2.0),
            random_density_matrix(rng, 6, terms=3),
            DensityMatrix(6, real),
            full_rank_state(rng, 6),
            DensityMatrix(6, noisy),
        ]
        skews = [_hermitian_residual(dm.matrix) for dm in certified]
        assert [residual > 0.0 for residual, _ in skews] == [False, True, True, False, True]
        discs = [_discs_certify_psd(dm.matrix, skew) for dm, (_, skew) in zip(certified, skews)]
        assert discs == [True, True, True, False, False]
        # not a state below -PSD_TOL, which both refuse
        refused = prescribed_spectrum_matrix(rng, 6, -2.0 * PSD_TOL)
        calls = _count_hermitian_parts(monkeypatch)
        for dm in certified:
            assert TestReferenceValidation._assert_same_report(dm) == []
        assert calls == []
        report = TestReferenceValidation._assert_same_report(refused)
        assert [v.invariant for v in report] == ["positive_semidefinite"]
        assert calls == [(64, 64)]

    @pytest.mark.parametrize("n", [1, 4, 8, 9])
    def test_residual_and_skew_match_dense(self, rng, n):
        # 9 qubits read 4 x 4 tiles, whose column sums go to the rows below
        dim = 2**n
        for m in (
            random_density_matrix(rng, n, terms=3).matrix,
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)),
            rng.standard_normal((dim, dim)),
        ):
            d = np.abs(m - m.conj().T)
            residual, skew = _hermitian_residual(m)
            assert residual.hex() == float(d.max()).hex()
            np.testing.assert_allclose(skew, 0.5 * d.sum(axis=1), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_skew_lowers_its_rows_discs(self, rng, n):
        # a pure state's rows have no slack once its factor is removed: a
        # row's skew is certified up to the gate's 3 PSD_TOL/4, not past it
        dim = 2**n
        v = rng.standard_normal(dim)
        pure = random_pure_state(rng, n).matrix
        for m in (np.outer(v, v) / (v @ v), (pure + pure.conj().T) / 2.0):
            assert not _hermitian_residual(m)[1].any()
            for row in (0, dim // 2, dim - 1):
                for factor in (0.99, 1.01):
                    skew = np.zeros(dim)
                    skew[row] = factor * 0.75 * PSD_TOL
                    assert _discs_certify_psd(m, skew) == (factor < 1.0)

    @pytest.mark.parametrize("n", [5, 8])
    def test_skew_lowers_its_rows_cholesky(self, rng, monkeypatch, n):
        # a full-rank state the discs refuse is certified by the Cholesky
        # rung up to a max skew of what its rounding term leaves of
        # PSD_TOL/4, not past it: at unit trace the skew alone decides, and
        # at a weight where the rounding term takes half of PSD_TOL/4 the
        # bound does; the report is the reference's on both sides
        dim = 2**n
        rounding = 4.0 * (dim + 1) * np.finfo(float).eps / 2.0
        calls = _count_hermitian_parts(monkeypatch)
        for weight in (1.0, PSD_TOL / (8.0 * rounding)):
            m = weight * full_rank_state(rng, n).matrix
            factor = np.linalg.cholesky(m + np.eye(dim) * (PSD_TOL / 2.0))
            left = PSD_TOL / 4.0 - rounding * (np.vdot(factor, factor).real + PSD_TOL)
            for scale in (0.99, 1.01):
                for row in (0, dim // 2, dim - 1):
                    skew = np.zeros(dim)
                    skew[row] = scale * left
                    assert _cholesky_certifies_psd(m, skew) == (scale < 1.0)
                # row 0's skew, spread over 8 entries that stay within HERMITICITY_TOL
                skewed = m.copy()
                skewed[0, 1:9] += scale * left / 4.0
                skew = _hermitian_residual(skewed)[1]
                assert not _discs_certify_psd(skewed, skew)
                assert _cholesky_certifies_psd(skewed, skew) == (scale < 1.0)
                calls.clear()
                report = TestReferenceValidation._assert_same_report(DensityMatrix(n, skewed))
                assert [v.invariant for v in report] == ([] if weight == 1.0 else ["trace"])
                assert calls == ([] if scale < 1.0 else [(dim, dim)])

    @pytest.mark.parametrize("real", [False, True])
    def test_cholesky_reads_one_triangle(self, rng, real):
        # the Cholesky rung's bound counts on LAPACK's potrf reading one
        # triangle and the real diagonal: numpy's cholesky, on a matrix in C
        # or F order, ignores its strict upper triangle and the imaginary
        # parts of its diagonal
        h = full_rank_state(rng, 5).matrix
        h = h.real.copy() if real else h
        garbled = h.copy()
        upper = np.triu_indices(32, 1)
        garbled[upper] = rng.standard_normal(upper[0].size)
        if not real:
            garbled[upper] += 1j * rng.standard_normal(upper[0].size)
            garbled[np.diag_indices(32)] += 1j * rng.standard_normal(32)
        want = np.linalg.cholesky(h)
        for a in (garbled, np.asfortranarray(garbled), np.asfortranarray(h)):
            assert np.array_equal(np.linalg.cholesky(a), want)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_skewed_corner(self, rng, monkeypatch, n):
        # a pure state off its mirror in one corner lowers two rows' discs
        # only: by 1e-12 the discs still take it, whatever n, and by
        # PSD_TOL they leave it to the factorizations; the report is the
        # reference's either way
        pure = random_pure_state(rng, n).matrix
        calls = _count_hermitian_parts(monkeypatch)
        for delta, formed in ((1e-12, []), (PSD_TOL, [(2**n, 2**n)])):
            m = (pure + pure.conj().T) / 2.0
            m[0, -1] += delta * (1.0 + 1.0j)
            dm = DensityMatrix(n, m)
            calls.clear()
            report = TestReferenceValidation._assert_same_report(dm)
            assert calls == formed
            assert (report == []) == (delta < HERMITICITY_TOL)


def _corner_matrices(n):
    """Real matrices with 1e308 corners, which overflow the Hermitian part and
    the traces: the corners alone, the lower one negated, and on I/2^N."""
    for sign, diagonal in ((1.0, 0.0), (-1.0, 0.0), (1.0, 2.0**-n)):
        m = np.diag(np.full(2**n, diagonal))
        m[np.ix_((0, -1), (0, -1))] = 1e308
        m[-1, 0] *= sign
        yield m


class TestRealStorage:
    """A matrix whose imaginary parts are all zero is stored float64, at half
    the bytes of complex storage, whether it comes in real or complex."""

    @pytest.mark.parametrize("kind", PRESET_KINDS)
    def test_presets_are_float64(self, kind):
        qubits = [FIXED_QUBITS[kind]] if kind in FIXED_QUBITS else range(1, 11)
        for n in qubits:
            m = build_preset(StatePreset(kind, n, 0.3 if kind == "werner_ghz" else None)).matrix
            assert m.dtype == np.float64 and m.nbytes == 8 * 4**n
            assert m.flags.c_contiguous and not m.flags.writeable

    @staticmethod
    def _outcomes(dm):
        """The report and the tensor's raw bytes, inf and nan included: what
        CorrelationTensor accepts, or the range error it raises, follows."""
        report = [(v.invariant, v.residual.hex()) for v in validate_density_matrix(dm)]
        return report, pauli.correlation_tensor(dm).tobytes()

    @pytest.mark.parametrize("n", range(1, 10))
    def test_float64_and_complex_storage_agree(self, rng, monkeypatch, n):
        # every real matrix of the validation corpus (the -0.0-imaginary,
        # trace-off, skewed and non-PSD ones) and the 1e308 corners: the
        # complex form is stored as the float64 form, bit for bit
        monkeypatch.setattr(pauli, "CorrelationTensor", lambda n, values: values)
        matrices = [m for m in _validation_corpus(rng, n) if not np.imag(m).any()]
        for m in matrices + list(_corner_matrices(n)):
            real = DensityMatrix(n, np.array(m.real))
            stored = [real, DensityMatrix(n, m.real.astype(complex))]
            if np.iscomplexobj(m):
                stored.append(DensityMatrix(n, m))
            for dm in stored:
                assert dm.matrix.dtype == np.float64
                assert dm.matrix.tobytes() == real.matrix.tobytes()
            want = self._outcomes(real)
            for dm in stored[1:]:
                assert self._outcomes(dm) == want
            if n <= 6:  # the text and the O(8^N) product, at the smaller sizes
                with np.errstate(over="ignore", invalid="ignore"):
                    purity = [np.float64(dm.purity()).tobytes() for dm in stored[:2]]
                assert purity[0] == purity[1]
                assert serialize_state(stored[0]) == serialize_state(stored[1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected_in_either_storage(self, bad):
        # the finiteness check reads the max and the min of the float view:
        # an inf of either sign, or a nan, in either part of any entry
        cases = ((1, float, 0), (3, float, -1), (3, complex, 11), (3, complex, -2), (3, complex, -1))
        for n, dtype, at in cases:  # `at` indexes the float view: odd is imaginary
            m = np.eye(2**n, dtype=dtype) / 2**n
            m.view(float).reshape(-1)[at] = bad
            with pytest.raises(InputError, match="^matrix entries must be finite$"):
                DensityMatrix(n, m)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_complex_input_with_zero_imaginary_parts_is_float64(self, rng, n):
        m = np.diag(rng.random(2**n)).astype(complex)
        m /= m.trace()
        m.imag = np.where(rng.random(m.shape) < 0.5, -0.0, 0.0)
        stored = DensityMatrix(n, m).matrix
        assert stored.dtype == np.float64 and stored.nbytes == 8 * 4**n
        assert stored.flags.c_contiguous and not stored.flags.writeable
        assert stored.tobytes() == m.real.copy().tobytes()

    def test_nan_imaginary_part_keeps_complex_storage(self):
        # a nan is not zero: the matrix stays complex, and its nan is refused
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = complex(0.0, np.nan)
        stored = states_module.qubit_array(2, m, None, lambda n: (4, 4), "matrix")
        assert stored.dtype == np.complex128
        with pytest.raises(InputError, match="^matrix entries must be finite$"):
            DensityMatrix(2, m)

    def test_preset_built_in_half_a_complex_unit(self):
        # the float64 matrix is the whole of the build's peak: no complex
        # matrix, and no finiteness mask
        unit = 16 * 4**9
        peak = traced_peak(build_preset, StatePreset("werner_ghz", 9, 0.1))
        assert peak <= 0.5 * unit + SMALL_OBJECTS

    def test_real_vector_projector_is_float64(self, rng):
        for n in range(1, 7):
            a = rng.standard_normal(2**n)
            a /= np.linalg.norm(a)
            for amps in (a, a.astype(complex), a.astype(complex).conj()):  # +-0.0 imaginary
                dm = from_state_vector(StateVector(n, amps))
                assert dm.matrix.dtype == np.float64
                np.testing.assert_array_equal(dm.matrix, np.outer(a, a))
                # the complex projector is stored float64 too, equal up to a zero's sign
                projector = DensityMatrix(n, np.outer(amps, amps.conj())).matrix
                assert projector.dtype == np.float64
                np.testing.assert_array_equal(projector, dm.matrix)
            amps = a.astype(complex)
            amps[-1] += 1e-300j
            assert from_state_vector(StateVector(n, amps)).matrix.dtype == np.complex128


class TestMemoryLayout:
    def test_fortran_order_matrix_builds(self):
        m = (np.eye(2) / 2 + 0j).T.copy(order="F")
        dm = DensityMatrix(1, m)
        assert dm.matrix.flags.c_contiguous
        assert validate_density_matrix(dm) == []

    def test_reversed_column_view_builds(self):
        m = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)[:, ::-1]
        np.testing.assert_array_equal(DensityMatrix(1, m).matrix, np.eye(2) / 2)

    def test_conjugate_transpose_of_state_builds(self, rng):
        rho = random_density_matrix(rng, 3).matrix
        dm = DensityMatrix(3, rho.conj().T)
        np.testing.assert_array_equal(dm.matrix, rho.conj().T)
        assert validate_density_matrix(dm) == []

    def test_fortran_order_non_finite_rejected(self):
        m = np.asfortranarray(np.array([[0.5, np.nan], [0.0, 0.5]], dtype=complex))
        with pytest.raises(InputError, match="finite"):
            DensityMatrix(1, m)

    def test_reversed_vector_slice_builds(self):
        v = StateVector(1, np.array([0.0, 1.0], dtype=complex)[::-1])
        np.testing.assert_array_equal(v.amplitudes, [1.0, 0.0])
        with pytest.raises(InputError, match="finite"):
            StateVector(1, np.array([np.inf, 1.0], dtype=complex)[::-1])

    def test_array_of_the_container_layout_is_taken_and_frozen(self):
        # the container's dtype (float64 when every imaginary part is zero,
        # complex128 otherwise) and C layout: taken as is, the caller's array
        # frozen with it; any other input, a real-valued complex128 one
        # included: a read-only copy
        for m in (np.eye(2) / 2, np.array([[0.5, 0.25j], [-0.25j, 0.5]])):
            dm = DensityMatrix(1, m)
            assert dm.matrix is m and not m.flags.writeable
        for m in (
            np.eye(2, dtype=complex) / 2,
            np.eye(2, dtype=np.float32) / 2,
            np.eye(2, dtype=int),
            np.asfortranarray([[0.5, 0.25], [0.25, 0.5]]),
            (np.eye(4) / 2)[::2, ::2],
        ):
            dm = DensityMatrix(1, m)
            assert dm.matrix is not m and m.flags.writeable and not dm.matrix.flags.writeable
            assert dm.matrix.dtype == float and dm.matrix.flags.c_contiguous
            np.testing.assert_array_equal(dm.matrix, m)


class TestFromStateVector:
    def test_plus_z(self):
        dm = from_state_vector(StateVector(1, [1.0, 0.0]))
        np.testing.assert_allclose(dm.matrix, [[1, 0], [0, 0]], atol=1e-15)

    def test_plus_x_projector(self):
        dm = from_state_vector(StateVector(1, np.array([1.0, 1.0]) / SQ2))
        np.testing.assert_allclose(dm.matrix, np.full((2, 2), 0.5), atol=1e-15)

    def test_ghz3_outer_product(self):
        dm = from_state_vector(ghz_vector(3))
        expected = np.zeros((8, 8))
        for i in (0, 7):
            for j in (0, 7):
                expected[i, j] = 0.5
        np.testing.assert_allclose(dm.matrix, expected, atol=1e-15)

    def test_normalization_error(self):
        with pytest.raises(InputError, match="normalized"):
            from_state_vector(StateVector(1, [1.0, 1.0]))

    def test_eight_digit_bell_vector_refused(self):
        # |norm - 1| = 1.7e-9 but |norm^2 - 1| = 3.4e-9: the trace of the
        # projector, which the matrix files' trace rule bounds, is off
        a = 0.70710678
        doc = {"vector": {"n_qubits": 2, "amplitudes": [[a, 0], [0, 0], [0, 0], [a, 0]]}}
        with pytest.raises(InputError) as err:
            read_state_file(json.dumps(doc))
        assert str(err.value) == (
            f"state vector is not normalized: |norm^2 - 1| = {abs(2 * a * a - 1.0):.3e}"
        )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_trace_rule_on_the_squared_norm(self, rng, n):
        # the reader refuses a vector exactly where a matrix file of its
        # projector would fail |Tr rho - 1| <= TRACE_TOL
        u = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        u /= np.linalg.norm(u)

        def doc(squared_norm):
            pairs = (u * np.sqrt(squared_norm)).view(float).reshape(-1, 2).tolist()
            return json.dumps({"vector": {"n_qubits": n, "amplitudes": pairs}})

        for sign in (1.0, -1.0):
            dm, _ = read_state_file(doc(1.0 + sign * 0.9 * TRACE_TOL))
            assert abs(np.trace(dm.matrix).real - 1.0) <= TRACE_TOL
            message = r"^state vector is not normalized: \|norm\^2 - 1\| = 1\.1\d\de-10$"
            with pytest.raises(InputError, match=message):
                read_state_file(doc(1.0 + sign * 1.1 * TRACE_TOL))

    def test_purity_one(self, rng):
        for n in (1, 2, 3):
            v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            v /= np.linalg.norm(v)
            dm = from_state_vector(StateVector(n, v))
            assert dm.purity() == pytest.approx(1.0, abs=1e-10)


class TestPresets:
    def test_werner_zero_visibility_is_noise(self):
        dm = build_preset(StatePreset("werner_ghz", 2, 0.0))
        np.testing.assert_allclose(dm.matrix, np.eye(4) / 4, atol=1e-15)

    def test_werner_unit_visibility_is_ghz(self):
        dm = build_preset(StatePreset("werner_ghz", 2, 1.0))
        ghz = from_state_vector(ghz_vector(2))
        np.testing.assert_allclose(dm.matrix, ghz.matrix, atol=1e-15)

    def test_bell_phi_minus_expansions(self):
        # anticorrelated along x, correlated along y
        dm = build_preset(StatePreset("bell_phi_minus", 2))
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        t_xx = np.trace(dm.matrix @ np.kron(x, x)).real
        t_yy = np.trace(dm.matrix @ np.kron(y, y)).real
        assert t_xx == pytest.approx(-1.0, abs=1e-12)
        assert t_yy == pytest.approx(1.0, abs=1e-12)

    def test_product_all_plus_x(self):
        dm = build_preset(StatePreset("product_all_plus_x", 3))
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        for q in range(3):
            ops = [np.eye(2, dtype=complex)] * 3
            ops[q] = x
            op = np.kron(np.kron(ops[0], ops[1]), ops[2])
            assert np.trace(dm.matrix @ op).real == pytest.approx(1.0, abs=1e-12)

    def test_unsupported_combinations(self):
        with pytest.raises(InputError):
            StatePreset("bell_phi_minus", 3)
        with pytest.raises(InputError):
            StatePreset("product_plus_x_minus_x", 1)
        with pytest.raises(InputError):
            StatePreset("werner_ghz", 2)  # missing visibility
        with pytest.raises(InputError):
            StatePreset("ghz", 2, visibility=0.5)
        with pytest.raises(InputError):
            StatePreset("no_such_kind", 2)

    @given(v=st.floats(0.0, 1.0), n=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_werner_always_valid(self, v, n):
        dm = build_preset(StatePreset("werner_ghz", n, v))
        assert validate_density_matrix(dm) == []

    @pytest.mark.parametrize("kind", PRESET_KINDS)
    def test_matches_reference_builder(self, kind):
        # bitwise, with the sign of every zero in both parts
        grid = (0.0, 1e-300, 0.3, 1.0 / SQ2, 0.7071067882, np.nextafter(1.0, 0.0), 1.0)
        qubits = [FIXED_QUBITS[kind]] if kind in FIXED_QUBITS else range(1, 11)
        for n in qubits:
            for v in grid if kind == "werner_ghz" else (None,):
                p = StatePreset(kind, n, v)
                got, want = build_preset(p).matrix, reference_preset_matrix(p)
                assert np.array_equal(got, want), (n, v)
                for part in (np.real, np.imag):
                    assert np.array_equal(np.signbit(part(got)), np.signbit(part(want))), (n, v)


class TestStateFile:
    def test_parse_preset(self):
        dm = parse_state_file('{"preset":{"kind":"maximally_mixed","n_qubits":1}}')
        np.testing.assert_allclose(dm.matrix, np.eye(2) / 2, atol=1e-15)

    def test_parse_matrix(self):
        doc = '{"matrix":{"n_qubits":1,"entries":[[[1,0],[0,0]],[[0,0],[0,0]]]}}'
        dm = parse_state_file(doc)
        np.testing.assert_allclose(dm.matrix, [[1, 0], [0, 0]], atol=1e-15)

    def test_parse_vector_matches_outer_product(self):
        a = 0.7071067811865476
        doc = json.dumps(
            {"vector": {"n_qubits": 2, "amplitudes": [[a, 0], [0, 0], [0, 0], [a, 0]]}}
        )
        dm = parse_state_file(doc)
        expected = from_state_vector(ghz_vector(2))
        np.testing.assert_allclose(dm.matrix, expected.matrix, atol=1e-12)

    def test_parse_error_carries_position(self):
        with pytest.raises(StateFormatError, match=r"line \d+, column \d+"):
            parse_state_file("{not json")

    def test_schema_error_names_field(self):
        with pytest.raises(StateFormatError, match="'entries'"):
            parse_state_file('{"matrix":{"n_qubits":1}}')
        with pytest.raises(StateFormatError, match="'kind'"):
            parse_state_file('{"preset":{"n_qubits":1}}')

    def test_exactly_one_top_key(self):
        with pytest.raises(StateFormatError, match="exactly one"):
            parse_state_file("{}")
        with pytest.raises(StateFormatError, match="exactly one"):
            parse_state_file(
                '{"matrix":{"n_qubits":1,"entries":[]},'
                '"preset":{"kind":"ghz","n_qubits":2}}'
            )

    def test_invalid_matrix_forwards_report(self):
        doc = '{"matrix":{"n_qubits":1,"entries":[[[1,0],[0,0]],[[0,0],[0.5,0]]]}}'
        with pytest.raises(StateValidationError) as err:
            parse_state_file(doc)
        assert any(v.invariant == "trace" for v in err.value.report)

    def test_round_trip(self, rng):
        for n in range(1, 7):
            m = random_density_matrix(rng, n).matrix.copy()
            m[0, 0] = complex(m[0, 0].real, -0.0)
            dm = DensityMatrix(n, m)
            back = parse_state_file(serialize_state(dm))
            assert np.array_equal(back.matrix, dm.matrix)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(back.matrix)), np.signbit(part(dm.matrix)))
            assert np.signbit(back.matrix[0, 0].imag)

    def test_serialize_matches_entry_loop(self, rng):
        for n in range(1, 7):
            m = random_density_matrix(rng, n).matrix.copy()
            m[0, 0] = complex(m[0, 0].real, -0.0)
            dm = DensityMatrix(n, m)
            assert serialize_state(dm) == loop_serialize_state(dm)

    @pytest.mark.parametrize(
        "body, message",
        [
            ({"vector": {"n_qubits": 1, "amplitudes": 5}},
             "vector.amplitudes must be a list of 2 [re, im] pairs"),
            ({"vector": {"n_qubits": 1, "amplitudes": [[1, 0]]}},
             "vector.amplitudes must be a list of 2 [re, im] pairs"),
            ({"vector": {"n_qubits": 1, "amplitudes": [[1, 0], [0]]}},
             "vector.amplitudes[1]: expected a [re, im] pair, got [0.0]"),
            ({"vector": {"n_qubits": 1, "amplitudes": [[1, 0], "ab"]}},
             "vector.amplitudes[1]: expected a [re, im] pair, got 'ab'"),
            ({"vector": {"n_qubits": 1, "amplitudes": [[1, 0], ["0", 0]]}},
             "vector.amplitudes[1]: expected a number, got '0'"),
            ({"matrix": {"n_qubits": 1, "entries": [[[1, 0], [0, 0]]]}},
             "matrix.entries must be a list of 2 rows"),
            ({"matrix": {"n_qubits": 1, "entries": [[[1, 0], [0, 0]], [[0, 0]]]}},
             "matrix.entries[1] must be a list of 2 [re, im] pairs"),
            ({"matrix": {"n_qubits": 1, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0, 0]]]}},
             "matrix.entries[1][1]: expected a [re, im] pair, got [0.0, 0.0, 0.0]"),
            # numpy would read these leaves as numbers; the reader refuses them
            ({"matrix": {"n_qubits": 1, "entries": [[[1, 0], [0, 0]], [[0, 0], [True, 0]]]}},
             "matrix.entries[1][1]: expected a number, got True"),
            ({"vector": {"n_qubits": 1, "amplitudes": [[1, False], [0, 0]]}},
             "vector.amplitudes[0]: expected a number, got False"),
            ({"vector": {"n_qubits": 1, "amplitudes": [[1, 0], [None, 0]]}},
             "vector.amplitudes[1]: expected a number, got None"),
            ({"matrix": {"n_qubits": 1, "entries": [[[1, 0], [0, "0.5"]], [[0, 0], [0, 0]]]}},
             "matrix.entries[0][1]: expected a number, got '0.5'"),
            ({"matrix": {"n_qubits": 1, "entries": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0]]]}},
             "matrix.entries[0] must be a list of 2 [re, im] pairs"),
        ],
    )
    def test_malformed_list_message(self, body, message):
        with pytest.raises(StateFormatError) as err:
            parse_state_file(json.dumps(body))
        assert str(err.value) == message

    def test_bulk_read_matches_entry_loop(self, rng):
        # integer literals read as float() converts the int, past 2^53 and
        # 2^63 too, and -0.0 and subnormals keep their bits
        specials = [0, -0.0, 1, -3, 2**53 + 1, 2**63 + 2**11 + 1, -(2**64) - 1, 10**300, 5e-324]
        for n in range(1, 7):
            dim = 2**n
            for shape in ((dim,), (dim, dim)):
                flat = rng.standard_normal(2 * dim ** len(shape)).tolist()
                for i in rng.choice(len(flat), min(len(flat), 3 * len(specials)), replace=False):
                    flat[i] = specials[i % len(specials)]
                raw = [flat[i : i + 2] for i in range(0, len(flat), 2)]
                if len(shape) == 2:
                    raw = [raw[i : i + dim] for i in range(0, len(raw), dim)]
                got = _read_pairs(decode_json(json.dumps(raw)), shape, "entries")
                want = loop_read_pairs(raw)
                assert np.array_equal(got, want)
                for part in (np.real, np.imag):
                    assert np.array_equal(np.signbit(part(got)), np.signbit(part(want)))

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no integer digit limit to vary"
    )
    def test_digit_limit_does_not_change_the_message(self):
        # a 5,000-digit integer reads as inf whatever the interpreter's limit
        digits = "9" * 5_000
        state = '{"matrix": {"n_qubits": 1, "entries": [[[%s, 0], [0, 0]], [[0, 0], [0, 0]]]}}'
        settings = '{"pairs": [{"n1": [1, 0, 0], "n2": [0, %s, 0]}]}'
        cases = [
            (read_state_file, state % digits, "matrix entries must be finite"),
            (lambda text: parse_settings_file(text, 1), settings % digits,
             "settings must be unit vectors (residual inf)"),
        ]
        default = sys.get_int_max_str_digits()
        try:
            for limit in (0, default):
                sys.set_int_max_str_digits(limit)
                for read, text, message in cases:
                    with pytest.raises(InputError) as err:
                        read(text)
                    assert str(err.value) == message, limit
        finally:
            sys.set_int_max_str_digits(default)

    def test_n_qubits_may_be_an_integral_float(self):
        for n in ("2", "2.0", "2e0"):
            doc = '{"preset": {"kind": "ghz", "n_qubits": %s}}' % n
            dm, preset = read_state_file(doc)
            assert type(dm.n_qubits) is int and preset.n_qubits == 2
        with pytest.raises(StateFormatError) as err:
            read_state_file('{"preset": {"kind": "ghz", "n_qubits": 2.5}}')
        assert str(err.value) == "preset.n_qubits: expected an integer, got 2.5"

    def test_bytes_input_accepted(self):
        dm = parse_state_file(b'{"preset":{"kind":"ghz","n_qubits":2}}')
        assert dm.n_qubits == 2


# schema words make the fuzzer reach past the top-level checks; the only
# preset kinds offered are fixed at two qubits, so no document builds a
# large state
_SCHEMA_WORDS = st.sampled_from(
    ["matrix", "vector", "preset", "n_qubits", "entries", "amplitudes", "kind",
     "visibility", "pairs", "n1", "n2", "bell_phi_minus", "product_plus_x_minus_x"]
)
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers()
    | st.integers(min_value=10**300, max_value=10**400) | st.floats()
    | _SCHEMA_WORDS | st.text(max_size=4)
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(_SCHEMA_WORDS | st.text(max_size=3), kids, max_size=4),
    max_leaves=24,
)
# longer than the default integer digit limit, 4,300
_LONG_INTEGER = b"[" + b"9" * 5_000 + b"]"
# well-shaped matrix and vector documents whose entries reach the extremes of
# a float: 1e308 entries overflow the Hermitian part, 5e-324 is subnormal
_EXTREME_PAIRS = st.lists(
    st.sampled_from([0.0, 0.25, -0.25, 1.0, -1.0, 1e308, -1e308, 5e-324]),
    min_size=2, max_size=2,
)


def _well_shaped_docs(n):
    dim = 2**n
    rows = st.lists(_EXTREME_PAIRS, min_size=dim, max_size=dim)
    return (
        st.lists(rows, min_size=dim, max_size=dim).map(
            lambda e: {"matrix": {"n_qubits": n, "entries": e}})
        | rows.map(lambda a: {"vector": {"n_qubits": n, "amplitudes": a}})
    )


_WELL_SHAPED_DOCS = st.sampled_from([1, 2]).flatmap(_well_shaped_docs)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    raw=st.binary(max_size=48)
    | _JSON_DOCS.map(lambda doc: json.dumps(doc).encode())
    | _WELL_SHAPED_DOCS.map(lambda doc: json.dumps(doc).encode())
    | st.sampled_from([b"[" * 100_000, _LONG_INTEGER]),
    n=st.integers(1, 3),
)
def test_file_readers_raise_only_input_errors(raw, n):
    # whatever the bytes, a state or settings file either parses or raises
    # InputError, which the CLI reports with exit code 2
    for read in (read_state_file, lambda text: parse_settings_file(text, n)):
        try:
            read(raw)
        except InputError:
            pass
