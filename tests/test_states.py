import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SMALL_OBJECTS,
    eigvalsh_validate,
    full_rank_state,
    ghz_vector,
    loop_serialize_state,
    prescribed_spectrum_matrix,
    random_density_matrix,
    random_pure_state,
    reference_preset_matrix,
    reference_validate,
    traced_peak,
)
from entcrit.bell import parse_settings_file
from entcrit.states import (
    FIXED_QUBITS,
    PRESET_KINDS,
    PSD_TOL,
    DensityMatrix,
    InputError,
    StateFormatError,
    StatePreset,
    StateValidationError,
    StateVector,
    build_preset,
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

    @pytest.mark.parametrize("n", [1, 2])
    def test_overflowing_hermitian_part_is_not_psd(self, n):
        # corners of 1e308 overflow (m + m^H)/2 to inf; eigvalsh then returns
        # NaN or fails, and neither is a certificate
        m = np.diag(np.full(2**n, 2.0**-n))
        m[0, -1] = m[-1, 0] = 1e308
        report = validate_density_matrix(DensityMatrix(n, m))
        assert [(v.invariant, v.residual) for v in report] == [("positive_semidefinite", np.inf)]

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
        for n in range(1, 8):
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

    def test_eigvalsh_skipped_through_nine_qubits(self, rng, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        assert validate_density_matrix(random_pure_state(rng, 9)) == []
        assert validate_density_matrix(full_rank_state(rng, 9)) == []
        assert calls == []
        # a pure state's Frobenius norm is 1, beyond the certificate's bound at n = 1024
        assert validate_density_matrix(random_pure_state(rng, 10)) == []
        assert len(calls) == 1


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
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.dtype) or eigvalsh(a))
        v = rng.standard_normal(2**10)
        v /= np.linalg.norm(v)
        assert self._assert_same_report(DensityMatrix(10, np.outer(v, v))) == []
        assert calls == [np.dtype(complex)] * 2


class TestValidationMemory:
    """Peak traced allocation of one validation at N=9, in units of the
    complex matrix.  The peak is the Hermiticity residual, which holds H,
    m - H and |m - H| at once: half a unit each on a real state, and
    1 + 1 + 1/2 on a complex one.  H and its Cholesky factor come to less."""

    UNIT = 16 * 4**9

    def test_real_state(self):
        dm = build_preset(StatePreset("werner_ghz", 9, 0.05))
        assert traced_peak(validate_density_matrix, dm) <= 1.5 * self.UNIT + SMALL_OBJECTS

    def test_complex_state(self, rng):
        dm = random_density_matrix(rng, 9, terms=3)
        assert traced_peak(validate_density_matrix, dm) <= 2.5 * self.UNIT + SMALL_OBJECTS


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
             "vector.amplitudes[1]: expected a [re, im] pair, got [0]"),
            ({"vector": {"n_qubits": 1, "amplitudes": [[1, 0], "ab"]}},
             "vector.amplitudes[1]: expected a [re, im] pair, got 'ab'"),
            ({"vector": {"n_qubits": 1, "amplitudes": [[1, 0], ["0", 0]]}},
             "vector.amplitudes[1]: expected a number, got '0'"),
            ({"matrix": {"n_qubits": 1, "entries": [[[1, 0], [0, 0]]]}},
             "matrix.entries must be a list of 2 rows"),
            ({"matrix": {"n_qubits": 1, "entries": [[[1, 0], [0, 0]], [[0, 0]]]}},
             "matrix.entries[1] must be a list of 2 [re, im] pairs"),
            ({"matrix": {"n_qubits": 1, "entries": [[[1, 0], [0, 0]], [[0, 0], [0, 0, 0]]]}},
             "matrix.entries[1][1]: expected a [re, im] pair, got [0, 0, 0]"),
        ],
    )
    def test_malformed_list_message(self, body, message):
        with pytest.raises(StateFormatError) as err:
            parse_state_file(json.dumps(body))
        assert str(err.value) == message

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
_LONG_INTEGER = b"[" + b"9" * (sys.get_int_max_str_digits() + 1) + b"]"
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
