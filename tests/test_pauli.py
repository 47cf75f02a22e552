import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SMALL_OBJECTS,
    brute_force_tensor,
    einsum_environment,
    einsum_mode_product,
    kron_trace_table,
    loop_frame_from_normals,
    loop_mode_gram,
    moveaxis_environment,
    pauli_traces,
    random_correlation_tensor,
    random_density_matrix,
    random_product_state,
    reference_correlation_tensor,
    scaled_normals,
    tensordot_mode_product,
    traced_peak,
)
from entcrit import pauli
from entcrit.bell import SignFunction
from entcrit.pauli import (
    _EXPAND,
    _TRACE,
    CorrelationTable,
    CorrelationTensor,
    LocalFrame,
    correlation_tensor,
    cross_rows,
    density_from_tensor,
    environment,
    frame_from_normals,
    mode_product,
    plane_subtensor,
    rotate_frame_in_plane,
)
from entcrit.states import (
    FIXED_QUBITS,
    PRESET_KINDS,
    DensityMatrix,
    InputError,
    StatePreset,
    StateVector,
    build_preset,
    from_state_vector,
)
from entcrit.werner import werner_inplane_tensor

SQ2 = np.sqrt(2.0)
#: Every container built through `states.qubit_array`.
CONTAINERS = [StateVector, DensityMatrix, CorrelationTensor, CorrelationTable, SignFunction]


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestModeProduct:
    @pytest.mark.parametrize("kind", ["2x3", "3x3", "complex4x4"])
    def test_matches_einsum_oracle(self, rng, kind):
        for n in range(1, 7):
            if kind == "complex4x4":
                a = _complex_normal(rng, (4,) * n)
                mats = [_complex_normal(rng, (4, 4)) for _ in range(n)]
            else:
                a = rng.standard_normal((3,) * n)
                mats = [rng.standard_normal((int(kind[0]), 3)) for _ in range(n)]
            got = mode_product(a, mats)
            want = einsum_mode_product(a, mats)
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_empty_mats_return_input(self, rng):
        a = rng.standard_normal((3, 3))
        assert mode_product(a, []) is a

    @pytest.mark.parametrize("layout", ["transposed", "fortran"])
    def test_non_contiguous_input(self, rng, layout):
        for n in range(2, 7):
            c = rng.standard_normal((3,) * n)
            a = c.T if layout == "transposed" else np.asfortranarray(c)
            assert not a.flags.c_contiguous
            mats = [rng.standard_normal((2, 3)) for _ in range(n)]
            got = mode_product(a, mats)
            assert np.array_equal(got, mode_product(np.ascontiguousarray(a), mats))
            assert np.allclose(got, einsum_mode_product(a, mats), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("rows", [2, 3])
    def test_environment_matches_einsum_oracle(self, rng, rows):
        for n in range(1, 6):
            a = rng.standard_normal((3,) * n)
            mats = [rng.standard_normal((rows, 3)) for _ in range(n)]
            for j in range(n):
                got = environment(a, mats, j)
                assert got.shape == (3, rows ** (n - 1))
                want = einsum_environment(a, mats, j)
                assert np.max(np.abs(got - want)) <= 1e-13

    def test_environment_ignores_own_matrix(self, rng):
        a = rng.standard_normal((3,) * 4)
        mats = [rng.standard_normal((2, 3)) for _ in range(4)]
        for j in range(4):
            swapped = [np.zeros((5, 7)) if q == j else m for q, m in enumerate(mats)]
            assert np.array_equal(environment(a, swapped, j), environment(a, mats, j))

    @pytest.mark.parametrize("matrix", ["trace", "expand"])
    def test_bitwise_equal_to_tensordot_loop(self, rng, matrix):
        m = _TRACE if matrix == "trace" else _EXPAND
        for n in range(1, 10):
            a = _complex_normal(rng, (4,) * n)
            got = mode_product(a, [m] * n)
            want = tensordot_mode_product(a, [m] * n)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            # real input, as the inverse map takes it
            real = a.real.copy()
            assert np.array_equal(mode_product(real, [m] * n), tensordot_mode_product(real, [m] * n))
            d = rng.standard_normal((n, 2, 3))
            cart = rng.standard_normal((3,) * n)
            assert np.array_equal(mode_product(cart, d), tensordot_mode_product(cart, d))


class TestCorrelationTensor:
    def test_maximally_mixed(self):
        for n in (1, 2, 3):
            t = correlation_tensor(build_preset(StatePreset("maximally_mixed", n)))
            expected = np.zeros((4,) * n)
            expected[(0,) * n] = 1.0
            np.testing.assert_allclose(t.values, expected, atol=1e-12)

    def test_bell_phi_minus_entries(self):
        t = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))
        assert t.values[1, 1] == pytest.approx(-1.0, abs=1e-12)
        assert t.values[2, 2] == pytest.approx(1.0, abs=1e-12)
        assert t.values[3, 3] == pytest.approx(1.0, abs=1e-12)
        assert t.values[1, 2] == pytest.approx(0.0, abs=1e-12)
        assert t.values[2, 1] == pytest.approx(0.0, abs=1e-12)

    def test_product_plus_x_minus_x(self):
        t = correlation_tensor(build_preset(StatePreset("product_plus_x_minus_x", 2)))
        assert t.values[1, 1] == pytest.approx(-1.0, abs=1e-12)
        # the only nonzero in-plane correlation is the xx one
        inplane = t.values[1:3, 1:3].copy()
        inplane[0, 0] = 0.0
        np.testing.assert_allclose(inplane, 0.0, atol=1e-12)

    def test_matches_brute_force(self, rng):
        for n in (1, 2, 3, 4):
            dm = random_density_matrix(rng, n)
            t = correlation_tensor(dm)
            np.testing.assert_allclose(t.values, brute_force_tensor(dm), atol=1e-10)

    def test_entries_real_for_random_mixtures(self, rng):
        # Hermiticity makes every trace real: the complex Pauli traces of a
        # state keep an imaginary residue of at most 1e-10, and the tensor is
        # their real part, bit for bit
        for _ in range(100):
            n = int(rng.integers(1, 4))
            dm = random_density_matrix(rng, n)
            traces = pauli_traces(dm)
            assert np.max(np.abs(traces.imag)) <= 1e-10
            assert np.array_equal(correlation_tensor(dm).values, traces.real)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_tensor_of_the_hermitian_part(self, rng, n):
        # Re Tr[m s] = Tr[H s] for Hermitian s, H = (m + m^H)/2: a matrix that
        # is not Hermitian gives the tensor of its Hermitian part
        dim = 2**n
        for _ in range(5):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            g[np.diag_indices(dim)] -= g.trace().real / dim
            m = random_density_matrix(rng, n).matrix + 1e-3 * g
            h = (m + m.conj().T) / 2.0
            got = correlation_tensor(DensityMatrix(n, m)).values
            want = correlation_tensor(DensityMatrix(n, h)).values
            np.testing.assert_allclose(got, want, rtol=0.0, atol=4.0 * np.finfo(float).eps)

    def test_linearity(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            a = random_density_matrix(rng, n)
            b = random_density_matrix(rng, n)
            lam = float(rng.uniform())
            mix = DensityMatrix(n, lam * a.matrix + (1 - lam) * b.matrix)
            lhs = correlation_tensor(mix).values
            rhs = lam * correlation_tensor(a).values + (1 - lam) * correlation_tensor(b).values
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_reconstruction_round_trip(self, rng):
        for n in (1, 2, 3, 4, 5):
            dm = random_density_matrix(rng, n)
            back = density_from_tensor(correlation_tensor(dm))
            assert np.max(np.abs(back.matrix - dm.matrix)) <= 1e-10

    def test_inverse_matches_brute_force_oracle(self, rng):
        # tensors from explicit Pauli products and traces, not from
        # correlation_tensor; N=6 is the first size past the old cached basis
        for n in range(1, 7):
            dm = random_density_matrix(rng, n)
            back = density_from_tensor(CorrelationTensor(n, brute_force_tensor(dm)))
            assert np.max(np.abs(back.matrix - dm.matrix)) <= 1e-10

    def test_werner_ghz_rebuilt_as_float64(self):
        # the y terms of a real state's tensor leave every imaginary part zero
        for n in range(1, 9):
            dm = build_preset(StatePreset("werner_ghz", n, 0.3))
            back = density_from_tensor(correlation_tensor(dm)).matrix
            assert back.dtype == np.float64
            assert np.max(np.abs(back - dm.matrix)) <= 1e-10

    def test_nan_entry_rejected(self):
        with pytest.raises(InputError, match="out of range"):
            CorrelationTensor(1, [1.0, np.nan, 0.0, 0.0])

    def test_nan_identity_component_rejected(self):
        with pytest.raises(InputError):
            CorrelationTensor(1, [np.nan, 0.0, 0.0, 0.0])

    def test_identity_component_enforced(self):
        bad = np.zeros((4, 4))
        bad[0, 0] = 0.5
        with pytest.raises(InputError):
            CorrelationTensor(2, bad)

    @pytest.mark.parametrize("n", [0, 2.5, 13])
    def test_qubit_count_rejected(self, n):
        # the count is checked before the shape it fixes, in all five containers
        for container in CONTAINERS:
            with pytest.raises(InputError, match="n_qubits"):
                container(n, np.array(1.0))

    @pytest.mark.parametrize(
        "container, values",
        [
            (StateVector, np.zeros(3)),
            (DensityMatrix, np.eye(4)[:, :2]),
            (CorrelationTensor, np.eye(4)[0]),
            (CorrelationTable, np.zeros((2, 2, 2))),
            (SignFunction, np.ones(4)),
        ],
        ids=[c.__name__ for c in CONTAINERS],
    )
    def test_wrong_shape_rejected(self, container, values):
        with pytest.raises(InputError, match="shape"):
            container(2, values)


class TestAgainstReference:
    """correlation_tensor equals the reference that holds the paired copy
    through the whole mode-product chain, bit for bit and zero sign too."""

    @staticmethod
    def _assert_bitwise(dm):
        got, want = correlation_tensor(dm).values, reference_correlation_tensor(dm).values
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("kind", PRESET_KINDS)
    def test_presets(self, kind):
        qubits = [FIXED_QUBITS[kind]] if kind in FIXED_QUBITS else range(1, 9)
        for n in qubits:
            for v in (0.0, 0.3, 1.0 / SQ2, 1.0) if kind == "werner_ghz" else (None,):
                self._assert_bitwise(build_preset(StatePreset(kind, n, v)))

    # one pass up to N = 5 and two from N = 6, with several chunks per pass
    # from N = 8
    @pytest.mark.parametrize("n", range(1, 11))
    def test_real_and_complex_mixtures(self, rng, n):
        self._assert_bitwise(random_density_matrix(rng, n, terms=3))
        a = rng.standard_normal((2**n, 3))
        self._assert_bitwise(DensityMatrix(n, a @ a.T / np.trace(a @ a.T)))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_projectors(self, rng, n):
        v = _complex_normal(rng, 2**n)
        v[rng.random(2**n) < 0.25] = 0.0
        self._assert_bitwise(from_state_vector(StateVector(n, v / np.linalg.norm(v))))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_signed_and_exact_zeros(self, rng, n):
        # a third of the off-diagonal entries zeroed, then every zero part
        # made -0.0; zeroing entries of a state keeps |T| <= 1
        for m in (np.eye(2**n, dtype=complex) / 2**n, random_density_matrix(rng, n, terms=3).matrix):
            m = m.copy()
            m[(rng.random(m.shape) < 1 / 3) & ~np.eye(2**n, dtype=bool)] = 0.0
            parts = m.view(float)
            parts[parts == 0.0] = -0.0
            self._assert_bitwise(DensityMatrix(n, m))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_imaginary_part_only_in_the_last_entry(self, rng, n):
        # the realness rule reads the whole matrix: one nonzero imaginary
        # part, in the last entry, keeps complex storage and the complex path
        a = rng.standard_normal((2**n, 3))
        m = (a @ a.T / np.trace(a @ a.T)).astype(complex)
        m[-1, -1] += 1e-3j
        dm = DensityMatrix(n, m)
        assert dm.matrix.dtype == np.complex128
        self._assert_bitwise(dm)

    @pytest.mark.parametrize("group, chunk", [(1, 2 * 4), (2, 2 * 4**2), (3, 2 * 4**4)])
    def test_many_passes_and_chunks(self, rng, monkeypatch, group, chunk):
        # the passes between the first and the last, which run from N = 11 at
        # the real sizes, and chunks of one row of T (complex) or two (real),
        # on small states
        monkeypatch.setattr(pauli, "_GROUP", group)
        monkeypatch.setattr(pauli, "_CHUNK", chunk)
        for n in range(1, 8):
            self._assert_bitwise(random_density_matrix(rng, n, terms=3))
            a = rng.standard_normal((2**n, 3))
            self._assert_bitwise(DensityMatrix(n, a @ a.T / np.trace(a @ a.T)))

    def test_peak_memory_nine_qubits(self, rng):
        # a call holds the first pass's output, 1 unit for a complex state
        # and 1/2 for a real one, and T (1/2), plus two chunk buffers of
        # 8 x _CHUNK bytes; the first call also caches the phase pattern and
        # the pass plans
        unit = 16 * 4**9
        buffers = 2 * 8 * pauli._CHUNK + SMALL_OBJECTS
        werner = build_preset(StatePreset("werner_ghz", 9, 0.05))
        mixture = random_density_matrix(rng, 9, terms=3)
        for dm, need in ((werner, 1.0), (mixture, 1.5)):
            correlation_tensor(dm)
            assert traced_peak(correlation_tensor, dm) <= need * unit + buffers

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_overflow_refused_without_warning(self, n):
        # 1e308 corners overflow the traces to inf, in one pass (N = 1, 2) or
        # two (N = 6), on the real path and on the complex one alike; with
        # the lower corner negated the y trace overflows too, and at N = 1
        # only its zero phase turn makes it nan
        for sign, top in ((1.0, "inf"), (-1.0, "nan")):
            m = np.zeros((2**n, 2**n), dtype=complex)
            m[np.ix_((0, -1), (0, -1))] = 1e308
            m[-1, 0] *= sign
            c = m.copy()
            c[0, -1] += 1e-3j
            c[-1, 0] -= 1e-3j
            for matrix, real in ((m, True), (c, False)):
                dm = DensityMatrix(n, matrix)
                assert dm.matrix.dtype == (np.float64 if real else np.complex128)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(InputError) as e:
                        correlation_tensor(dm)
                assert str(e.value) == f"tensor entry out of range: max |T| = {top}"


class TestPlaneSubtensor:
    def test_canonical_frame_restricts_indices(self, rng):
        dm = random_density_matrix(rng, 3)
        t = correlation_tensor(dm)
        pt = plane_subtensor(t, LocalFrame.canonical(3))
        np.testing.assert_allclose(pt.values, t.values[1:3, 1:3, 1:3], atol=1e-12)

    def test_bell_state_invariant_under_rotation(self):
        t = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))
        frame = LocalFrame.canonical(2)
        for theta in np.linspace(0.0, 2 * np.pi, 9):
            rotated = rotate_frame_in_plane(frame, [theta, theta])
            s = plane_subtensor(t, rotated).squared_sum()
            assert s == pytest.approx(2.0, abs=1e-10)

    def test_werner_ghz3_closed_form(self):
        t = correlation_tensor(build_preset(StatePreset("werner_ghz", 3, 0.8)))
        pt = plane_subtensor(t, LocalFrame.canonical(3))
        v = pt.values
        assert v[0, 0, 0] == pytest.approx(0.8, abs=1e-10)
        for idx in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            assert v[idx] == pytest.approx(-0.8, abs=1e-10)
        for idx in [(1, 1, 1), (1, 0, 0), (0, 1, 0), (0, 0, 1)]:
            assert v[idx] == pytest.approx(0.0, abs=1e-10)

    def test_matches_werner_module(self):
        for n in (2, 3, 4, 5, 6):
            for v in (0.0, 0.3, 0.7, 1.0):
                t = correlation_tensor(build_preset(StatePreset("werner_ghz", n, v)))
                numeric = plane_subtensor(t, LocalFrame.canonical(n)).values
                closed = werner_inplane_tensor(n, v).values
                np.testing.assert_allclose(numeric, closed, atol=1e-10)

    def test_qubit_count_mismatch(self, rng):
        t = correlation_tensor(random_density_matrix(rng, 2))
        with pytest.raises(InputError):
            plane_subtensor(t, LocalFrame.canonical(3))

    def test_matches_direct_trace(self, rng):
        # every entry at random frames against Kronecker products of the axes
        for n in (1, 2, 3, 4):
            for _ in range(5):
                dm = random_density_matrix(rng, n)
                frame = frame_from_normals(rng.standard_normal((n, 3)))
                pt = plane_subtensor(correlation_tensor(dm), frame)
                np.testing.assert_allclose(
                    pt.values, kron_trace_table(dm, frame.axis1, frame.axis2), rtol=0, atol=1e-10
                )


class TestFrames:
    def test_zero_angles_identity(self):
        frame = LocalFrame.canonical(3)
        same = rotate_frame_in_plane(frame, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(same.axis1, frame.axis1, atol=1e-15)
        np.testing.assert_allclose(same.axis2, frame.axis2, atol=1e-15)

    def test_quarter_turn_swaps_axes(self):
        frame = LocalFrame.canonical(1)
        turned = rotate_frame_in_plane(frame, [np.pi / 2])
        np.testing.assert_allclose(turned.axis1, frame.axis2, atol=1e-12)
        np.testing.assert_allclose(turned.axis2, -frame.axis1, atol=1e-12)

    @given(
        angles=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_rotation_preserves_squared_sum(self, angles):
        rng = np.random.default_rng(11)
        t = correlation_tensor(random_density_matrix(rng, 3))
        frame = LocalFrame.canonical(3)
        before = plane_subtensor(t, frame).squared_sum()
        after = plane_subtensor(t, rotate_frame_in_plane(frame, angles)).squared_sum()
        assert abs(after - before) <= 1e-9

    def test_rotated_frame_stays_orthonormal(self, rng):
        frame = frame_from_normals(rng.standard_normal((4, 3)))
        rotated = rotate_frame_in_plane(frame, rng.uniform(-np.pi, np.pi, 4))
        # constructor revalidates unit norms and orthogonality
        assert rotated.n_qubits == 4

    def test_non_orthonormal_frame_rejected(self):
        with pytest.raises(InputError):
            LocalFrame(np.array([[1.0, 0, 0]]), np.array([[1.0, 0, 0]]))
        with pytest.raises(InputError):
            LocalFrame(np.array([[2.0, 0, 0]]), np.array([[0, 1.0, 0]]))

    @pytest.mark.parametrize("rows", [0, 13])
    def test_qubit_count_rejected(self, rows):
        with pytest.raises(InputError, match="n_qubits"):
            LocalFrame(np.tile([1.0, 0.0, 0.0], (rows, 1)), np.tile([0.0, 1.0, 0.0], (rows, 1)))

    def test_frame_from_normals_canonical(self):
        frame = frame_from_normals([[0.0, 0.0, 1.0]])
        np.testing.assert_allclose(frame.axis1, [[1, 0, 0]], atol=1e-12)
        np.testing.assert_allclose(frame.axis2, [[0, 1, 0]], atol=1e-12)


class TestBitwiseAgainstPerRowLoops:
    """The vectorized frame, cross product, environment and mode Grams give
    the bytes of the per-row and per-qubit numpy calls they replaced."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_frame_from_normals(self, rng, n):
        for normals in scaled_normals(rng, n):
            frame = frame_from_normals(normals)
            a1, a2 = loop_frame_from_normals(normals)
            assert frame.axis1.tobytes() == a1.tobytes()
            assert frame.axis2.tobytes() == a2.tobytes()
            assert frame.normals().tobytes() == np.cross(a1, a2).tobytes()

    def test_zero_normal_refused_as_before(self, rng):
        normals = rng.standard_normal((3, 3))
        normals[1] = 0.0
        for build in (frame_from_normals, loop_frame_from_normals):
            with pytest.raises(InputError, match="plane normal must be nonzero"):
                build(normals)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_cross_rows_and_row_norms(self, rng, n):
        for scale in (1e-3, 1.0, 1e3):
            a, b = rng.standard_normal((2, n, 3)) * scale
            assert cross_rows(a, b).tobytes() == np.cross(a, b).tobytes()
            for row in a:
                assert math.sqrt(row.dot(row)).hex() == float(np.linalg.norm(row)).hex()

    @pytest.mark.parametrize("rows", [2, 3])
    def test_environment(self, rng, rows):
        for n in range(1, 8):
            a = rng.standard_normal((3,) * n)
            mats = [rng.standard_normal((rows, 3)) for _ in range(n)]
            for j in range(n):
                got = environment(a, mats, j)
                assert got.tobytes() == moveaxis_environment(a, mats, j).tobytes()

    @pytest.mark.parametrize("n", range(1, 10))
    def test_mode_grams_built_once_and_read_only(self, rng, n):
        t = random_correlation_tensor(rng, n)
        grams = t.mode_grams
        want = np.array([loop_mode_gram(t.cartesian(), j) for j in range(n)])
        assert grams.shape == (n, 3, 3) and grams.tobytes() == want.tobytes()
        assert t.mode_grams is grams and t.mode_gram_eigenvalues is t.mode_gram_eigenvalues
        for cached in (grams, t.mode_gram_eigenvalues):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = 0.0


class TestExport:
    def test_json_dict_shape(self, rng):
        t = correlation_tensor(random_density_matrix(rng, 2))
        doc = t.to_json_dict()
        assert doc["order"] == "xN_fastest"
        assert doc["labels"] == ["0", "x", "y", "z"]
        assert len(doc["entries"]) == 16
        assert doc["entries"][0] == pytest.approx(1.0)

    def test_flat_order_last_index_fastest(self, rng):
        t = correlation_tensor(random_density_matrix(rng, 2))
        entries = t.to_json_dict()["entries"]
        # position of (x1, x2) is 4*x1 + x2
        assert entries[4 * 1 + 2] == pytest.approx(t.values[1, 2])

    def test_product_state_purity_preserved(self, rng):
        dm = random_product_state(rng, 3)
        back = density_from_tensor(correlation_tensor(dm))
        assert back.purity() == pytest.approx(1.0, abs=1e-10)
