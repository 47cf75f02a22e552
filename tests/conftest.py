"""Shared random-state generators and oracle helpers."""

import itertools
import json
import os
import tracemalloc
from dataclasses import replace
from functools import reduce
from math import prod, sqrt
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import entcrit
from entcrit.bell import _SIGN_WEIGHTS, BellEvaluation, violates
from entcrit.info import DECISION_TOLERANCE
from entcrit.pauli import _TRACE, CorrelationTable, CorrelationTensor, mode_product
from entcrit.search import (
    GAIN_TOL,
    MAX_SWEEPS,
    TIE_TOL,
    OptimizerOptions,
    SearchResult,
    _ascend,
)
from entcrit.states import (
    HERMITICITY_TOL,
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    InputError,
    InvariantViolation,
    StatePreset,
    StateVector,
)

# child interpreters import the same entcrit as this one, installed or not
SRC = str(Path(entcrit.__file__).resolve().parents[1])
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p),
}

PAULI_MATRICES = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]


PROB_SUM_TOL = 1e-9


def info_from_probabilities(p_plus, p_minus):
    """Knowledge content (p_plus - p_minus)^2 of a two-outcome experiment:
    the paper's definition, an oracle for the squared tensor entries."""
    if p_plus < 0.0 or p_minus < 0.0:
        raise InputError("probabilities must be nonnegative")
    if abs(p_plus + p_minus - 1.0) > PROB_SUM_TOL:
        raise InputError(f"probabilities must sum to 1 (got {p_plus + p_minus!r})")
    return float(p_plus - p_minus) ** 2


def ghz_vector(n_qubits):
    """(|0...0> + |1...1>)/sqrt(2)."""
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return StateVector(n_qubits, amps)


def generalized_ghz_vector(n_qubits, s):
    """cos a|0...0> + sin a|1...1> with sin 2a = s, for 0 <= s <= 1."""
    a = 0.5 * np.arcsin(s)
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0], amps[-1] = np.cos(a), np.sin(a)
    return StateVector(n_qubits, amps)


def _ghz_projector(n):
    # corner entries are exactly 1/2, avoiding 1/sqrt(2) rounding in products
    m = np.zeros((2**n, 2**n), dtype=complex)
    for i in (0, -1):
        for j in (0, -1):
            m[i, j] = 0.5
    return m


def reference_preset_matrix(p: StatePreset):
    """A preset's matrix by one branch per kind, with GHZ-Werner as the dense
    sum V P_GHZ + (1 - V) I / 2^N: the reference for `build_preset`."""
    n = p.n_qubits
    dim = 2**n
    plus_x = np.full((2, 2), 0.5, dtype=complex)
    minus_x = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    if p.kind == "maximally_mixed":
        return np.eye(dim, dtype=complex) / dim
    if p.kind == "ghz":
        return _ghz_projector(n)
    if p.kind == "werner_ghz":
        v = float(p.visibility)
        return v * _ghz_projector(n) + (1.0 - v) * np.eye(dim, dtype=complex) / dim
    if p.kind == "bell_phi_minus":
        m = _ghz_projector(2)
        m[0, 3] = m[3, 0] = -0.5
        return m
    if p.kind == "product_plus_x_minus_x":
        return np.kron(plus_x, minus_x)
    if p.kind == "product_all_plus_x":
        m = np.array([[1.0]], dtype=complex)
        for _ in range(n):
            m = np.kron(m, plus_x)
        return m
    raise ValueError(f"no reference for preset kind {p.kind!r}")


def loop_read_pairs(raw):
    """Nested [re, im] pairs read one entry at a time with float(): the
    bitwise reference for the state-file reader."""
    if raw and isinstance(raw[0][0], list):
        return np.array([[complex(float(re), float(im)) for re, im in row] for row in raw])
    return np.array([complex(float(re), float(im)) for re, im in raw])


def loop_serialize_state(dm):
    """The state-file text with each entry written as a [re, im] pair by hand."""
    entries = [[[float(z.real), float(z.imag)] for z in row] for row in dm.matrix]
    return json.dumps({"matrix": {"n_qubits": int(dm.n_qubits), "entries": entries}})


def random_pure_vector(rng, n):
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def random_pure_state(rng, n):
    v = random_pure_vector(rng, n)
    return DensityMatrix(n, np.outer(v, v.conj()))


def random_density_matrix(rng, n, terms=4):
    """Random mixture of random pure states."""
    dim = 2**n
    weights = rng.dirichlet(np.ones(terms))
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = random_pure_vector(rng, n)
        rho += w * np.outer(v, v.conj())
    return DensityMatrix(n, rho)


def random_bloch_vector(rng):
    b = rng.standard_normal(3)
    return b / np.linalg.norm(b)


def random_product_state(rng, n):
    """Pure product state from random unit Bloch vectors."""
    rho = np.array([[1.0]], dtype=complex)
    for _ in range(n):
        b = random_bloch_vector(rng)
        local = 0.5 * (PAULI_MATRICES[0] + sum(b[i] * PAULI_MATRICES[i + 1] for i in range(3)))
        rho = np.kron(rho, local)
    return DensityMatrix(n, rho)


def random_separable_state(rng, n, terms=8):
    """Convex mixture of random product states."""
    k = int(rng.integers(2, terms + 1))
    weights = rng.dirichlet(np.ones(k))
    rho = sum(w * random_product_state(rng, n).matrix for w in weights)
    return DensityMatrix(n, rho)


def random_unit_vectors(rng, count):
    v = rng.standard_normal((count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def pauli_product(indices):
    op = PAULI_MATRICES[indices[0]]
    for x in indices[1:]:
        op = np.kron(op, PAULI_MATRICES[x])
    return op


def kron_observable(directions):
    """The product over qubits of d_q . sigma, by explicit Kronecker products."""
    op = np.array([[1.0]], dtype=complex)
    for d in directions:
        op = np.kron(op, sum(d[i] * PAULI_MATRICES[i + 1] for i in range(3)))
    return op


def kron_trace_table(dm, d1, d2):
    """Correlation table by explicit operators: entry k is the trace of rho
    times the product over qubits of (d1[q] or d2[q]) . sigma, per k_q."""
    n = dm.n_qubits
    out = np.empty((2,) * n)
    for k in np.ndindex(*(2,) * n):
        op = kron_observable([(d1, d2)[k[q]][q] for q in range(n)])
        val = np.trace(dm.matrix @ op)
        assert abs(val.imag) < 1e-10
        out[k] = val.real
    return out


def brute_force_tensor(dm):
    """Tensor entries by explicit operator construction and trace."""
    n = dm.n_qubits
    out = np.empty((4,) * n)
    for idx in np.ndindex(*(4,) * n):
        val = np.trace(dm.matrix @ pauli_product(idx))
        assert abs(val.imag) < 1e-10
        out[idx] = val.real
    return out


def full_rank_state(rng, n):
    """G G^H / Tr, G a complex Gaussian square matrix: rank 2^N almost surely."""
    dim = 2**n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(n, rho / np.trace(rho).real)


def prescribed_spectrum_matrix(rng, n, min_eig, real=False):
    """Unit-trace Hermitian matrix, random eigenbasis, smallest eigenvalue
    min_eig; a real symmetric one with a real orthogonal eigenbasis if real."""
    dim = 2**n
    lam = rng.uniform(0.1, 1.0, dim)
    lam *= (1.0 - min_eig) / (lam.sum() - lam[0])
    lam[0] = min_eig
    g = rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g if real else g + 1j * rng.standard_normal((dim, dim)))
    m = (q * lam) @ q.conj().T
    return DensityMatrix(n, (m + m.conj().T) / 2.0)


def low_rank_plus_diagonal(rng, n, min_eig, real=False):
    """Unit-trace Hermitian matrix whose smallest eigenvalue is exactly
    min_eig: a rank-3 mixture on the odd basis states (rank 1 at n = 1) plus
    a diagonal on the even ones, min_eig first; real if real."""
    dim = 2**n
    odd, even = np.arange(1, dim, 2), np.arange(2, dim, 2)
    diagonal = rng.uniform(0.1, 1.0, even.size) * (0.4 / dim)
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = min_eig
    m[even, even] = diagonal
    weight = 1.0 - min_eig - diagonal.sum()
    for w in (0.5, 0.3, 0.2):
        v = np.zeros(dim, dtype=complex)
        v[odd] = rng.standard_normal(odd.size)
        if not real:
            v[odd] += 1j * rng.standard_normal(odd.size)
        v /= np.linalg.norm(v)
        m += w * weight * np.outer(v, v.conj())
    return DensityMatrix(n, (m + m.conj().T) / 2.0)


def eigvalsh_validate(dm):
    """Density-matrix invariants with the smallest eigenvalue from eigvalsh
    on every input: the PSD gate as it stood before the Cholesky certificate."""
    report = []
    m = np.asarray(dm.matrix, dtype=complex)
    herm_residual = float(np.max(np.abs(m - m.conj().T)))
    if herm_residual > HERMITICITY_TOL:
        report.append(InvariantViolation("hermiticity", herm_residual))
    trace_residual = float(abs(np.trace(m) - 1.0))
    if trace_residual > TRACE_TOL:
        report.append(InvariantViolation("trace", trace_residual))
    min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
    if min_eig < -PSD_TOL:
        report.append(InvariantViolation("positive_semidefinite", -min_eig))
    return report


_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def reference_validate(dm):
    """Density-matrix invariants in complex arithmetic on every input, reading
    m^H twice and factoring the C-ordered Hermitian part: the reference for
    `validate_density_matrix`."""
    report = []
    m = np.asarray(dm.matrix, dtype=complex)
    m_h = m.conj().T
    herm_residual = float(np.max(np.abs(m - m_h)))
    if herm_residual > HERMITICITY_TOL:
        report.append(InvariantViolation("hermiticity", herm_residual))
    trace_residual = float(abs(np.trace(m) - 1.0))
    if trace_residual > TRACE_TOL:
        report.append(InvariantViolation("trace", trace_residual))
    h = m + m_h
    del m_h
    h /= 2.0
    if not _reference_cholesky_certifies_psd(h, np.linalg.norm(m)):
        min_eig = float(np.linalg.eigvalsh(h)[0])
        if min_eig < -PSD_TOL:
            report.append(InvariantViolation("positive_semidefinite", -min_eig))
    return report


def _reference_cholesky_certifies_psd(h, m_norm):
    n = h.shape[0]
    norm_bound = m_norm + PSD_TOL / 2.0
    if 4.0 * n * (n + 1) * _UNIT_ROUNDOFF * norm_bound > PSD_TOL / 4.0:
        return False
    diagonal = h.diagonal().copy()
    h.flat[:: n + 1] += PSD_TOL / 2.0
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    finally:
        h.flat[:: n + 1] = diagonal
    return True


def pauli_traces(dm):
    """The complex traces Tr[rho s_x] for every Pauli multi-index x, with the
    paired copy held through the whole mode-product chain."""
    n = dm.n_qubits
    order = [k for q in range(n) for k in (q, n + q)]
    paired = dm.matrix.reshape((2,) * (2 * n)).transpose(order).reshape((4,) * n)
    return mode_product(paired, [_TRACE] * n)


def reference_correlation_tensor(dm):
    """The real parts of `pauli_traces`: the reference for `correlation_tensor`."""
    return CorrelationTensor(dm.n_qubits, pauli_traces(dm).real.copy())


#: Bytes tracemalloc counts for the call's own small Python objects (array
#: headers, shape tuples, the report), which do not grow with the matrix.
SMALL_OBJECTS = 16 * 1024


def traced_peak(f, *args):
    """Peak bytes that tracemalloc (which traces NumPy's array data) sees
    allocated during f(*args), above what was allocated before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def einsum_empirical_table(a1, a2):
    """Monte-Carlo table as an N-step int8 outer product over the samples."""
    size, n = a1.shape
    outcomes = np.stack([a1, a2], axis=-1).astype(np.int8)  # (size, n, 2)
    work = np.ones((size,), dtype=np.int8)
    for q in range(n):
        work = np.einsum("i...,ij->i...j", work, outcomes[:, q])
    return work.mean(axis=0)


def masses_evaluation(q):
    """The Bell evaluation whose local model has the signed class masses q,
    shape (2,)*N: B = 2^N q, with the table those masses realize, E(k) =
    sum_s q(s) s^k (s_j^1 = s_j, s_j^2 = 1), one outer product of the rows
    (s_j, 1) per class."""
    q = np.asarray(q, dtype=float)
    n = q.ndim
    table = np.zeros(q.shape)
    for idx in np.ndindex(q.shape):
        table += q[idx] * reduce(np.multiply.outer, [np.array([1.0 - 2 * i, 1.0]) for i in idx])
    b, bound = 2.0**n * q, 2.0**n
    lhs = float(np.abs(b).sum())
    return BellEvaluation(CorrelationTable(n, table), lhs, b, bound, violates(lhs, bound))


def signed_mass_table(model):
    """The model's table from its class masses times sign B(s) (-1 where
    B(s) = 0): the reference for `lhv.lhv_correlation_table`."""
    signs = np.where(model.evaluation.sums > 0, 1.0, -1.0)
    return mode_product(model.weights * signs, [_SIGN_WEIGHTS.T] * model.n_qubits)


def enumerated_atoms(model):
    """The local model's strategies by explicit enumeration: classes s in
    itertools order (+1 first), then every a2 with prod(a2) = sign(s) = sign
    B(s) (-1 where B(s) = 0), a1 = s a2, each carrying p(s) / 2^(N-1);
    classes without mass are skipped."""
    n = model.n_qubits
    atoms = []
    weights = model.weights.ravel().tolist()
    signs = [1 if b > 0 else -1 for b in model.evaluation.sums.ravel().tolist()]
    for s, p, sign in zip(itertools.product((1, -1), repeat=n), weights, signs):
        if p == 0.0:
            continue
        for a2 in itertools.product((1, -1), repeat=n):
            if prod(a2) == sign:
                a1 = [sj * a2j for sj, a2j in zip(s, a2)]
                atoms.append({"a1": a1, "a2": list(a2), "p": p / 2.0 ** (n - 1)})
    return atoms


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def tensordot_mode_product(a, mats):
    """The n-mode product as a chain of tensordots, one per leading axis."""
    for m in mats:
        a = np.tensordot(a, m, axes=([0], [1]))
    return a


def einsum_mode_product(a, mats):
    """The n-mode product as one einsum: out[J...] = sum_I a[I...] prod m_q[J_q, I_q]."""
    n = a.ndim
    old = "abcdefghi"[:n]
    new = "ABCDEFGHI"[:n]
    terms = [old] + [new[q] + old[q] for q in range(n)]
    return np.einsum(",".join(terms) + "->" + new, a, *mats)


def einsum_environment(a, mats, j):
    """Qubit j's environment as one einsum: out[I_j, J...] = sum a[I...] prod
    over q != j of m_q[J_q, I_q], the other qubits in order, then unfolded."""
    n = a.ndim
    old = "abcdefghi"[:n]
    new = "ABCDEFGHI"[:n]
    others = [q for q in range(n) if q != j]
    terms = [old] + [new[q] + old[q] for q in others]
    out = old[j] + "".join(new[q] for q in others)
    work = np.einsum(",".join(terms) + "->" + out, a, *[mats[q] for q in others])
    return work.reshape(a.shape[j], -1)


def gain_only_ascend(sweep, x):
    """`search._ascend` stopping only on the gain test or the sweep cap, so a
    start that is already a fixed point takes a second sweep."""
    value = -np.inf
    for count in range(1, MAX_SWEEPS + 1):
        x, new = sweep(x)
        gain = new - value
        value = new
        if gain <= GAIN_TOL * max(1.0, abs(value)):
            return SearchResult(x, value, 1, count, True, abs(gain))
    return SearchResult(x, value, 1, MAX_SWEEPS, False, abs(gain))


def eager_maximize(sweep, warm_starts, options, ceiling, default_restarts):
    """`search.maximize` with every random start drawn before the first ascent."""
    opts = options or OptimizerOptions()
    rng = np.random.default_rng(opts.seed)
    starts = [np.asarray(w, dtype=float) for w in warm_starts]
    for _ in range(default_restarts if opts.restarts is None else opts.restarts):
        v = rng.standard_normal(starts[0].shape)
        starts.append(v / np.linalg.norm(v, axis=-1, keepdims=True))
    best = None
    sweeps = 0
    for x0 in starts:
        run = _ascend(sweep, x0)
        sweeps += run.iterations
        if best is None or run.value > best.value + TIE_TOL * max(1.0, abs(best.value)):
            best = run
        if ceiling - best.value <= TIE_TOL * max(1.0, abs(best.value)):
            break
    return replace(best, restarts=len(starts), iterations=sweeps)


def cosine_bk_signs(n):
    """Belinskii-Klyshko signs by the cosine formula: the sign of
    sqrt(2) cos(-pi/4 + orient (s1+...+sN - N) pi/4), orient -1 for odd N."""
    orient = 1.0 if n % 2 == 0 else -1.0
    m = np.indices((2,) * n).sum(axis=0)
    raw = np.sqrt(2.0) * np.cos(-np.pi / 4.0 + orient * (-2 * m) * np.pi / 4.0)
    assert np.max(np.abs(raw - np.sign(raw))) <= 1e-12
    return np.sign(raw)


def loop_scan_rows(n, grid, full_lhs):
    """Visibility-scan rows by the scalar formulas, one row at a time."""
    count = 2 ** (n - 1)
    bound = float(2**n)
    rows = []
    for v in np.linspace(0.0, 1.0, grid):
        v = float(v)
        info_sum = count * v * v
        lhs = full_lhs * v
        rows.append(
            SimpleNamespace(
                visibility=v,
                info_sum=info_sum,
                bell_lhs=lhs,
                bell_ratio=lhs / bound,
                info_entangled=sqrt(info_sum) > 1.0 + DECISION_TOLERANCE,
                bell_violated=lhs / bound > 1.0 + DECISION_TOLERANCE,
            )
        )
    return rows


def loop_scan_reports(n, rows):
    """CSV text and JSON dict of scan rows, written field by field."""
    dicts = [
        {
            "V": float(r.visibility),
            "info_sum": float(r.info_sum),
            "bell_lhs": float(r.bell_lhs),
            "bell_ratio": float(r.bell_ratio),
            "info_entangled": bool(r.info_entangled),
            "bell_violated": bool(r.bell_violated),
        }
        for r in rows
    ]
    lines = ["V,info_sum,bell_lhs,bell_ratio,info_entangled,bell_violated"]
    for d in dicts:
        cells = [str(x).lower() if isinstance(x, bool) else f"{x:.17g}" for x in d.values()]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n", {"n_qubits": n, "rows": dicts}


def loop_frame_from_normals(normals):
    """In-plane axes one normal at a time, through np.linalg.norm, a dot with
    the reference direction and np.cross: the bitwise reference for
    `pauli.frame_from_normals`, returned as the two (N, 3) axis arrays."""
    nv = np.asarray(normals, dtype=float).reshape(-1, 3)
    a1 = np.empty_like(nv)
    a2 = np.empty_like(nv)
    for j, raw in enumerate(nv):
        norm = np.linalg.norm(raw)
        if norm == 0.0:
            raise InputError("plane normal must be nonzero")
        unit = raw / norm
        ref = np.array([0.0, 0.0, 1.0]) if abs(unit[2]) <= 0.9 else np.array([1.0, 0.0, 0.0])
        v = ref - unit * (ref @ unit)
        a1[j] = v / np.linalg.norm(v)
        a2[j] = np.cross(unit, a1[j])
    return a1, a2


def projected_plane_sum(t, normals):
    """The in-plane sum as the Cartesian tensor contracted with each qubit's
    projector onto its plane, the normals renormalized first."""
    nv = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    cart = t.cartesian()
    return float(np.vdot(mode_product(cart, np.eye(3) - nv[:, :, None] * nv[:, None, :]), cart))


def loop_mode_gram(cart, mode):
    """The 3x3 Gram matrix of one mode unfolding of the Cartesian tensor."""
    m = cart.reshape(3**mode, 3, -1).transpose(1, 0, 2).reshape(3, -1)
    return m @ m.T


def loop_least_directions(t):
    """Each qubit's smallest mode-Gram eigenvector by one eigh per qubit: the
    bitwise reference for the information search's HOSVD start."""
    cart = t.cartesian()
    return np.array([np.linalg.eigh(loop_mode_gram(cart, j))[1][:, 0] for j in range(t.n_qubits)])


def loop_info_upper_bound(t):
    """The ceiling by one eigvalsh per qubit: the bitwise reference for
    `info.info_upper_bound`."""
    cart = t.cartesian()
    return float(
        min(np.linalg.eigvalsh(loop_mode_gram(cart, j))[1:].sum() for j in range(t.n_qubits))
    )


def moveaxis_environment(a, mats, j):
    """Qubit j's environment with the axis moved by np.moveaxis: the bitwise
    reference for `pauli.environment`."""
    others = [m for q, m in enumerate(mats) if q != j]
    return mode_product(np.moveaxis(a, j, -1), others).reshape(a.shape[j], -1)


def random_correlation_tensor(rng, n):
    """A tensor with uniform entries in [-1, 1] and identity component 1: not
    a state's, but every tensor method accepts it."""
    values = rng.uniform(-1.0, 1.0, (4,) * n)
    values[(0,) * n] = 1.0
    return CorrelationTensor(n, values)


def scaled_normals(rng, n):
    """Seeded (N, 3) normal sets: Gaussian rows at scales 1e-3 to 1e3, rows
    within 1e-9 of the z poles, on the reference switch |n_z| = 0.9, and on
    the coordinate axes."""
    sets = [rng.standard_normal((n, 3)) * scale for scale in (1e-3, 1.0, 1e3)]
    pole = rng.standard_normal((n, 3)) * 1e-9
    pole[:, 2] = rng.choice([-1.0, 1.0], n)
    sets.append(pole)
    switch = rng.standard_normal((n, 3))
    switch[:, :2] *= np.sqrt(1.0 - 0.81) / np.linalg.norm(switch[:, :2], axis=1, keepdims=True)
    switch[:, 2] = rng.choice([-0.9, 0.9], n)
    sets.append(switch)
    sets.append(np.eye(3)[rng.integers(0, 3, n)] * rng.choice([-1.0, 1.0], (n, 1)))
    return sets
