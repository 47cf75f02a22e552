"""Correlation tensors of Pauli-product expectation values and local frames.

The correlation tensor T of an N-qubit state holds Tr[rho (s_x1 x ... x s_xN)]
for every multi-index in {0,1,2,3}^N (0 = identity, 1/2/3 = x/y/z).  It fully
determines the state: rho = 2^-N sum_x T_x (s_x1 x ... x s_xN).

Flat storage is C order, so the last qubit's index varies fastest.

Every per-qubit contraction in the package is one n-mode product
(`mode_product`): the inverse of the Pauli traces, the in-plane and setting
tables, the sign sums of the Bell inequality, the plane projections, and the
qubit environments both criterion ascents update from.  The Pauli traces
themselves run the same per-qubit products in real arithmetic, a few qubits
per pass over the matrix (`correlation_tensor`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .states import TRACE_TOL, DensityMatrix, InputError, _check_qubit_count, _frozen, qubit_array

PAULI = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

ENTRY_TOL = 1e-9
FRAME_TOL = 8e-12

_X_HAT = np.array([1.0, 0.0, 0.0])
_Y_HAT = np.array([0.0, 1.0, 0.0])
_Z_HAT = np.array([0.0, 0.0, 1.0])

# Tr[rho s_x] = sum_(r,c) rho[r, c] s_x[c, r], with (r, c) one axis of length 4
_TRACE = PAULI.transpose(0, 2, 1).reshape(4, 4)
# the same rows in real arithmetic: the y row times -i, so (0, 1, -1, 0)
_TRACE_REAL = (_TRACE * np.array([1, 1, -1j, 1])[:, None]).real
#: Most qubits correlation_tensor maps in one pass over the matrix, and the
#: floats of each of its two chunk buffers (256 KiB), so that every step of
#: a pass runs in L2.
_GROUP = 5
_CHUNK = 2 * 4**7
# the inverse map x -> s_x[r, c], up to the 2^-N
_EXPAND = PAULI.reshape(4, 4).T


def mode_product(a: np.ndarray, mats) -> np.ndarray:
    """The n-mode product: axis q of `a` mapped through the matrix mats[q].

    mats[q] has shape (new, old), with old the length of axis q; the axes
    keep their order (Kolda & Bader, SIAM Rev. 51, 455 (2009)).
    """
    for m in mats:
        # one matrix product consumes the leading axis and appends its image
        a = (a.reshape(a.shape[0], -1).T @ m.T).reshape(a.shape[1:] + (m.shape[0],))
    return a


def environment(a: np.ndarray, mats, j: int) -> np.ndarray:
    """Qubit j's environment: `a` mapped through mats[q] on every qubit q != j
    (mats[j] is unused), unfolded along j with the other qubits in order."""
    others = [m for q, m in enumerate(mats) if q != j]
    order = [q for q in range(a.ndim) if q != j] + [j]
    return mode_product(a.transpose(order), others).reshape(a.shape[j], -1)


@dataclass(frozen=True)
class CorrelationTensor:
    """All Pauli-product expectation values of a state, shape (4,)*N."""

    n_qubits: int
    values: np.ndarray

    def __post_init__(self):
        vals = qubit_array(self.n_qubits, self.values, float, lambda n: (4,) * n, "tensor")
        top = float(np.maximum(vals.max(), -vals.min()))  # max |T|, no |T| array made
        if not top <= 1.0 + ENTRY_TOL:
            raise InputError(f"tensor entry out of range: max |T| = {top!r}")
        if not abs(vals[(0,) * self.n_qubits] - 1.0) <= TRACE_TOL:
            raise InputError("identity component of the tensor must equal 1")
        object.__setattr__(self, "values", vals)

    def cartesian(self) -> np.ndarray:
        """The sub-tensor over Pauli indices 1..3 only, shape (3,)*N."""
        return self.values[(slice(1, 4),) * self.n_qubits]

    @cached_property
    def mode_grams(self) -> np.ndarray:
        """The 3x3 Gram matrix of the Cartesian tensor's unfolding along each
        qubit, a read-only (N, 3, 3) stack built once per tensor."""
        c = self.cartesian()
        unfold = (c.reshape(3**j, 3, -1).transpose(1, 0, 2).reshape(3, -1) for j in range(c.ndim))
        return _frozen(np.array([m @ m.T for m in unfold]))

    @cached_property
    def mode_gram_eigenvalues(self) -> np.ndarray:
        """The mode Grams' ascending eigenvalues, read-only (N, 3), one stacked solve."""
        return _frozen(np.linalg.eigvalsh(self.mode_grams))

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": int(self.n_qubits),
            "order": "xN_fastest",
            "labels": ["0", "x", "y", "z"],
            "entries": self.values.ravel().tolist(),
        }


@dataclass(frozen=True)
class CorrelationTable:
    """Correlation function values over two directions per qubit, shape (2,)*N.

    Axis index 0 selects each qubit's first direction (a setting n1, or a
    frame's axis1), index 1 its second; a frame's in-plane tensor is the
    table at the settings (axis1, axis2).
    """

    n_qubits: int
    values: np.ndarray

    def __post_init__(self):
        vals = qubit_array(self.n_qubits, self.values, float, lambda n: (2,) * n, "table")
        top = float(np.maximum(vals.max(), -vals.min()))
        if not top <= 1.0 + ENTRY_TOL:
            raise InputError(f"correlation value out of range: max |E| = {top!r}")
        object.__setattr__(self, "values", vals)

    def squared_sum(self) -> float:
        return float(np.sum(self.values**2))


@np.errstate(over="ignore", invalid="ignore")
def unit_row_pair(v1, v2, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Two float arrays of shape (N, 3) with unit rows; a norm overflowing to inf is refused."""
    a1 = np.asarray(v1, dtype=float)
    a2 = np.asarray(v2, dtype=float)
    if a1.ndim != 2 or a1.shape[1] != 3 or a1.shape != a2.shape:
        raise InputError(f"{what} must both have shape (N, 3), got {a1.shape} and {a2.shape}")
    _check_qubit_count(a1.shape[0])
    err = float(np.max(np.abs(np.linalg.norm(np.stack([a1, a2]), axis=-1) - 1.0)))
    if not err <= FRAME_TOL:
        raise InputError(f"{what} must be unit vectors (residual {err:.3e})")
    return a1, a2


@dataclass(frozen=True)
class LocalFrame:
    """Per-qubit orthonormal in-plane direction pairs; rows are unit 3-vectors."""

    axis1: np.ndarray
    axis2: np.ndarray

    def __post_init__(self):
        a1, a2 = unit_row_pair(self.axis1, self.axis2, "frame axes")
        dot_err = float(np.max(np.abs(np.sum(a1 * a2, axis=1))))
        if dot_err > FRAME_TOL:
            raise InputError(f"frame axes must be orthogonal (residual {dot_err:.3e})")
        object.__setattr__(self, "axis1", _frozen(a1))
        object.__setattr__(self, "axis2", _frozen(a2))

    @property
    def n_qubits(self) -> int:
        return self.axis1.shape[0]

    def normals(self) -> np.ndarray:
        """Plane normals axis1 x axis2, one unit row per qubit."""
        return cross_rows(self.axis1, self.axis2)

    @classmethod
    def canonical(cls, n_qubits: int) -> "LocalFrame":
        """x and y coordinate axes for every qubit."""
        return cls(np.tile(_X_HAT, (n_qubits, 1)), np.tile(_Y_HAT, (n_qubits, 1)))


@np.errstate(over="ignore", invalid="ignore")
def correlation_tensor(rho: DensityMatrix) -> CorrelationTensor:
    """Compute every Pauli-product expectation value of a state.

    The tensor is the real part of the traces.  For Hermitian s_x, Re Tr[m s_x]
    = Tr[H s_x] with H = (m + m^H)/2, so this is the tensor of the matrix's
    Hermitian part; whether m is a state is validate_density_matrix's decision.

    Each qubit's row and column indices are paired into one axis of length
    4, which one real product maps to the Pauli index: _TRACE_REAL, the
    trace rows without the y row's i, on the real and the imaginary part of
    the matrix's float view alike.  The i's come back as the phase i^k(x),
    k(x) the number of y indices of x, applied once at the end; it only
    swaps the parts and negates, and negation commutes with rounding, so the
    tensor is the complex chain's bit for bit, up to the sign of an exact
    zero, which the final + 0.0 makes +0.0 as in the complex chain.

    A matrix stored float64, one whose imaginary parts are all zero, carries
    its one part: the transform of an imaginary part that is all +-0 is +-0,
    whose only trace in the complex chain's result is a zero's sign, so the
    tensor is the same bit for bit, inf and nan included.  An entry that
    overflows raises no warning here: CorrelationTensor refuses the inf or
    nan it leaves.

    The qubits go in order, in groups of at most _GROUP, one pass over the
    matrix per group (_group_pass).
    """
    n = rho.n_qubits
    passes = -(-n // _GROUP)
    bounds = [n * j // passes for j in range(passes + 1)]
    work = rho.matrix.view(float)
    parts = rho.matrix.itemsize // 8  # float64 or complex128
    for a, b in zip(bounds, bounds[1:]):
        work = _group_pass(work, n, a, b, parts)
    return CorrelationTensor(n, work.reshape((4,) * n))


def _group_pass(work: np.ndarray, n: int, a: int, b: int, parts: int) -> np.ndarray:
    """Map qubits a..b-1 (from 0) of `work` to their Pauli indices, one chunk
    at a time.

    `work` holds the axes (r_a.., c_a.., part, x_0..x_a-1): the rows and
    columns still to map, the `parts` parts (real and imaginary, or real
    alone), and the Pauli indices mapped so far; the first pass reads the
    matrix's view in place.  A chunk is a box of it (_pass_plan) copied
    into a buffer as (r_a, c_a, ..., r_b-1, c_b-1, rest); each step
    consumes the leading pair and appends its Pauli index, so the chunk
    leaves as (rest, x_a..x_b-1).  A pass before the last writes (r_b..,
    c_b.., part, x_0..x_b-1).  The last pass reads the parts of a run of
    rows of T and writes it with its phase i^k, in blocks of 4^d entries
    (_write_phased).
    """
    src_shape, pair, out_shape, size, d, chunks = _pass_plan(n, a, b, parts, _CHUNK)
    g, last = b - a, b == n
    # the phase pattern first: building it takes more memory than it keeps
    turns = _quarter_turns(d) if last else None
    src = work.reshape(src_shape)
    out = np.empty(out_shape)
    bufs = np.empty(size), np.empty(size)
    step = _TRACE_REAL.T
    for index, at in chunks:
        view = src[index].transpose(pair)
        w = bufs[0][: view.size].reshape(view.shape)
        np.copyto(w, view)
        for q in range(g):
            if q < g - 1 or last:
                o = bufs[1 - q % 2][: view.size]
            else:
                o = out[at:][: view.size // 4**g]
            w = np.matmul(w.reshape(4, -1).T, step, out=o.reshape(-1, 4))
        if last:
            blocks = w.reshape(parts, -1, 4**d)
            for k in range(blocks.shape[1]):
                _write_phased(blocks[:, k], at + k, *turns, out[at + k])
    return out.reshape(-1)


@lru_cache(maxsize=128)
def _pass_plan(n: int, a: int, b: int, parts: int, chunk: int) -> tuple:
    """What _group_pass needs that the shapes fix: the shape that views
    `work` as (r_a.., x, c_a.., part, z), the transpose that pairs it, the
    output's shape, the buffer size, the exponent d of the last pass's
    blocks of 4^d entries of T (None before it), and per chunk the index of
    its box in the view and where it goes (an output row, or the first
    block of T).  `chunk` is _CHUNK, the floats per chunk."""
    g = b - a
    rows = 4**g
    x_len = 2 ** (n - b)
    z_len = parts * 4**n // (rows * x_len)
    last = b == n
    n_parts = parts if last else 1
    src_shape = (2,) * g + (x_len,) + (2,) * g + (n_parts, z_len // n_parts)
    pair = tuple(k for q in range(g) for k in (q, g + 1 + q)) + (g, 2 * g + 1, 2 * g + 2)
    d = None
    if last:
        # chunk floats per chunk, in blocks of 4^d entries of T, so that one
        # phase pattern fits every block
        cols = min(z_len // parts, chunk // (parts * rows))
        d = ((rows * cols).bit_length() - 1) // 2
        out_shape = (4**n >> 2 * d, 4**d)
    else:
        cols = chunk // rows
        out_shape = (x_len * z_len, rows)
    inner = z_len // n_parts
    # a chunk is cols entries of z, or whole z rows of several x
    xs, zs = max(1, cols // inner), min(inner, cols)
    spans = [(x, x + xs, z, z + zs) for x in range(0, x_len, xs) for z in range(0, inner, zs)]
    whole = (slice(None),) * g
    chunks = tuple(
        (
            whole + (slice(x0, x1),) + whole + (slice(None), slice(z0, z1)),
            z0 * rows >> 2 * d if last else x0 * z_len + z0,
        )
        for x0, x1, z0, z1 in spans
    )
    return src_shape, pair, out_shape, min(chunk, parts * 4**n), d, chunks


def _write_phased(parts, j, turn_re, turn_im, dest):
    """dest = Re(i^k (u + i v)) for the parts (u, v) of block j of T, or for
    its real part u alone, whose rows share their leading indices: i^k =
    i^c i^p with c the y count of j's base-4 digits and p the pattern over
    the trailing indices, Re(i^p (u + i v)) = turn_re u + turn_im v.  The
    parts are overwritten.

    Each product is exact, as turn_re and turn_im are 0 or +-1, and the sum
    is the one nonzero term; i^c swaps the parts for odd c and negates for
    c = 1, 2 mod 4.  0.0 + t and 0.0 - t make a zero of either sign +0.0.
    With u alone, Re(i^c i^p u) is u times turn_re (even c) or turn_im (odd
    c), negated for c = 2, 3 mod 4: the same floats, since the dropped term
    of the sum is +-0.  The zero turns still multiply u, so that an inf in u
    gives nan where it does with both parts."""
    # the base-4 digits of j that are 2 (bit pairs 10); j < 4^MAX_QUBITS
    c = (j >> 1 & ~j & 0x555555).bit_count()
    if len(parts) == 1:
        u = parts[0]
        u *= turn_im if c % 2 else turn_re
        (np.subtract if c % 4 >= 2 else np.add)(0.0, u, out=dest)
        return
    u, v = parts if c % 2 == 0 else parts[::-1]
    u *= turn_re
    v *= turn_im
    (np.subtract if c % 2 else np.add)(u, v, out=u)
    (np.subtract if c % 4 in (1, 2) else np.add)(0.0, u, out=dest)


@lru_cache(maxsize=8)
def _quarter_turns(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(Re i^k, -Im i^k) over the 4^d multi-indices of d qubits, k the
    number of y indices; read-only.  A block of T fills at most half a
    chunk (4^d <= _CHUNK / 2), so d <= 7 and the cache holds at most 7
    pattern pairs."""
    z = np.ones(1, dtype=complex)
    for _ in range(d):
        z = np.multiply.outer(z, [1, 1, 1j, 1]).ravel()
    return _frozen(z.real.copy()), _frozen(-z.imag)


def density_from_tensor(t: CorrelationTensor) -> DensityMatrix:
    """Rebuild rho = 2^-N sum_x T_x (s_x1 x ... x s_xN) from its tensor.

    The mirror of correlation_tensor: one mode product maps each Pauli index
    to the qubit's (row, col) pair, and rows are then moved ahead of columns.
    """
    n = t.n_qubits
    work = mode_product(t.values, [_EXPAND] * n).reshape((2,) * (2 * n))
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    rho = work.transpose(order).reshape(2**n, 2**n)
    return DensityMatrix(n, rho / 2.0**n)


def direction_table(t: CorrelationTensor, d1, d2, what: str) -> CorrelationTable:
    """The Cartesian tensor contracted with two unit directions per qubit.

    Entry k is the correlation of the product observable that measures
    qubit q along d1[q] where k_q = 0 and along d2[q] where k_q = 1.
    """
    if len(d1) != t.n_qubits:
        raise InputError(f"{what} cover {len(d1)} qubits but the tensor has {t.n_qubits}")
    work = mode_product(t.cartesian(), np.stack([d1, d2], axis=1))
    return CorrelationTable(t.n_qubits, work)


def plane_subtensor(t: CorrelationTensor, f: LocalFrame) -> CorrelationTable:
    """The in-plane tensor: the table at the frame axes (axis1, axis2)."""
    return direction_table(t, f.axis1, f.axis2, "frame axes")


def rotate_frame_in_plane(f: LocalFrame, angles) -> LocalFrame:
    """Rotate each qubit's axis pair by its angle about the plane normal."""
    ang = np.asarray(angles, dtype=float).reshape(-1)
    if ang.size != f.n_qubits:
        raise InputError(f"expected {f.n_qubits} angles, got {ang.size}")
    c = np.cos(ang)[:, None]
    s = np.sin(ang)[:, None]
    return LocalFrame(c * f.axis1 + s * f.axis2, -s * f.axis1 + c * f.axis2)


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b of two (N, 3) arrays, each component rounded as np.cross
    rounds it: a[k+1] b[k+2] - a[k+2] b[k+1], indices mod 3."""
    i, k = [1, 2, 0], [2, 0, 1]
    return a.take(i, axis=1) * b.take(k, axis=1) - a.take(k, axis=1) * b.take(i, axis=1)


def frame_from_normals(normals) -> LocalFrame:
    """Deterministic in-plane axes for given plane normals.

    The first axis is the reference direction (z, or x near the z poles)
    projected into the plane; the second completes a right-handed triple.
    """
    nv = np.asarray(normals, dtype=float).reshape(-1, 3)
    # math.sqrt(r.dot(r)) is np.linalg.norm(r), bit for bit, without its overhead
    norms = [math.sqrt(r.dot(r)) for r in nv]
    if 0.0 in norms:
        raise InputError("plane normal must be nonzero")
    unit = nv / np.array(norms)[:, None]
    # the reference's dot with a unit normal is that normal's z (or x) entry
    use_z = np.abs(unit[:, 2]) <= 0.9
    ref = np.where(use_z[:, None], _Z_HAT, _X_HAT)
    v = ref - unit * np.where(use_z, unit[:, 2], unit[:, 0])[:, None]
    a1 = v / np.array([math.sqrt(r.dot(r)) for r in v])[:, None]
    return LocalFrame(a1, cross_rows(unit, a1))
