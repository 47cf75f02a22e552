"""Correlation tensors of Pauli-product expectation values and local frames.

The correlation tensor T of an N-qubit state holds Tr[rho (s_x1 x ... x s_xN)]
for every multi-index in {0,1,2,3}^N (0 = identity, 1/2/3 = x/y/z).  It fully
determines the state: rho = 2^-N sum_x T_x (s_x1 x ... x s_xN).

Flat storage is C order, so the last qubit's index varies fastest.

Every per-qubit contraction in the package is one n-mode product
(`mode_product`): the Pauli traces and their inverse, the in-plane and
setting tables, the sign sums of the Bell inequality, the plane
projections, and the qubit environments both criterion ascents update from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import TRACE_TOL, DensityMatrix, InputError, _frozen

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
IMAG_TOL = 1e-10
FRAME_TOL = 1e-10

_X_HAT = np.array([1.0, 0.0, 0.0])
_Y_HAT = np.array([0.0, 1.0, 0.0])
_Z_HAT = np.array([0.0, 0.0, 1.0])

# Tr[rho s_x] = sum_(r,c) rho[r, c] s_x[c, r], with (r, c) one axis of length 4
_TRACE = PAULI.transpose(0, 2, 1).reshape(4, 4)
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
    return mode_product(np.moveaxis(a, j, -1), others).reshape(a.shape[j], -1)


def frozen_table(n_qubits: int, values, what: str) -> np.ndarray:
    """`values` as a read-only float array of shape (2,)*n_qubits."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != (2,) * n_qubits:
        raise InputError(f"expected {what} shape {(2,) * n_qubits}, got {vals.shape}")
    return _frozen(vals)


@dataclass(frozen=True)
class CorrelationTensor:
    """All Pauli-product expectation values of a state, shape (4,)*N."""

    n_qubits: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (4,) * self.n_qubits:
            raise InputError(
                f"expected tensor shape {(4,) * self.n_qubits}, got {vals.shape}"
            )
        top = float(np.max(np.abs(vals)))
        if not top <= 1.0 + ENTRY_TOL:
            raise InputError(f"tensor entry out of range: max |T| = {top!r}")
        if not abs(vals[(0,) * self.n_qubits] - 1.0) <= TRACE_TOL:
            raise InputError("identity component of the tensor must equal 1")
        object.__setattr__(self, "values", _frozen(vals))

    def cartesian(self) -> np.ndarray:
        """The sub-tensor over Pauli indices 1..3 only, shape (3,)*N."""
        return self.values[(slice(1, 4),) * self.n_qubits]

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
        vals = frozen_table(self.n_qubits, self.values, "table")
        top = float(np.max(np.abs(vals)))
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
        return np.cross(self.axis1, self.axis2)

    @classmethod
    def canonical(cls, n_qubits: int) -> "LocalFrame":
        """x and y coordinate axes for every qubit."""
        return cls(np.tile(_X_HAT, (n_qubits, 1)), np.tile(_Y_HAT, (n_qubits, 1)))


def correlation_tensor(rho: DensityMatrix) -> CorrelationTensor:
    """Compute every Pauli-product expectation value of a state.

    Each qubit's row and column indices are paired into one axis of length
    4, which one mode product maps to the Pauli index, so none of the 4^N
    product operators is materialized.
    """
    n = rho.n_qubits
    # (row_1..row_N, col_1..col_N) -> (row_1, col_1, ..., row_N, col_N)
    order = [k for q in range(n) for k in (q, n + q)]
    paired = rho.matrix.reshape((2,) * (2 * n)).transpose(order)
    # passed unnamed, the paired copy is owned by mode_product's frame (CPython
    # >= 3.11), which frees it once the first product has read it
    work = mode_product(paired.reshape((4,) * n), [_TRACE] * n)
    imag = float(np.max(np.abs(work.imag)))
    if imag > IMAG_TOL:
        raise InputError(
            f"correlation entries have imaginary residue {imag:.3e}; "
            "the input matrix is not Hermitian enough"
        )
    return CorrelationTensor(n, work.real.copy())


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


def frame_from_normals(normals) -> LocalFrame:
    """Deterministic in-plane axes for given plane normals.

    The first axis is the reference direction (z, or x near the z poles)
    projected into the plane; the second completes a right-handed triple.
    """
    nv = np.asarray(normals, dtype=float).reshape(-1, 3)
    a1 = np.empty_like(nv)
    a2 = np.empty_like(nv)
    for j, raw in enumerate(nv):
        norm = np.linalg.norm(raw)
        if norm == 0.0:
            raise InputError("plane normal must be nonzero")
        unit = raw / norm
        ref = _Z_HAT if abs(unit[2]) <= 0.9 else _X_HAT
        v = ref - unit * (ref @ unit)
        a1[j] = v / np.linalg.norm(v)
        a2[j] = np.cross(unit, a1[j])
    return LocalFrame(a1, a2)
