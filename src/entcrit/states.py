"""N-qubit state containers, named presets, and the JSON state-file format.

Conventions shared by the whole package:

* Basis states are ordered by z-eigenvalue bitstrings, with qubit 1 as the
  most significant bit, so |up,...,up> comes first.
* |+x> = (|+z> + |-z>)/sqrt(2) and |+y> = (|+z> + i|-z>)/sqrt(2).  All
  reported quantities (correlation tensors, inequality values) are
  independent of this phase choice.
* Complex numbers serialize as [re, im] pairs of IEEE-754 doubles.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

#: Default cap on qubit count.  Dense 2^N x 2^N storage and 4^N tensor
#: enumeration blow up quickly past this; reassign to raise the limit.
MAX_QUBITS = 12

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
NORM_TOL = 1e-8
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0

#: Presets defined for one qubit count only; the CLI takes it when --n is absent.
FIXED_QUBITS = {"bell_phi_minus": 2, "product_plus_x_minus_x": 2}


class InputError(ValueError):
    """User-supplied data is malformed or inconsistent."""


class StateFormatError(InputError):
    """A state or settings file does not match the expected JSON schema."""


@dataclass(frozen=True)
class InvariantViolation:
    """One failed density-matrix invariant together with its measured residual."""

    invariant: str
    residual: float


class StateValidationError(InputError):
    """A matrix failed the density-matrix invariants."""

    def __init__(self, report):
        self.report = list(report)
        detail = "; ".join(
            f"{v.invariant} (residual {v.residual:.3e})" for v in self.report
        )
        super().__init__(f"not a valid density matrix: {detail}")


def _check_qubit_count(n_qubits: int) -> None:
    if not isinstance(n_qubits, (int, np.integer)) or n_qubits < 1:
        raise InputError(f"n_qubits must be a positive integer, got {n_qubits!r}")
    if n_qubits > MAX_QUBITS:
        raise InputError(
            f"n_qubits={n_qubits} exceeds the cap of {MAX_QUBITS} "
            "(raise entcrit.states.MAX_QUBITS to override)"
        )


def _check_visibility(v) -> None:
    if not 0.0 <= v <= 1.0:
        raise InputError(f"visibility must lie in [0, 1], got {v!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StateVector:
    """Pure-state amplitudes over the 2^N z-basis bitstrings."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n_qubits)
        amps = np.asarray(self.amplitudes, dtype=complex)
        dim = 2**self.n_qubits
        if amps.shape != (dim,):
            raise InputError(
                f"expected {dim} amplitudes for {self.n_qubits} qubits, "
                f"got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise InputError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """2^N x 2^N complex matrix; physical invariants checked separately.

    The constructor enforces only shape and finiteness so that invalid
    matrices can still be inspected through validate_density_matrix.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n_qubits)
        m = np.asarray(self.matrix, dtype=complex)
        dim = 2**self.n_qubits
        if m.shape != (dim, dim):
            raise InputError(
                f"expected a {dim}x{dim} matrix for {self.n_qubits} qubits, "
                f"got shape {m.shape}"
            )
        if not np.all(np.isfinite(m)):
            raise InputError("matrix entries must be finite")
        object.__setattr__(self, "matrix", _frozen(m))

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@np.errstate(over="ignore", invalid="ignore")
def validate_density_matrix(dm: DensityMatrix) -> list[InvariantViolation]:
    """Check Hermiticity, unit trace, and positive semidefiniteness.

    Returns an empty list when all invariants hold at their tolerances;
    otherwise one entry per violated invariant with the measured residual.
    """
    report: list[InvariantViolation] = []
    m = dm.matrix
    if not m.imag.any():  # a real state is certified in real arithmetic
        m = m.real
    h = np.empty_like(m, order="C")
    np.conjugate(m.T, out=h)  # m^H, read from m once
    herm_residual = float(np.max(np.abs(m - h)))
    if herm_residual > HERMITICITY_TOL:
        report.append(InvariantViolation("hermiticity", herm_residual))
    # the complex sum: a real one pairs the diagonal differently in its last bits
    trace_residual = float(abs(np.trace(dm.matrix) - 1.0))
    if trace_residual > TRACE_TOL:
        report.append(InvariantViolation("trace", trace_residual))
    h += m  # H = (m + m^H)/2 in place, exactly Hermitian
    h /= 2.0
    if not _cholesky_certifies_psd(h, np.linalg.norm(m)):
        # eigvalsh of the complex H measures the same residual on every input;
        # entries past ~9e307 overflow H to inf, leaving no finite eigenvalue
        try:
            min_eig = float(np.linalg.eigvalsh(np.asarray(h, dtype=complex))[0])
        except np.linalg.LinAlgError:
            min_eig = np.nan
        if not min_eig >= -PSD_TOL:
            residual = -min_eig if np.isfinite(min_eig) else np.inf
            report.append(InvariantViolation("positive_semidefinite", residual))
    return report


def _cholesky_certifies_psd(h: np.ndarray, m_norm: float) -> bool:
    """True when a Cholesky factorization proves that eigvalsh would find
    no eigenvalue of the Hermitian part h of m below -PSD_TOL; m_norm is
    ||m||_F.  h is shifted in place for the factorization and restored.

    Cholesky of A = H + (PSD_TOL/2) I that runs to completion is exact for
    some A + dA with ||dA||_2 <= ~n(n+1) u ||A||_2 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.5), so then
    lambda_min(H) >= -PSD_TOL/2 - ||dA||_2.
    """
    n = h.shape[0]
    # Factor only where 4 n(n+1) u ||A||_2 <= PSD_TOL/4, the 4 covering
    # complex arithmetic (so the same bound covers the real factorization
    # of a real H) and ||A||_2 <= ||m||_F + PSD_TOL/2.  Success then
    # gives lambda_min(H) >= -3 PSD_TOL/4, leaving PSD_TOL/4 for the error
    # of eigvalsh, so both tests give the same verdict.  A unit-trace state
    # has ||m||_F = sqrt(purity) <= 1: every state passes up to N = 9
    # (1.2e-10 at n = 512), and at N = 10 only below purity ~0.29.
    norm_bound = m_norm + PSD_TOL / 2.0
    if 4.0 * n * (n + 1) * _UNIT_ROUNDOFF * norm_bound > PSD_TOL / 4.0:
        return False
    diagonal = h.diagonal().copy()
    h.flat[:: n + 1] += PSD_TOL / 2.0
    try:
        # h.T is conj(h), same spectrum; its F order is copied without a gather
        np.linalg.cholesky(h.T)
    except np.linalg.LinAlgError:
        return False
    finally:
        h.flat[:: n + 1] = diagonal
    return True


@np.errstate(over="ignore", invalid="ignore")
def from_state_vector(v: StateVector) -> DensityMatrix:
    """Projector onto a normalized pure state; a norm that overflows to inf is refused."""
    norm = v.norm()
    if abs(norm - 1.0) > NORM_TOL:
        raise InputError(f"state vector is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return DensityMatrix(v.n_qubits, np.outer(v.amplitudes, v.amplitudes.conj()))


@dataclass(frozen=True)
class StatePreset:
    """Named state family; visibility applies to werner_ghz only."""

    kind: str
    n_qubits: int
    visibility: Optional[float] = None

    def __post_init__(self):
        if self.kind not in PRESET_KINDS:
            raise InputError(
                f"unknown preset kind {self.kind!r}; expected one of {PRESET_KINDS}"
            )
        _check_qubit_count(self.n_qubits)
        if self.kind == "werner_ghz":
            if self.visibility is None:
                raise InputError("werner_ghz preset requires a visibility")
            _check_visibility(self.visibility)
        elif self.visibility is not None:
            raise InputError(f"visibility is only valid for werner_ghz, not {self.kind!r}")
        fixed = FIXED_QUBITS.get(self.kind, self.n_qubits)
        if self.n_qubits != fixed:
            raise InputError(
                f"preset {self.kind!r} is defined for {fixed} qubits, got n_qubits={self.n_qubits}"
            )


_PLUS_X = _frozen(np.full((2, 2), 0.5, dtype=complex))
_MINUS_X = _frozen(np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex))


def _ghz_werner(n: int, v) -> np.ndarray:
    """V |GHZ><GHZ| + (1 - V) I / 2^N, built in place; the GHZ corners are
    exactly V/2, avoiding 1/sqrt(2) rounding in products."""
    v, dim = float(v), 2**n
    m = np.zeros((dim, dim), dtype=complex)
    m[np.ix_((0, -1), (0, -1))] = 0.5 * v
    if v != 1.0:  # leave a pure GHZ state's zero pages unwritten, hence unmapped
        m.flat[:: dim + 1] += (1.0 - v) / dim
    return m


def _bell_phi_minus(n: int, v) -> np.ndarray:
    # x-basis anticorrelated, y-basis correlated: (|00> - |11>)/sqrt(2)
    m = _ghz_werner(2, 1.0)
    m[0, 3] = m[3, 0] = -0.5
    return m


#: Each preset kind's matrix as a function of (n_qubits, visibility).
_BUILDERS = {
    "ghz": lambda n, v: _ghz_werner(n, 1.0),
    "bell_phi_minus": _bell_phi_minus,
    "product_plus_x_minus_x": lambda n, v: np.kron(_PLUS_X, _MINUS_X),
    "werner_ghz": _ghz_werner,
    "maximally_mixed": lambda n, v: _ghz_werner(n, 0.0),
    "product_all_plus_x": lambda n, v: reduce(np.kron, [_PLUS_X] * n, np.ones((1, 1), complex)),
}
PRESET_KINDS = tuple(_BUILDERS)


def build_preset(p: StatePreset) -> DensityMatrix:
    """Construct the density matrix of a named preset."""
    return DensityMatrix(p.n_qubits, _BUILDERS[p.kind](p.n_qubits, p.visibility))


def _as_number(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise StateFormatError(f"{where}: expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise StateFormatError(
            f"{where}: an integer of {x.bit_length()} bits is too large for a float"
        ) from None


def _as_complex(pair, where: str) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise StateFormatError(f"{where}: expected a [re, im] pair, got {pair!r}")
    return complex(_as_number(pair[0], where), _as_number(pair[1], where))


def _complex_list(raw, dim: int, where: str) -> list[complex]:
    if not isinstance(raw, list) or len(raw) != dim:
        raise StateFormatError(f"{where} must be a list of {dim} [re, im] pairs")
    return [_as_complex(x, f"{where}[{i}]") for i, x in enumerate(raw)]


def _require(doc: dict, field: str, where: str):
    if field not in doc:
        raise StateFormatError(f"missing field {field!r} in {where!r}")
    return doc[field]


def _parse_n_qubits(doc: dict, where: str) -> int:
    n = _require(doc, "n_qubits", where)
    if isinstance(n, bool) or not isinstance(n, int):
        raise StateFormatError(f"{where}.n_qubits: expected an integer, got {n!r}")
    return n


# a JSON string, or a number with its integer part, fraction and exponent
_STRING_OR_NUMBER = r'"(?:[^"\\]|\\.)*"|-?(\d+)(\.\d+)?([eE][+-]?\d+)?'


def _long_integer(text: str) -> int:
    """Offset of the first integer literal longer than Python converts."""
    limit = sys.get_int_max_str_digits()
    for m in re.finditer(_STRING_OR_NUMBER, text):
        if m[1] and not (m[2] or m[3]) and len(m[1]) > limit:
            return m.start()
    return 0


def decode_json(text):
    """Decode a UTF-8 JSON document (str or bytes).  Bytes that are not
    UTF-8, syntax errors, nesting past the parser's recursion limit and
    integer literals past Python's digit limit become StateFormatError,
    located by byte offset or by line and column where the parser allows."""
    try:
        if isinstance(text, (bytes, bytearray)):
            text = text.decode("utf-8")
        return json.loads(text)
    except UnicodeDecodeError as e:
        raise StateFormatError(f"input is not UTF-8: {e.reason} at byte {e.start}") from e
    except RecursionError:
        raise StateFormatError("JSON parse error: arrays and objects nested too deeply") from None
    except ValueError as e:
        if not isinstance(e, json.JSONDecodeError):
            # json raises a bare ValueError only for an over-long integer
            msg = f"integer literal longer than {sys.get_int_max_str_digits()} digits"
            e = json.JSONDecodeError(msg, text, _long_integer(text))
        raise StateFormatError(
            f"JSON parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e


def parse_state_file(text) -> DensityMatrix:
    """Parse the JSON state-file format into a validated density matrix."""
    return read_state_file(text)[0]


def read_state_file(text) -> tuple[DensityMatrix, Optional[StatePreset]]:
    """Parse the JSON state-file format: a validated density matrix and the
    preset it was built from, or None.  The document must carry exactly one
    of the top-level keys "matrix", "vector", or "preset"."""
    doc = decode_json(text)
    if not isinstance(doc, dict):
        raise StateFormatError("top level of a state file must be a JSON object")
    present = [k for k in ("matrix", "vector", "preset") if k in doc]
    if len(present) != 1:
        raise StateFormatError(
            "state file must have exactly one of 'matrix', 'vector', 'preset'; "
            f"found {present or 'none'}"
        )
    key = present[0]
    body = doc[key]
    if not isinstance(body, dict):
        raise StateFormatError(f"{key!r} must be a JSON object")

    if key == "preset":
        kind = _require(body, "kind", "preset")
        if not isinstance(kind, str):
            raise StateFormatError(f"preset.kind: expected a string, got {kind!r}")
        n = _parse_n_qubits(body, "preset")
        visibility = body.get("visibility")
        if visibility is not None:
            visibility = _as_number(visibility, "preset.visibility")
        preset = StatePreset(kind, n, visibility)
        return build_preset(preset), preset

    n = _parse_n_qubits(body, key)
    _check_qubit_count(n)
    dim = 2**n

    if key == "vector":
        raw = _require(body, "amplitudes", "vector")
        amps = np.array(_complex_list(raw, dim, "vector.amplitudes"))
        return from_state_vector(StateVector(n, amps)), None

    raw = _require(body, "entries", "matrix")
    if not isinstance(raw, list) or len(raw) != dim:
        raise StateFormatError(f"matrix.entries must be a list of {dim} rows")
    rows = [_complex_list(row, dim, f"matrix.entries[{i}]") for i, row in enumerate(raw)]
    dm = DensityMatrix(n, np.array(rows))
    report = validate_density_matrix(dm)
    if report:
        raise StateValidationError(report)
    return dm, None


def serialize_state(dm: DensityMatrix) -> str:
    """Emit a state file that parse_state_file reproduces entry for entry."""
    dim = 2**dm.n_qubits
    entries = dm.matrix.view(float).reshape(dim, dim, 2).tolist()
    return json.dumps({"matrix": {"n_qubits": int(dm.n_qubits), "entries": entries}})
