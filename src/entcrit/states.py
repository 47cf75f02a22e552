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
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from typing import Optional

import numpy as np

#: Cap on qubit count.  Dense 2^N x 2^N storage and 4^N tensor enumeration
#: blow up quickly past this, and the tolerances are derived for it
#: (pauli.FRAME_TOL keeps (1 + FRAME_TOL)^MAX_QUBITS <= 1 + DECISION_TOLERANCE).
MAX_QUBITS = 12

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0

#: Height of the row blocks in which validation reads the matrix.
_ROWS = 128
#: Most steps of the disc certificate's partial Cholesky factorization.
_RANK = 16

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


def _g(n) -> str:
    """n in %g form, an int past the float range too."""
    try:
        return f"{n:g}"
    except OverflowError:
        from decimal import Context

        return f"{Context(prec=6).create_decimal(n).normalize():g}"


def _check_qubit_count(n_qubits: int) -> None:
    # a bool is an int, but True is no count
    if isinstance(n_qubits, bool) or not isinstance(n_qubits, (int, np.integer)) or n_qubits < 1:
        # from a magnitude of 1e6 on in %g form, as the cap message prints it
        big = isinstance(n_qubits, (int, float, np.number)) and abs(n_qubits) >= 1e6
        shown = _g(n_qubits) if big else repr(n_qubits)
        raise InputError(f"n_qubits must be a positive integer, got {shown}")
    if n_qubits > MAX_QUBITS:
        raise InputError(f"n_qubits={_g(n_qubits)} exceeds the cap of {MAX_QUBITS}")


def _check_visibility(v) -> None:
    if not 0.0 <= v <= 1.0:
        raise InputError(f"visibility must lie in [0, 1], got {v!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def qubit_array(n_qubits: int, values, dtype, shape, what: str) -> np.ndarray:
    """The one structural check of a qubit array: `values` as a read-only
    `dtype` array of the shape `shape(n_qubits)` that the count fixes.  The
    count is checked first, so that one such as 2.5 or 10**9 never reaches
    `shape`.  dtype None is a matrix's realness rule: float64 exactly when
    every imaginary part is zero, -0.0 included, and complex128 otherwise.
    An array that already has its dtype and C layout is taken as it is and
    made read-only, the caller's array with it; any other input, a complex
    one whose imaginary parts are all zero too, becomes a read-only copy.
    Copying every input would keep a second 2^N x 2^N matrix for each state
    a reader builds."""
    _check_qubit_count(n_qubits)
    if dtype is None:
        values = np.asarray(values)
        real = not (np.iscomplexobj(values) and values.imag.any())
        values, dtype = (values.real, float) if real else (values, complex)
    a = np.asarray(values, dtype=dtype)
    if a.shape != shape(n_qubits):
        raise InputError(
            f"expected {what} shape {shape(n_qubits)} for {n_qubits} qubits, got {a.shape}"
        )
    return _frozen(a)


@dataclass(frozen=True)
class StateVector:
    """Pure-state amplitudes over the 2^N z-basis bitstrings."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = qubit_array(self.n_qubits, self.amplitudes, complex, lambda n: (2**n,), "amplitude")
        if not np.all(np.isfinite(amps)):
            raise InputError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True)
class DensityMatrix:
    """2^N x 2^N matrix, float64 exactly when every imaginary part is zero
    (qubit_array) and complex128 otherwise; invariants checked separately.

    The constructor enforces only shape and finiteness so that invalid
    matrices can still be inspected through validate_density_matrix.
    """

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        m = qubit_array(self.n_qubits, self.matrix, None, lambda n: (2**n, 2**n), "matrix")
        parts = m.view(float)  # a nan or an inf reaches the max or the min: no mask made
        if not (np.isfinite(parts.max()) and np.isfinite(parts.min())):
            raise InputError("matrix entries must be finite")
        object.__setattr__(self, "matrix", m)

    def purity(self) -> float:
        m = np.asarray(self.matrix, dtype=complex)  # a real product sums in another order
        return float(np.trace(m @ m).real)


@np.errstate(over="ignore", invalid="ignore")
def validate_density_matrix(dm: DensityMatrix) -> list[InvariantViolation]:
    """Check Hermiticity, unit trace, and positive semidefiniteness.

    Returns an empty list when all invariants hold at their tolerances;
    otherwise one entry per violated invariant with the measured residual.
    """
    report: list[InvariantViolation] = []
    m = dm.matrix
    herm_residual, skew = _hermitian_residual(m)
    if herm_residual > HERMITICITY_TOL:
        report.append(InvariantViolation("hermiticity", herm_residual))
    # the complex sum: a real one pairs the diagonal differently in its last bits
    trace_residual = float(abs(dm.matrix.trace(dtype=complex) - 1.0))
    if trace_residual > TRACE_TOL:
        report.append(InvariantViolation("trace", trace_residual))
    if _discs_certify_psd(m, skew):
        return report
    h = _hermitian_part(m)  # the Cholesky shift and eigvalsh need H itself, writable
    if not _cholesky_certifies_psd(h):
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


def _hermitian_residual(m: np.ndarray) -> tuple[float, np.ndarray]:
    """max|m_ij - conj(m_ji)| bit for bit and, for each row i, the skew
    sum_j |m_ij - conj(m_ji)|/2, read in square tiles of _ROWS from the
    diagonal on (a tile's column sums go to the rows of its columns), so
    that nothing of full size is made.  The modulus is taken only in a tile
    where m == m^H fails, so both are exactly zero when m == m^H."""
    n = m.shape[0]
    residual, skew = 0.0, np.zeros(n)
    for i in range(0, n, _ROWS):
        for j in range(i, n, _ROWS):
            a, b = m[i : i + _ROWS, j : j + _ROWS], m[j : j + _ROWS, i : i + _ROWS].T.conj()
            if not (a == b).all():
                d = np.abs(a - b)
                residual = max(residual, float(d.max()))
                skew[i : i + _ROWS] += d.sum(axis=1)
                if j > i:
                    skew[j : j + _ROWS] += d.sum(axis=0)
    return residual, 0.5 * skew


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """H = (m + m^H)/2, formed in blocks of _ROWS rows; m^H is read in
    square tiles, which keeps the strided reads of m in cache."""
    n = m.shape[0]
    h = np.empty_like(m, order="C")
    for i in range(0, n, _ROWS):
        rows = h[i : i + _ROWS]
        for j in range(0, n, _ROWS):
            np.conjugate(m[j : j + _ROWS, i : i + _ROWS].T, out=rows[:, j : j + _ROWS])
        rows += m[i : i + _ROWS]
        # halved in real arithmetic, 0.5 x each part: the floats a complex
        # division by 2 gives, up to a zero's sign, in less time; the division
        # also turns an overflowed inf part's partner into nan
        half = rows.view(float)
        np.multiply(half, 0.5, out=half)
    return h


def _discs_certify_psd(m: np.ndarray, skew: np.ndarray) -> bool:
    """True when Gershgorin discs prove that eigvalsh would find no
    eigenvalue of H = (m + m^H)/2 below -PSD_TOL, given each row's skew_i =
    sum_j |m_ij - conj(m_ji)|/2.  O(n^2 r): it covers states of rank at most
    _RANK (pure states, few-term mixtures) and those that are diagonally
    dominant once such a part is removed (GHZ-Werner states).

    A pivoted partial Cholesky factorization (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 10.3) of at most
    _RANK steps gives V, and S = m - V V^H is formed in row blocks.  V V^H
    is positive semidefinite for any computed V, so lambda_min(H) >=
    min_i (S_ii - sum_{j != i} |S_ij| - skew_i) (Horn & Johnson, Matrix
    Analysis, Thm 6.1.1), as H - V V^H has S's real diagonal (H_ii =
    Re m_ii) and differs from S by |H_ij - m_ij| = |m_ij - conj(m_ji)|/2.
    The row sums add |Re| + |Im| >= |S_ij|.  The bound is computed with an
    error of at most

        4 (n + 2 + (k + 2) sqrt(n)) u (||m||_F + ||V||_F^2 + PSD_TOL)

    (k columns of V, unit roundoff u): the product V V^H errs by at most
    sqrt(2) gamma_{k+2} |V||V^H| entrywise (complex arithmetic), whose row
    sums are at most sqrt(n) ||V||_F^2; subtracting, summing n terms and the
    two differences add (n + 3) u times the row's diagonal and its sum with
    skew_i, which carries (n + 3) u skew_i of its own (and less than
    u PSD_TOL if its halving underflows).  In a passing row the diagonal and
    that sum are each at most ||m||_F + ||V||_F^2 + PSD_TOL, so the error is
    at most (3n + 9 + 2 (k + 2) sqrt(n)) u times it.  The state is certified
    when that margin is at most PSD_TOL/4 (never for an inf or NaN norm) and
    every row's bound, less the margin, reaches the Cholesky gate's
    -3 PSD_TOL/4; the first failing block ends the test.
    """
    n = m.shape[0]
    v = _pivoted_cholesky(m)
    k = v.shape[1]
    margin = 4.0 * (n + 2.0 + (k + 2.0) * np.sqrt(n)) * _UNIT_ROUNDOFF
    margin *= np.sqrt(np.vdot(m, m).real) + float(np.vdot(v, v).real) + PSD_TOL
    if not margin <= PSD_TOL / 4.0:
        return False
    floor = margin - 0.75 * PSD_TOL
    v_h = np.conjugate(v.T)
    s = np.empty((min(n, _ROWS), n), dtype=m.dtype)  # one row block of S
    parts = s.view(float)  # its real and imaginary parts, made |.| in place
    r = np.arange(len(s))
    for i in range(0, n, _ROWS):
        np.matmul(v[i : i + _ROWS], v_h, out=s)
        np.subtract(m[i : i + _ROWS], s, out=s)
        diagonal = s[r, r + i].real - skew[i : i + _ROWS]
        s[r, r + i] = 0.0
        if not (diagonal - np.abs(parts, out=parts).sum(axis=1)).min() >= floor:
            return False
    return True


def _pivoted_cholesky(m: np.ndarray) -> np.ndarray:
    """n x k factor V of a pivoted Cholesky factorization of H = (m + m^H)/2
    read off the rows of m: H's diagonal is Re m_ii, and conj(m[p]) is H's
    column p when m == m^H.  It stops after _RANK steps, once the largest
    remaining diagonal entry is below PSD_TOL/(2n) (the discs no longer see
    what is left), or once the next step would remove less than 1/_RANK of
    the remaining trace (what is left is not of low rank).  Only the cost of
    the disc test depends on these rules: the test is exact for any V."""
    n = m.shape[0]
    d = m.diagonal().real.copy()
    v = np.empty((n, _RANK), dtype=m.dtype)
    k = 0
    while k < _RANK:
        p = int(d.argmax())
        pivot = d[p]
        if not pivot > PSD_TOL / (2.0 * n):
            break
        c = np.conjugate(m[p])
        c -= v[:, :k] @ np.conjugate(v[p, :k])
        if np.vdot(c, c).real < pivot * d.sum() / _RANK:
            break
        c /= np.sqrt(pivot)
        v[:, k] = c
        d -= (c * np.conjugate(c)).real
        k += 1
    return v[:, :k]


def _cholesky_certifies_psd(h: np.ndarray) -> bool:
    """True when a Cholesky factorization proves that eigvalsh would find
    no eigenvalue of the Hermitian part h of m below -PSD_TOL.  h is shifted
    in place for the factorization and restored.

    Cholesky of A = H + (PSD_TOL/2) I that runs to completion gives a factor
    L with L L^H = A + dA, |dA| <= gamma_{n+1} |L||L^H| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.3), so
    ||dA||_2 <= gamma_{n+1} || |L| ||_2^2 <= gamma_{n+1} ||L||_F^2.  The
    bound holds for any order of the inner products, so for LAPACK's blocked
    potrf when its matrix products are conventional.  In complex arithmetic
    gamma_{n+1} becomes sqrt(2) gamma_{n+2} <= 2.2 (n + 1) u (sec. 3.6);
    ||L||_F^2, a sum of 2n^2 products, is computed to a relative error below
    gamma_{2n^2} (4e-9 at n = 4096); the test's own product adds a few u.
    The factor 4 covers all three, in real arithmetic too.  So when
    4 (n + 1) u ||L||_F^2 <= PSD_TOL/4 (never for an inf or NaN factor),
    lambda_min(H) >= -PSD_TOL/2 - ||dA||_2 >= -3 PSD_TOL/4, leaving PSD_TOL/4
    for the error of eigvalsh, so both tests give the same verdict.
    ||L||_F^2 = tr(A + dA) is about 1 on a unit-trace state, so every state
    whose factorization completes is certified up to MAX_QUBITS (the bound
    reads 1.8e-12 at n = 4096).
    """
    n = h.shape[0]
    diagonal = h.diagonal().copy()
    h.flat[:: n + 1] += PSD_TOL / 2.0
    try:
        # h.T is conj(h), same spectrum; its F order is copied without a gather
        factor = np.linalg.cholesky(h.T)
    except np.linalg.LinAlgError:
        return False
    finally:
        h.flat[:: n + 1] = diagonal
    return 4.0 * (n + 1) * _UNIT_ROUNDOFF * float(np.vdot(factor, factor).real) <= PSD_TOL / 4.0


@np.errstate(over="ignore", invalid="ignore")
def from_state_vector(v: StateVector) -> DensityMatrix:
    """Projector onto a normalized pure state.  The trace rule of a matrix
    file, |Tr rho - 1| <= TRACE_TOL, is applied to Tr |psi><psi| = ||psi||^2
    before the projector is formed; a norm that overflows to inf is refused."""
    a = v.amplitudes
    residual = abs(np.vdot(a, a).real - 1.0)
    if not residual <= TRACE_TOL:
        raise InputError(f"state vector is not normalized: |norm^2 - 1| = {residual:.3e}")
    a = a if a.imag.any() else a.real  # real amplitudes, -0.0 parts too: a float64 projector
    return DensityMatrix(v.n_qubits, np.outer(a, a.conj()))


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


_PLUS_X = _frozen(np.full((2, 2), 0.5))
_MINUS_X = _frozen(np.array([[0.5, -0.5], [-0.5, 0.5]]))


def _ghz_werner(n: int, v) -> np.ndarray:
    """V |GHZ><GHZ| + (1 - V) I / 2^N, built in place; the GHZ corners are
    exactly V/2, avoiding 1/sqrt(2) rounding in products."""
    v, dim = float(v), 2**n
    m = np.zeros((dim, dim))
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
    "product_all_plus_x": lambda n, v: reduce(np.kron, [_PLUS_X] * n, np.ones((1, 1))),
}
PRESET_KINDS = tuple(_BUILDERS)


def build_preset(p: StatePreset) -> DensityMatrix:
    """Construct the density matrix of a named preset."""
    return DensityMatrix(p.n_qubits, _BUILDERS[p.kind](p.n_qubits, p.visibility))


def _as_number(x, where: str) -> float:
    if type(x) is not float:
        raise StateFormatError(f"{where}: expected a number, got {x!r}")
    return x


def _locate_fault(raw, shape: tuple, where: str) -> None:
    """Raise the StateFormatError that names the first entry of `raw`, row
    by row and pair by pair, that is not a [re, im] pair of floats in the
    given shape.  Only a list that _read_pairs cannot convert comes here,
    and a list this passes converts, so it always raises."""
    if not isinstance(raw, list) or len(raw) != shape[0]:
        unit = "rows" if len(shape) > 1 else "[re, im] pairs"
        raise StateFormatError(f"{where} must be a list of {shape[0]} {unit}")
    for i, x in enumerate(raw):
        at = f"{where}[{i}]"
        if len(shape) > 1:
            _locate_fault(x, shape[1:], at)
        elif not isinstance(x, list) or len(x) != 2:
            raise StateFormatError(f"{at}: expected a [re, im] pair, got {x!r}")
        else:
            for part in x:
                _as_number(part, at)


def _read_pairs(raw, shape: tuple, where: str) -> np.ndarray:
    """The [re, im] pairs nested in raw as a complex array of the given
    shape, converted in one step.  np.array also converts bools, None and
    numeric strings, so every leaf must be a float; ragged lists make it
    raise.  Where the conversion cannot run, _locate_fault names the fault."""
    try:
        leaves = raw
        for _ in shape:
            leaves = chain.from_iterable(leaves)
        if set(map(type, leaves)) <= {float}:
            pairs = np.array(raw, dtype=float)
            if pairs.shape == shape + (2,):
                return pairs.view(complex).reshape(shape)
    except (TypeError, ValueError):
        pass
    _locate_fault(raw, shape, where)


def _require(doc: dict, field: str, where: str):
    if field not in doc:
        raise StateFormatError(f"missing field {field!r} in {where!r}")
    return doc[field]


def _parse_n_qubits(doc: dict, where: str) -> int:
    n = _require(doc, "n_qubits", where)
    if type(n) is not float or not n.is_integer():
        raise StateFormatError(f"{where}.n_qubits: expected an integer, got {n!r}")
    return int(n)


def decode_json(text):
    """Decode a UTF-8 JSON document (str or bytes), reading every number as
    a double (RFC 8259, sec. 6): a literal past +-1.8e308, integer or not,
    reads as +-inf and meets the check of the field it sits in.  Bytes that
    are not UTF-8, syntax errors and nesting past the parser's recursion
    limit become StateFormatError, located by byte offset or by line and
    column where the parser allows."""
    try:
        if isinstance(text, (bytes, bytearray)):
            text = text.decode("utf-8")
        return json.loads(text, parse_int=float)
    except UnicodeDecodeError as e:
        raise StateFormatError(f"input is not UTF-8: {e.reason} at byte {e.start}") from e
    except RecursionError:
        raise StateFormatError("JSON parse error: arrays and objects nested too deeply") from None
    except json.JSONDecodeError as e:
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
    field, shape = ("amplitudes", (2**n,)) if key == "vector" else ("entries", (2**n,) * 2)
    pairs = _read_pairs(_require(body, field, key), shape, f"{key}.{field}")
    if key == "vector":
        return from_state_vector(StateVector(n, pairs)), None
    dm = DensityMatrix(n, pairs)
    report = validate_density_matrix(dm)
    if report:
        raise StateValidationError(report)
    return dm, None


def serialize_state(dm: DensityMatrix) -> str:
    """Emit a state file that parse_state_file reproduces entry for entry."""
    dim = 2**dm.n_qubits
    entries = np.asarray(dm.matrix, dtype=complex).view(float).reshape(dim, dim, 2).tolist()
    return json.dumps({"matrix": {"n_qubits": int(dm.n_qubits), "entries": entries}})
