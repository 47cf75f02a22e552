"""Information carried by in-plane correlations and the criterion built on it.

A joint +-1 observable holds (p_plus - p_minus)^2 of knowledge, which equals
the squared correlation-tensor entry.  Summing these squares over the 2^N
in-plane product observables measures how much of the state's information
sits in correlations; any classical composition of single-qubit states keeps
that sum at or below one bit for every choice of local planes, so a maximum
above one certifies entanglement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product
from typing import Optional

import numpy as np

from .pauli import (
    CorrelationTensor,
    LocalFrame,
    environment,
    frame_from_normals,
    plane_subtensor,
)
from .search import OptimizerOptions, SearchResult, maximize
from .states import InputError, _frozen

#: The one decision margin tau, on the scale where local realism ends at 1:
#: entangled when sqrt(I) > 1 + tau (`entangled`), violated when
#: lhs / 2^N > 1 + tau (`bell.violates`, which also refuses a local model),
#: and a local model's total mass within 1 +- tau (`lhv.LhvModel`).  At N=2
#: lhs / 4 is sqrt(I), so there the verdicts coincide.  tau lies far above
#: the rounding of these values and bounds a model's excess mass.
DECISION_TOLERANCE = 1e-10
#: Random starts the information search adds to its warm starts by default.
INFO_RESTARTS = 32


def entangled(total):
    """The information criterion: an in-plane sum above one bit certifies
    entanglement, decided as sqrt(total) > 1 + tau.  Comparing total with
    (1 + tau)^2 takes no root, so a float gives a bool and an array decides
    elementwise alike."""
    return total > (1.0 + DECISION_TOLERANCE) ** 2


@dataclass(frozen=True)
class CorrInfoResult:
    """Per-observable information measures for one choice of local planes."""

    per_index: dict
    total: float


@dataclass(frozen=True)
class CriterionVerdict:
    optimizer_report: SearchResult

    @property
    def max_total(self) -> float:
        return self.optimizer_report.value

    @property
    def entangled_by_info_criterion(self) -> bool:
        return entangled(self.max_total)

    @cached_property
    def argmax_frame(self) -> LocalFrame:
        return frame_from_normals(self.optimizer_report.x)

    def to_json_dict(self) -> dict:
        return {
            "max_total": float(self.max_total),
            "entangled": bool(self.entangled_by_info_criterion),
            "frame": {"normals": self.argmax_frame.normals().tolist()},
            "optimizer": {
                "restarts": int(self.optimizer_report.restarts),
                "converged": bool(self.optimizer_report.converged),
            },
        }


def corr_info(t: CorrelationTensor, f: LocalFrame) -> CorrInfoResult:
    """Squared in-plane correlations, per multi-index and summed."""
    pt = plane_subtensor(t, f)
    squares = (pt.values**2).ravel().tolist()
    per_index = dict(zip(product((1, 2), repeat=t.n_qubits), squares))
    return CorrInfoResult(per_index=per_index, total=pt.squared_sum())


def _projectors(normals: np.ndarray) -> np.ndarray:
    """Each qubit's projector I - n n^T onto its plane, shape (N, 3, 3)."""
    return np.eye(3) - normals[:, :, None] * normals[:, None, :]


@cache
def _axis_starts(n_qubits: int) -> tuple[np.ndarray, ...]:
    """z, x and y normals on every qubit; read-only, built once per N."""
    return tuple(_frozen(np.tile(axis, (n_qubits, 1))) for axis in np.eye(3)[[2, 0, 1]])


def info_upper_bound(t: CorrelationTensor) -> float:
    """Certified ceiling on the in-plane information sum over all planes.

    The minimum over qubits of the two largest eigenvalues of the qubit's
    mode Gram matrix: projecting the other modes onto planes can only shrink
    that matrix, and one plane keeps at most its two largest eigenvalues
    (Ky Fan).  At N=2 it is the closed-form maximum.  The eigenvalues are
    solved once per tensor (`CorrelationTensor.mode_gram_eigenvalues`).
    """
    return min(t.mode_gram_eigenvalues[:, 1:].sum(axis=1).tolist())


def maximize_corr_info(
    t: CorrelationTensor, options: Optional[OptimizerOptions] = None
) -> CriterionVerdict:
    """Maximize the in-plane information sum over all local plane choices.

    This is the best rank-(2,...,2) Tucker approximation of the Cartesian
    tensor, found by HOOI: each sweep sets every qubit's plane normal to the
    smallest eigenvector of its mode Gram matrix, the other modes projected
    onto their current planes (De Lathauwer, De Moor & Vandewalle, SIAM J.
    Matrix Anal. Appl. 21, 1324 (2000)).  The HOSVD start, normals from the
    unprojected Gram matrices, goes first: it is already the closed form at
    N=2, where it meets `info_upper_bound` and ends the search.
    Deterministic for a fixed seed.
    """
    n = t.n_qubits
    cart = t.cartesian()

    def sweep(normals: np.ndarray) -> tuple[np.ndarray, float]:
        normals = normals.copy()
        for j in range(n):
            env = environment(cart, _projectors(normals), j)
            normals[j] = np.linalg.eigh(env @ env.T)[1][:, 0]
        # the last environment already holds every other qubit's new plane
        return normals, float(np.vdot(env.T @ _projectors(normals)[-1].T, cart))

    # HOSVD: each qubit's smallest mode-Gram eigenvector, one stacked solve
    warm = [np.linalg.eigh(t.mode_grams)[1][:, :, 0], *_axis_starts(n)]
    return CriterionVerdict(maximize(sweep, warm, options, info_upper_bound(t), INFO_RESTARTS))


def two_qubit_info_criterion(t: CorrelationTensor) -> CriterionVerdict:
    """Closed-form two-qubit verdict: sum of the two largest eigenvalues of M^T M.

    M is the 3x3 Cartesian block; the optimal planes are orthogonal to the
    smallest singular directions, so no iterative search is needed.
    """
    if t.n_qubits != 2:
        raise InputError(f"closed form requires 2 qubits, got {t.n_qubits}")
    normals = np.linalg.eigh(t.mode_grams)[1][:, :, 0]
    return CriterionVerdict(SearchResult(normals, info_upper_bound(t), 0, 0, True, 0.0))

