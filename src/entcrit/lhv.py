"""Constructive local-hidden-variable models for correlation tables.

Any table satisfying the 2^N master bound admits an explicit local model:
each sign tuple s receives hidden probability p(s) = 2^-N |B(s)| spread
uniformly over the deterministic strategies obeying A_j(n1) = s_j A_j(n2)
whose product of second-setting outcomes matches the sign of B(s).  Mass
left over goes to noise distributed uniformly over all 4^N strategies,
which contributes nothing to any correlation function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .bell import _SIGN_WEIGHTS, BellEvaluation, general_bell_lhs, sign_grid
from .pauli import CorrelationTable, mode_product
from .states import InputError


class BellBoundError(InputError):
    """The table violates the 2^N bound, so no local model exists."""

    def __init__(self, lhs: float, bound: float):
        self.lhs = float(lhs)
        self.bound = float(bound)
        super().__init__(
            f"table violates the local-realism bound: lhs {lhs!r} > {bound!r}"
        )


@dataclass(frozen=True)
class LhvModel:
    """A Bell evaluation read as a local model: class s has mass p(s) =
    |B(s)| / 2^N and sign sign B(s) (-1 where B(s) = 0); the rest is noise.

    Class s holds the 2^(N-1) strategies with a1 = s a2 and prod(a2) =
    sign(s), each carrying p(s) / 2^(N-1).  Refused with `BellBoundError`
    exactly when the evaluation is violated; the model trusts that flag, as
    every evaluation comes from `general_bell_lhs` on a validated table.
    """

    evaluation: BellEvaluation

    def __post_init__(self):
        if self.evaluation.violated:
            raise BellBoundError(self.evaluation.lhs_general, self.evaluation.bound)

    @property
    def n_qubits(self) -> int:
        return self.evaluation.table.n_qubits

    @property
    def weights(self) -> np.ndarray:
        """The class masses p(s), shape (2,)*N."""
        return self.evaluation.moduli / self.evaluation.bound

    def total_atom_mass(self) -> float:
        return self.evaluation.lhs_general / self.evaluation.bound

    @property
    def noise_weight(self) -> float:
        """The mass the classes leave, spread over all 4^N strategies."""
        return max(0.0, 1.0 - self.total_atom_mass())

    def to_json_dict(self) -> dict:
        """{a1, a2, p} atoms and the noise weight.  Classes with mass come in
        flat C order; class s lists a2 over the sign-grid rows with prod(a2) =
        sign(s), with a1 = s a2 and p = p(s) / 2^(N-1)."""
        n = self.n_qubits
        grid = sign_grid(n)
        even = grid.prod(axis=1) > 0
        mass = self.weights.ravel()
        live = mass != 0.0
        plus = (self.evaluation.sums.ravel()[live] > 0)[:, None, None]
        a2 = np.where(plus, grid[even], grid[~even])
        a1 = grid[live][:, None, :] * a2
        p = np.repeat(mass[live] / 2.0 ** (n - 1), a2.shape[1])
        rows = zip(a1.reshape(-1, n).tolist(), a2.reshape(-1, n).tolist(), p.tolist())
        return {
            "n_qubits": int(n),
            "atoms": [{"a1": x, "a2": y, "p": q} for x, y, q in rows],
            "noise_weight": float(self.noise_weight),
        }


def construct_lhv(table: CorrelationTable) -> LhvModel:
    """The local model of a table's evaluation, for a caller holding only the table."""
    return LhvModel(general_bell_lhs(table))


def lhv_correlation_table(model: LhvModel) -> CorrelationTable:
    """Correlation table the model realizes: E(k) = sum_s p(s) sign(s) s^k.

    Every strategy of class s gives the outcome product sign(s) s^k at
    setting choice k, and the uniform noise term averages every outcome to
    zero, so one contraction per qubit is exact; p(s) sign(s) is B(s) / 2^N.
    """
    ev = model.evaluation
    work = mode_product(ev.sums / ev.bound, [_SIGN_WEIGHTS.T] * model.n_qubits)
    return CorrelationTable(model.n_qubits, work)


def verify_lhv(model: LhvModel, table: CorrelationTable) -> float:
    """Largest absolute difference between the model's table and the target."""
    if model.n_qubits != table.n_qubits:
        raise InputError(
            f"model has {model.n_qubits} qubits but table has {table.n_qubits}"
        )
    realized = lhv_correlation_table(model)
    return float(np.max(np.abs(realized.values - table.values)))


def sample_outcome_arrays(
    model: LhvModel, size: int, rng: Union[int, np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """Draw predetermined outcomes for both settings, shapes (size, N).

    A draw picks a sign class s (or the noise) by weight, then a2 uniformly
    among the tuples with prod(a2) = sign(s), and sets a1 = s a2; noise
    draws both tuples uniformly.
    """
    gen = np.random.default_rng(rng)  # a Generator passes through unchanged
    n = model.n_qubits
    probs = np.append(model.weights.ravel(), model.noise_weight)
    picks = gen.choice(probs.size, size=size, p=probs / probs.sum())
    a1 = (gen.integers(0, 2, size=(size, n)) * 2 - 1).astype(np.int8)
    a2 = (gen.integers(0, 2, size=(size, n)) * 2 - 1).astype(np.int8)
    rows = picks < probs.size - 1  # the last index is the noise
    cls = picks[rows]
    sign = np.where(model.evaluation.sums.ravel()[cls] > 0, 1.0, -1.0)
    a2[rows, -1] = sign * a2[rows, :-1].prod(axis=1)
    a1[rows] = sign_grid(n)[cls] * a2[rows]
    return a1, a2


def _outcome_products(outcomes: np.ndarray) -> np.ndarray:
    """Per-sample outcome products over a block of qubits: (k, 2, size)
    int8 to (2^k, size), the setting choices in C order."""
    work = np.ones((1, outcomes.shape[-1]), dtype=np.int8)
    for q in outcomes:
        work = (work[:, None] * q).reshape(-1, work.shape[-1])
    return work


def empirical_table(a1: np.ndarray, a2: np.ndarray) -> CorrelationTable:
    """Monte-Carlo estimate of the correlation table from sampled +-1 outcomes.

    The qubits split into two halves; the per-sample products over each
    half meet in one matrix product.  Every sum is an integer of magnitude
    at most `size`, so the float64 product is exact and each entry, divided
    by `size`, lies in [-1, 1].
    """
    size, n = a1.shape
    # (n, 2, size), samples contiguous
    outcomes = np.array([a1.T, a2.T], dtype=np.int8).swapaxes(0, 1)
    left = _outcome_products(outcomes[: n // 2]).astype(float)
    right = _outcome_products(outcomes[n // 2 :]).astype(float)
    work = (left @ right.T).reshape((2,) * n) / size
    return CorrelationTable(n, work)
