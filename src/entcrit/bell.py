"""Correlation-function Bell inequalities and violation search.

Local realism bounds the sum, over all sign tuples s in {-1,1}^N, of
|sum_k s1^k1 ... sN^kN E(k)| by 2^N, where E(k) is the correlation function
at the setting choice k in {1,2}^N and s^1 = s, s^2 = 1.  That single bound
summarizes the full 2^(2^N)-member family obtained by inserting +-1-valued
sign functions, which includes CHSH (N=2) and the Mermin combination (N=3)
via the Belinskii-Klyshko series.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np

from .info import DECISION_TOLERANCE, entangled, info_upper_bound
from .pauli import (
    CorrelationTable,
    CorrelationTensor,
    direction_table,
    environment,
    frozen_table,
    mode_product,
    unit_row_pair,
)
from .search import OptimizerOptions, SearchResult, maximize
from .states import InputError, StateFormatError, _as_number, _frozen, decode_json

#: A see-saw direction below this norm has vanished: the objective ignores it.
VANISHING_NORM_TOL = 1e-14
#: Random starts the Bell see-saw adds to its warm starts by default.
BELL_RESTARTS = 64

# rows: s = +1, s = -1; columns: exponent k = 1 (picks s), k = 2 (picks 1)
_SIGN_WEIGHTS = np.array([[1.0, 1.0], [-1.0, 1.0]])


def violates(lhs, bound):
    """The Bell criterion: a master sum above its bound 2^N, decided on the
    ratio lhs / 2^N (an exact division) against 1 + tau.  Elementwise on
    arrays."""
    return lhs / bound > 1.0 + DECISION_TOLERANCE


def sign_grid(n_qubits: int) -> np.ndarray:
    """All sign tuples as +-1 rows, shape (2^N, N): row i is the tuple at
    flat C-order index i of a (2,)*N array, axis index 0 meaning +1."""
    return 1 - 2 * np.indices((2,) * n_qubits, dtype=np.int8).reshape(n_qubits, -1).T


@dataclass(frozen=True)
class SettingsPair:
    """Two measurement directions per qubit, each a unit 3-vector row."""

    n1: np.ndarray
    n2: np.ndarray

    def __post_init__(self):
        v1, v2 = unit_row_pair(self.n1, self.n2, "settings")
        object.__setattr__(self, "n1", _frozen(v1))
        object.__setattr__(self, "n2", _frozen(v2))

    def to_json_list(self) -> list[dict]:
        return [{"n1": a, "n2": b} for a, b in zip(self.n1.tolist(), self.n2.tolist())]


@dataclass(frozen=True)
class SignFunction:
    """A +-1 assignment per sign tuple; axis index 0 means s = +1."""

    n_qubits: int
    values: np.ndarray

    def __post_init__(self):
        vals = frozen_table(self.n_qubits, self.values, "sign table")
        if not np.all(np.abs(vals) == 1.0):
            raise InputError("sign function values must be exactly +1 or -1")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class BellEvaluation:
    """The table evaluated, its master sum, the signed sums B(s) as a frozen
    (2,)*N array (axis index 0 meaning s = +1), the bound 2^N and the verdict."""

    table: CorrelationTable
    lhs_general: float
    sums: np.ndarray
    bound: float
    violated: bool

    @property
    def moduli(self) -> np.ndarray:
        """|B(s)|, shape (2,)*N."""
        return np.abs(self.sums)


def correlation_table(t: CorrelationTensor, s: SettingsPair) -> CorrelationTable:
    """Correlation function at every combination of the two settings per qubit."""
    return direction_table(t, s.n1, s.n2, "settings")


def signed_sums(table: CorrelationTable) -> np.ndarray:
    """B(s) = sum_k s1^k1 ... sN^kN E(k) for every sign tuple, shape (2,)*N."""
    return mode_product(table.values, [_SIGN_WEIGHTS] * table.n_qubits)


def general_bell_lhs(table: CorrelationTable) -> BellEvaluation:
    """Evaluate the master inequality: sum of |B(s)| against the bound 2^N."""
    b = signed_sums(table)
    lhs, bound = float(np.abs(b).sum()), float(2**b.ndim)
    return BellEvaluation(table, lhs, _frozen(b), bound, violates(lhs, bound))


def sign_function_inequality(table: CorrelationTable, sgn: SignFunction) -> float:
    """|sum_s S(s) B(s)|, one member of the sign-function family (bound 2^N)."""
    if sgn.n_qubits != table.n_qubits:
        raise InputError(
            f"sign function has {sgn.n_qubits} qubits but table has {table.n_qubits}"
        )
    return float(abs(np.sum(sgn.values * signed_sums(table))))


def belinskii_klyshko_sign_function(n_qubits: int) -> SignFunction:
    """Sign function of the Belinskii-Klyshko series.

    Its value at s is sqrt(2) cos(-pi/4 + (s1+...+sN - N) pi/4), with the
    step orientation flipped for odd N so that N=2 lands on the CHSH
    combination E(1,1)+E(1,2)+E(2,1)-E(2,2) and N=3 on the Mermin combination
    E(1,2,2)+E(2,1,2)+E(2,2,1)-E(1,1,1).  With m the count of s_j = -1,
    s1+...+sN - N = -2m, so the value has period 4 in m: a table of 4 signs.
    """
    period = (1.0, -1.0, -1.0, 1.0) if n_qubits % 2 == 0 else (1.0, 1.0, -1.0, -1.0)
    return SignFunction(n_qubits, np.take(period, np.indices((2,) * n_qubits).sum(axis=0) % 4))


def belinskii_klyshko_value(table: CorrelationTable) -> float:
    """The Belinskii-Klyshko combination itself, normalized to the bound 2.

    For N=2 this is |E(1,1)+E(1,2)+E(2,1)-E(2,2)|, for N=3 it is
    |E(1,2,2)+E(2,1,2)+E(2,2,1)-E(1,1,1)|.
    """
    raw = sign_function_inequality(
        table, belinskii_klyshko_sign_function(table.n_qubits)
    )
    return raw / 2.0 ** (table.n_qubits - 1)


def _unit(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(v)
    return v / norm if norm > VANISHING_NORM_TOL else fallback


def _bell_warm_starts(t: CorrelationTensor) -> list[np.ndarray]:
    """The closed-form two-qubit construction from the Cartesian block, then
    in-plane azimuth families known to be optimal for graph-like states.

    Each start has shape (2, N, 3): first settings, then second settings.
    """
    n = t.n_qubits
    starts = []
    if n == 2:
        u, s, vt = np.linalg.svd(t.cartesian())
        mu = float(np.arctan2(s[1], s[0]))
        b1 = np.cos(mu) * vt[0] + np.sin(mu) * vt[1]
        b2 = np.cos(mu) * vt[0] - np.sin(mu) * vt[1]
        starts.append(np.array([[u[:, 0], b1], [u[:, 1], b2]]))
    for total in (0.0, np.pi / 4, -np.pi / 4, np.pi / 2, -np.pi / 2, 3 * np.pi / 4, -3 * np.pi / 4, np.pi):
        alpha = total / n
        first = [np.cos(alpha), np.sin(alpha), 0.0]
        second = [-np.sin(alpha), np.cos(alpha), 0.0]
        starts.append(np.array([[first] * n, [second] * n]))
    return starts


def _seesaw(
    t: CorrelationTensor, sign: Optional[np.ndarray], options: Optional[OptimizerOptions]
) -> SearchResult:
    """See-saw ascent of sum_s sigma(s) B(s); the result's x stacks (n1, n2).

    Qubit q contracts with its rows n2 + s n1, `_SIGN_WEIGHTS @ x[:, q]`, so
    qubit j enters linearly as n1.(G+ - G-) + n2.(G+ + G-), where G+- sums
    sigma(s) times j's environment over the tuples with s_j = +-1: both
    settings have an exact update, the rows of `_SIGN_WEIGHTS.T @ (G+, G-)`.
    A given sign function is held fixed (negating one qubit's settings maps
    -S to S, so maximizing sum_s S(s) B(s) maximizes its modulus); without
    one, sigma = sign B is refreshed before every qubit update, which ascends
    the master sum sum_s |B(s)|.  Either objective is at most the master sum,
    and that is at most 2^N sqrt(info_upper_bound) by Cauchy-Schwarz over the
    sign tuples, so the search ends at a start that meets this ceiling.
    """
    n = t.n_qubits
    cart = t.cartesian()
    # a fixed sign function unfolded along each qubit, as B(s) is below
    fixed = None if sign is None else [np.moveaxis(sign, j, 0).reshape(2, -1) for j in range(n)]

    def sweep(x: np.ndarray) -> tuple[np.ndarray, float]:
        x = x.copy()
        rows = _SIGN_WEIGHTS @ x.transpose(1, 0, 2)
        for j in range(n):
            env = environment(cart, rows, j)
            # B(s) with qubit j's axis first; (G+, G-) is sigma times env
            b = rows[j] @ env
            g = (np.where(b >= 0.0, 1.0, -1.0) if fixed is None else fixed[j]) @ env.T
            x[:, j] = [_unit(v, old) for v, old in zip(_SIGN_WEIGHTS.T @ g, x[:, j])]
            rows[j] = _SIGN_WEIGHTS @ x[:, j]
        # the last environment already holds every other qubit's new settings
        b = rows[n - 1] @ env
        return x, float(np.sum(np.abs(b) if fixed is None else fixed[n - 1] * b))

    ceiling = 2.0**n * np.sqrt(info_upper_bound(t))
    return maximize(sweep, _bell_warm_starts(t), options, ceiling, BELL_RESTARTS)


def maximize_general_bell(
    t: CorrelationTensor, options: Optional[OptimizerOptions] = None
) -> tuple[BellEvaluation, SettingsPair]:
    """Search settings (two unit vectors per qubit) maximizing the master sum.

    Returns the evaluation at the best-found settings together with those
    settings; deterministic for a fixed seed.
    """
    settings = SettingsPair(*_seesaw(t, None, options).x)
    return general_bell_lhs(correlation_table(t, settings)), settings


def maximize_sign_function_value(
    t: CorrelationTensor,
    sgn: SignFunction,
    options: Optional[OptimizerOptions] = None,
) -> tuple[float, SettingsPair]:
    """Search settings maximizing one named family member |sum_s S(s) B(s)|.

    The master sum is blind to setting relabelings that move a violation
    between family members, so pinning down a specific combination (CHSH,
    Mermin) requires maximizing it directly.
    """
    if sgn.n_qubits != t.n_qubits:
        raise InputError(
            f"sign function has {sgn.n_qubits} qubits but tensor has {t.n_qubits}"
        )
    settings = SettingsPair(*_seesaw(t, sgn.values, options).x)
    return sign_function_inequality(correlation_table(t, settings), sgn), settings


def necsuf_lhs(pt: CorrelationTable, alphas) -> float:
    """Cosine-weighted absolute in-plane sum deciding local realism.

    Correlations admit a local realistic description exactly when this sum
    stays at or below one for every frame and every angle choice; its value
    never exceeds the root of the squared in-plane sum (Cauchy-Schwarz).
    """
    a = np.asarray(alphas, dtype=float).reshape(-1)
    if a.size != pt.n_qubits:
        raise InputError(f"expected {pt.n_qubits} angles, got {a.size}")
    w = reduce(np.multiply.outer, np.cos(a[:, None] + [np.pi / 2.0, np.pi]))
    return float(np.abs(w * pt.values).sum())


def sufficient_lr_condition(t: CorrelationTensor) -> tuple[float, bool]:
    """The information ceiling and whether it certifies local realism.

    An information sum of at most one bit over every choice of planes
    guarantees the master inequality at every setting choice.  The ceiling
    `info_upper_bound` is at least the true maximum, so the verdict is
    certified; a search value, a lower bound, could not be.
    """
    upper = info_upper_bound(t)
    return upper, not entangled(upper)


def bell_report_dict(evaluation: BellEvaluation, settings: SettingsPair) -> dict:
    n = evaluation.sums.ndim
    return {
        "n_qubits": n,
        "lhs": float(evaluation.lhs_general),
        "bound": float(evaluation.bound),
        "ratio": float(evaluation.lhs_general / evaluation.bound),
        "violated": bool(evaluation.violated),
        "settings": settings.to_json_list(),
        "per_s": [
            {"s": s, "modulus": m}
            for s, m in zip(sign_grid(n).tolist(), evaluation.moduli.ravel().tolist())
        ],
    }


def parse_settings_file(text, n_qubits: int) -> SettingsPair:
    """Parse {"pairs": [{"n1": [x,y,z], "n2": [x,y,z]}, ...]}."""
    doc = decode_json(text)
    if not isinstance(doc, dict) or "pairs" not in doc:
        raise StateFormatError("settings file must be an object with a 'pairs' list")
    pairs = doc["pairs"]
    if not isinstance(pairs, list) or len(pairs) != n_qubits:
        raise StateFormatError(
            f"settings file must list {n_qubits} pairs, got "
            f"{len(pairs) if isinstance(pairs, list) else type(pairs).__name__}"
        )
    n1 = []
    n2 = []
    for i, item in enumerate(pairs):
        if not isinstance(item, dict) or "n1" not in item or "n2" not in item:
            raise StateFormatError(f"pairs[{i}] must have 'n1' and 'n2' vectors")
        for key, dest in (("n1", n1), ("n2", n2)):
            vec = item[key]
            if not isinstance(vec, list) or len(vec) != 3:
                raise StateFormatError(f"pairs[{i}].{key} must be a 3-vector")
            dest.append([_as_number(c, f"pairs[{i}].{key}") for c in vec])
    return SettingsPair(np.array(n1), np.array(n2))
