"""GHZ-Werner states: closed-form in-plane structure, thresholds, and scans.

The visibility-V mixture of the N-qubit GHZ state with white noise has
in-plane correlation entries V cos(m_y pi/2), with m_y the number of
second-axis indices, so exactly 2^(N-1) entries are nonzero (each +-V) and
the in-plane information sum is 2^(N-1) V^2.  The sum crosses one bit at
V = (1/sqrt(2))^(N-1), which is also where the general Bell bound starts
to be violated, so both criteria coincide on this family.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .bell import maximize_general_bell, violates
from .info import entangled
from .pauli import CorrelationTable, correlation_tensor
from .search import OptimizerOptions
from .states import InputError, StatePreset, build_preset, _check_qubit_count, _check_visibility


@dataclass(frozen=True)
class WernerAnalysis:
    n_qubits: int
    visibility: float
    nonzero_inplane_count: int
    info_sum: float
    threshold: float
    lr_describable: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def werner_inplane_tensor(n: int, v: float) -> CorrelationTable:
    """Closed-form in-plane correlations V cos(m_y pi/2).

    Entries with an odd count of second-axis indices are exactly zero;
    even counts alternate +V, -V with the half-count parity.
    """
    _check_qubit_count(n)
    _check_visibility(v)
    m_y = np.indices((2,) * n).sum(axis=0)
    signs = np.where(m_y % 2 == 1, 0.0, np.where(m_y % 4 == 0, 1.0, -1.0))
    return CorrelationTable(n, v * signs)


def count_nonzero_inplane(n: int) -> int:
    """Number of nonzero in-plane entries of the GHZ-Werner family: 2^(N-1)."""
    _check_qubit_count(n)
    return 2 ** (n - 1)


def visibility_threshold(n: int) -> float:
    """Largest visibility still admitting a local realistic description."""
    _check_qubit_count(n)
    return float(2.0 ** (-(n - 1) / 2.0))


def analyze_werner(n: int, v: float) -> WernerAnalysis:
    """Closed-form summary for one (N, V) point."""
    _check_visibility(v)
    count = int(count_nonzero_inplane(n))
    n, v = int(n), float(v)
    return WernerAnalysis(
        n_qubits=n,
        visibility=v,
        nonzero_inplane_count=count,
        info_sum=count * v**2,
        threshold=visibility_threshold(n),
        # the Bell rule on the family's closed-form master sum 2^N V 2^((N-1)/2)
        lr_describable=not violates(2.0**n * v * 2.0 ** ((n - 1) / 2.0), 2.0**n),
    )


class ScanRow(NamedTuple):
    visibility: float
    info_sum: float
    bell_lhs: float
    bell_ratio: float
    info_entangled: bool
    bell_violated: bool


def visibility_scan(
    n: int, grid: int = 101, options: Optional[OptimizerOptions] = None
) -> list[ScanRow]:
    """Both criteria on a uniform visibility grid over [0, 1].

    Every correlation entry of the family is linear in the visibility, so a
    single settings search at full visibility fixes the whole Bell column
    exactly; the information column uses the closed form 2^(N-1) V^2.
    """
    if grid < 2:
        raise InputError(f"grid must be at least 2, got {grid}")
    tensor = correlation_tensor(build_preset(StatePreset("ghz", n)))
    full_eval, _ = maximize_general_bell(tensor, options)
    full_lhs = full_eval.lhs_general
    count = count_nonzero_inplane(n)
    bound = float(2**n)
    # each column rounds as the scalar formula does, entry by entry
    v = np.linspace(0.0, 1.0, grid)
    info_sum = count * v * v
    lhs = full_lhs * v
    columns = (v, info_sum, lhs, lhs / bound, entangled(info_sum), violates(lhs, bound))
    # tuple.__new__ builds each row without ScanRow's Python-level __new__
    return list(map(tuple.__new__, repeat(ScanRow), zip(*(c.tolist() for c in columns))))


_COLUMNS = ("V", "info_sum", "bell_lhs", "bell_ratio", "info_entangled", "bell_violated")


def _row_dict(r: ScanRow) -> dict:
    return dict(zip(_COLUMNS, (*map(float, r[:4]), *map(bool, r[4:]))))


def _csv_cell(x) -> str:
    return str(x).lower() if isinstance(x, bool) else f"{x:.17g}"


def scan_to_csv(rows) -> str:
    lines = [",".join(_COLUMNS)]
    lines += [",".join(_csv_cell(x) for x in _row_dict(r).values()) for r in rows]
    return "\n".join(lines) + "\n"


def scan_to_json_dict(n: int, rows) -> dict:
    return {"n_qubits": int(n), "rows": [_row_dict(r) for r in rows]}
