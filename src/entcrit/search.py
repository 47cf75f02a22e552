"""Seeded best-of-starts driver shared by the criterion ascents.

Both criteria maximize a function that is multilinear in per-qubit unit
vectors, so each supplies an exact sweep (one update per qubit) and this
module repeats it from several starts until a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .states import InputError

#: A start has reached its fixed point once a sweep gains at most this much,
#: relative to max(1, value).
GAIN_TOL = 1e-12
#: Sweeps allowed per start; a start that hits the cap reports converged=False.
MAX_SWEEPS = 2000
#: A later start must beat the incumbent by this much, relative to
#: max(1, |incumbent|), so warm starts win numerical ties; an incumbent this
#: close to the ceiling ends the search, as no later start could displace it.
TIE_TOL = 1e-9


@dataclass(frozen=True)
class OptimizerOptions:
    """Random starts after the warm ones, and their seed; restarts None takes
    the search's own default (`info.INFO_RESTARTS`, `bell.BELL_RESTARTS`)."""

    restarts: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.restarts is not None and self.restarts < 0:
            raise InputError(f"restarts must be nonnegative, got {self.restarts}")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class SearchResult:
    """A search's best point and value, with the starts and sweeps it counted."""

    x: np.ndarray
    value: float
    restarts: int
    iterations: int
    converged: bool
    residual: float


def _ascend(sweep: Callable, x: np.ndarray) -> SearchResult:
    """Repeat `sweep` from x until its gain stalls, it returns its input byte
    for byte (a fixed point the next sweep would only repeat), or the sweep
    cap is hit."""
    value = -np.inf
    for count in range(1, MAX_SWEEPS + 1):
        x_new, new = sweep(x)
        if x_new.tobytes() == x.tobytes():
            return SearchResult(x_new, new, 1, count, True, 0.0)
        x = x_new
        gain = new - value
        value = new
        if gain <= GAIN_TOL * max(1.0, abs(value)):
            return SearchResult(x, value, 1, count, True, abs(gain))
    return SearchResult(x, value, 1, MAX_SWEEPS, False, abs(gain))


def maximize(
    sweep: Callable[[np.ndarray], tuple[np.ndarray, float]],
    warm_starts: Sequence[np.ndarray],
    options: Optional[OptimizerOptions],
    ceiling: float,
    default_restarts: int,
) -> SearchResult:
    """Best fixed point of `sweep` over warm starts, then seeded random ones.

    A start is an array of unit 3-vectors along its last axis; the random
    starts, `options.restarts` of them (`default_restarts` when that is
    None), copy the shape of the first warm start and are drawn from
    `np.random.default_rng(seed)` only when the loop reaches them.
    `sweep(x)` returns the updated array and the objective there.  A later
    start must beat the incumbent by a clear margin, so warm starts win
    numerical ties and the outcome is fixed by the seed.  Once the incumbent
    meets `ceiling`, a certified upper bound on the objective, the other
    starts could not win and are skipped; `restarts` counts them all.
    """
    opts = options or OptimizerOptions()
    restarts = default_restarts if opts.restarts is None else opts.restarts
    warm = [np.asarray(w, dtype=float) for w in warm_starts]

    def starts():
        yield from warm
        rng = np.random.default_rng(opts.seed)
        for _ in range(restarts):
            v = rng.standard_normal(warm[0].shape)
            yield v / np.linalg.norm(v, axis=-1, keepdims=True)

    best = None
    sweeps = 0
    for x0 in starts():
        run = _ascend(sweep, x0)
        sweeps += run.iterations
        if best is None or run.value > best.value + TIE_TOL * max(1.0, abs(best.value)):
            best = run
        if ceiling - best.value <= TIE_TOL * max(1.0, abs(best.value)):
            break
    return replace(best, restarts=len(warm) + restarts, iterations=sweeps)
