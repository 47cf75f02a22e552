import numpy as np
import pytest

from conftest import eager_maximize
from entcrit.pauli import mode_product
from entcrit.search import OptimizerOptions, maximize
from entcrit.states import InputError


def _rank_one_sweep(cart):
    """Alternating ascent of <cart, x_1 o ... o x_N> over unit vectors x_q:
    multilinear, with several local maxima, so starts compete."""
    n = cart.ndim

    def sweep(x):
        x = x.copy()
        for j in range(n):
            rows = [np.eye(3) if q == j else x[q][None, :] for q in range(n)]
            g = mode_product(cart, rows).ravel()
            x[j] = g / np.linalg.norm(g)
        return x, float(mode_product(cart, x[:, None, :]).item())

    return sweep


def _assert_same(got, want):
    assert np.array_equal(got.x, want.x)
    assert (got.value, got.restarts, got.iterations, got.converged, got.residual) == (
        want.value, want.restarts, want.iterations, want.converged, want.residual
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lazy_draws_match_eager_draws(n):
    warm = [np.tile(axis, (n, 1)) for axis in np.eye(3)[[2, 0]]]
    for seed in range(10):
        cart = np.random.default_rng(100 + seed).standard_normal((3,) * n)
        sweep = _rank_one_sweep(cart)
        opts = OptimizerOptions(restarts=8, seed=seed)
        full = maximize(sweep, warm, opts, np.inf, 32)
        _assert_same(full, eager_maximize(sweep, warm, opts, np.inf, 32))
        # a ceiling at the best value stops at the start that first reaches it,
        # and one at the first warm start's value stops before any draw
        first = maximize(sweep, warm[:1], OptimizerOptions(restarts=0), np.inf, 0).value
        for ceiling in (full.value, first):
            got = maximize(sweep, warm, opts, ceiling, 32)
            _assert_same(got, eager_maximize(sweep, warm, opts, ceiling, 32))
        # restarts=None takes the default count
        _assert_same(
            maximize(sweep, warm, OptimizerOptions(seed=seed), np.inf, 5),
            eager_maximize(sweep, warm, OptimizerOptions(seed=seed), np.inf, 5),
        )


def test_no_generator_when_a_warm_start_meets_the_ceiling(monkeypatch):
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: made.append(a) or default_rng(*a))
    cart = np.random.default_rng(7).standard_normal((3, 3, 3))
    sweep = _rank_one_sweep(cart)
    warm = [np.tile([0.0, 0.0, 1.0], (3, 1))]
    first = maximize(sweep, warm, OptimizerOptions(restarts=0), np.inf, 0).value
    made.clear()
    res = maximize(sweep, warm, OptimizerOptions(restarts=16), first, 32)
    assert made == [] and res.restarts == 17 and res.value == first


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_negative_seed_rejected(seed):
    with pytest.raises(InputError, match="seed must be nonnegative"):
        OptimizerOptions(seed=seed)
