import numpy as np
import pytest

from conftest import eager_maximize, gain_only_ascend
from entcrit.pauli import mode_product
from entcrit.search import OptimizerOptions, _ascend, maximize
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


def _byte_fixed_point(sweep, x, cap=500):
    """Iterate `sweep` until it returns its input byte for byte, or None."""
    for _ in range(cap):
        nxt = sweep(x)[0]
        if nxt.tobytes() == x.tobytes():
            return x
        x = nxt
    return None


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fixed_point_stops_one_sweep_early(n):
    # a start at a fixed point of the sweep ends after one sweep, with the
    # point and value the gain test reaches one sweep later; other starts
    # run as before
    starts = [np.tile([0.0, 0.0, 1.0], (n, 1))]
    carts = [np.zeros((3,) * n)]
    carts[0][(2,) * n] = 0.75  # the z start is exactly fixed
    for seed in range(10):
        cart = np.random.default_rng(200 + seed).standard_normal((3,) * n)
        x0 = np.random.default_rng(seed).standard_normal((n, 3))
        starts.append(x0 / np.linalg.norm(x0, axis=1, keepdims=True))
        carts.append(cart)
    fixed = 0
    for cart, x0 in zip(carts, starts):
        sweep = _rank_one_sweep(cart)
        for start in (x0, _byte_fixed_point(sweep, x0)):
            if start is None:
                continue
            got, want = _ascend(sweep, start), gain_only_ascend(sweep, start)
            assert got.x.tobytes() == want.x.tobytes()
            assert (got.value, got.converged) == (want.value, want.converged)
            if sweep(start)[0].tobytes() == start.tobytes():
                fixed += 1
                assert (got.iterations, want.iterations, got.residual) == (1, 2, 0.0)
            else:
                assert (got.iterations, got.residual) == (want.iterations, want.residual)
    assert fixed >= 4


def test_signed_zero_change_is_not_a_fixed_point():
    # -0.0 == 0.0, but a sweep that flips the sign of a zero moved its input
    def sweep(x):
        return np.abs(x), 1.0

    x = np.array([[-0.0, 0.0, 1.0]])
    res = _ascend(sweep, x)
    assert (res.iterations, res.converged, res.residual) == (2, True, 0.0)
    assert not np.signbit(res.x).any()


@pytest.mark.parametrize("seed", [-1, -(2**40)])
def test_negative_seed_rejected(seed):
    with pytest.raises(InputError, match="seed must be nonnegative"):
        OptimizerOptions(seed=seed)
