"""Reference values the benchmark checks the program's outputs against.

Everything here is computed from first principles with numpy and never calls
entcrit, so a defect in the program cannot hide inside its own reference.
Closed forms:

* two qubits: the information maximum is t1^2 + t2^2 and the master Bell
  ratio sqrt(t1^2 + t2^2), with t1 >= t2 the two largest singular values of
  the 3x3 Cartesian correlation block (Horodecki, Horodecki & Horodecki,
  Phys. Lett. A 200, 340 (1995));
* GHZ-Werner states of visibility V: information 2^(N-1) V^2, master ratio
  V 2^((N-1)/2), Belinskii-Klyshko value V 2^((N+1)/2) (bound 2);
* pure product states: information 1 and ratio 1; maximally mixed: 0 and 0.
"""

from __future__ import annotations

from functools import reduce
from itertools import product

import numpy as np

PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

#: A search result may miss its closed-form maximum by at most this much.
SEARCH_TOL = 1e-6
#: Tables, tensors and LHV round trips are exact up to rounding.
VALUE_TOL = 1e-9
#: Inverse round trip of the correlation tensor.
INVERSE_TOL = 1e-10
#: Margin the program uses before calling a value above 1 (or 2^N) a violation.
DECISION_TOL = 1e-7


def werner_info(n: int, v: float) -> float:
    return 2.0 ** (n - 1) * v * v


def werner_ratio(n: int, v: float) -> float:
    return v * 2.0 ** ((n - 1) / 2.0)


def bk_value(n: int, v: float = 1.0) -> float:
    """Largest Belinskii-Klyshko value of a GHZ-Werner state, bound 2."""
    return v * 2.0 ** ((n + 1) / 2.0)


def werner_threshold(n: int) -> float:
    return 2.0 ** (-(n - 1) / 2.0)


def ghz_werner_matrix(n: int, v: float) -> np.ndarray:
    dim = 2**n
    ghz = np.zeros(dim, dtype=complex)
    ghz[0] = ghz[-1] = 1.0 / np.sqrt(2.0)
    return v * np.outer(ghz, ghz) + (1.0 - v) * np.eye(dim) / dim


def random_mixture(rng: np.random.Generator, n: int, terms: int) -> np.ndarray:
    """Dirichlet-weighted mixture of Haar-like random pure states."""
    dim = 2**n
    rho = np.zeros((dim, dim), dtype=complex)
    for w in rng.dirichlet(np.ones(terms)):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        rho += w * np.outer(v, v.conj())
    return rho


def random_blochs(rng: np.random.Generator, n: int) -> np.ndarray:
    b = rng.standard_normal((n, 3))
    return b / np.linalg.norm(b, axis=1, keepdims=True)


def product_matrix(blochs: np.ndarray) -> np.ndarray:
    locals_ = [0.5 * (PAULI[0] + np.tensordot(b, PAULI[1:], axes=1)) for b in blochs]
    return reduce(np.kron, locals_)


def tensor_by_trace(rho: np.ndarray, n: int) -> np.ndarray:
    """Every Pauli-product expectation Re Tr[rho P], shape (4,)*n."""
    out = np.empty((4,) * n)
    for idx in product(range(4), repeat=n):
        op = reduce(np.kron, (PAULI[i] for i in idx))
        out[idx] = np.sum(rho * op.T).real
    return out


def table_by_trace(rho: np.ndarray, n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """E(k) = Re Tr[rho (a_k1 . sigma) x ... x (a_kN . sigma)], shape (2,)*N."""
    n = n1.shape[0]
    obs = [
        [np.tensordot(d, PAULI[1:], axes=1) for d in (n1[q], n2[q])] for q in range(n)
    ]
    out = np.empty((2,) * n)
    for k in product((0, 1), repeat=n):
        op = reduce(np.kron, (obs[q][k[q]] for q in range(n)))
        out[k] = np.sum(rho * op.T).real
    return out


def werner_xy_table(n: int, v: float) -> np.ndarray:
    """GHZ-Werner table at settings x (first) and y (second) on every qubit.

    <x..x y..y> on the GHZ state is Re(i^m) for m factors of y, and white
    noise contributes nothing, so E(k) = V cos(m pi / 2).
    """
    m = np.indices((2,) * n).sum(axis=0)
    return v * np.round(np.cos(m * np.pi / 2.0))


def product_table(blochs: np.ndarray, n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """A product state's table factorizes: E(k) = prod_q b_q . a_(k_q)."""
    per_qubit = [np.array([b @ a, b @ c]) for b, a, c in zip(blochs, n1, n2)]
    return reduce(np.multiply.outer, per_qubit)


def signed_sums(table: np.ndarray) -> np.ndarray:
    """B(s) = sum_k E(k) prod_q s_q^[k_q = first setting], flat, s = +1 first."""
    n = table.ndim
    weights = np.array([[1.0, 1.0], [-1.0, 1.0]])  # rows s = +1, -1; cols k
    return reduce(np.kron, [weights] * n) @ table.ravel()


def master_sum(table: np.ndarray) -> float:
    """Left-hand side of the 2^N correlation inequality."""
    return float(np.abs(signed_sums(table)).sum())


def two_qubit_closed_form(rho: np.ndarray) -> tuple[float, float]:
    """(information maximum, master ratio) of a two-qubit state from its SVD."""
    block = tensor_by_trace(rho, 2)[1:, 1:]
    t = np.linalg.svd(block, compute_uv=False)
    info = float(t[0] ** 2 + t[1] ** 2)
    return info, float(np.sqrt(info))
