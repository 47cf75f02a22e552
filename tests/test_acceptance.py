"""Release acceptance checks: pinned numerical targets with runtime budgets.

Each check prints a single PASS line on success (visible with pytest -s).
"""

import json
import time

import numpy as np
import pytest

from conftest import (
    random_density_matrix,
    random_product_state,
    random_separable_state,
    random_unit_vectors,
)
from entcrit.bell import (
    SettingsPair,
    belinskii_klyshko_sign_function,
    belinskii_klyshko_value,
    correlation_table,
    general_bell_lhs,
    maximize_general_bell,
    maximize_sign_function_value,
)
from entcrit.cli import main as cli_main
from entcrit.info import corr_info, maximize_corr_info, two_qubit_info_criterion
from entcrit.lhv import BellBoundError, construct_lhv, verify_lhv
from entcrit.pauli import (
    LocalFrame,
    correlation_tensor,
    density_from_tensor,
    plane_subtensor,
    rotate_frame_in_plane,
)
from entcrit.search import OptimizerOptions
from entcrit.states import StatePreset, build_preset
from entcrit.werner import (
    analyze_werner,
    count_nonzero_inplane,
    visibility_scan,
    visibility_threshold,
    werner_inplane_tensor,
)

SQ2 = np.sqrt(2.0)

BULK = OptimizerOptions(restarts=2)
BOUND = OptimizerOptions(restarts=1)
SEARCH = OptimizerOptions(restarts=6)


def test_c01_bell_state_information_content(capsys):
    start = time.time()
    code = cli_main(["info", "--preset", "bell_phi_minus", "--restarts", "8"])
    elapsed = time.time() - start
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["max_total"] == pytest.approx(2.0, abs=1e-6)
    assert doc["entangled"] is True
    assert elapsed < 1.0
    print(f"PASS criterion 1: Bell-state information content = {doc['max_total']:.9f} "
          f"({elapsed:.2f} s)")


def test_c02_product_state_bound():
    start = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for i in range(100):
        n = 2 + i % 3
        t = correlation_tensor(random_product_state(rng, n))
        worst = max(worst, maximize_corr_info(t, BOUND).max_total)
        assert worst <= 1.0 + 1e-6
    t = correlation_tensor(build_preset(StatePreset("product_plus_x_minus_x", 2)))
    pinned = maximize_corr_info(t, SEARCH).max_total
    assert pinned == pytest.approx(1.0, abs=1e-6)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"PASS criterion 2: product states max {worst:.9f} <= 1, "
          f"|+x>|-x> = {pinned:.9f} ({elapsed:.1f} s)")


def test_c03_separable_mixture_bound():
    start = time.time()
    rng = np.random.default_rng(3)
    worst_info = 0.0
    worst_ratio = 0.0
    for i in range(100):
        n = 2 + i % 2
        t = correlation_tensor(random_separable_state(rng, n))
        worst_info = max(worst_info, maximize_corr_info(t, BOUND).max_total)
        ev, _ = maximize_general_bell(t, BOUND)
        worst_ratio = max(worst_ratio, ev.lhs_general / ev.bound)
        assert worst_info <= 1.0 + 1e-6
        assert ev.lhs_general <= ev.bound + 1e-6
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"PASS criterion 3: separable mixtures info max {worst_info:.9f}, "
          f"bell ratio max {worst_ratio:.9f} ({elapsed:.1f} s)")


def test_c04_chsh_maximum():
    start = time.time()
    t = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))
    ev, _ = maximize_general_bell(t, SEARCH)
    assert ev.lhs_general / ev.bound == pytest.approx(SQ2, abs=1e-4)
    value, settings = maximize_sign_function_value(
        t, belinskii_klyshko_sign_function(2), SEARCH
    )
    chsh = belinskii_klyshko_value(correlation_table(t, settings))
    assert chsh == pytest.approx(2.0 * SQ2, abs=1e-4)
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"PASS criterion 4: general ratio {ev.lhs_general / ev.bound:.6f} = sqrt2, "
          f"CHSH value {chsh:.6f} = 2*sqrt2 ({elapsed:.1f} s)")


def test_c05_mermin_ghz_maximum():
    start = time.time()
    t = correlation_tensor(build_preset(StatePreset("ghz", 3)))
    _, settings = maximize_sign_function_value(
        t, belinskii_klyshko_sign_function(3), SEARCH
    )
    table = correlation_table(t, settings)
    e = table.values
    mermin = abs(e[0, 1, 1] + e[1, 0, 1] + e[1, 1, 0] - e[0, 0, 0])
    assert mermin == pytest.approx(4.0, abs=1e-4)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"PASS criterion 5: Mermin combination reaches {mermin:.6f} ({elapsed:.1f} s)")


def test_c06_werner_thresholds():
    start = time.time()
    expected = {2: 0.70711, 3: 0.5, 4: 0.35355}
    for n, target in expected.items():
        rows = visibility_scan(n, 1001, BULK)
        step = rows[1].visibility - rows[0].visibility
        crossing = next(r.visibility for r in rows if r.info_entangled)
        assert abs(crossing - target) <= step + 1e-12
        threshold = visibility_threshold(n)
        above = correlation_tensor(
            build_preset(StatePreset("werner_ghz", n, min(1.0, threshold * 1.02)))
        )
        ev_above, _ = maximize_general_bell(above, BULK)
        assert ev_above.violated
        below = correlation_tensor(
            build_preset(StatePreset("werner_ghz", n, threshold * 0.98))
        )
        ev_below, _ = maximize_general_bell(below, BULK)
        assert not ev_below.violated
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"PASS criterion 6: crossings at the thresholds for N=2,3,4; violation "
          f"appears at 1.02x and not at 0.98x ({elapsed:.1f} s)")


def test_c07_nonzero_component_count():
    start = time.time()
    for n in range(2, 9):
        direct = int(np.count_nonzero(werner_inplane_tensor(n, 1.0).values))
        assert count_nonzero_inplane(n) == direct
    t = correlation_tensor(build_preset(StatePreset("ghz", 3)))
    res = corr_info(t, LocalFrame.canonical(3))
    unit_indices = [(1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1)]
    for idx in unit_indices:
        assert res.per_index[idx] == 1.0
    for idx, val in res.per_index.items():
        if idx not in unit_indices:
            assert val == 0.0
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"PASS criterion 7: counts match for N=2..8; GHZ-3 unit entries exact "
          f"({elapsed:.2f} s)")


def test_c08_lhv_round_trip():
    start = time.time()
    rng = np.random.default_rng(8)
    accepted = 0
    refused = 0
    worst = 0.0
    while accepted < 200:
        n = 2 + (accepted + refused) % 3
        dm = random_density_matrix(rng, n)
        settings = SettingsPair(random_unit_vectors(rng, n), random_unit_vectors(rng, n))
        table = correlation_table(correlation_tensor(dm), settings)
        if general_bell_lhs(table).violated:
            with pytest.raises(BellBoundError):
                construct_lhv(table)
            refused += 1
            continue
        model = construct_lhv(table)
        assert model.total_atom_mass() <= 1.0 + 1e-10
        worst = max(worst, verify_lhv(model, table))
        assert worst <= 1e-10
        accepted += 1
    # a table beyond the bound must be refused even if none was drawn
    bell = correlation_tensor(build_preset(StatePreset("bell_phi_minus", 2)))
    s = 1.0 / SQ2
    chsh_settings = SettingsPair(
        np.array([[1.0, 0, 0], [-s, s, 0]]), np.array([[0, 1.0, 0], [-s, -s, 0]])
    )
    with pytest.raises(BellBoundError):
        construct_lhv(correlation_table(bell, chsh_settings))
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"PASS criterion 8: 200 round trips, worst error {worst:.2e}, "
          f"{refused + 1} violating tables refused ({elapsed:.1f} s)")


def test_c09_horodecki_equivalence():
    start = time.time()
    rng = np.random.default_rng(9)
    checked = 0
    skipped = 0
    for i in range(100):
        if i % 2 == 0:
            dm = random_density_matrix(rng, 2, terms=3)
        else:
            v = float(rng.uniform(0.4, 1.0))
            dm = build_preset(StatePreset("werner_ghz", 2, v))
        t = correlation_tensor(dm)
        closed = two_qubit_info_criterion(t).max_total
        if abs(closed - 1.0) <= 1e-3:
            skipped += 1
            continue
        ev, _ = maximize_general_bell(t, BULK)
        assert ev.violated == (closed > 1.0), (closed, ev.lhs_general)
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"PASS criterion 9: verdicts agree on {checked} states "
          f"({skipped} near-boundary skipped) ({elapsed:.1f} s)")


def test_c10_exponential_divergence():
    start = time.time()
    for n in range(2, 11):
        assert analyze_werner(n, 1.0).info_sum == 2.0 ** (n - 1)
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"PASS criterion 10: full-visibility information sums are exactly "
          f"2^(N-1) for N=2..10 ({elapsed:.2f} s)")


def test_c11_rotation_invariance():
    start = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        t = correlation_tensor(random_density_matrix(rng, n))
        frame = LocalFrame.canonical(n)
        before = plane_subtensor(t, frame).squared_sum()
        rotated = rotate_frame_in_plane(frame, rng.uniform(-np.pi, np.pi, n))
        after = plane_subtensor(t, rotated).squared_sum()
        worst = max(worst, abs(after - before))
        assert worst <= 1e-9
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"PASS criterion 11: squared in-plane sums move by at most {worst:.2e} "
          f"({elapsed:.1f} s)")


def test_c12_tensor_reconstruction_oracle():
    start = time.time()
    rng = np.random.default_rng(12)
    worst = 0.0
    for i in range(50):
        n = 1 + i % 5
        dm = random_density_matrix(rng, n)
        back = density_from_tensor(correlation_tensor(dm))
        worst = max(worst, float(np.max(np.abs(back.matrix - dm.matrix))))
        assert worst <= 1e-10
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"PASS criterion 12: reconstruction error at most {worst:.2e} on 50 "
          f"states ({elapsed:.1f} s)")
