"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import workloads
from tracing import Span, Tracer, install, self_times

X, Y, Z = np.eye(3)


def test_tail_needs_eleven_samples():
    assert run.tail([1.0] * 10) is None
    assert run.tail(list(range(11))) == (0, 100.0 / 11, 11)


def test_tail_leaves_ten_samples_above():
    samples = [float(v) for v in np.random.default_rng(0).permutation(30)]
    value, percentile, n = run.tail(samples)
    assert (value, n) == (19.0, 30)
    assert percentile == pytest.approx(200.0 / 3)
    assert sum(s > value for s in samples) == 10


def test_self_time_subtracts_direct_children():
    spans = [
        Span(0, "op", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 2.0, 3.0, 1, 0),
        Span(3, "a", 5.0, 6.0, 0, 0),
    ]
    times = self_times(spans)
    assert times["op"] == (pytest.approx(6.0), 1)
    assert times["a"] == (pytest.approx(3.0), 2)
    assert times["b"] == (pytest.approx(1.0), 1)


def test_tracer_nests_and_adopts_child_spans():
    tracer = Tracer()
    tracer.op = 7
    with tracer.span("op"):
        with tracer.span("inner"):
            pass
        tracer.adopt([[0, "child", 1.0, 3.0, None, None], [1, "grandchild", 1.5, 2.0, 0, None]])
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["op"].id
    assert by_name["child"].parent == by_name["op"].id
    assert by_name["grandchild"].parent == by_name["child"].id
    assert len({s.id for s in tracer.spans}) == 4
    assert {s.op for s in tracer.spans} == {7}
    assert self_times(tracer.spans)["child"][0] == pytest.approx(1.5)


def test_install_wraps_every_module_and_restores():
    import entcrit
    import entcrit.info as info
    import entcrit.pauli as pauli
    import entcrit.werner as werner
    from entcrit.search import OptimizerOptions
    from entcrit.states import StatePreset, build_preset

    original = pauli.correlation_tensor
    tracer = Tracer()
    restore = install(tracer)
    try:
        assert entcrit.correlation_tensor is pauli.correlation_tensor is werner.correlation_tensor
        assert pauli.correlation_tensor is not original
        tensor = pauli.correlation_tensor(build_preset(StatePreset("ghz", 2)))
        verdict = info.maximize_corr_info(tensor, OptimizerOptions(restarts=1, seed=0))
    finally:
        restore()
    assert pauli.correlation_tensor is original and werner.correlation_tensor is original
    assert self_times(tracer.spans)["pauli.tensor"][1] == 1
    report = verdict.optimizer_report
    assert tracer.counts == {"info.iterations": report.iterations, "info.starts": report.restarts}


def test_tensor_oracle_on_bell_state():
    t = oracles.tensor_by_trace(workloads._preset_matrix("bell_phi_minus", 2, None), 2)
    expected = np.zeros((4, 4))
    expected[0, 0], expected[1, 1], expected[2, 2], expected[3, 3] = 1, -1, 1, 1
    np.testing.assert_allclose(t, expected, atol=1e-15)


@pytest.mark.parametrize("v", [0.3, 0.8, 1.0])
def test_two_qubit_closed_form_matches_werner_formulas(v):
    info, ratio = oracles.two_qubit_closed_form(oracles.ghz_werner_matrix(2, v))
    assert info == pytest.approx(oracles.werner_info(2, v)) == pytest.approx(2 * v * v)
    assert ratio == pytest.approx(oracles.werner_ratio(2, v)) == pytest.approx(v * np.sqrt(2))


def test_closed_forms_of_products_and_noise():
    plus_minus = workloads._preset_matrix("product_plus_x_minus_x", 2, None)
    assert oracles.two_qubit_closed_form(plus_minus) == pytest.approx((1.0, 1.0))
    mixed = workloads._preset_matrix("maximally_mixed", 2, None)
    assert oracles.two_qubit_closed_form(mixed) == pytest.approx((0.0, 0.0))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_werner_table_closed_form(n):
    rho = oracles.ghz_werner_matrix(n, 0.7)
    xs, ys = np.tile(X, (n, 1)), np.tile(Y, (n, 1))
    np.testing.assert_allclose(
        oracles.werner_xy_table(n, 0.7), oracles.table_by_trace(rho, xs, ys), atol=1e-14
    )


def test_ghz_master_sum_at_xy_settings():
    table = oracles.werner_xy_table(3, 1.0)
    assert oracles.master_sum(table) / 8 == pytest.approx(oracles.werner_ratio(3, 1.0))


def test_product_table_factorizes():
    rng = np.random.default_rng(5)
    b = oracles.random_blochs(rng, 3)
    n1, n2 = oracles.random_blochs(rng, 3), oracles.random_blochs(rng, 3)
    np.testing.assert_allclose(
        oracles.product_table(b, n1, n2),
        oracles.table_by_trace(oracles.product_matrix(b), n1, n2),
        atol=1e-14,
    )
    assert oracles.master_sum(oracles.product_table(b, n1, n2)) <= 8 + 1e-12


def test_signed_sums_match_their_definition():
    table = np.random.default_rng(1).uniform(-1, 1, (2, 2, 2))
    expected = []
    for s in np.ndindex(2, 2, 2):
        signs = [1 - 2 * v for v in s]
        expected.append(sum(
            table[k] * np.prod([signs[q] if k[q] == 0 else 1 for q in range(3)])
            for k in np.ndindex(2, 2, 2)
        ))
    np.testing.assert_allclose(oracles.signed_sums(table), expected, atol=1e-14)


def test_bk_reference_is_tsirelson_and_mermin():
    rho = oracles.ghz_werner_matrix(2, 1.0)
    b1, b2 = (Z + X) / np.sqrt(2), (Z - X) / np.sqrt(2)
    e = oracles.table_by_trace(rho, np.array([Z, b1]), np.array([X, b2]))
    chsh = e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1]
    assert chsh == pytest.approx(oracles.bk_value(2)) == pytest.approx(2 * np.sqrt(2))
    assert oracles.bk_value(3) == pytest.approx(4.0)


@pytest.mark.parametrize("name", ["criteria", "scale", "cli"])
def test_seed_fixes_the_pool(name, tmp_path):
    def pool(seed, sub):
        ctx = workloads.Context(seed, tmp_path / sub)
        ctx.workdir.mkdir()
        load = workloads.WORKLOADS[name](ctx)
        files = {p.name: p.read_bytes() for p in ctx.workdir.iterdir()}
        return [op.label for op in load.ops], files

    first, again, other = pool(3, "a"), pool(3, "b"), pool(4, "c")
    assert first == again
    assert first != other


def test_run_refuses_a_directory_without_the_package(tmp_path):
    script = Path(run.__file__)
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", "cli", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
