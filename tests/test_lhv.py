import itertools
import json
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from conftest import (
    einsum_empirical_table,
    enumerated_atoms,
    masses_evaluation,
    random_density_matrix,
    random_unit_vectors,
)
from entcrit.bell import (
    CorrelationTable,
    SettingsPair,
    correlation_table,
    general_bell_lhs,
    signed_sums,
)
from entcrit.lhv import (
    BellBoundError,
    LhvModel,
    construct_lhv,
    empirical_table,
    lhv_correlation_table,
    sample_outcome_arrays,
    verify_lhv,
)
from entcrit.pauli import correlation_tensor
from entcrit.states import InputError, StatePreset, build_preset


def random_settings(rng, n):
    return SettingsPair(random_unit_vectors(rng, n), random_unit_vectors(rng, n))


def build_table_from_state(rng, n):
    dm = random_density_matrix(rng, n)
    return correlation_table(correlation_tensor(dm), random_settings(rng, n))


def pure_noise_model(n):
    return construct_lhv(CorrelationTable(n, np.zeros((2,) * n)))


def json_atoms(model):
    return model.to_json_dict()["atoms"]


def one_class_model(index, q):
    """The model with signed mass q on the class at `index` and none elsewhere."""
    masses = np.zeros((2,) * len(index))
    masses[index] = q
    return LhvModel(masses_evaluation(masses))


def random_signed_masses(rng, n):
    """Seeded masses, about 40% zero, with random signs and a total of at most 1."""
    weights = rng.random((2,) * n) * (rng.random((2,) * n) < 0.6)
    weights[(0,) * n] += 0.1
    return np.where(rng.random((2,) * n) < 0.5, 1.0, -1.0) * weights / weights.sum()


class TestConstruct:
    def test_zero_table_is_pure_noise(self):
        model = construct_lhv(CorrelationTable(2, np.zeros((2, 2))))
        assert json_atoms(model) == []
        assert model.noise_weight == pytest.approx(1.0)

    def test_pr_box_like_table_refused(self):
        table = CorrelationTable(2, np.array([[1.0, 1.0], [1.0, -1.0]]))
        for build in (lambda: construct_lhv(table), lambda: LhvModel(general_bell_lhs(table))):
            with pytest.raises(BellBoundError) as err:
                build()
            assert err.value.lhs == pytest.approx(8.0)
            assert err.value.bound == pytest.approx(4.0)

    def test_product_state_model(self):
        # x and y settings on both sides of |+x>|-x>: only E(1,1) = -1 survives
        t = correlation_tensor(build_preset(StatePreset("product_plus_x_minus_x", 2)))
        settings = SettingsPair(
            np.array([[1.0, 0, 0], [1.0, 0, 0]]),
            np.array([[0, 1.0, 0], [0, 1.0, 0]]),
        )
        table = correlation_table(t, settings)
        assert table.values[0, 0] == pytest.approx(-1.0, abs=1e-12)
        model = construct_lhv(table)
        assert verify_lhv(model, table) <= 1e-10

    def test_class_mass_split(self, rng):
        table = build_table_from_state(rng, 2)
        model = construct_lhv(table)
        b = signed_sums(table)
        expected_mass = float(np.sum(np.abs(b))) / 4.0
        assert model.total_atom_mass() == pytest.approx(expected_mass, abs=1e-12)
        # 2^(N-1) strategies per populated sign class
        per_class = {}
        for atom in json_atoms(model):
            s = tuple(a1 * a2 for a1, a2 in zip(atom["a1"], atom["a2"]))
            per_class.setdefault(s, []).append(atom["p"])
        for s, probs in per_class.items():
            assert len(probs) == 2
            assert np.ptp(probs) <= 1e-15

    def test_strategies_satisfy_sign_constraints(self, rng):
        table = build_table_from_state(rng, 3)
        model = construct_lhv(table)
        b = signed_sums(table)
        for atom in json_atoms(model):
            s = tuple(a1 * a2 for a1, a2 in zip(atom["a1"], atom["a2"]))
            idx = tuple(0 if sj == 1 else 1 for sj in s)
            target = 1 if b[idx] > 0 else -1
            prod = 1
            for v in atom["a2"]:
                prod *= v
            assert prod == target

    def test_mass_bound_on_corpus(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 5))
            table = build_table_from_state(rng, n)
            ev = general_bell_lhs(table)
            if ev.violated:
                continue
            model = construct_lhv(table)
            assert model.total_atom_mass() <= 1.0 + 1e-10

    def test_model_is_read_off_the_evaluation(self, rng):
        # p(s) = |B(s)| / 2^N, sign B(s) (-1 where B(s) = 0) and the noise
        # 1 - sum p(s), bit for bit, on tables scaled inside the bound
        for n in range(1, 9):
            tables = [CorrelationTable(n, np.zeros((2,) * n))]
            for _ in range(3):
                vals = rng.uniform(-1.0, 1.0, (2,) * n)
                lhs = general_bell_lhs(CorrelationTable(n, vals)).lhs_general
                scale = min(1.0, rng.uniform(0.3, 1.0) * 2.0**n / lhs)
                tables.append(CorrelationTable(n, vals * scale))
            for table in tables:
                ev = general_bell_lhs(table)
                assert ev.table is table and not ev.violated
                assert LhvModel(ev).evaluation is ev
                for model in (LhvModel(ev), construct_lhv(table)):
                    assert model.n_qubits == n
                    assert model.evaluation.sums.tobytes() == ev.sums.tobytes()
                    assert model.weights.tobytes() == (ev.moduli / ev.bound).tobytes()
                    assert model.noise_weight == max(0.0, 1.0 - model.weights.sum())


class TestVerify:
    def test_round_trip_small_corpus(self, rng):
        checked = 0
        while checked < 60:
            n = int(rng.integers(2, 5))
            table = build_table_from_state(rng, n)
            if general_bell_lhs(table).violated:
                continue
            model = construct_lhv(table)
            assert verify_lhv(model, table) <= 1e-10
            checked += 1

    def test_pure_noise_vs_zero_table(self):
        model = pure_noise_model(2)
        assert verify_lhv(model, CorrelationTable(2, np.zeros((2, 2)))) == 0.0

    def test_perturbed_model_detected(self, rng):
        # halve the correlations so noise mass exists, then shift weight onto
        # one sign class; the realized table must drift off target
        table = build_table_from_state(rng, 2)
        if general_bell_lhs(table).violated:
            pytest.skip("rare violating draw")
        damped = CorrelationTable(2, 0.5 * table.values)
        model = construct_lhv(damped)
        assert model.noise_weight > 0.1
        sums = model.evaluation.sums.copy()
        sums[0, 0] += 0.4 if sums[0, 0] > 0 else -0.4  # class mass p(+,+) up by 0.1
        ev = replace(model.evaluation, sums=sums, lhs_general=float(np.abs(sums).sum()))
        broken = LhvModel(ev)
        assert broken.weights[0, 0] == pytest.approx(model.weights[0, 0] + 0.1, abs=1e-15)
        assert verify_lhv(broken, damped) > 1e-3

    def test_noise_contributes_zero_exactly(self):
        # uniform distribution over all strategies: every correlation vanishes
        for n in (2, 3):
            acc = np.zeros((2,) * n)
            for a1 in itertools.product((1, -1), repeat=n):
                for a2 in itertools.product((1, -1), repeat=n):
                    for pos, k in enumerate(itertools.product((0, 1), repeat=n)):
                        prod = 1.0
                        for q in range(n):
                            prod *= a1[q] if k[q] == 0 else a2[q]
                        acc.ravel()[pos] += prod
            np.testing.assert_array_equal(acc, 0.0)

    def test_qubit_count_mismatch(self):
        model = pure_noise_model(2)
        with pytest.raises(InputError):
            verify_lhv(model, CorrelationTable(3, np.zeros((2, 2, 2))))


class TestModelType:
    def test_mass_must_sum_to_one(self):
        # class masses summing past 1 + tau come only from a violated
        # evaluation, which is refused; the noise is the rest
        ev = general_bell_lhs(CorrelationTable(2, 0.55 * np.array([[1.0, 1.0], [1.0, -1.0]])))
        assert ev.violated and ev.lhs_general / ev.bound == pytest.approx(1.1)
        with pytest.raises(BellBoundError) as err:
            LhvModel(ev)
        assert (err.value.lhs, err.value.bound) == (ev.lhs_general, ev.bound)
        model = one_class_model((0, 1), 0.5)
        assert model.total_atom_mass() == 0.5 and model.noise_weight == 0.5

    def test_json_export_schema(self, rng):
        table = build_table_from_state(rng, 2)
        if general_bell_lhs(table).violated:
            pytest.skip("rare violating draw")
        doc = construct_lhv(table).to_json_dict()
        assert set(doc) == {"n_qubits", "atoms", "noise_weight"}
        for atom in doc["atoms"]:
            assert set(atom) == {"a1", "a2", "p"}

    def test_json_atoms_match_enumeration_oracle(self, rng):
        # same atoms in the same order, with int outcomes and bit-equal masses
        for n in range(1, 7):
            for _ in range(4):
                masses = random_signed_masses(rng, n) * rng.uniform(0.2, 1.0)
                model = LhvModel(masses_evaluation(masses))
                expected = enumerated_atoms(model)
                assert len(expected) == 2 ** (n - 1) * np.count_nonzero(masses)
                assert json.dumps(json_atoms(model)) == json.dumps(expected)
            model = construct_lhv(within_bound_table(rng, n))
            assert json.dumps(json_atoms(model)) == json.dumps(enumerated_atoms(model))


class TestSampling:
    def test_single_atom_model(self):
        # all mass on the class s = (-1, -1), whose strategies have a2 products -1
        model = one_class_model((1, 1), -1.0)
        strategies = [(atom["a1"], atom["a2"]) for atom in json_atoms(model)]
        assert strategies == [([-1, 1], [1, -1]), ([1, -1], [-1, 1])]
        for seed in range(5):
            a1, a2 = sample_outcome_arrays(model, 20, seed)
            for row1, row2 in zip(a1.tolist(), a2.tolist()):
                assert (row1, row2) in strategies

    def test_sampled_rows_are_atoms(self, rng):
        # no noise mass, so every draw is an atom of a class with mass
        for n in range(1, 7):
            model = LhvModel(masses_evaluation(random_signed_masses(rng, n)))
            atoms = {(tuple(a["a1"]), tuple(a["a2"])) for a in json_atoms(model)}
            a1, a2 = sample_outcome_arrays(model, 500, rng)
            assert {(tuple(x), tuple(y)) for x, y in zip(a1.tolist(), a2.tolist())} <= atoms

    def test_pure_noise_frequencies(self):
        model = pure_noise_model(2)
        rng = np.random.default_rng(5)
        a1, a2 = sample_outcome_arrays(model, 10**6, rng)
        keys = (
            ((a1 + 1) // 2 * np.array([8, 4]) ).sum(axis=1)
            + ((a2 + 1) // 2 * np.array([2, 1])).sum(axis=1)
        )
        counts = np.bincount(keys.astype(int), minlength=16)
        p = 1.0 / 16.0
        se = np.sqrt(p * (1 - p) / 10**6)
        freqs = counts / 10**6
        assert np.all(np.abs(freqs - p) <= 5 * se)

    def test_monte_carlo_reproduces_product_table(self):
        t = correlation_tensor(build_preset(StatePreset("product_plus_x_minus_x", 2)))
        settings = SettingsPair(
            np.array([[1.0, 0, 0], [1.0, 0, 0]]),
            np.array([[0, 1.0, 0], [0, 1.0, 0]]),
        )
        table = correlation_table(t, settings)
        model = construct_lhv(table)
        rng = np.random.default_rng(17)
        a1, a2 = sample_outcome_arrays(model, 10**6, rng)
        empirical = empirical_table(a1, a2)
        assert empirical.values[0, 0] == pytest.approx(-1.0, abs=0.005)

    @pytest.mark.parametrize("size", [1, 7, 4000])
    def test_empirical_table_matches_einsum_oracle(self, rng, size):
        for n in range(1, 10):
            a1, a2 = sample_outcome_arrays(construct_lhv(within_bound_table(rng, n)), size, rng)
            assert empirical_table(a1, a2).values.tobytes() == einsum_empirical_table(a1, a2).tobytes()
            a1, a2 = (rng.integers(0, 2, (2, size, n)) * 2 - 1).astype(np.int8)
            assert empirical_table(a1, a2).values.tobytes() == einsum_empirical_table(a1, a2).tobytes()
            # outcomes all alike: every sum is +-size, every entry exactly +-1
            a1 = np.ones((size, n), dtype=np.int8)
            a2 = -a1
            assert np.array_equal(np.abs(empirical_table(a1, a2).values), np.ones((2,) * n))

    def test_realized_table_matches_verify(self, rng):
        table = build_table_from_state(rng, 3)
        if general_bell_lhs(table).violated:
            pytest.skip("rare violating draw")
        model = construct_lhv(table)
        realized = lhv_correlation_table(model)
        assert np.max(np.abs(realized.values - table.values)) == pytest.approx(
            verify_lhv(model, table), abs=1e-15
        )


def within_bound_table(rng, n):
    while True:
        table = build_table_from_state(rng, n)
        if not general_bell_lhs(table).violated:
            return table


class TestOracles:
    def test_explicit_enumeration(self, rng):
        # sum of p * (a1_q, a2_q) outer products over the expanded strategies
        for n in (2, 3, 4):
            table = within_bound_table(rng, n)
            model = construct_lhv(table)
            acc = np.zeros((2,) * n)
            for atom in json_atoms(model):
                per_qubit = [np.array([atom["a1"][q], atom["a2"][q]], dtype=float) for q in range(n)]
                acc += atom["p"] * reduce(np.multiply.outer, per_qubit)
            assert np.max(np.abs(acc - lhv_correlation_table(model).values)) <= 1e-12
            assert np.max(np.abs(acc - table.values)) <= 1e-12

    def test_monte_carlo_random_table(self, rng):
        table = within_bound_table(rng, 3)
        model = construct_lhv(table)
        size = 10**5
        sampled = empirical_table(*sample_outcome_arrays(model, size, 31))
        assert np.max(np.abs(sampled.values - table.values)) <= 6.0 / np.sqrt(size)
