import argparse
import functools
import json
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CHILD_ENV, random_density_matrix, signed_mass_table, traced_peak
from entcrit import bell, cli, lhv
from entcrit.cli import build_parser, main
from entcrit.pauli import FRAME_TOL, CorrelationTable, CorrelationTensor
from entcrit.states import (
    HERMITICITY_TOL,
    MAX_QUBITS,
    TRACE_TOL,
    DensityMatrix,
    InputError,
    StateFormatError,
    StatePreset,
    read_state_file,
    serialize_state,
)

def run_cli(*args, env=CHILD_ENV):
    return subprocess.run(
        [sys.executable, "-m", "entcrit", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )


# N=2 GHZ-Werner visibilities 1e-9 and 5e-11 past the threshold 1/sqrt(2),
# and whether that is past the decision tolerance 1e-10
EDGE_VISIBILITIES = [("0.7071067882", True), ("0.707106781222", False)]


def run_inprocess(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTensorCommand:
    def test_maximally_mixed_single_qubit(self, capsys):
        code, out, _ = run_inprocess(capsys, "tensor", "--preset", "maximally_mixed", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["entries"] == [1.0, 0.0, 0.0, 0.0]

    def test_bell_phi_minus_entries(self, capsys):
        code, out, _ = run_inprocess(capsys, "tensor", "--preset", "bell_phi_minus")
        assert code == 0
        entries = json.loads(out)["entries"]
        # flat position of (x1, x2) is 4*x1 + x2
        assert entries[5] == pytest.approx(-1.0, abs=1e-12)   # xx
        assert entries[10] == pytest.approx(1.0, abs=1e-12)   # yy
        assert entries[15] == pytest.approx(1.0, abs=1e-12)   # zz

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = run_cli("tensor", "-i", str(bad))
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_missing_state_exits_2(self, capsys):
        code, _, err = run_inprocess(capsys, "tensor")
        assert code == 2
        assert "state" in err

    def test_invalid_matrix_exits_2(self, tmp_path, capsys):
        doc = {"matrix": {"n_qubits": 1, "entries": [[[1, 0], [0, 0]], [[0, 0], [0.7, 0]]]}}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_inprocess(capsys, "tensor", "-i", str(path))
        assert code == 2
        assert "trace" in err


class TestInfoCommand:
    def test_bell_state_verdict(self, capsys):
        code, out, _ = run_inprocess(
            capsys, "info", "--preset", "bell_phi_minus", "--restarts", "4"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["entangled"] is True
        assert doc["max_total"] == pytest.approx(2.0, abs=1e-6)
        assert set(doc) == {"max_total", "entangled", "frame", "optimizer"}

    def test_reproducible_output(self, tmp_path):
        outs = []
        for run in range(2):
            path = tmp_path / f"out{run}.json"
            res = run_cli(
                "info", "--preset", "werner_ghz", "--n", "2", "--visibility", "0.8",
                "--seed", "0", "--restarts", "4", "--out", str(path),
            )
            assert res.returncode == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestBellCommand:
    def test_fixed_settings(self, tmp_path, capsys):
        settings = {
            "pairs": [
                {"n1": [1, 0, 0], "n2": [0, 1, 0]},
                {"n1": [1, 0, 0], "n2": [0, 1, 0]},
            ]
        }
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(settings))
        code, out, _ = run_inprocess(
            capsys, "bell", "--preset", "bell_phi_minus", "--settings", str(path)
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["bound"] == 4.0
        assert not doc["violated"]  # x/y axis settings do not violate

    def test_settings_length_within_frame_tol(self, tmp_path, capsys):
        # n1 = n2 = (1 + d) x on both qubits of |+x+x>: the table is (1 + d)^2,
        # so past FRAME_TOL the product state would read as violating
        path = tmp_path / "settings.json"
        state = ["--preset", "product_all_plus_x", "--n", "2", "--settings", str(path)]
        x = [1.0 + 0.99e-10, 0.0, 0.0]
        path.write_text(json.dumps({"pairs": [{"n1": x, "n2": x}] * 2}))
        for command in ("bell", "lhv"):
            assert run_inprocess(capsys, command, *state) == (
                2, "", "error: settings must be unit vectors (residual 9.900e-11)\n"
            )
        x = [1.0 + 0.9 * FRAME_TOL, 0.0, 0.0]
        path.write_text(json.dumps({"pairs": [{"n1": x, "n2": x}] * 2}))
        code, out, _ = run_inprocess(capsys, "bell", *state)
        assert code == 0 and json.loads(out)["violated"] is False
        code, out, _ = run_inprocess(capsys, "lhv", *state)
        assert code == 0 and json.loads(out)["refused"] is False

    def test_optimized_violation(self, capsys):
        code, out, _ = run_inprocess(
            capsys, "bell", "--preset", "bell_phi_minus", "--restarts", "6"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violated"] is True
        assert doc["ratio"] == pytest.approx(np.sqrt(2.0), abs=1e-4)
        assert len(doc["per_s"]) == 4


class TestLhvCommand:
    def test_model_roundtrip_report(self, tmp_path, capsys):
        settings = {
            "pairs": [
                {"n1": [1, 0, 0], "n2": [0, 1, 0]},
                {"n1": [1, 0, 0], "n2": [0, 1, 0]},
            ]
        }
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(settings))
        code, out, _ = run_inprocess(
            capsys, "lhv", "--preset", "product_plus_x_minus_x", "--settings", str(path)
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["refused"] is False
        assert doc["verify_max_abs_error"] <= 1e-10
        assert abs(sum(a["p"] for a in doc["model"]["atoms"]) + doc["model"]["noise_weight"] - 1.0) < 1e-9

    def test_violating_settings_refused(self, tmp_path, capsys):
        # CHSH-optimal settings on a Bell state violate the bound
        s = 1.0 / np.sqrt(2.0)
        settings = {
            "pairs": [
                {"n1": [1, 0, 0], "n2": [0, 1, 0]},
                {"n1": [-s, s, 0], "n2": [-s, -s, 0]},
            ]
        }
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(settings))
        code, out, _ = run_inprocess(
            capsys, "lhv", "--preset", "bell_phi_minus", "--settings", str(path)
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["refused"] is True
        assert doc["lhs"] > doc["bound"]

    def test_edge_visibility_verdicts_agree(self, capsys):
        # 1e-9 past the N=2 threshold, and 5e-11 past it (inside the decision
        # tolerance): the four verdicts agree, and inside the tolerance the
        # model carries the master sum's excess mass
        for v, past in EDGE_VISIBILITIES:
            code, out, _ = run_inprocess(
                capsys, "analyze", "--preset", "werner_ghz", "--n", "2", "--visibility", v
            )
            assert code == 0
            doc = json.loads(out)
            assert doc["lhv"]["lhs"] > doc["lhv"]["bound"]
            verdicts = (
                doc["info"]["entangled"],
                doc["bell"]["violated"],
                doc["lhv"]["refused"],
                not doc["werner"]["lr_describable"],
            )
            assert verdicts == (past,) * 4, v
            assert ("model" in doc["lhv"]) is not past
            if not past:
                model = doc["lhv"]["model"]
                assert model["noise_weight"] == 0.0
                assert sum(a["p"] for a in model["atoms"]) > 1.0

    def test_settings_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_inprocess(capsys, "lhv", "--preset", "bell_phi_minus")
        assert exc.value.code == 2


class TestWernerScanCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run_inprocess(
            capsys, "werner-scan", "--n", "2", "--grid", "5", "--restarts", "2"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "V,info_sum,bell_lhs,bell_ratio,info_entangled,bell_violated"
        assert len(lines) == 6

    def test_json_output(self, capsys):
        code, out, _ = run_inprocess(
            capsys, "werner-scan", "--n", "2", "--grid", "3",
            "--restarts", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n_qubits"] == 2
        assert len(doc["rows"]) == 3


class TestAnalyzeCommand:
    def test_combined_report(self, capsys):
        code, out, _ = run_inprocess(
            capsys, "analyze", "--preset", "product_plus_x_minus_x", "--restarts", "4"
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) >= {"n_qubits", "purity", "tensor", "info", "bell", "lhv"}
        # classically composed state: no entanglement flag, no violation,
        # and the local model at the found settings reproduces the table
        assert doc["info"]["entangled"] is False
        assert doc["bell"]["violated"] is False
        assert doc["lhv"]["refused"] is False
        assert doc["lhv"]["verify_max_abs_error"] <= 1e-10

    def test_werner_section_present(self, capsys):
        code, out, _ = run_inprocess(
            capsys, "analyze", "--preset", "werner_ghz", "--n", "2",
            "--visibility", "0.5", "--restarts", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["werner"]["lr_describable"] is True
        assert doc["info"]["entangled"] is False
        assert doc["bell"]["violated"] is False

    @pytest.mark.parametrize(
        "kind, n, v",
        [
            ("ghz", 2, None),
            ("ghz", 3, None),
            ("bell_phi_minus", 2, None),
            ("product_plus_x_minus_x", 2, None),
            ("maximally_mixed", 2, None),
            ("product_all_plus_x", 3, None),
            ("werner_ghz", 2, 0.5),
            ("werner_ghz", 2, 0.8),
            ("werner_ghz", 3, 0.5),
            ("werner_ghz", 3, 0.8),
            ("werner_ghz", 1, 0.5),
            ("werner_ghz", 1, 1.0),
        ],
    )
    def test_preset_file_matches_preset_flag(self, tmp_path, capsys, kind, n, v):
        body = {"kind": kind, "n_qubits": n}
        flags = ["--preset", kind, "--n", str(n)]
        if v is not None:
            body["visibility"] = v
            flags += ["--visibility", repr(v)]
        path = tmp_path / "preset.json"
        path.write_text(json.dumps({"preset": body}))
        for command, extra in (("tensor", []), ("info", ["--restarts", "2"]),
                               ("bell", ["--restarts", "2"]), ("analyze", ["--restarts", "2"])):
            by_flag = run_inprocess(capsys, command, *flags, *extra)
            by_file = run_inprocess(capsys, command, "-i", str(path), *extra)
            assert by_flag[0] == 0
            assert by_file == by_flag
            if command == "analyze":
                assert ("werner" in json.loads(by_file[1])) == (kind == "werner_ghz")

    @pytest.mark.parametrize("n", range(1, 7))
    def test_real_vector_file_as_complex_projector(self, tmp_path, capsys, n):
        # a vector file with real amplitudes (zeros and -0.0 imaginary parts
        # among them) holds a float64 projector, and prints the bytes that a
        # matrix file of the same projector, written as complex pairs, prints
        rng = np.random.default_rng(n)
        a = rng.standard_normal(2**n)
        a[rng.random(2**n) < 0.25] = 0.0
        a /= np.linalg.norm(a)
        imag = np.where(rng.random(2**n) < 0.5, -0.0, 0.0)
        pairs = np.stack([a, imag], axis=1).tolist()
        vector = tmp_path / "vector.json"
        vector.write_text(json.dumps({"vector": {"n_qubits": n, "amplitudes": pairs}}))
        dm = read_state_file(vector.read_bytes())[0]
        assert dm.matrix.dtype == np.float64
        matrix = tmp_path / "matrix.json"
        matrix.write_text(serialize_state(dm))
        assert read_state_file(matrix.read_bytes())[0].matrix.tobytes() == dm.matrix.tobytes()
        outputs = []
        for path in (vector, matrix):
            commands = [["tensor", "-i", str(path)], ["analyze", "-i", str(path), "--restarts", "0"]]
            outputs.append([run_inprocess(capsys, *argv) for argv in commands])
        assert outputs[0] == outputs[1]
        assert all(code == 0 for code, _, _ in outputs[0])

    def test_single_qubit_werner_section(self, capsys):
        code, out, _ = run_inprocess(
            capsys, "analyze", "--preset", "werner_ghz", "--n", "1", "--visibility", "0.5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["werner"]["threshold"] == 1.0
        assert doc["werner"]["info_sum"] == 0.25
        assert doc["werner"]["lr_describable"] is True
        assert doc["bell"]["ratio"] == pytest.approx(0.5, abs=1e-12)

    def test_info_not_entangled_implies_no_bell_violation(self, capsys):
        for preset, extra in [
            ("maximally_mixed", ["--n", "2"]),
            ("product_all_plus_x", ["--n", "3"]),
        ]:
            code, out, _ = run_inprocess(
                capsys, "analyze", "--preset", preset, *extra, "--restarts", "4"
            )
            assert code == 0
            doc = json.loads(out)
            if not doc["info"]["entangled"]:
                assert not doc["bell"]["violated"]


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, _, _ = run_inprocess(capsys, "tensor", "--preset", "ghz", "--n", "2")
        assert code == 0

    def test_unknown_preset_is_two(self, capsys):
        code, _, err = run_inprocess(capsys, "tensor", "--preset", "nope", "--n", "2")
        assert code == 2

    def test_conflicting_inputs_is_two(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text('{"preset":{"kind":"ghz","n_qubits":2}}')
        code, _, _ = run_inprocess(
            capsys, "tensor", "-i", str(path), "--preset", "ghz", "--n", "2"
        )
        assert code == 2

    def test_negative_restarts_is_two(self, capsys):
        code, _, err = run_inprocess(
            capsys, "info", "--preset", "bell_phi_minus", "--restarts", "-1"
        )
        assert code == 2
        assert "restarts" in err

    def test_zero_qubits_is_two(self, capsys):
        # --n 0 is a given qubit count, not an absent one
        for preset in ("bell_phi_minus", "ghz"):
            code, out, err = run_inprocess(capsys, "tensor", "--preset", preset, "--n", "0")
            assert (code, out) == (2, "")
            assert "positive integer" in err

    def test_negative_seed_is_two(self, tmp_path, capsys):
        # rejected whether or not the search would reach a random start
        path = tmp_path / "state.json"
        path.write_text(serialize_state(random_density_matrix(np.random.default_rng(5), 3)))
        for state in (["--preset", "ghz", "--n", "2"], ["-i", str(path)]):
            code, out, err = run_inprocess(capsys, "info", *state, "--seed", "-1")
            assert (code, out) == (2, "")
            assert err.startswith("error: seed must be nonnegative")

    def test_single_qubit_scan_is_closed_form(self, capsys):
        code, out, _ = run_inprocess(capsys, "werner-scan", "--n", "1", "--grid", "3")
        assert code == 0
        assert out.splitlines() == [
            "V,info_sum,bell_lhs,bell_ratio,info_entangled,bell_violated",
            "0,0,0,0,false,false",
            "0.5,0.25,1,0.5,false,false",
            "1,1,2,1,false,false",
        ]
        code, _, err = run_inprocess(capsys, "werner-scan", "--n", "0")
        assert code == 2
        assert "positive integer" in err

    def test_import_leaves_scipy_unloaded(self):
        res = subprocess.run(
            [sys.executable, "-c", "import sys; from entcrit import *; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
            timeout=120,
            env=CHILD_ENV,
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_nan_settings_is_two(self, tmp_path, capsys):
        # json accepts NaN, which must not pass the unit-vector check; strings,
        # lists and booleans are not numbers
        path = tmp_path / "settings.json"
        for n1 in ("[NaN, 0, 0]", '["abc", 0, 0]', "[[1], 0, 0]", '["1", false, 0]'):
            path.write_text(
                f'{{"pairs": [{{"n1": {n1}, "n2": [0, 1, 0]}}, {{"n1": [1, 0, 0], "n2": [0, 1, 0]}}]}}'
            )
            for command in ("bell", "lhv"):
                code, out, err = run_inprocess(
                    capsys, command, "--preset", "bell_phi_minus", "--settings", str(path)
                )
                assert code == 2
                assert out == ""
                assert err.startswith("error:")

    @pytest.mark.parametrize("name", ["missing/x.json", "a_directory"],
                             ids=["missing_parent", "directory"])
    def test_unwritable_out_is_two(self, tmp_path, capsys, name):
        (tmp_path / "a_directory").mkdir()
        code, out, err = run_inprocess(
            capsys, "tensor", "--preset", "ghz", "--n", "2", "--out", str(tmp_path / name)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write")
        assert [p.name for p in tmp_path.rglob("*")] == ["a_directory"]

    def test_internal_error_is_one(self, capsys, monkeypatch):
        # any exception that is not an InputError is a fault of the program
        def fail(args):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setitem(cli._DISPATCH, "tensor", fail)
        code, out, err = run_inprocess(capsys, "tensor", "--preset", "ghz", "--n", "2")
        assert (code, out, err) == (1, "", "internal error: division by zero\n")

    def test_subprocess_entry_point(self):
        res = run_cli("tensor", "--preset", "maximally_mixed", "--n", "1")
        assert res.returncode == 0
        assert json.loads(res.stdout)["entries"] == [1.0, 0.0, 0.0, 0.0]


class TestCachedParser:
    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_in_process_sequence_matches_fresh_processes(self, capsys, monkeypatch):
        # argparse wraps its usage text at $COLUMNS; pin it on both sides
        monkeypatch.setenv("COLUMNS", "80")
        analyze = ["analyze", "--preset", "werner_ghz", "--n", "3", "--visibility", "0.6",
                   "--restarts", "2"]
        sequence = [
            analyze,
            ["analyze", "--preset", "ghz", "--n", "two"],  # argparse error
            ["analyze", "--preset", "ghz"],  # InputError: the preset needs --n
            ["werner-scan", "--n", "2", "--grid", "5", "--format", "csv"],
            analyze,
        ]
        for argv in sequence:
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            captured = capsys.readouterr()
            fresh = run_cli(*argv, env={**CHILD_ENV, "COLUMNS": "80"})
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv
        assert code == 0


def _count_calls(monkeypatch, module, name) -> list:
    """Wrap module.<name> wherever entcrit binds it; the list collects each
    call's first argument."""
    calls = []
    original = getattr(module, name)

    def counted(first, *rest):
        calls.append(first)
        return original(first, *rest)

    for key, bound in list(sys.modules.items()):
        if key.startswith("entcrit") and getattr(bound, name, None) is original:
            monkeypatch.setattr(bound, name, counted)
    return calls


class TestSignedSumsOncePerSection:
    def test_lhv_command_forms_b_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "settings.json"
        path.write_text(json.dumps({"pairs": [{"n1": [1, 0, 0], "n2": [0, 1, 0]}] * 4}))
        tables = _count_calls(monkeypatch, bell, "correlation_table")
        calls = _count_calls(monkeypatch, bell, "signed_sums")
        code, out, _ = run_inprocess(
            capsys, "lhv", "--preset", "werner_ghz", "--n", "4", "--visibility", "0.3",
            "--settings", str(path),
        )
        assert code == 0 and json.loads(out)["refused"] is False
        assert [t.n_qubits for t in calls] == [4] and len(tables) == 1

    def test_analyze_forms_b_once_per_section(self, capsys, monkeypatch):
        tables = _count_calls(monkeypatch, bell, "correlation_table")
        calls = _count_calls(monkeypatch, bell, "signed_sums")
        code, out, _ = run_inprocess(
            capsys, "analyze", "--preset", "ghz", "--n", "3", "--restarts", "2"
        )
        assert code == 0 and json.loads(out)["lhv"]["refused"] is True
        # the bell and local-model sections read one evaluation at the found settings
        assert [t.n_qubits for t in calls] == [3]
        assert [t.n_qubits for t in tables] == [3]


def _count_builds(monkeypatch, cls, name) -> list:
    """Replace the cached property cls.<name> by one that lists the instance
    of each build."""
    builds = []
    build = cls.__dict__[name].func

    def counted(self):
        builds.append(self)
        return build(self)

    prop = functools.cached_property(counted)
    prop.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, prop)
    return builds


class TestModeGramsOncePerRun:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_analyze_builds_and_solves_the_stack_once(self, capsys, monkeypatch, n):
        builds = _count_builds(monkeypatch, CorrelationTensor, "mode_grams")
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a, *rest, **kw):
            shapes.append(np.shape(a))
            return eigvalsh(a, *rest, **kw)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        code, _, _ = run_inprocess(
            capsys, "analyze", "--preset", "werner_ghz", "--n", str(n), "--visibility", "0.6",
            "--restarts", "2",
        )
        # both searches read the ceiling; the werner section builds no tensor
        assert code == 0
        assert [t.n_qubits for t in builds] == [n]
        assert shapes == [(n, 3, 3)]


class TestOneLocalModelConstructor:
    """The CLI builds a model from the evaluation it reports, only when that
    evaluation is not refused; it never calls `construct_lhv`."""

    def test_one_construct_per_lhv_run(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "settings.json"
        # CHSH settings for the x/y correlations of the N=2 GHZ state
        r = np.sqrt(0.5)
        path.write_text(json.dumps({"pairs": [
            {"n1": [1, 0, 0], "n2": [0, 1, 0]}, {"n1": [r, -r, 0], "n2": [r, r, 0]}
        ]}))
        models = _count_calls(monkeypatch, lhv, "LhvModel")
        constructs = _count_calls(monkeypatch, lhv, "construct_lhv")
        for state, refused in (
            (["--preset", "werner_ghz", "--n", "2", "--visibility", "0.3"], False),
            (["--preset", "ghz", "--n", "2"], True),
        ):
            models.clear()
            code, out, _ = run_inprocess(capsys, "lhv", *state, "--settings", str(path))
            assert code == 0 and json.loads(out)["refused"] is refused
            assert [ev.table.n_qubits for ev in models] == ([] if refused else [2])
        assert constructs == []

    def test_one_construct_per_analyze_run(self, capsys, monkeypatch):
        models = _count_calls(monkeypatch, lhv, "LhvModel")
        constructs = _count_calls(monkeypatch, lhv, "construct_lhv")
        for state, refused in (
            (["--preset", "werner_ghz", "--n", "3", "--visibility", "0.3"], False),
            (["--preset", "ghz", "--n", "3"], True),
        ):
            models.clear()
            code, out, _ = run_inprocess(capsys, "analyze", *state, "--restarts", "2")
            assert code == 0 and json.loads(out)["lhv"]["refused"] is refused
            assert [ev.table.n_qubits for ev in models] == ([] if refused else [3])
        assert constructs == []

    def test_section_lhs_bitwise_equal_to_master_sum(self):
        rng = np.random.default_rng(20261018)
        for n in range(1, 9):
            vals = rng.uniform(-1.0, 1.0, (2,) * n)
            lhs = bell.general_bell_lhs(CorrelationTable(n, vals)).lhs_general
            # deep inside, at the edge, inside and past the decision
            # tolerance, and outside the bound
            cs = (1 - 1e-9, 1 + 5e-11, 1 + 5e-9, 1.5)
            scales = [2.0 ** (-n / 2)] + [c * 2.0**n / lhs for c in cs]
            seen = set()
            for scale in scales:
                if scale > 1.0:
                    continue
                table = CorrelationTable(n, vals * scale)
                evaluation = bell.general_bell_lhs(table)
                section = cli._lhv_section(evaluation)
                assert type(section["lhs"]) is float
                assert section["lhs"] == evaluation.lhs_general, (n, scale)
                assert section["bound"] == evaluation.bound
                seen.add(section["refused"])
                if not section["refused"]:
                    # the class masses sum to lhs / 2^N bit for bit
                    model = lhv.LhvModel(evaluation)
                    assert model.weights.sum() == model.total_atom_mass(), (n, scale)
                    assert model.noise_weight == max(0.0, 1.0 - model.weights.sum())
                    realized = lhv.lhv_correlation_table(model).values
                    assert np.all(realized == signed_mass_table(model)), (n, scale)
            assert seen == ({False} if n == 1 else {False, True}), n

    def test_edge_lhv_command_matches_analyze(self, tmp_path, capsys):
        # at the settings analyze found, lhv refuses exactly when analyze's
        # Bell search reports a violation
        path = tmp_path / "settings.json"
        for v, past in EDGE_VISIBILITIES:
            state = ["--preset", "werner_ghz", "--n", "2", "--visibility", v]
            code, out, _ = run_inprocess(capsys, "analyze", *state)
            assert code == 0
            doc = json.loads(out)
            path.write_text(json.dumps({"pairs": doc["bell"]["settings"]}))
            code, out, _ = run_inprocess(capsys, "lhv", *state, "--settings", str(path))
            assert code == 0
            section = json.loads(out)
            assert section["refused"] is doc["bell"]["violated"] is past
            assert section["lhs"] == doc["lhv"]["lhs"] == doc["bell"]["lhs"]
            assert section["bound"] == 4.0


class TestOneBellEvaluation:
    """An analyze report's lhv section is the local model at the settings its
    bell section reports, the same section `lhv --settings` prints there."""

    @staticmethod
    def _states(tmp_path):
        for kind in ("ghz", "werner_ghz", "maximally_mixed", "product_all_plus_x"):
            for n in range(1, 6):
                yield ["--preset", kind, "--n", str(n)] + (
                    ["--visibility", "0.6"] if kind == "werner_ghz" else []
                )
        yield ["--preset", "bell_phi_minus"]
        yield ["--preset", "product_plus_x_minus_x"]
        rng = np.random.default_rng(19)
        for n in (2, 2, 3, 3, 4):
            path = tmp_path / "generic.json"
            path.write_text(serialize_state(random_density_matrix(rng, n)))
            yield ["-i", str(path)]

    def test_lhv_section_reads_the_bell_section(self, tmp_path, capsys):
        path = tmp_path / "settings.json"
        refused = set()
        for state in self._states(tmp_path):
            code, out, _ = run_inprocess(capsys, "analyze", *state, "--restarts", "2")
            assert code == 0, state
            doc = json.loads(out)
            bell_section, lhv_section = doc["bell"], doc["lhv"]
            assert lhv_section["lhs"] == bell_section["lhs"], state
            assert lhv_section["bound"] == bell_section["bound"], state
            assert lhv_section["refused"] is bell_section["violated"], state
            refused.add(lhv_section["refused"])
            path.write_text(json.dumps({"pairs": bell_section["settings"]}))
            code, out, _ = run_inprocess(capsys, "lhv", *state, "--settings", str(path))
            assert code == 0, state
            assert json.loads(out) == {**lhv_section, "settings": bell_section["settings"]}, state
        assert refused == {False, True}


def run_parsed(capsys, *args):
    """Like run_inprocess, but an argparse exit counts as the exit code."""
    try:
        code = main(list(args))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


STATE_OPTIONS = ["--input", "--preset", "--n", "--visibility"]
SEARCH_OPTIONS = ["--seed", "--restarts"]
EXPECTED_OPTIONS = {
    "tensor": [*STATE_OPTIONS, "--out"],
    "info": [*STATE_OPTIONS, *SEARCH_OPTIONS, "--out"],
    "bell": [*STATE_OPTIONS, *SEARCH_OPTIONS, "--settings", "--out"],
    "lhv": [*STATE_OPTIONS, "--settings", "--out"],
    "werner-scan": ["--n", "--grid", *SEARCH_OPTIONS, "--format", "--out"],
    "analyze": [*STATE_OPTIONS, *SEARCH_OPTIONS, "--out"],
}


class TestFlagsThatAct:
    def test_option_table(self):
        # each command lists exactly the flags that act on it
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        table = {
            name: [a.option_strings[-1] for a in sp._actions if a.dest != "help"]
            for name, sp in sub.choices.items()
        }
        assert table == EXPECTED_OPTIONS
        assert sum(map(len, table.values())) == 39

    def test_refused_combinations_exit_2(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text('{"preset":{"kind":"ghz","n_qubits":2}}')
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"pairs": [{"n1": [1, 0, 0], "n2": [0, 1, 0]}] * 2}))
        ghz = ["--preset", "ghz", "--n", "2"]
        refused = [
            ["tensor", *ghz, "--seed", "3"],
            ["lhv", *ghz, "--settings", str(settings), "--seed", "0"],
            ["lhv", *ghz, "--settings", str(settings), "--restarts", "2"],
            *([command, *ghz, "--format", fmt] for command in ("tensor", "info", "bell", "analyze")
              for fmt in ("json", "csv")),
            ["lhv", *ghz, "--settings", str(settings), "--format", "json"],
            ["tensor", "-i", str(state), "--n", "2"],
            ["info", "-i", str(state), "--visibility", "0.5"],
            ["analyze", "-i", str(state), "--n", "2", "--visibility", "0.5"],
            ["bell", *ghz, "--settings", str(settings), "--seed", "3"],
            ["bell", *ghz, "--settings", str(settings), "--seed", "0"],
            ["bell", *ghz, "--settings", str(settings), "--restarts", "2"],
            # the lhv section is at the bell section's settings; lhv --settings takes others
            ["analyze", *ghz, "--settings", str(settings)],
        ]
        for argv in refused:
            code, out, err = run_parsed(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.strip(), argv

    def test_input_and_preset_message_unchanged(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text('{"preset":{"kind":"ghz","n_qubits":2}}')
        code, out, err = run_parsed(capsys, "tensor", "-i", str(state), "--preset", "ghz", "--n", "2")
        assert (code, out, err) == (2, "", "error: give either --input or --preset, not both\n")

    def test_search_flags_still_accepted(self, capsys):
        accepted = [
            ["analyze", "--preset", "ghz", "--n", "2", "--seed", "3"],
            ["werner-scan", "--n", "2", "--grid", "3", "--seed", "3"],
            ["werner-scan", "--n", "2", "--grid", "3", "--format", "json", "--restarts", "2"],
        ]
        for argv in accepted:
            code, out, _ = run_parsed(capsys, *argv)
            assert code == 0 and out, argv

    def test_seed_zero_is_the_default(self, capsys):
        plain = run_parsed(capsys, "info", "--preset", "ghz", "--n", "3", "--restarts", "2")
        seeded = run_parsed(capsys, "info", "--preset", "ghz", "--n", "3", "--restarts", "2",
                            "--seed", "0")
        assert plain == seeded and plain[0] == 0


def _exits_2_with(capsys, argv, message):
    code, out, err = run_inprocess(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n"), argv


class TestInputErrorMessages:
    """Each malformed-input branch has its own message, raised by the parser
    and printed by the CLI after `error:` with exit code 2."""

    @pytest.mark.parametrize("doc, message", [
        ([], "settings file must be an object with a 'pairs' list"),
        ({"pairs": [{"n1": [1, 0, 0], "n2": [0, 1, 0]}, {"n1": [1, 0, 0]}]},
         "pairs[1] must have 'n1' and 'n2' vectors"),
        ({"pairs": [{"n1": [1, 0, 0], "n2": [0, 1]}] * 2}, "pairs[0].n2 must be a 3-vector"),
    ])
    def test_settings_file(self, tmp_path, capsys, doc, message):
        with pytest.raises(StateFormatError) as e:
            bell.parse_settings_file(json.dumps(doc), 2)
        assert str(e.value) == message
        path = tmp_path / "settings.json"
        path.write_text(json.dumps(doc))
        for command in ("lhv", "bell"):
            _exits_2_with(
                capsys, [command, "--preset", "bell_phi_minus", "--settings", str(path)], message
            )

    @pytest.mark.parametrize("doc, message", [
        ([], "top level of a state file must be a JSON object"),
        ({"matrix": []}, "'matrix' must be a JSON object"),
        # every JSON number reads as a double, so an integer literal prints as one
        ({"preset": {"kind": 3, "n_qubits": 2}}, "preset.kind: expected a string, got 3.0"),
        ({"matrix": {"n_qubits": "2", "entries": []}},
         "matrix.n_qubits: expected an integer, got '2'"),
    ])
    def test_state_file(self, tmp_path, capsys, doc, message):
        with pytest.raises(StateFormatError) as e:
            read_state_file(json.dumps(doc))
        assert str(e.value) == message
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        _exits_2_with(capsys, ["tensor", "-i", str(path)], message)

    @pytest.mark.parametrize("raw, state_message, settings_message", [
        (b"\x80", *["input is not UTF-8: invalid start byte at byte 0"] * 2),
        (b"[" * 100_000, *["JSON parse error: arrays and objects nested too deeply"] * 2),
        (b'{"pairs":\n  [' + b"9" * 5_000 + b"]}",
         "state file must have exactly one of 'matrix', 'vector', 'preset'; found none",
         "settings file must list 2 pairs, got 1"),
    ], ids=["not-utf8", "too-deep", "long-integer"])
    def test_undecodable_file(self, tmp_path, capsys, raw, state_message, settings_message):
        # bytes that are not UTF-8 and nesting past the recursion limit, as a
        # state and a settings file; an integer past Python's digit limit
        # decodes (as inf), so each reader's own check decides
        path = tmp_path / "doc.json"
        path.write_bytes(raw)
        _exits_2_with(capsys, ["tensor", "-i", str(path)], state_message)
        _exits_2_with(
            capsys, ["lhv", "--preset", "bell_phi_minus", "--settings", str(path)],
            settings_message,
        )

    @pytest.mark.parametrize("doc, message", [
        ({"matrix": {"n_qubits": 1, "entries": [[[0, 0], [0, 0]], [[0, 0], [0, 10**400]]]}},
         "matrix entries must be finite"),
        ({"vector": {"n_qubits": 1, "amplitudes": [[10**400, 0], [0, 0]]}},
         "amplitudes must be finite"),
        ({"preset": {"kind": "werner_ghz", "n_qubits": 2, "visibility": -(10**400)}},
         "visibility must lie in [0, 1], got -inf"),
    ], ids=["matrix", "vector", "preset"])
    def test_integer_too_large_for_a_float(self, tmp_path, capsys, doc, message):
        # an integer literal past the double range reads as +-inf, as 1e999
        # does, and meets the check of the field it sits in
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        _exits_2_with(capsys, ["tensor", "-i", str(path)], message)
        pairs = [{"n1": [1, 0, 0], "n2": [0, 1, 0]}, {"n1": [1, 0, 0], "n2": [0, 10**400, 0]}]
        path.write_text(json.dumps({"pairs": pairs}))
        _exits_2_with(
            capsys,
            ["lhv", "--preset", "bell_phi_minus", "--settings", str(path)],
            "settings must be unit vectors (residual inf)",
        )

    def test_integer_literals_read_as_float_literals(self, tmp_path, capsys):
        # 1, 0, -0 (negative zero, as -0.0 is), 2^53 + 1 (a double rounds it
        # to 2^53) and 10^300 written as integer and as float literals, in
        # valid and refused files; settings echo theirs in the report
        one, zero, neg, odd, big = "#1", "#0", "#-0", f"#{2**53 + 1}", f"#{10**300}"

        def matrix(corner):
            return {"matrix": {"n_qubits": "#2", "entries": [
                [[corner if i == j == 0 else (neg if (i + j) % 2 else zero), neg]
                 for j in range(4)] for i in range(4)]}}

        def vector(first):
            amplitudes = [first, [neg, zero], [zero, neg], [neg, neg]]
            return {"vector": {"n_qubits": "#2", "amplitudes": amplitudes}}

        states = [matrix(one), matrix(odd), matrix(big), vector([one, neg]), vector([odd, zero]),
                  {"preset": {"kind": "werner_ghz", "n_qubits": "#2", "visibility": one}},
                  {"preset": {"kind": "werner_ghz", "n_qubits": "#2", "visibility": big}},
                  {"preset": {"kind": "ghz", "n_qubits": odd}}]
        settings = [{"pairs": [{"n1": [one, zero, neg], "n2": [neg, one, zero]},
                               {"n1": [zero, neg, one], "n2": [last, neg, neg]}]}
                    for last in (one, odd, big)]

        def outputs(suffix):
            # each "#<digits>" string becomes an integer literal, or a float one
            for i, doc in enumerate(states + settings):
                text = re.sub(r'"#(-?\d+)"', lambda m: m[1] + suffix, json.dumps(doc))
                (tmp_path / f"{i}.json").write_text(text)
            for i in range(len(states)):
                path = str(tmp_path / f"{i}.json")
                yield run_inprocess(capsys, "analyze", "-i", path, "--restarts", "0")
                for j in range(len(states), len(states) + len(settings)):
                    settings_path = str(tmp_path / f"{j}.json")
                    yield run_inprocess(capsys, "bell", "-i", path, "--settings", settings_path)

        as_integers, as_floats = list(outputs("")), list(outputs(".0"))
        assert as_integers == as_floats
        assert {code for code, _, _ in as_integers} == {0, 2}

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_overflowing_hermitian_part(self, tmp_path, capsys, n):
        # corners of 1e308 overflow (m + m^H)/2 to inf: no eigenvalue to trust;
        # at N=8 the disc certificate, which runs first there, refuses it too
        m = np.diag(np.full(2**n, 2.0**-n))
        m[0, -1] = m[-1, 0] = 1e308
        path = tmp_path / "state.json"
        path.write_text(serialize_state(DensityMatrix(n, m)))
        message = "not a valid density matrix: positive_semidefinite (residual inf)"
        for command in ("tensor", "info", "analyze"):
            _exits_2_with(capsys, [command, "-i", str(path)], message)

    def test_overflow_prints_only_the_error_line(self, tmp_path):
        # the checks decide on inf; a fresh interpreter shows every warning
        m = np.diag([0.5, 0.5])
        m[0, 1] = m[1, 0] = 1e308
        files = {
            "matrix.json": serialize_state(DensityMatrix(1, m)),
            "vector.json": json.dumps({"vector": {"n_qubits": 1, "amplitudes": [[1e308, 0]] * 2}}),
            "settings.json": json.dumps({"pairs": [{"n1": [1e308, 0, 0], "n2": [0, 1, 0]}] * 2}),
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        for argv, message in (
            (["tensor", "-i", "matrix.json"], "not a valid density matrix: positive_semidefinite (residual inf)"),
            (["tensor", "-i", "vector.json"], "state vector is not normalized: |norm^2 - 1| = inf"),
            (["bell", "--preset", "ghz", "--n", "2", "--settings", "settings.json"],
             "settings must be unit vectors (residual inf)"),
        ):
            proc = run_cli(*(str(tmp_path / a) if a in files else a for a in argv))
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n"), argv

    def test_eight_digit_bell_vector(self, tmp_path, capsys):
        # |norm^2 - 1| = 3.4e-9: the reader refuses it, not a later layer
        a = 0.70710678
        path = tmp_path / "state.json"
        pairs = [[a, 0], [0, 0], [0, 0], [a, 0]]
        path.write_text(json.dumps({"vector": {"n_qubits": 2, "amplitudes": pairs}}))
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"pairs": [{"n1": [1, 0, 0], "n2": [0, 1, 0]}] * 2}))
        message = f"state vector is not normalized: |norm^2 - 1| = {abs(2 * a * a - 1.0):.3e}"
        for argv in (["tensor"], ["info"], ["bell"], ["analyze"], ["lhv", "--settings", str(settings)]):
            _exits_2_with(capsys, [*argv, "-i", str(path)], message)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_vectors_inside_the_trace_rule_pass(self, rng, tmp_path, capsys, n):
        # ||psi||^2 = 1 +- 0.9 TRACE_TOL: every layer after the reader accepts
        # what it accepted; the searches run on their warm starts only, and
        # through analyze (which runs all of them) up to N=3
        u = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        u /= np.linalg.norm(u)
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"pairs": [{"n1": [1, 0, 0], "n2": [0, 1, 0]}] * n}))
        commands = [["tensor"], ["info", "--restarts", "0"], ["bell", "--settings", str(settings)],
                    ["lhv", "--settings", str(settings)]]
        if n <= 3:
            commands.append(["analyze", "--restarts", "0"])
        path = tmp_path / "state.json"
        for sign in (1.0, -1.0):
            amps = u * np.sqrt(1.0 + sign * 0.9 * TRACE_TOL)
            pairs = amps.view(float).reshape(-1, 2).tolist()
            path.write_text(json.dumps({"vector": {"n_qubits": n, "amplitudes": pairs}}))
            for argv in commands:
                code, out, err = run_inprocess(capsys, *argv, "-i", str(path))
                assert (code, err) == (0, ""), argv

    @pytest.mark.parametrize("n", [3, 6])
    def test_imaginary_diagonal_inside_hermiticity_tol(self, tmp_path, capsys, n):
        # I/2^N with imaginary diagonal +-0.45 HERMITICITY_TOL in the sign
        # pattern of Z x ... x Z: valid, and its traces' imaginary parts add
        # to 2^N times that on the z...z entry, which the tensor drops
        signs = np.ones(1)
        for _ in range(n):
            signs = np.kron(signs, [1.0, -1.0])
        m = np.diag(np.full(2**n, 2.0**-n) + 0.45j * HERMITICITY_TOL * signs)
        path = tmp_path / "state.json"
        path.write_text(serialize_state(DensityMatrix(n, m)))
        for command in ("tensor", "info", "bell", "analyze"):
            code, out, err = run_inprocess(capsys, command, "-i", str(path))
            assert (code, err) == (0, ""), command

    def test_qubit_cap_refused_before_allocating(self, tmp_path, capsys):
        # one row of a 2^13 x 2^13 complex matrix, 1/8192 of the matrix itself
        row = 2**13 * 16
        message = f"n_qubits=13 exceeds the cap of {MAX_QUBITS}"
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"matrix": {"n_qubits": 13, "entries": []}}))
        for argv in (["tensor", "--preset", "ghz", "--n", "13"], ["tensor", "-i", str(path)]):
            assert traced_peak(main, argv) < row
            capsys.readouterr()
            _exits_2_with(capsys, argv, message)

    def test_huge_qubit_count_printed_bounded(self, tmp_path, capsys):
        # a count past the cap is printed in %g form, not in its 301 digits
        message = f"n_qubits=1e+300 exceeds the cap of {MAX_QUBITS}"
        path = tmp_path / "huge.json"
        path.write_text('{"preset": {"kind": "ghz", "n_qubits": 1e300}}')
        for argv in (["tensor", "--preset", "ghz", "--n", str(10**300)], ["tensor", "-i", str(path)]):
            _exits_2_with(capsys, argv, message)
        # past the float range too, where %g of the int itself would overflow
        message = f"n_qubits=1.5e+400 exceeds the cap of {MAX_QUBITS}"
        _exits_2_with(capsys, ["tensor", "--preset", "ghz", "--n", str(15 * 10**399)], message)

    def test_huge_negative_qubit_count_printed_bounded(self, tmp_path, capsys):
        # a count of magnitude 1e6 or more in %g form; smaller counts and
        # non-integers keep their repr
        path = tmp_path / "negative.json"
        path.write_text('{"preset": {"kind": "ghz", "n_qubits": -1e300}}')
        for argv, shown in (
            (["tensor", "-i", str(path)], "-1e+300"),
            (["tensor", "--preset", "ghz", "--n", str(-(10**40))], "-1e+40"),
            (["tensor", "--preset", "ghz", "--n", str(-(10**400))], "-1e+400"),
            (["tensor", "--preset", "ghz", "--n", "-1000000"], "-1e+06"),
            (["tensor", "--preset", "ghz", "--n", "-999999"], "-999999"),
            (["tensor", "--preset", "ghz", "--n", "0"], "0"),
        ):
            _exits_2_with(capsys, argv, f"n_qubits must be a positive integer, got {shown}")
        for count, shown in ((2.5, "2.5"), ("x", "'x'"), (-2.5e10, "-2.5e+10")):
            with pytest.raises(InputError) as e:
                StatePreset("ghz", count)
            assert str(e.value) == f"n_qubits must be a positive integer, got {shown}"

    def test_unreadable_input(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        with pytest.raises(OSError) as e:
            path.read_bytes()
        _exits_2_with(capsys, ["tensor", "-i", str(path)], f"cannot read {path}: {e.value}")


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**200).map(lambda k: k * (-1) ** (k % 2))
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from(
        [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
         1e308, -1.7976931348623157e308, 0.1, 1.0, True, False, 1, 0, -1, None]
    )
    | st.text()
    | st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "😀", "\ud800", "\u2028", ", "])
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text() | st.sampled_from(['"', "\n", "é", ""]), inner, max_size=5),
    max_leaves=40,
)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(value=_JSON_VALUES)
def test_to_json_is_the_indented_dump(value):
    assert cli._to_json(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [[], {}, [[]], {"": {}}, [True, 1, 1.0, False, 0, 0.0, None], {"a": [[], [[{}]]], "b": ()},
     (1, (2, (3,))), [float("nan"), -0.0, 10**40]],
)
def test_to_json_edge_containers(value):
    assert cli._to_json(value) == json.dumps(value, indent=2) + "\n"


class TestReportsRoundTrip:
    """Every JSON report is its own indented dump: loading and dumping it
    again with indent=2 gives the printed bytes."""

    COMMANDS = [
        ["tensor", "--preset", "ghz", "--n", "3"],
        ["info", "--preset", "werner_ghz", "--n", "3", "--visibility", "0.6", "--restarts", "2"],
        ["bell", "--preset", "ghz", "--n", "2", "--restarts", "2"],
        ["bell", "--preset", "ghz", "--n", "3", "--settings", "{settings}"],
        ["lhv", "--preset", "werner_ghz", "--n", "3", "--visibility", "0.3", "--settings", "{settings}"],
        ["lhv", "--preset", "ghz", "--n", "3", "--settings", "{settings}"],
        ["werner-scan", "--n", "3", "--grid", "11", "--format", "json", "--restarts", "2"],
        ["analyze", "--preset", "werner_ghz", "--n", "3", "--visibility", "0.45", "--restarts", "2"],
        ["analyze", "-i", "{state}", "--restarts", "2"],
    ]

    @staticmethod
    def with_inputs(tmp_path, argv) -> list:
        """argv with each placeholder replaced by the path of a file written for it."""
        files = {
            "{settings}": json.dumps({"pairs": [{"n1": [1, 0, 0], "n2": [0, 1, 0]}] * 3}),
            "{state}": serialize_state(random_density_matrix(np.random.default_rng(5), 2)),
        }
        for i, (name, text) in enumerate(files.items()):
            (tmp_path / f"{i}.json").write_text(text)
        paths = {name: str(tmp_path / f"{i}.json") for i, name in enumerate(files)}
        return [paths.get(a, a) for a in argv]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: " ".join(a[:2]))
    def test_stdout_round_trips(self, tmp_path, capsys, argv):
        code, out, _ = run_inprocess(capsys, *self.with_inputs(tmp_path, argv))
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("fill", ["longer", "shorter"])
    @pytest.mark.parametrize(
        "argv",
        [*COMMANDS, ["werner-scan", "--n", "3", "--grid", "11", "--format", "csv", "--restarts", "2"]],
        ids=lambda a: " ".join(a[:2]),
    )
    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, argv, fill):
        # a longer old file pins the cut to the report's length, a shorter one the overwrite
        argv = self.with_inputs(tmp_path, argv)
        code, out, _ = run_inprocess(capsys, *argv)
        assert code == 0
        target = tmp_path / "report"
        target.write_bytes(b"x" * (2 * len(out) if fill == "longer" else len(out) // 2))
        assert run_inprocess(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == out.encode()


class TestOutFile:
    """`--out` rewrites an existing file in place, so the file keeps its inode,
    its links and its mode, and a regular file is cut to the report's length."""

    ARGV = ["tensor", "--preset", "ghz", "--n", "2"]

    def report(self, capsys) -> bytes:
        code, out, _ = run_inprocess(capsys, *self.ARGV)
        assert code == 0
        return out.encode()

    def write(self, capsys, target) -> None:
        assert run_inprocess(capsys, *self.ARGV, "--out", str(target)) == (0, "", "")

    def test_symlink_is_followed_and_kept(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        target.write_bytes(b"old")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        self.write(capsys, link)
        assert link.is_symlink() and link.readlink() == target
        assert target.read_bytes() == self.report(capsys)

    def test_mode_is_kept(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        target.write_bytes(b"old")
        target.chmod(0o600)
        self.write(capsys, target)
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
        assert target.read_bytes() == self.report(capsys)

    def test_hard_link_sees_the_new_bytes(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        target.write_bytes(b"old" * 10_000)
        other = tmp_path / "other.json"
        os.link(target, other)
        self.write(capsys, target)
        assert other.read_bytes() == self.report(capsys)

    def test_rewrite_never_empties_the_file(self, tmp_path, capsys, monkeypatch):
        # O_TRUNC would empty the file at open, which is what makes ext4 flush
        target = tmp_path / "report.json"
        target.write_bytes(b"old" * 10_000)
        opened = []
        real_open = os.open

        def spy(path, flags, *args, **kwargs):
            fd = real_open(path, flags, *args, **kwargs)
            opened.append((path, flags & os.O_TRUNC, os.fstat(fd).st_size))
            return fd

        monkeypatch.setattr(os, "open", spy)
        self.write(capsys, target)
        assert opened == [(str(target), 0, 30_000)]
        assert target.read_bytes() == self.report(capsys)

    @pytest.mark.parametrize("target", ["/dev/null", "/dev/stdout"])
    def test_special_file_gets_the_write_alone(self, capsys, target):
        # no ftruncate on a device or a pipe: it would fail with EINVAL
        res = run_cli(*self.ARGV, "--out", target)
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout.encode() == (self.report(capsys) if target == "/dev/stdout" else b"")
