"""Cold start: `import entcrit` loads no submodule, a CLI command loads only
the modules it runs, and the package namespace still re-exports every name."""

import importlib
import json
import subprocess
import sys

import pytest

import entcrit
from conftest import CHILD_ENV

#: The package's re-exports, by the submodule that defines them.
EXPORTS = {
    "bell": [
        "BellEvaluation", "CorrelationTable", "SettingsPair", "SignFunction",
        "belinskii_klyshko_sign_function", "belinskii_klyshko_value", "correlation_table",
        "general_bell_lhs", "maximize_general_bell", "maximize_sign_function_value",
        "sign_function_inequality",
    ],
    "info": ["CorrInfoResult", "CriterionVerdict", "corr_info", "maximize_corr_info",
             "two_qubit_info_criterion"],
    "lhv": ["BellBoundError", "LhvModel", "construct_lhv", "verify_lhv"],
    "pauli": ["CorrelationTensor", "LocalFrame", "correlation_tensor", "density_from_tensor",
              "plane_subtensor", "rotate_frame_in_plane"],
    "search": ["OptimizerOptions"],
    "states": ["DensityMatrix", "InputError", "StatePreset", "StateVector", "build_preset",
               "from_state_vector", "parse_state_file", "serialize_state",
               "validate_density_matrix"],
    "werner": ["WernerAnalysis", "analyze_werner", "count_nonzero_inplane", "visibility_scan",
               "visibility_threshold", "werner_inplane_tensor"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def _loaded(*args) -> set:
    """The entcrit and numpy modules a fresh interpreter run with `args`
    imports, read off its -X importtime log."""
    res = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                         text=True, timeout=120, env=CHILD_ENV)
    assert res.returncode == 0, res.stderr
    names = {line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines()
             if line.startswith("import time:")}
    return {m for m in names if m.split(".")[0] in ("entcrit", "numpy")}


def test_bare_import_loads_no_submodule_and_no_numpy():
    assert _loaded("-c", "import entcrit") == {"entcrit"}


def test_tensor_loads_only_states_and_pauli():
    loaded = _loaded("-m", "entcrit", "tensor", "--preset", "ghz", "--n", "2")
    assert {m for m in loaded if m.startswith("entcrit")} == {
        "entcrit", "entcrit.cli", "entcrit.states", "entcrit.pauli"
    }


def test_lhv_with_settings_leaves_werner_unloaded(tmp_path):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps({"pairs": [{"n1": [1, 0, 0], "n2": [0, 1, 0]}] * 2}))
    loaded = _loaded("-m", "entcrit", "lhv", "--preset", "ghz", "--n", "2",
                     "--settings", str(path))
    assert "entcrit.lhv" in loaded and "entcrit.werner" not in loaded


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_names_resolve_to_their_module(module):
    owner = importlib.import_module(f"entcrit.{module}")
    assert getattr(entcrit, module) is owner
    for name in EXPORTS[module]:
        assert getattr(entcrit, name) is getattr(owner, name), name


def test_namespace_lists_and_star_imports_the_same_names():
    assert len(NAMES) == len(set(NAMES)) == 42
    assert set(NAMES) | set(EXPORTS) <= set(dir(entcrit))
    bound = {}
    exec("from entcrit import *", bound)
    assert set(bound) - {"__builtins__"} == set(NAMES) | set(EXPORTS)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'plane_info_total'"):
        entcrit.plane_info_total  # noqa: B018
