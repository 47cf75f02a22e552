"""Entanglement criteria for N-qubit states.

Two independent, cross-validating analyses of an arbitrary N-qubit density
matrix: the information carried by in-plane correlations (more than one bit
certifies entanglement) and the general two-setting correlation Bell
inequality with bound 2^N, together with an explicit local-hidden-variable
model whenever that bound holds.

The names below are re-exported lazily (PEP 562): a submodule is imported
on the first access to one of its names, so `import entcrit` loads none.
"""

import importlib

_EXPORTS = {
    "bell": "BellEvaluation CorrelationTable SettingsPair SignFunction "
    "belinskii_klyshko_sign_function belinskii_klyshko_value correlation_table "
    "general_bell_lhs maximize_general_bell maximize_sign_function_value "
    "sign_function_inequality",
    "info": "CorrInfoResult CriterionVerdict corr_info maximize_corr_info "
    "two_qubit_info_criterion",
    "lhv": "BellBoundError LhvModel construct_lhv verify_lhv",
    "pauli": "CorrelationTensor LocalFrame correlation_tensor density_from_tensor "
    "plane_subtensor rotate_frame_in_plane",
    "search": "OptimizerOptions",
    "states": "DensityMatrix InputError StatePreset StateVector build_preset "
    "from_state_vector parse_state_file serialize_state validate_density_matrix",
    "werner": "WernerAnalysis analyze_werner count_nonzero_inplane visibility_scan "
    "visibility_threshold werner_inplane_tensor",
}
#: Re-exported name -> the submodule that defines it.
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_ORIGIN, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
