"""Entanglement criteria for N-qubit states.

Two independent, cross-validating analyses of an arbitrary N-qubit density
matrix: the information carried by in-plane correlations (more than one bit
certifies entanglement) and the general two-setting correlation Bell
inequality with bound 2^N, together with an explicit local-hidden-variable
model whenever that bound holds.
"""

from .bell import (
    BellEvaluation,
    CorrelationTable,
    SettingsPair,
    SignFunction,
    belinskii_klyshko_sign_function,
    belinskii_klyshko_value,
    correlation_table,
    general_bell_lhs,
    maximize_general_bell,
    maximize_sign_function_value,
    sign_function_inequality,
)
from .info import (
    CorrInfoResult,
    CriterionVerdict,
    corr_info,
    maximize_corr_info,
    two_qubit_info_criterion,
)
from .lhv import (
    BellBoundError,
    LhvModel,
    construct_lhv,
    verify_lhv,
)
from .pauli import (
    CorrelationTensor,
    LocalFrame,
    correlation_tensor,
    density_from_tensor,
    plane_subtensor,
    rotate_frame_in_plane,
)
from .search import OptimizerOptions
from .states import (
    DensityMatrix,
    InputError,
    StatePreset,
    StateVector,
    build_preset,
    from_state_vector,
    parse_state_file,
    serialize_state,
    validate_density_matrix,
)
from .werner import (
    WernerAnalysis,
    analyze_werner,
    count_nonzero_inplane,
    visibility_scan,
    visibility_threshold,
    werner_inplane_tensor,
)

__version__ = "0.1.0"
