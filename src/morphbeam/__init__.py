"""Joint transmit-covariance and surface-morphing optimization for
multi-target MIMO sensing arrays."""

__version__ = "0.1.0"

from .array_model import (
    ArrayGeometry,
    ResponseMatrix,
    SurfaceShape,
    TargetSet,
    response_matrix,
    steering_matrix,
    steering_vector,
)
from .bcd import (
    BcdConfig,
    BenchmarkResult,
    InitScheme,
    OptimizationTrace,
    OuterRecord,
    Scheme,
    TerminationReason,
    bcd_optimize,
    solve_benchmark,
)
from .beampattern import (
    BeampatternGrid,
    evaluate_beampattern,
    target_powers,
)
from .config import ConfigError, ExperimentConfig, load_config
from .covariance import (
    ConstraintKind,
    CovarianceMatrix,
    SolveReport,
    randomize_rank1,
    rank_profile,
    solve_per_antenna_sdp,
)
from .objective import cumulated_power, shape_gradient
from .results import ResultRecord
from .shape_opt import (
    AscentConfig,
    AscentTrace,
    ascend_shape,
    project_shape,
)

__all__ = [
    "ArrayGeometry",
    "AscentConfig",
    "AscentTrace",
    "BcdConfig",
    "BeampatternGrid",
    "BenchmarkResult",
    "ConfigError",
    "ConstraintKind",
    "CovarianceMatrix",
    "ExperimentConfig",
    "InitScheme",
    "OptimizationTrace",
    "OuterRecord",
    "ResponseMatrix",
    "ResultRecord",
    "Scheme",
    "SolveReport",
    "SurfaceShape",
    "TargetSet",
    "TerminationReason",
    "ascend_shape",
    "bcd_optimize",
    "cumulated_power",
    "evaluate_beampattern",
    "load_config",
    "project_shape",
    "randomize_rank1",
    "rank_profile",
    "response_matrix",
    "shape_gradient",
    "solve_benchmark",
    "solve_per_antenna_sdp",
    "steering_matrix",
    "steering_vector",
    "target_powers",
]
