"""Deterministic desk-scale simulator for compressed proximal federated
learning with error feedback and control-variate drift correction."""

from .algorithms import (
    HyperParams,
    RunResult,
    run_centralized_pgd,
    run_fedcef,
    run_prox_fedavg,
)
from .compressors import CompressorSpec, SparsePayload, compress, contraction_factor, payload_bytes
from .core import derive_stream
from .harness import RunConfig, compare_runs, parse_config, run_experiment
from .metrics import (
    MetricsRow,
    MetricsSeries,
    StepConditionReport,
    check_step_conditions,
    lyapunov_diagnostic,
    prox_gradient_mapping,
    theorem_residual_bound,
)
from .problems import (
    FULL,
    FederatedProblem,
    LossKind,
    PartitionSpec,
    dirichlet_partition,
    estimate_smoothness,
    full_global_gradient,
    generate_synthetic,
    objective_value,
    stochastic_gradient,
)
from .regularizers import Regularizer

__all__ = [
    "CompressorSpec",
    "FULL",
    "FederatedProblem",
    "HyperParams",
    "LossKind",
    "MetricsRow",
    "MetricsSeries",
    "PartitionSpec",
    "Regularizer",
    "RunConfig",
    "RunResult",
    "SparsePayload",
    "StepConditionReport",
    "check_step_conditions",
    "compare_runs",
    "compress",
    "contraction_factor",
    "derive_stream",
    "dirichlet_partition",
    "estimate_smoothness",
    "full_global_gradient",
    "generate_synthetic",
    "lyapunov_diagnostic",
    "objective_value",
    "parse_config",
    "payload_bytes",
    "prox_gradient_mapping",
    "run_centralized_pgd",
    "run_experiment",
    "run_fedcef",
    "run_prox_fedavg",
    "stochastic_gradient",
    "theorem_residual_bound",
]
