"""netlasso: clustered graph-signal recovery with flow-based certificates.

Learns graph signals from few noisy node samples by solving a TV-regularized
l1 regression, exactly by parametric min cut or by the paper's ADMM, and
certifies recoverability of a (sampling set, partition) pair through a
flow-feasibility compatibility condition.
"""

from .certify import (
    SupportConditionResult,
    NccCertificate,
    NccQuery,
    ErrorBoundReport,
    check_support_condition,
    check_ncc,
    recovery_error_bound,
    verify_ncc_cut,
    verify_ncc_witnesses,
    verify_error_bound,
)
from .errors import NetlassoError
from .flow import (
    CutCertificate,
    DemandSpec,
    DemandWitness,
    feasible_flow,
    verify_cut_certificate,
    verify_demand_witness,
)
from .generate import (
    NoiseConfig,
    PlantedPartitionConfig,
    generate_planted_partition,
    noise_field,
    observe,
    paper_like_config,
)
from .graphs import (
    Graph,
    Observations,
    OrientedEdge,
    Partition,
    as_signal,
    boundary,
    clustered_signal,
    tv,
    validate_graph,
)
from .sampling import sample_boundary_aware, sample_uniform
from .solver import (
    ExactResult,
    SolverConfig,
    SolverResult,
    empirical_error,
    objective,
    solve_admm,
    solve_exact,
    solve_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "CutCertificate",
    "DemandSpec",
    "DemandWitness",
    "Graph",
    "SupportConditionResult",
    "NccCertificate",
    "NccQuery",
    "NetlassoError",
    "NoiseConfig",
    "Observations",
    "OrientedEdge",
    "Partition",
    "PlantedPartitionConfig",
    "SolverConfig",
    "SolverResult",
    "ErrorBoundReport",
    "ExactResult",
    "as_signal",
    "boundary",
    "check_support_condition",
    "check_ncc",
    "clustered_signal",
    "empirical_error",
    "feasible_flow",
    "generate_planted_partition",
    "noise_field",
    "objective",
    "observe",
    "paper_like_config",
    "sample_boundary_aware",
    "sample_uniform",
    "solve_admm",
    "solve_exact",
    "solve_oracle",
    "recovery_error_bound",
    "tv",
    "validate_graph",
    "verify_cut_certificate",
    "verify_demand_witness",
    "verify_ncc_cut",
    "verify_ncc_witnesses",
    "verify_error_bound",
]
