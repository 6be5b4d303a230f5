"""sparsepr: uniqueness certification and exact l0 recovery for sparse
phase retrieval from magnitude-only measurements, at desk scale."""

from .model import (
    Field,
    MeasurementEnsemble,
    MeasurementVector,
    PhasePattern,
    Provenance,
    SparseVector,
    as_measurement,
    generate_ensemble,
    measure,
    phase_equivalent,
    read_matrix,
    read_measurements,
    read_sparse_vector,
    write_matrix,
    write_measurements,
    write_sparse_vector,
)
from .numerics import (
    RankDecision,
    hermitian_top_eig,
    null_space_vector,
    numerical_rank,
)
from .distance import (
    CertificationReport,
    DistanceReport,
    SparkReport,
    Witness,
    certify_unique,
    phase_gen_min_distance,
    spark_at_least,
    witness_rank,
)
from .solver_real import (
    SearchStats,
    SolutionSet,
    feasible_classes,
    solve_l0_real,
)
from .solver_complex import (
    CollisionProbe,
    GaussNewtonResult,
    collision_probe_complex,
    column_magnitude_collision_1sparse,
    refine_gauss_newton,
    solve_l0_complex,
)
from .experiments import (
    BidirectionalReport,
    SweepConfig,
    SweepResult,
    SweepRow,
    build_collision_real,
    draw_sparse_signal,
    emit_results,
    bidirectional_uniqueness_check,
    run_sweep,
)

__version__ = "0.1.0"
