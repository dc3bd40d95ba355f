"""berglab: capacities, perfectness conditions, and Bergman bounds on planar domains."""

from .asymptotics import MODELS, AsymptoticFit, fit_model, linear_fit_r2, select_model
from .bergman import (
    GramSystem,
    KernelEstimate,
    MetricEstimate,
    assemble_gram,
    band_increments,
    cauchy_transform_norm_check,
    default_basis,
    distance_profile,
    equilibrium_witness_bound,
    subspace_kernel,
    subspace_metric,
    witness_kernel_bound,
    witness_metric_bound,
)
from .capacity import (
    CapacityEstimate,
    EquilibriumSolution,
    WeightedPointSet,
    cantor_capacity_bound,
    cantor_transfinite_estimate,
    capacity_via_transfinite,
    circle_nodes,
    energy,
    equilibrium_measure,
    nth_diameter,
    potential,
    scaling_law_check,
    segment_nodes,
    subadditivity_check,
)
from .domains import (
    CantorSet,
    CircleDomain,
    IntervalUnion,
    ScaleFunction,
    ZalcmanDomain,
    build_cantor,
    build_cantor_table,
    build_zalcman,
    domain_from_json,
    scale_inverse_check,
)
from .perfectness import (
    AnnulusTestReport,
    PommerenkeCertificate,
    annulus_condition,
    best_constant_profile,
    cantor_U_check,
    classify_weak_perfectness,
    condition_C_probe,
    pommerenke_construct,
    uc_report,
)
from .quadrature import RationalFunction, boundary_gram, mc_integral

__version__ = "0.1.0"
