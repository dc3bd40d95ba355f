"""berglab: capacities, perfectness conditions, and Bergman bounds on planar domains.

Importing berglab before numpy gives its process one OpenBLAS thread, unless
the caller has set OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS.
berglab's dense solves and eigendecompositions are a few hundred unknowns at
most, where more threads only spin, and the last bits of their results
depend on the thread count: one thread makes a config and seed write the
same bytes on any number of cores.
"""

import os as _os
import sys as _sys

# OpenBLAS reads its thread count once, when numpy loads it, and takes an
# empty value for an unset one
if "numpy" not in _sys.modules and not any(
    _os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
del _os, _sys

from .asymptotics import MODELS, AsymptoticFit, fit_model, linear_fit_r2, select_model
from .bergman import (
    GramSystem,
    KernelEstimate,
    MetricEstimate,
    assemble_gram,
    band_increments,
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
    capacity_via_transfinite,
    circle_nodes,
    disk_union_capacity,
    equilibrium_measure,
    nth_diameter,
    segment_nodes,
)
from .domains import (
    CantorSet,
    CircleDomain,
    IntervalUnion,
    ScaleFunction,
    ZalcmanDomain,
    build_cantor,
    build_zalcman,
    domain_from_json,
)
from .perfectness import (
    PommerenkeCertificate,
    best_constant_profile,
    cantor_U_check,
    classify_weak_perfectness,
    condition_C_probe,
    pommerenke_construct,
    uc_report,
)
from .quadrature import RationalFunction, boundary_gram, mc_integral

__version__ = "0.1.0"
