"""Numerical lab for normalized positive semigroups on finite state spaces.

Computes dominant eigen triples of nonnegative transfer operators, verifies
drift-and-mixing sufficient conditions for geometric convergence of the
normalized semigroup, constructs the sub-Markov tilt and h-transform
conjugations, reverses a measured convergence profile into a drift
certificate, and ships two worked application models (a penalized Gaussian
step map and a killed diffusion) with an independent Monte Carlo oracle.
"""

__version__ = "0.1.0"

from .condition_g import (
    GReport,
    SeriesDivergenceError,
    SmallSetSearchError,
    build_psi2_auto,
    check_condition_g,
    check_g1,
    check_g2,
    check_g3,
    check_g4,
    select_small_set,
)
from .core import (
    Measure,
    NonFiniteError,
    SpaceMismatchError,
    StateSpace,
    SubsetMask,
    TransferOperator,
    WeightedFunction,
    apply,
    orbit,
    restrict_space,
    weighted_norm,
)
from .models import (
    DiffusionModel,
    GridCoverageError,
    McEstimate,
    PdsModel,
    StabilityError,
    build_diffusion_generator,
    build_pds_kernel,
    check_hypotheses,
    girsanov_check,
    mc_feynman_kac,
    run_pds_analysis,
    scalar_field,
    uniformized_exponential,
    vector_field,
)
from .reciprocal import (
    DriftSearchError,
    ReciprocalCertificate,
    ReciprocalInput,
    ZetaConditionError,
    build_v0,
    certify,
    extend_psi1,
    find_drift,
)
from .spectral import (
    ConvergenceReport,
    PowerIterationError,
    SkeletonReport,
    SpectralTriple,
    measure_eq1_eq2,
    measure_eq3,
    power_iterate,
    skeleton_analysis,
)
from .transforms import HTransformRecord, TiltRecord, h_transform, tilt_submarkov
