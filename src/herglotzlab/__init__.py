"""Numerical workbench for holomorphic functions of positive real part on
the complex unit ball: truncated series arithmetic, weighted coefficient
pairings, operator Herglotz transforms, Fock-space norm experiments, PSD
kernel membership tests, and Hardy-scale growth profiling."""

__version__ = "0.1.0"

from .series import (
    DEFAULT_DEGREE,
    TruncatedSeries,
    cayley,
    compose_univariate,
    enumerate_multiindices,
    weight,
)
from .pairing import (
    R_GRID,
    AtomicMeasure,
    HerglotzMeasureFunction,
    QuadratureSpec,
    h2d_inner_integral,
    h2d_inner_series,
    herglotz_of_measure,
    pairing_vs_measure_check,
    qr_pair,
)
from .optuple import (
    HerglotzDatum,
    OperatorTuple,
    commuting_calculus,
    herglotz_kernel,
    herglotz_taylor,
    herglotz_transform,
    is_commuting,
    is_row_contraction,
    is_weak_row_contraction,
    rs_duality_residual,
)
from .fock import (
    FockBasis,
    creation_operators,
    cuntz_state_herglotz,
    cuntz_state_word,
    davidson_pitts,
    davidson_pitts_sweep,
    dshift_operators,
    operator_norm,
)
from .classes import (
    KernelReport,
    PointSet,
    boundary_biased_pointset,
    duality_sweep,
    extreme_h,
    generate_member,
    gram_min_eig,
    kT_test,
    random_pointset,
    sample_duality_pairs,
    schur_test,
    schwarz_probe,
    splus_test,
)
from .growth import GrowthProfile, growth_profile, hp_radial_mean, sphere_sample
