"""
wplab: exact Weil-Petersson volume engine and verification lab.

The exact layer computes psi-class brackets, volume polynomials and all
volume-ratio diagnostics in the graded ring of rational multiples of
integer powers of pi; the lab layer reproduces the supporting estimates
numerically on desk-scale grids.
"""

from .exact import (
    ComparisonError,
    NumInterval,
    PiPoly,
    PiScalar,
    Rat,
    RAT_BACKEND,
    bernoulli,
    coeff_a,
    coeff_b,
    compare,
    eval_numeric,
    rat,
    sign,
    zeta_even,
)
from .brackets import (
    BracketCache,
    bracket,
    c_m,
    cache_load,
    cache_save,
    default_cache,
)
from .volumes import (
    VolumePolynomial,
    cor1_bound_check,
    identity_check,
    lratio_check,
    mz_ratio,
    ratio_R,
    volume,
    volume_at,
    volume_poly,
)
from .topology import (
    PantsPairing,
    SplitPair,
    all_pairings,
    enumerate_splits,
    pairing_multiplicity,
    split_type_count,
)
from .geometry import (
    CurveData,
    H_to_h_bounds,
    c_to_h_threshold,
    collar_halfwidth,
    curve_H,
    neighbor_curve,
    phi,
    phi_min,
    rayq_bounds,
    regime_constants,
    sphere_h_upper,
)
from .random_model import (
    BudgetExceeded,
    CutoffLength,
    ExpectationResult,
    cheeger_prob_upper,
    expected_pants_count,
    factorial_moment,
    length_scale,
    poisson_lambda,
    poisson_pmf,
    pvol2_sum,
    second_moment_bound,
    two_curve_expectation_bound,
)
from .lab import LabConfig, cache_warm, run_experiment

__version__ = "0.1.0"
