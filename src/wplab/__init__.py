"""
wplab: exact Weil-Petersson volume engine and verification lab.

The exact layer computes psi-class brackets, volume polynomials and all
volume-ratio diagnostics in the graded ring of rational multiples of
integer powers of pi; the lab layer reproduces the supporting estimates
numerically on desk-scale grids.
"""

from .exact import (
    NumInterval,
    PiPoly,
    PiScalar,
    Rat,
    bernoulli,
    coeff_a,
    coeff_b,
    eval_numeric,
    rat,
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
    SplitPair,
    enumerate_splits,
    pairing_multiplicity,
)
from .geometry import (
    collar_halfwidth,
    neighbor_curve,
    phi,
    phi_min,
    regime_constants,
    sphere_h_upper,
)
from .random_model import (
    BudgetExceeded,
    CutoffLength,
    ExpectationResult,
    cheeger_prob_upper,
    expected_pants_count,
    length_scale,
    poisson_lambda,
    pvol2_sum,
    second_moment_bound,
    two_curve_expectation_bound,
)
from .lab import LabConfig, cache_warm, run_experiment

__version__ = "0.1.0"
