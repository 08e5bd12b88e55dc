"""bifrac: bifractional Brownian motion kernel, Gaussian path sampling, and
exact verification of the moment inequality E|X-Y|^a <= E|X+Y|^a and its
Bernstein-function generalization."""

from .bernstein import (
    BernsteinFn,
    bernstein_from_json,
    bernstein_gap_exact,
    bernstein_to_json,
    elementary_gap_series,
    eval_f,
    eval_g,
    series_identity_check,
)
from .counterexample import (
    CounterFamily,
    closed_form_violation,
    family_dist,
    find_violation,
    lower_bound_chain,
    violation_exact,
)
from .dists import (
    DiscreteDist,
    Sampler,
    dist_from_json,
    dist_to_json,
    expect,
    expect_pair,
    normal_sampler,
)
from .errors import (
    BifracError,
    DegenerateFamilyError,
    InequalityViolationError,
    InsufficientSamplesError,
    NegativeArgumentError,
    NegativeTimeError,
    NonFiniteError,
    NotPSDError,
    NumericalFailureError,
    OutOfDomainError,
    SearchExhaustedError,
)
from .gpsim import (
    CovMatrix,
    PathBatch,
    PsdVerdict,
    build_cov_matrix,
    check_psd,
    cholesky_factor,
    sample_paths,
)
from .inequality import (
    GapReport,
    SupnormBound,
    gap_exact,
    gap_mc,
    gap_tail_integral,
    gap_via_variance,
    supnorm_bound,
)
from .kernel import BifParams, TimeGrid, cov, cov_matrix, sgn, signed_identity_lhs, validate_params

__version__ = "0.1.0"
