"""Random-summation (geometric and Chebyshev) generalizations of the
generalized hyperbolic family: characteristic functions, inversion,
sampling, identity verification and maximum-likelihood fitting."""

__version__ = "0.1.0"

from .errors import (
    AliasError,
    BracketError,
    BranchError,
    ConvergenceError,
    DomainError,
    InsufficientData,
    NughError,
    ParseError,
    RangeError,
    TruncationError,
)
from .families import CHEBYSHEV, GEOMETRIC, get_family, verify_poincare
from .gh import GHParams, gh_cf, gh_log_cf, nig_log_cf
from .inversion import DensityGrid, cdf_at, pdf_grid, quantile, tail_diagnostic
from .montecarlo import KSReport, identity_suite, ks_statistic, make_rng, random_sum_sample, sample_nu_gh
from .fitting import FitResult, NuGHEstimator, ReturnSeries, fit_mle, ingest_series, neg_log_lik
from .transform import (
    NuGaussianChar,
    NuGHChar,
    NuTransform,
    cheb_gh_closed_form,
    geo_gh_closed_form,
)

__all__ = [
    "AliasError",
    "BracketError",
    "BranchError",
    "CHEBYSHEV",
    "ConvergenceError",
    "DensityGrid",
    "DomainError",
    "FitResult",
    "GEOMETRIC",
    "GHParams",
    "InsufficientData",
    "KSReport",
    "NuGHChar",
    "NuGHEstimator",
    "NuGaussianChar",
    "NuTransform",
    "NughError",
    "ParseError",
    "RangeError",
    "ReturnSeries",
    "TruncationError",
    "cdf_at",
    "cheb_gh_closed_form",
    "fit_mle",
    "geo_gh_closed_form",
    "get_family",
    "gh_cf",
    "gh_log_cf",
    "identity_suite",
    "ingest_series",
    "ks_statistic",
    "make_rng",
    "neg_log_lik",
    "nig_log_cf",
    "pdf_grid",
    "quantile",
    "random_sum_sample",
    "sample_nu_gh",
    "tail_diagnostic",
    "verify_poincare",
]
