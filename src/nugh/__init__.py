"""Random-summation (geometric and Chebyshev) generalizations of the
generalized hyperbolic family: characteristic functions, inversion,
sampling, identity verification and maximum-likelihood fitting.

``import nugh`` loads only the exceptions.  Every other public name, and
each submodule, is imported on first access, so a caller pays only for the
modules its computation uses.  Names are looked up in their module on each
access, not copied here, so a patch of ``nugh.inversion.pdf_grid`` is what
``nugh.pdf_grid`` returns."""

from importlib import import_module as _import_module

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

# each public name and the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ["AliasError", "BracketError", "BranchError", "ConvergenceError", "DomainError", "InsufficientData",
         "NughError", "ParseError", "RangeError", "TruncationError"],
        "errors",
    ),
    **dict.fromkeys(["CHEBYSHEV", "GEOMETRIC", "get_family", "verify_poincare"], "families"),
    **dict.fromkeys(["GHParams", "gh_cf", "gh_log_cf", "nig_log_cf"], "gh"),
    **dict.fromkeys(["DensityGrid", "cdf_at", "pdf_grid", "quantile", "tail_diagnostic"], "inversion"),
    **dict.fromkeys(
        ["KSReport", "identity_suite", "ks_statistic", "make_rng", "random_sum_sample", "sample_nu_gh"], "montecarlo"
    ),
    **dict.fromkeys(["FitResult", "NuGHEstimator", "fit_mle", "ingest_series", "neg_log_lik"], "fitting"),
    **dict.fromkeys(["NuGHChar", "NuTransform", "gh_closed_form"], "transform"),
}
_SUBMODULES = frozenset(["cli", *_EXPORTS.values(), "special"])

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name in _EXPORTS:
        return getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
