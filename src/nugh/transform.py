"""The random-summation transform of characteristic functions:
g(t) = phi(-log f(t)) for a summation family with fixed-point function
phi and an infinitely divisible base CF f, specialized to GH bases, plus
the explicit geometric-GH and Chebyshev-GH closed forms."""

from __future__ import annotations

from functools import partial

import numpy as np

from .families import NuFamily
from .gh import GHParams, gh_cf, gh_log_cf, nig_log_cf
from .special import unwrap_log


class NuTransform:
    """g(t) = phi(-log f(t)) for an arbitrary non-vanishing base CF f,
    with the distinguished log of f from :func:`unwrap_log`."""

    def __init__(self, family: NuFamily, base_cf):
        self.family = family
        self.base_cf = base_cf

    def log_base(self, t):
        return unwrap_log(self.base_cf, t)

    def __call__(self, t):
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        w = self.log_base(t)  # a fresh array, turned in place into -log f
        np.negative(w, out=w)
        # |f| <= 1 keeps re(w) >= 0 up to rounding
        np.maximum(w.real, 0.0, out=w.real)
        g = np.asarray(self.family.phi(w))
        return complex(g[0]) if scalar else g


class NuGHChar(NuTransform):
    """Characteristic function of a nu-GH law: family + GH base parameters.

    NIG bases (index -1/2) use the elementary log CF; other indices take
    the one branch of :func:`gh_log_cf` at each t, with no grid of t.
    """

    def __init__(self, family: NuFamily, gh: GHParams):
        self.family = family
        self.gh = gh

    def log_base(self, t):
        if self.gh.is_nig:
            return nig_log_cf(self.gh, t)
        return gh_log_cf(self.gh, t)


# family.phi(-log f) with the log unwrapped on the whole GH CF, not taken
# from the one branch of the Bessel ratio as in NuGHChar: an independent
# cross-check, whose unwrap can alias for large |lam| and raises BranchError
# where gh_cf underflows to 0 (from t ~ 747 for the default NIG).
def gh_closed_form(family: NuFamily, gh: GHParams, t):
    """Explicit nu-GH CF at t (scalar or array): 1 / (1 - log f(t)) for the
    geometric family, 1 / cosh(sqrt(-2 log f(t))) with right-half-plane
    roots for the Chebyshev family, with the continuous branch of log f."""
    return NuTransform(family, partial(gh_cf, gh))(t)
