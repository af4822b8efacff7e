"""Classical generalized hyperbolic distribution: parameters, characteristic
function, its continuous logarithm, and moments.

The normal inverse Gaussian (NIG) subfamily (index -1/2) has an elementary
log characteristic function, linear in (delta, mu); so its T-fold
convolution power scales delta and mu by T, which the exact mixture
sampler relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .special import sqrt_right, unwrap_log

MAX_INDEX = 25.0


@dataclass(frozen=True)
class GHParams:
    """Parameters (index, shape, skew, scale, location) of a GH law.

    Constraints: alpha > 0, |beta| < alpha, delta > 0, |lam| <= 25,
    all finite.  Violations raise :class:`DomainError` listing every
    failed constraint.
    """

    lam: float
    alpha: float
    beta: float
    delta: float
    mu: float

    def __post_init__(self):
        problems = []
        vals = (self.lam, self.alpha, self.beta, self.delta, self.mu)
        if not all(math.isfinite(v) for v in vals):
            problems.append("all parameters must be finite")
        else:
            if abs(self.lam) > MAX_INDEX:
                problems.append(f"|lam| <= {MAX_INDEX} required (boundary limits unsupported)")
            if self.alpha <= 0:
                problems.append("alpha > 0 required")
            if abs(self.beta) >= self.alpha:
                problems.append("|beta| < alpha required")
            if self.delta <= 0:
                problems.append("delta > 0 required")
        if problems:
            raise DomainError("invalid GH parameters: " + "; ".join(problems))

    @property
    def gamma(self):
        return math.sqrt(self.alpha**2 - self.beta**2)

    @property
    def is_nig(self):
        return self.lam == -0.5


def _bessel_argument(params, t):
    """delta * sqrt(alpha^2 - (beta + i t)^2); re > 0 for |beta| < alpha."""
    t = np.asarray(t, dtype=float)
    return params.delta * sqrt_right(params.alpha**2 - (params.beta + 1j * t) ** 2)


def _kve_at_zeta(params, orders=0):
    """Exponentially scaled K_{lam+orders}(zeta) at zeta = delta gamma; a
    value that overflows raises :class:`DomainError` naming lam and zeta."""
    from scipy.special import kve

    zeta = params.delta * params.gamma
    k = kve(params.lam + np.asarray(orders), zeta)
    if not np.all(np.isfinite(k)):
        raise DomainError(
            f"K_lam(delta*gamma) overflows at lam = {params.lam}, delta*gamma = {zeta:.6g}"
        )
    return k


def gh_cf(params, t):
    """GH characteristic function at real t (scalar or array), from scaled
    Bessel functions, which do not underflow for large delta gamma; a
    non-finite kve(lam, z(t)) raises :class:`ConvergenceError`."""
    from scipy.special import kve

    k0 = _kve_at_zeta(params)
    t = np.asarray(t, dtype=float)
    z = _bessel_argument(params, t)
    k = kve(params.lam, z)
    if not np.all(np.isfinite(k)):
        raise ConvergenceError(f"gh_cf: K_lam(z) not finite at lam = {params.lam}")
    z0 = params.delta * params.gamma
    # z stays in the right half-plane, so principal logs are continuous
    val = np.exp(1j * t * params.mu + params.lam * (np.log(z0) - np.log(z)) + (z0 - z)) * k / k0
    return val if val.ndim else complex(val)


def nig_log_cf(params, t):
    """Closed-form distinguished log CF of an NIG law (lam = -1/2):
    i t mu + delta * (gamma - sqrt(alpha^2 - (beta + i t)^2))."""
    if not params.is_nig:
        raise DomainError("nig_log_cf: requires lam = -1/2")
    t = np.asarray(t, dtype=float)
    out = 1j * t * params.mu + params.delta * (
        params.gamma - sqrt_right(params.alpha**2 - (params.beta + 1j * t) ** 2)
    )
    return out if out.ndim else complex(out)


def gh_log_cf(params, t):
    """Distinguished log of the GH CF at real t (scalar or array), in log space.

    Writing log f = i t mu + lam*(log z0 - log z) + (z0 - z) + log h with
    h(t) = kve(lam, z(t)) / kve(lam, z0), only the slowly varying scaled
    Bessel ratio h needs branch tracking (:func:`unwrap_log`); every other
    term is elementary and continuous.  This stays evaluable far beyond the
    point where the CF itself underflows.
    """
    from scipy.special import kve

    k0 = _kve_at_zeta(params)
    log_h = unwrap_log(lambda u: kve(params.lam, _bessel_argument(params, u)) / k0, t)
    t = np.asarray(t, dtype=float)
    z0 = params.delta * params.gamma
    z = _bessel_argument(params, t)
    out = 1j * t * params.mu + params.lam * (np.log(z0) - np.log(z)) + (z0 - z) + log_h
    return out if out.ndim else complex(out)


def gh_mean_variance(params):
    """Mean and variance of a GH law:

        mean = mu + beta (delta / gamma) R_1,
        var  = (delta / gamma) R_1 + (beta delta / gamma)^2 (R_2 - R_1^2),

    with R_k = K_{lam+k}(zeta) / K_lam(zeta) at zeta = delta gamma, taken
    as ratios of exponentially scaled Bessel functions."""
    k0, k1, k2 = _kve_at_zeta(params, np.arange(3))
    r1, r2 = k1 / k0, k2 / k0
    scale = params.delta / params.gamma
    mean = params.mu + params.beta * scale * r1
    var = scale * r1 + (params.beta * scale) ** 2 * (r2 - r1 * r1)
    return float(mean), float(var)
