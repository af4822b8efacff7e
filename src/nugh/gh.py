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
from .special import unwrap_log

MAX_INDEX = 25.0
_HANKEL_FROM = 2.0**29  # |z| from which _kve sums the Hankel expansion


@dataclass(frozen=True)
class GHParams:
    """Parameters (index, shape, skew, scale, location) of a GH law.

    Constraints: alpha > 0, |beta| < alpha, delta > 0, |lam| <= 25,
    all finite, and alpha^2 finite.  Violations raise :class:`DomainError`
    listing every failed constraint.
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
            elif math.isinf(self.alpha * self.alpha):
                problems.append(f"alpha = {self.alpha:g} too large: alpha^2 overflows a double")
            if abs(self.beta) >= self.alpha:
                problems.append("|beta| < alpha required")
            if self.delta <= 0:
                problems.append("delta > 0 required")
        if problems:
            raise DomainError("invalid GH parameters: " + "; ".join(problems))

    @property
    def gamma(self):
        return math.sqrt((self.alpha - self.beta) * (self.alpha + self.beta))

    @property
    def is_nig(self):
        return self.lam == -0.5


def _bessel_argument(params, t):
    """z(t) = delta * sqrt((gamma^2 + t^2) - 2 i beta t), with
    gamma^2 = (alpha - beta)(alpha + beta).  The radicand has real part
    gamma^2 + t^2 > 0, so numpy's principal root is the branch with
    re z > 0.  Where |t| > 2^500, t, alpha and beta are first divided by a
    power of two, which is exact, so that t^2 does not overflow."""
    t = np.asarray(t, dtype=float)
    s = 1.0
    if np.max(np.abs(t), initial=0.0) > 2.0**500:
        s = np.ldexp(1.0, np.maximum(np.frexp(t)[1] - 500, 0))
    a, b, u = (params.alpha - params.beta) / s, (params.alpha + params.beta) / s, t / s
    return params.delta * s * np.sqrt((a * b + u * u) - 2j * (params.beta / s) * u)


def _kve(order, z):
    """Exponentially scaled K_order(z) for re z > 0: scipy's ``kve``, which
    returns NaN from |z| ~ 1.07e9 on, and for |z| >= 2^29 four terms of the
    Hankel expansion sqrt(pi / 2z) sum_k a_k(order) / z^k (DLMF 10.40.2),
    whose first omitted term is below 1e-26 relative there for |order| <= 27."""
    from scipy.special import kve  # at call time: importing nugh loads no scipy

    big = np.abs(z) >= _HANKEL_FROM
    if not np.any(big):
        return kve(order, z)
    zh, nu2 = np.where(big, z, _HANKEL_FROM), 4.0 * np.square(order)
    term = total = np.sqrt(np.pi / (2 * zh))
    for k in (1, 2, 3):
        term = term * (nu2 - (2 * k - 1) ** 2) / (8 * k * zh)
        total = total + term
    return np.where(big, total, kve(order, np.where(big, 1.0, z)))


def _kve_at_zeta(params, orders=0):
    """Exponentially scaled K_{lam+orders}(zeta) at zeta = delta gamma; a
    value that overflows raises :class:`DomainError` naming lam and zeta."""
    zeta = params.delta * params.gamma
    k = _kve(params.lam + np.asarray(orders), zeta)
    if not np.all(np.isfinite(k)):
        raise DomainError(f"K_lam(delta*gamma) overflows at lam = {params.lam}, delta*gamma = {zeta:.6g}")
    return k


def _log_elementary(params, t, z):
    """i t mu + lam (log z0 - log z) + (z0 - z) at z = z(t), z0 = delta
    gamma: the GH log CF less the log of its scaled Bessel ratio.  z stays
    in the right half-plane, so the principal logs are continuous."""
    z0 = params.delta * params.gamma
    return 1j * t * params.mu + params.lam * (np.log(z0) - np.log(z)) + (z0 - z)


def gh_cf(params, t):
    """GH characteristic function at real t (scalar or array), from scaled
    Bessel functions, which do not underflow for large delta gamma; a
    non-finite kve(lam, z(t)) raises :class:`ConvergenceError`."""
    k0 = _kve_at_zeta(params)
    t = np.asarray(t, dtype=float)
    z = _bessel_argument(params, t)
    k = _kve(params.lam, z)
    if not np.all(np.isfinite(k)):
        raise ConvergenceError(f"gh_cf: K_lam(z) not finite at lam = {params.lam}")
    val = np.exp(_log_elementary(params, t, z)) * k / k0
    return val if val.ndim else complex(val)


def nig_log_cf(params, t):
    """Closed-form distinguished log CF of an NIG law (lam = -1/2):
    i t mu + delta gamma - z(t)."""
    if not params.is_nig:
        raise DomainError("nig_log_cf: requires lam = -1/2")
    t = np.asarray(t, dtype=float)
    out = 1j * t * params.mu + params.delta * params.gamma - _bessel_argument(params, t)
    return out if out.ndim else complex(out)


def gh_log_cf(params, t):
    """Distinguished log of the GH CF at real t (scalar or array), in log space.

    Writing log f = i t mu + lam*(log z0 - log z) + (z0 - z) + log h with
    h(t) = kve(lam, z(t)) / kve(lam, z0), only the slowly varying scaled
    Bessel ratio h needs branch tracking (:func:`unwrap_log`); every other
    term is elementary and continuous.  This stays evaluable far beyond the
    point where the CF itself underflows.
    """
    k0 = _kve_at_zeta(params)
    log_h = unwrap_log(lambda u: _kve(params.lam, _bessel_argument(params, u)) / k0, t)
    t = np.asarray(t, dtype=float)
    out = _log_elementary(params, t, _bessel_argument(params, t)) + log_h
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
