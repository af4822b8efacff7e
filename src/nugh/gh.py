"""Classical generalized hyperbolic distribution: parameters, characteristic
function and its continuous logarithm.

The normal inverse Gaussian (NIG) subfamily (index -1/2) has an elementary
log characteristic function, linear in (delta, mu); so its T-fold
convolution power scales delta and mu by T, which the exact mixture
sampler relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, RangeError

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
        s = math.ldexp(1.0, _alpha_exponent(self.alpha))  # exact; 1 for an ordinary law
        return math.sqrt(((self.alpha - self.beta) / s) * ((self.alpha + self.beta) / s)) * s

    @property
    def is_nig(self):
        return self.lam == -0.5


def _alpha_exponent(alpha):
    """The exponent e with alpha / 2^e in [1/2, 1) where alpha < 2^-500, so
    that (alpha - beta)(alpha + beta) and t^2 at t ~ alpha would leave the
    normal range, as for a law scaled by more than about 1e150; else 0."""
    return math.frexp(alpha)[1] if alpha < 2.0**-500 else 0


def _bessel_argument(params, t):
    """z(t) = delta * sqrt((gamma^2 + t^2) - 2 i beta t), with
    gamma^2 = (alpha - beta)(alpha + beta).  The radicand has real part
    gamma^2 + t^2 > 0, so numpy's principal root is the branch with
    re z > 0.  Where |t| > 2^500 or alpha < 2^-500, t, alpha and beta are
    first divided by a power of two (exact), so that t^2 does not overflow
    and neither gamma^2 nor t^2 at t ~ alpha underflows; an overflowing z
    raises RangeError."""
    t = np.asarray(t, dtype=float)
    s, u, e = 1.0, t, _alpha_exponent(params.alpha)
    if e or max(t.max(initial=0.0), -t.min(initial=0.0)) > 2.0**500:
        s = np.ldexp(1.0, np.maximum(np.frexp(t)[1] - 500, e))
        u = t / s
    z = np.empty(t.shape, dtype=complex)  # the radicand, then in place its root and z
    np.multiply(u, u, out=z.real)
    z.real += ((params.alpha - params.beta) / s) * ((params.alpha + params.beta) / s)
    np.multiply(u, -2 * params.beta / s, out=z.imag)
    try:
        with np.errstate(over="raise"):
            return np.multiply(np.sqrt(z, out=z), params.delta * s, out=z)
    except FloatingPointError:
        raise RangeError(f"z(t) overflows a double: delta |t| is too large at delta = {params.delta:g}") from None


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
    term = total = np.sqrt(np.pi / 2) / np.sqrt(zh)  # no 2 z or 8 k z to overflow
    for k in (1, 2, 3):
        term = term * ((nu2 - (2 * k - 1) ** 2) / (8 * k)) / zh
        total = total + term
    return np.where(big, total, kve(order, np.where(big, 1.0, z)))


def _kve_at_zeta(params):
    """Exponentially scaled K_lam(zeta) at zeta = delta gamma; a value that
    overflows raises :class:`DomainError` naming lam and zeta."""
    zeta = params.delta * params.gamma
    k = _kve(params.lam, zeta)
    if not np.all(np.isfinite(k)):
        raise DomainError(f"K_lam(delta*gamma) overflows at lam = {params.lam}, delta*gamma = {zeta:.6g}")
    return k


def _elementary(params, t):
    """(z, i t mu - d) at real t, d = z - delta gamma: re d from
    re(z)^2 - (delta gamma)^2 = (delta t)^2 + im(z)^2 cancels nothing and, as
    re z >= delta |t|, overflows only where z does; its floor acts only at
    re z = delta gamma = 0 (t = 0 with gamma^2 underflowing, alpha -> 0)."""
    t = np.asarray(t, dtype=float)
    z = _bessel_argument(params, t)
    r = np.add(z.real, params.delta * params.gamma, out=np.empty(z.shape))
    np.divide(1.0, np.maximum(r, 2.0**-1022, out=r), out=r)
    out = np.empty(z.shape, dtype=complex)  # out.imag holds delta t until it is t mu - im z
    dt = np.multiply(t, params.delta, out=out.imag)
    np.multiply(np.multiply(dt, r, out=out.real), dt, out=out.real)
    np.multiply(np.multiply(z.imag, r, out=r), z.imag, out=r)
    np.negative(np.add(out.real, r, out=out.real), out=out.real)
    np.subtract(np.multiply(t, params.mu, out=out.imag), z.imag, out=out.imag)
    return z, out


def _bessel_terms(params, t):
    """(e, z, k, k0) at real t: z = z(t), k = kve(lam, z), k0 = kve(lam, z0)
    at z0 = delta gamma, and e = i t mu - d - lam log(z / z0), d = z - z0,
    the log CF less log(k / k0), continuous as z stays in the right
    half-plane; log |z / z0| comes from the mantissas and exponents of
    |z| >= z0, which no quotient overflows.  k0 comes first, so that its
    overflow raises the :class:`DomainError` naming lam; a non-finite k
    raises :class:`ConvergenceError`."""
    k0 = _kve_at_zeta(params)
    z, e = _elementary(params, t)
    k = _kve(params.lam, z)
    if not np.all(np.isfinite(k)):
        raise ConvergenceError(f"K_lam(z) not finite at lam = {params.lam}")
    (mz, ez), (m0, e0) = np.frexp(np.abs(z)), np.frexp(params.delta * params.gamma)
    return e - params.lam * (np.log(mz / m0) + (ez - e0) * np.log(2.0) + 1j * np.angle(z)), z, k, k0


def gh_cf(params, t):
    """GH characteristic function at real t (scalar or array), from scaled
    Bessel functions, which do not underflow for large delta gamma."""
    e, _, k, k0 = _bessel_terms(params, t)
    val = np.exp(e) * k / k0
    return val if val.ndim else complex(val)


def nig_log_cf(params, t):
    """Closed-form distinguished log CF of an NIG law (lam = -1/2):
    i t mu - d(t), d = z(t) - delta gamma, from :func:`_elementary`."""
    if not params.is_nig:
        raise DomainError("nig_log_cf: requires lam = -1/2")
    out = _elementary(params, t)[1]
    return out if np.ndim(out) else complex(out)


def gh_log_cf(params, t):
    """Distinguished log of the GH CF at real t (scalar or array), in log
    space: elementary terms plus log h, h(t) = kve(lam, z(t)) / kve(lam, z0).
    z(t) stays in |arg z| < pi/4, where K_lam has no zeros, so log h has one
    branch, taken at each t on its own: the principal log plus the multiple
    of 2 pi i nearest to im(z - r) - nu arg(z / (nu + r)) - arg(r) / 2,
    r = sqrt(nu^2 + z^2), nu = |lam|, the phase of the leading term of
    Debye's expansion of kve(nu, z) (DLMF 10.41.4), for every nu and z.
    This stays finite far beyond where the CF underflows."""
    e, z, k, k0 = _bessel_terms(params, t)
    nu = abs(params.lam)
    r = np.sqrt(z + 1j * nu) * np.sqrt(z - 1j * nu)  # no z^2 to overflow
    # z - r = -nu^2 / (z + r) cancels nothing, and in halves does not overflow; im log x as
    # np.angle(x), without a slow complex log
    phase = (-0.5 * nu * nu / (0.5 * z + 0.5 * r)).imag - nu * np.angle(z / (nu + r)) - 0.5 * np.angle(r)
    turns = np.round((phase - np.angle(k)) / (2 * np.pi))
    out = e + (np.log(k / k0) + 2j * np.pi * turns)
    return out if out.ndim else complex(out)

