"""Samplers and distributional identity checks: the Laplace and
hyperbolic-secant base laws of the `check` identities, the sampler of the
transformed laws, random-sum realizations of the defining identities, and
Kolmogorov-Smirnov verification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .families import NuFamily
from .gh import GHParams
from .inversion import QUANTILE_FLOOR, _probe, pdf_grid, quantile
from .transform import NuGHChar

KS_LEVEL = 0.01
KS_CRITICAL = 1.628  # sqrt(n) times the Kolmogorov-Smirnov critical value at KS_LEVEL
# summands per base_sampler call of random_sum_sample: 512 KB, the fastest
# block measured (2**20 was slower than one buffer for all summands)
_SUM_BLOCK = 2**16


def make_rng(seed, stream_id=0):
    """Independent, reproducible generator for (seed, stream), integers
    >= 0; a negative one raises :class:`DomainError`."""
    key = [int(seed), int(stream_id)]
    if min(key) < 0:
        raise DomainError(f"make_rng: seed and stream id must be >= 0, got {key[0]} and {key[1]}")
    return np.random.default_rng(key)


def sample_laplace(n, rng):
    """Standard Laplace, CF 1/(1+t^2)."""
    return rng.laplace(0.0, 1.0, size=n)


def sample_hsecant(n, rng):
    """Hyperbolic secant, CF 1/cosh(t), by inverse CDF:
    (2/pi) log(tan(pi u / 2)), computed in place."""
    u = rng.random(n)
    u *= np.pi
    u /= 2.0
    np.tan(u, out=u)
    np.log(u, out=u)
    u *= 2.0 / np.pi
    return u


def sample_nu_gh(family: NuFamily, gh: GHParams, n, rng, method="auto"):
    """Sample the transformed (nu-GH) law.

    NIG bases admit the exact route: draw the mixing time T, then an NIG
    variate with scale and location multiplied by T (convolution power).
    Other bases fall back to inverse-CDF sampling on a 2^17-point density
    grid over the QUANTILE_FLOOR and 1 - QUANTILE_FLOOR quantiles of sX,
    whose CF has fallen below 1e-12 by t = 1 (s the cutoff of the probe
    record of X about t = 1, at any scale a double holds), divided by s.  sX
    is the same law for X rescaled by any power of two, so its draws are
    rescaled to the bit.
    """
    if n < 0:
        raise DomainError(f"sample_nu_gh: the number of draws must be >= 0, got {n}")
    if method == "auto":
        method = "mixture" if gh.is_nig else "inversion"
    if method == "mixture":
        if not gh.is_nig:
            raise DomainError("mixture sampling is exact only for lam = -1/2 bases")
        # t mu + beta z + sqrt(z) N with z ~ Wald(t delta / gamma, (t delta)^2), formed in
        # place in that expression's order, so the draws keep their bits
        t_mix = family.sample_mixing(n, rng)
        mean = t_mix * gh.delta
        scale = mean**2
        mean /= gh.gamma
        z = rng.wald(mean, scale, size=n)
        del mean, scale
        t_mix *= gh.mu
        t_mix += gh.beta * z
        np.sqrt(z, out=z)
        z *= rng.standard_normal(n)
        t_mix += z
        return t_mix
    if method == "inversion":
        if n == 0:
            return np.empty(0)
        s = _probe(NuGHChar(family, gh), 1.0)[1]
        cf = NuGHChar(family, GHParams(gh.lam, gh.alpha / s, gh.beta / s, gh.delta * s, gh.mu * s))
        grid = pdf_grid(cf, quantile(cf, [QUANTILE_FLOOR, 1.0 - QUANTILE_FLOOR]), 2**17)
        return np.interp(rng.random(n), grid.cdf_values(), grid.x) / s
    raise DomainError(f"unknown sampling method {method!r}")


def random_sum_sample(family: NuFamily, p, stability_index, base_sampler, n, rng):
    """n realizations of p^(1/index) * sum of nu_p i.i.d. base draws.

    All of nu is drawn first; then ``base_sampler(m, rng)`` is called once
    per run of whole sums of about _SUM_BLOCK summands (a longer sum is a
    run of its own), so the working set is one block, not all summands.  A
    sampler whose m draws take the stream in order gives the draws of one
    call for all summands; a multi-pass one gives other draws of its law."""
    if n < 0:
        raise DomainError(f"random_sum_sample: the number of draws must be >= 0, got {n}")
    if not 0 < stability_index <= 2:
        raise DomainError("stability index must lie in (0, 2]")
    family.require_p(p)
    nu = family.sample_nu(p, n, rng)
    ends = np.cumsum(nu)
    starts = ends - nu  # the i-th sum starts where the (i-1)-th ends
    sums = np.empty(n)
    i = 0
    while i < n:
        j = max(int(np.searchsorted(ends, starts[i] + _SUM_BLOCK, side="right")), i + 1)
        xs = base_sampler(int(ends[j - 1] - starts[i]), rng)
        sums[i:j] = np.add.reduceat(xs, starts[i:j] - starts[i])
        i = j
    return p ** (1.0 / stability_index) * sums


@dataclass(frozen=True)
class KSReport:
    n: int
    statistic: float
    threshold: float
    passed: bool


def ks_statistic(samples, cdf_evaluator):
    """Sup distance between the empirical CDF and the reference CDF, and
    whether it passes the test at KS_LEVEL.

    ``cdf_evaluator`` maps the array of sorted samples to F at each, in
    one call; a result of another shape raises :class:`DomainError`.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 100:
        raise DomainError("ks_statistic: need at least 100 samples")
    f = np.asarray(cdf_evaluator(x), dtype=float)
    if f.shape != x.shape:
        raise DomainError(f"ks_statistic: the CDF returned shape {f.shape} for {n} samples")
    idx = np.arange(n)
    d_plus = np.max((idx + 1) / n - f)
    d_minus = np.max(f - idx / n)
    stat = float(max(d_plus, d_minus, 0.0))
    thr = KS_CRITICAL / np.sqrt(n)
    return KSReport(n, stat, float(thr), stat < thr)


def identity_suite(family: NuFamily, p, stability_index, base_sampler, reference_cdf, n, rng):
    """KS comparison of the random-sum sample against the fixed-point law.

    A failing draw is repeated once with fresh randomness (bounds the
    false-failure rate at roughly KS_LEVEL^2).
    """
    samples = random_sum_sample(family, p, stability_index, base_sampler, n, rng)
    report = ks_statistic(samples, reference_cdf)
    if not report.passed:
        samples = random_sum_sample(family, p, stability_index, base_sampler, n, rng)
        report = ks_statistic(samples, reference_cdf)
    return report


def empirical_cf(samples, t):
    """(mean, standard error) of exp(i t X) at each t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.asarray(samples, dtype=float)
    out_mean = np.empty(t.size, dtype=complex)
    out_se = np.empty(t.size)
    for j, tj in enumerate(t):
        e = np.exp(1j * tj * x)
        out_mean[j] = e.mean()
        var = np.var(e.real) + np.var(e.imag)
        out_se[j] = np.sqrt(var / x.size)
    return out_mean, out_se


# analytic reference CDFs for the fixture laws
def laplace_cdf(x):
    x = np.asarray(x, dtype=float)
    return np.where(x < 0, 0.5 * np.exp(x), 1.0 - 0.5 * np.exp(-x))


def hsecant_cdf(x):
    x = np.asarray(x, dtype=float)
    return (2.0 / np.pi) * np.arctan(np.exp(np.pi * x / 2.0))
