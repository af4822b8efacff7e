"""Numerical inversion of characteristic functions: density grids by FFT,
pointwise CDF by Gil-Pelaez quadrature, quantiles, and the exponential
tail diagnostic.

Slowly decaying CFs (the geometric-transform family decays like 1/t) are
handled by a smooth roll-off of the integrand near the truncation
frequency; without it the truncation ripple would swamp the tails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import (
    AliasError,
    BracketError,
    ConvergenceError,
    DomainError,
    RangeError,
    TruncationError,
)
from .special import eval_cf

CUTOFF_CAP = 2**16
_DECAY_TOL = 1e-12
_NEG_TOL = 1e-7


def adaptive_cutoff(cf, start=16.0, cap=CUTOFF_CAP, tol=_DECAY_TOL):
    """Double the truncation frequency until |cf| < tol; returns
    (cutoff, decayed flag)."""
    t = start
    while t <= cap:
        if abs(eval_cf(cf, [t])[0]) < tol:
            return t, True
        t *= 2
    return float(cap), False


@dataclass(frozen=True)
class DensityGrid:
    """Inversion output: abscissae, density values, and bookkeeping."""

    x: np.ndarray
    pdf: np.ndarray
    total_mass: float
    truncation_bound: float  # |cf| at the truncation frequency
    t_cutoff: float

    @property
    def dx(self):
        return float(self.x[1] - self.x[0])

    def interp_pdf(self, xq):
        return np.interp(np.asarray(xq, dtype=float), self.x, self.pdf)

    def cdf_values(self):
        """Cumulative trapezoid of the grid density."""
        c = np.concatenate([[0.0], np.cumsum((self.pdf[1:] + self.pdf[:-1]) * 0.5)]) * self.dx
        return c


def pdf_grid(cf, x_range, n_points=4096, t_cutoff=None, taper=True):
    """Density on a uniform grid over ``x_range`` by discrete Fourier
    inversion of ``cf``.

    ``n_points`` must be a power of two >= 1024.  When ``t_cutoff`` is
    None it is found by doubling until |cf| < 1e-12 (capped at 2^16; the
    cap is accepted only in tapered mode).  With ``taper=False`` the CF
    must genuinely decay below 1e-12 at the cutoff.
    """
    lo, hi = float(x_range[0]), float(x_range[1])
    if not hi > lo:
        raise DomainError("pdf_grid: empty x range")
    n = int(n_points)
    if n < 1024 or n & (n - 1):
        raise DomainError("pdf_grid: n_points must be a power of two >= 1024")

    explicit_cutoff = t_cutoff is not None
    if not explicit_cutoff:
        t_cutoff, decayed = adaptive_cutoff(cf)
        if not decayed and not taper:
            raise TruncationError(
                f"pdf_grid: |cf({t_cutoff:g})| >= {_DECAY_TOL} and tapering disabled"
            )
    span = hi - lo
    dt = 2 * np.pi / span
    t_top = n * dt / 2
    if t_top < t_cutoff and (explicit_cutoff or decayed):
        raise TruncationError(
            f"pdf_grid: grid reaches only t={t_top:g} < cutoff {t_cutoff:g}; "
            "increase n_points or shrink x_range"
        )
    trunc = abs(eval_cf(cf, [t_top])[0])
    if not taper and trunc >= _DECAY_TOL:
        raise TruncationError(f"pdf_grid: |cf({t_top:g})| = {trunc:.2e} >= {_DECAY_TOL}")

    # Hermitian grid: evaluate t >= 0 only, mirror by conjugation
    k = np.arange(n)
    t = -t_top + k * dt
    pos = t[n // 2 :]
    vals_pos = eval_cf(cf, pos)
    vals = np.empty(n, dtype=complex)
    vals[n // 2 :] = vals_pos
    vals[1 : n // 2] = np.conj(vals_pos[1:][::-1])
    vals[0] = np.conj(eval_cf(cf, [t_top])[0])

    if taper:
        # raised-cosine roll-off on the outer 20% of the band
        a = 0.8 * t_top
        w = np.ones(n)
        m = np.abs(t) > a
        w[m] = 0.5 * (1 + np.cos(np.pi * (np.abs(t[m]) - a) / (t_top - a)))
        vals = vals * w

    dx = span / n
    x = lo + dx * np.arange(n)
    # pdf(x_j) = dt/(2 pi) * e^{i t_top x_j} * DFT_k[ vals_k e^{-i k dt lo} ]
    work = vals * np.exp(-1j * k * dt * lo)
    raw = np.fft.fft(work)
    pdf_c = (dt / (2 * np.pi)) * np.exp(1j * t_top * x) * raw
    peak = float(np.max(np.abs(pdf_c.real)))
    if np.max(np.abs(pdf_c.imag)) > 1e-8 * max(peak, 1.0):
        raise ConvergenceError("pdf_grid: imaginary residue exceeds tolerance")
    pdf = pdf_c.real
    if np.min(pdf) < -_NEG_TOL * max(peak, 1.0):
        raise AliasError(
            f"pdf_grid: negative density {np.min(pdf):.2e} signals inversion misconfiguration"
        )
    pdf = np.clip(pdf, 0.0, None)

    total = float(np.trapezoid(pdf, x))
    if abs(total - 1.0) > 1e-6:
        raise AliasError(f"pdf_grid: grid mass {total:.8f} differs from 1 (x_range too narrow?)")
    boundary = max(pdf[0], pdf[-1]) * span
    if boundary > 1e-5:
        raise AliasError("pdf_grid: density not negligible at the x-range boundary")
    return DensityGrid(x, pdf, total, trunc, float(t_top))


def default_x_range(cf, n_std=40.0):
    """mean +/- n_std standard deviations, from CF moments."""
    from .gh import moments_from_cf

    m1, m2 = moments_from_cf(cf, 2)
    sd = np.sqrt(max(m2 - m1**2, 1e-12))
    return (m1 - n_std * sd, m1 + n_std * sd)


def cdf_at(cf, x, t_cutoff=None):
    """P(X <= x) by the Gil-Pelaez inversion formula, clamped to [0, 1].

    Fast-decaying CFs are integrated directly to their cutoff; slowly
    decaying ones (and strongly oscillatory cases, |x| large) use
    oscillatory-weighted quadrature on the tail.
    """
    x = float(x)
    ax, sgn = abs(x), (1.0 if x >= 0 else -1.0)

    def integrand(t):
        if t == 0.0:
            return 0.0
        v = complex(eval_cf(cf, [t])[0])
        return (np.exp(-1j * t * x) * v).imag / t

    def im_over_t(t):
        return eval_cf(cf, [t])[0].imag / t

    def re_over_t(t):
        return eval_cf(cf, [t])[0].real / t

    if t_cutoff is None:
        t_cutoff, decayed = adaptive_cutoff(cf)
    else:
        decayed = abs(eval_cf(cf, [t_cutoff])[0]) < _DECAY_TOL

    if ax == 0.0:
        top = t_cutoff if decayed else float(CUTOFF_CAP)
        integral, err = quad(im_over_t, 1e-12, top, limit=800, epsabs=1e-10, epsrel=1e-10)
    else:
        a = min(1.0, 1.0 / ax)
        integral, err = quad(integrand, 1e-12, a, limit=200, epsabs=1e-11, epsrel=1e-11)
        if decayed and ax * (t_cutoff - a) < 4000.0:
            mid, merr = quad(integrand, a, t_cutoff, limit=800, epsabs=1e-10, epsrel=1e-10)
        else:
            top = t_cutoff if decayed else np.inf
            c, cerr = quad(im_over_t, a, top, weight="cos", wvar=ax, limit=400)
            s, serr = quad(re_over_t, a, top, weight="sin", wvar=ax, limit=400)
            mid, merr = c - sgn * s, cerr + serr
        integral += mid
        err += merr
    if err > 1e-5:
        raise ConvergenceError(f"cdf_at: quadrature error estimate {err:.2e} too large")
    return float(np.clip(0.5 - integral / np.pi, 0.0, 1.0))


def quantile(cf, q, t_cutoff=None):
    """x with cdf_at(x) ~= q, by bracket expansion and bisection."""
    if not 0.0 < q < 1.0:
        raise DomainError("quantile: q must be in (0, 1)")
    if t_cutoff is None:
        t_cutoff, _ = adaptive_cutoff(cf)
    lo, hi = -1.0, 1.0
    for _ in range(80):
        if cdf_at(cf, lo, t_cutoff) <= q:
            break
        lo *= 2
    else:
        raise BracketError("quantile: lower bracket exhausted")
    for _ in range(80):
        if cdf_at(cf, hi, t_cutoff) >= q:
            break
        hi *= 2
    else:
        raise BracketError("quantile: upper bracket exhausted")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = cdf_at(cf, mid, t_cutoff)
        if abs(fm - q) <= 1e-7 or hi - lo < 1e-9 * max(1.0, abs(mid)):
            return mid
        if fm < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class TailReport:
    side: str  # "left" or "right"
    slope: float  # d log pdf / dx on the window
    r2: float
    window: tuple


def tail_diagnostic(grid: DensityGrid, side="right", quantile_window=(0.995, 0.9999)):
    """Least-squares slope and r^2 of log density over a quantile window
    of the tail."""
    if side not in ("left", "right"):
        raise DomainError("tail_diagnostic: side must be 'left' or 'right'")
    q1, q2 = quantile_window
    if not 0.5 < q1 < q2 < 1.0:
        raise DomainError("tail_diagnostic: need 0.5 < q1 < q2 < 1")
    cdf = grid.cdf_values()
    cdf = cdf / cdf[-1]
    if side == "right":
        lo_q, hi_q = q1, q2
    else:
        lo_q, hi_q = 1.0 - q2, 1.0 - q1
    i0 = int(np.searchsorted(cdf, lo_q))
    i1 = int(np.searchsorted(cdf, hi_q))
    xs = grid.x[i0:i1]
    ys = grid.pdf[i0:i1]
    mask = ys > 0
    xs, ys = xs[mask], ys[mask]
    if xs.size < 50:
        raise RangeError(f"tail_diagnostic: only {xs.size} usable points resolve the window")
    logy = np.log(ys)
    A = np.vstack([xs, np.ones_like(xs)]).T
    (slope, _), res, _, _ = np.linalg.lstsq(A, logy, rcond=None)
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    ss_res = float(res[0]) if res.size else 0.0
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return TailReport(side, float(slope), float(np.clip(r2, 0.0, 1.0)), (float(xs[0]), float(xs[-1])))
