"""Reference values for the benchmark's correctness checks, written
independently of nugh.

The nu-NIG law is a mixture over the family's mixing time T of NIG laws
with scale delta*T and location mu*T.  Its density is the T-integral of
the NIG density (Bessel K1 form) against the mixing density: e^{-T} for
the geometric family, the Brownian exit-time density from (-1, 1) (theta
series) for the Chebyshev family.  The T-integral is a trapezoid sum in
s = log T, which converges geometrically because the integrand is
analytic in a strip around the real s axis.  The CDF integrates that
density with Gauss-Legendre pieces, graded towards the logarithmic
singularity the geometric law has at 0.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import k1e

_S_STEP = 0.08
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_GL3_X, _GL3_W = np.polynomial.legendre.leggauss(3)  # between close neighbours
_SORTED_ATOL = 1e-8  # accumulated increments against the direct CDF
_NEAR_ZERO = 16  # neighbours closer to 0 than this many gaps: direct CDF
_PIECE = 0.25  # widest Gauss-Legendre piece, in units of the law's scale
_GRADED = 48  # halvings of the piece next to 0
_TAIL_PDF = 1e-18  # density below which the tails are cut
_Y_CHUNK = 2048


class OracleError(Exception):
    """The reference computation itself failed a self-check."""


def exit_time_density(t):
    """Density of the exit time of Brownian motion from (-1, 1): the small-t
    theta series for t < 1 and the eigenfunction series above."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    k = np.arange(12)[:, None]
    small = (t > 0) & (t < 1.0)
    ts = t[small]
    if ts.size:
        terms = (-1.0) ** k * (2 * k + 1) * np.exp(-((2 * k + 1) ** 2) / (2 * ts))
        out[small] = terms.sum(axis=0) / np.sqrt(2 * np.pi * ts**3) * 2
    big = t >= 1.0
    tl = t[big]
    if tl.size:
        terms = (-1.0) ** k * (2 * k + 1) * np.exp(-((2 * k + 1) ** 2) * np.pi**2 * tl / 8)
        out[big] = (np.pi / 2) * terms.sum(axis=0)
    return out


def mixing_density(family, t):
    if family == "geo":
        return np.exp(-np.asarray(t, dtype=float))
    return exit_time_density(t)


def phi(family, w):
    """Laplace transform of the mixing law at complex w, re(w) >= 0."""
    w = np.asarray(w, dtype=complex)
    if family == "geo":
        return 1.0 / (1.0 + w)
    s = np.sqrt(2.0 * w)
    s = np.where(s.real < 0, -s, s)
    e = np.exp(-s)
    return 2.0 * e / (1.0 + e * e)


def nig_log_cf(alpha, beta, delta, mu, t):
    t = np.asarray(t, dtype=float)
    root = np.sqrt(alpha**2 - (beta + 1j * t) ** 2)
    root = np.where(root.real < 0, -root, root)
    return 1j * t * mu + delta * (math.sqrt(alpha**2 - beta**2) - root)


def nu_nig_cf(family, alpha, beta, delta, mu, t):
    return phi(family, -nig_log_cf(alpha, beta, delta, mu, t))


def nig_pdf(y, alpha, beta, delta, mu):
    """NIG density with exponentially scaled K1; broadcasts."""
    gamma = math.sqrt(alpha**2 - beta**2)
    d = y - mu
    r = np.sqrt(delta**2 + d**2)
    return (alpha * delta / np.pi) * k1e(alpha * r) / r * np.exp(delta * gamma + beta * d - alpha * r)


class MixtureNIG:
    """Density and CDF of the geo-NIG or Chebyshev-NIG law."""

    def __init__(self, family, alpha, beta, delta, mu):
        if family not in ("geo", "cheb"):
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self.alpha, self.beta, self.delta, self.mu = alpha, beta, delta, mu
        s_hi = math.log(60.0)
        s_lo = -40.0 if family == "geo" else math.log(1e-3)
        self._s = np.arange(s_lo, s_hi + _S_STEP, _S_STEP)
        t = np.exp(self._s)
        self._t = t
        self._w = _S_STEP * t * mixing_density(family, t)
        self._table = None

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        flat = y.ravel()
        out = np.empty(flat.size)
        t = self._t[None, :]
        for i in range(0, flat.size, _Y_CHUNK):
            yy = flat[i : i + _Y_CHUNK, None]
            dens = nig_pdf(yy, self.alpha, self.beta, self.delta * t, self.mu * t)
            out[i : i + _Y_CHUNK] = dens @ self._w
        return out.reshape(y.shape)

    def _scale(self):
        return self.delta / math.sqrt(self.alpha**2 - self.beta**2) + 1.0 / self.alpha

    def _edge(self, direction):
        x = direction * self._scale()
        while self.pdf(np.array([x]))[0] > _TAIL_PDF:
            x *= 1.5
            if abs(x) > 1e6:
                raise OracleError("tail cut not found")
        return x

    def _build(self):
        lo, hi = self._edge(-1.0), self._edge(1.0)
        h = _PIECE * self._scale()
        graded = h * 0.5 ** np.arange(_GRADED)
        edges = np.unique(
            np.concatenate(
                [
                    np.arange(lo, -h, h),
                    -graded,
                    [0.0],
                    graded[::-1],
                    np.arange(h, hi + h, h)[1:],
                    [hi],
                ]
            )
        )
        a, b = edges[:-1], edges[1:]
        nodes = 0.5 * (b - a)[:, None] * _GL_X[None, :] + 0.5 * (a + b)[:, None]
        mass = self.pdf(nodes) @ _GL_W * 0.5 * (b - a)
        cum = np.concatenate([[0.0], np.cumsum(mass)])
        if abs(cum[-1] - 1.0) > 1e-9:
            raise OracleError(f"mixture mass {cum[-1]:.12f} differs from 1")
        self._table = (edges, cum)

    def support(self):
        """Interval outside which the density is below the tail cut."""
        if self._table is None:
            self._build()
        edges = self._table[0]
        return edges[0], edges[-1]

    def cdf(self, x):
        """P(X <= x) for an array of x."""
        if self._table is None:
            self._build()
        edges, cum = self._table
        x = np.asarray(x, dtype=float)
        flat = np.clip(x.ravel(), edges[0], edges[-1])
        idx = np.clip(np.searchsorted(edges, flat, side="right") - 1, 0, edges.size - 2)
        a = edges[idx]
        nodes = 0.5 * (flat - a)[:, None] * (_GL_X[None, :] + 1.0) + a[:, None]
        part = self.pdf(nodes) @ _GL_W * 0.5 * (flat - a)
        return np.clip(cum[idx] + part, 0.0, 1.0).reshape(x.shape)

    def cdf_sorted(self, x):
        """P(X <= x) for increasing x, cheaper than ``cdf`` for many close
        points: the direct CDF at the first point plus 3-point
        Gauss-Legendre increments between neighbours.  Increments within
        ``_NEAR_ZERO`` widths of 0, the geometric law's singularity, are
        differences of the direct CDF.  The sum is checked against the
        direct CDF at the last point."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size < 2 or np.any(np.diff(x) < 0):
            raise ValueError("cdf_sorted needs two or more increasing points")
        a, b = x[:-1], x[1:]
        gap = np.where((a < 0) & (b > 0), 0.0, np.minimum(np.abs(a), np.abs(b)))
        near = gap < _NEAR_ZERO * (b - a)
        far = ~near
        mass = np.empty(a.size)
        lo, hi = a[far], b[far]
        nodes = 0.5 * (hi - lo)[:, None] * (_GL3_X[None, :] + 1.0) + lo[:, None]
        mass[far] = self.pdf(nodes) @ _GL3_W * 0.5 * (hi - lo)
        mass[near] = self.cdf(b[near]) - self.cdf(a[near])
        first, last = self.cdf(x[[0, -1]])
        out = first + np.concatenate([[0.0], np.cumsum(mass)])
        if abs(out[-1] - last) > _SORTED_ATOL:
            raise OracleError(f"sorted CDF drifts by {out[-1] - last:.3e}")
        return np.clip(out, 0.0, 1.0)

    def nll(self, data):
        return float(-np.sum(np.log(np.maximum(self.pdf(np.asarray(data, dtype=float)), 1e-300))))


def hsecant_cdf(x):
    return (2.0 / np.pi) * np.arctan(np.exp(np.pi * np.asarray(x, dtype=float) / 2.0))


# Kolmogorov-Smirnov critical value of sqrt(n) * D at level 0.001,
# sqrt(log(2 / 0.001) / 2)
KS_CRITICAL = 1.949


def ks_distance(samples, cdf, eval_points=None):
    """Sup distance between the empirical CDF of ``samples`` and ``cdf``.

    With ``eval_points`` the reference CDF is evaluated at that many order
    statistics only, which understates the distance by at most
    1/eval_points.  ``cdf`` receives the points in increasing order.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if eval_points is not None and eval_points < n:
        idx = np.unique(np.linspace(0, n - 1, eval_points).astype(int))
    else:
        idx = np.arange(n)
    f = np.asarray(cdf(x[idx]), dtype=float)
    return float(max(np.max((idx + 1) / n - f), np.max(f - idx / n), 0.0))
