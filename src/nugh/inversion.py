"""Numerical inversion of characteristic functions: density grids by FFT,
CDFs by the Gil-Pelaez formula on Gauss-Legendre t-tables, quantiles, and
the exponential tail diagnostic.

Slowly decaying CFs (the geometric-transform family decays like 1/t) are
handled by a smooth roll-off of the integrand near the truncation
frequency in the density grid, and by a closed-form 1/t tail in the CDF.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AliasError,
    BracketError,
    ConvergenceError,
    DomainError,
    RangeError,
    TruncationError,
)
from .special import eval_cf

CUTOFF_CAP = 2**16  # least reach of pdf_grid's decay probe
_MAX_POINTS = 2**20  # largest density grid
_DECAY_TOL = 1e-12
_NEG_TOL = 1e-7

# Gil-Pelaez tables: 16-point Gauss-Legendre panels; the rows of the discrete
# Legendre transform that give a panel's two top coefficients and its value at u = -1
_GL_U, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_TOP = (np.polynomial.legendre.legvander(_GL_U, 15)[:, 14:] * (_GL_W[:, None] * [14.5, 15.5])).T
_GL_LEFT = _GL_W * (np.polynomial.legendre.legvander(_GL_U, 15) @ ((np.arange(16) + 0.5) * (-1.0) ** np.arange(16)))
_RESOLVED = 1e-5
_TAIL_TOL = 1e-8
_TAIL_CANDIDATES = 18  # T = 64 ... 64 * 2^17, each sampled up to 8 T
_TAIL_OFFSETS = (np.arange(1, 9) * 0.6180339887498949) % 1.0  # irregular, against aliasing
_SMALL_X = 2.0**-4  # |x| below this shares the table of x = 0
QUANTILE_FLOOR = 1e-10  # least tail min(q, 1 - q) that cdf_at's absolute accuracy resolves
NODE_BUDGET = 2**20
_BLOCK = 2**20  # matrix elements per block of the x-by-panel product


def adaptive_cutoff(cf, reach):
    """The first t = 16 * 2^k with |cf(t)| < 1e-12, probing every such t up
    to the first >= ``reach`` in one vector CF call; returns (cutoff,
    decayed flag), and (top probe, False) when |cf| stays larger."""
    t = 16.0 * 2.0 ** np.arange(np.ceil(np.log2(reach / 16.0)) + 1)
    small = np.abs(eval_cf(cf, t)) < _DECAY_TOL
    return (float(t[np.argmax(small)]), True) if small.any() else (float(t[-1]), False)


@dataclass(frozen=True)
class DensityGrid:
    """Inversion output: abscissae, density values, and bookkeeping."""

    x: np.ndarray
    pdf: np.ndarray
    total_mass: float
    truncation_bound: float  # |cf| at the truncation frequency
    t_top: float  # the grid's top frequency n pi / span
    decayed: bool  # whether |cf| fell below 1e-12 within the probe's reach (adaptive_cutoff)

    @property
    def dx(self):
        return float(self.x[1] - self.x[0])

    def interp_pdf(self, xq):
        return np.interp(np.asarray(xq, dtype=float), self.x, self.pdf)

    def cdf_values(self):
        """Cumulative trapezoid of the grid density, normalised to end at 1."""
        c = np.concatenate([[0.0], np.cumsum((self.pdf[1:] + self.pdf[:-1]) * 0.5)]) * self.dx
        return c / c[-1]


def pdf_grid(cf, x_range, n_points=4096):
    """Density on a uniform grid over ``x_range`` by discrete Fourier
    inversion of ``cf``: one vector CF call on the half spectrum
    0 <= t <= t_top, rolled off on its outer 20%, and one real inverse FFT.

    ``n_points``, a power of two >= 1024, is the least grid size: the grid
    doubles (up to 2^20 points) until t_top reaches :func:`adaptive_cutoff`,
    which probes as far as the larger of CUTOFF_CAP and the top frequency
    2^20 pi / span of the largest grid.  A decaying CF whose cutoff lies
    beyond 2^20 points raises :class:`TruncationError`.
    """
    lo, hi = float(x_range[0]), float(x_range[1])
    if not np.isfinite(hi - lo):
        raise DomainError(f"pdf_grid: x range ({lo:g}, {hi:g}) must be finite, with a finite span")
    if not hi > lo:
        raise DomainError("pdf_grid: empty x range")
    n = int(n_points)
    if n < 1024 or n & (n - 1):
        raise DomainError("pdf_grid: n_points must be a power of two >= 1024")
    span = hi - lo
    cutoff, decayed = adaptive_cutoff(cf, max(CUTOFF_CAP, _MAX_POINTS * np.pi / span))
    while decayed and n < _MAX_POINTS and n * np.pi < cutoff * span:
        n *= 2
    dt = 2 * np.pi / span
    t_top = n * dt / 2
    if decayed and t_top < cutoff:
        raise TruncationError(
            f"pdf_grid: {n} points on a span of {span:g} reach only t={t_top:g} < cutoff "
            f"{cutoff:g}; the grid stops growing at 2^20 points, so shrink x_range"
        )
    # the CF on t_k = k dt, k = 0 .. n/2; cf(-t) = conj(cf(t)) gives the rest
    vals = eval_cf(cf, np.arange(n // 2 + 1) * dt)
    trunc = float(abs(vals[-1]))
    # pdf(lo + j dx) = dt/(2 pi) sum_{|k| <= n/2} cf(t_k) e^{-i t_k (lo + j dx)}, a real
    # inverse DFT of the conjugated half spectrum (dt dx = 2 pi / n)
    pdf = np.fft.irfft(_spectral_weights(lo, span, n) * np.conj(vals), n)
    x = lo + (span / n) * np.arange(n)
    peak = float(np.max(np.abs(pdf)))
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
    return DensityGrid(x, pdf, total, trunc, float(t_top), decayed)


@lru_cache(maxsize=8)
def _spectral_weights(lo, span, n):
    """Read-only weights of the half spectrum t_k = k dt, k = 0 .. n/2, of
    :func:`pdf_grid`: the shift e^{i t_k lo} to the grid's origin, the scale
    n dt / (2 pi) = n / span that undoes irfft's 1/n, and a raised-cosine
    roll-off on the outer 20% of the band."""
    t = np.arange(n // 2 + 1) * (2 * np.pi / span)
    w = np.exp(1j * lo * t) * (n / span)
    a = 0.8 * t[-1]
    w *= np.where(t > a, 0.5 * (1 + np.cos(np.pi * (t - a) / (t[-1] - a))), 1.0)
    w.setflags(write=False)
    return w


def cdf_at(cf, x):
    """P(X <= x) by the Gil-Pelaez inversion formula, clamped to [0, 1].

    ``x`` may be a scalar (returns a float) or an array (returns an array
    of its shape).  The CF is evaluated in one vectorized call per octave
    of |x| on a Gauss-Legendre t-table (see :class:`_GilPelaez`) that
    resolves it and meets cf(0) at t = 0, at any scale.  Raises
    :class:`ConvergenceError` when t cf(t) does not settle to a constant (a
    1/t tail, or 0 for a decaying CF), and :class:`RangeError` when a table
    would need more than NODE_BUDGET nodes (|x| far beyond the law's scale).
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise DomainError("cdf_at: x must be finite")
    out = _CdfTables(cf)(xs.ravel())
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def quantile(cf, q):
    """x with cdf_at(x) ~= q, by bracket expansion and bisection.  Bisection
    stops once |F - q| <= 2e-7 min(q, 1 - q), a tolerance relative to the smaller
    tail, once the bracket is narrower than 1e-9 |x|, or after 200 steps (an atom at 0).

    ``q`` may be a scalar (returns a float) or an array (returns an array
    of its shape); every q is solved on its own, and all share one t-table
    per octave of |x|, so each x is the one a scalar call returns.
    cdf_at is accurate in absolute terms only, so min(q, 1 - q) below
    QUANTILE_FLOOR raises :class:`DomainError`, before any CF call."""
    qs = np.asarray(q, dtype=float)
    if not np.all((qs > 0.0) & (qs < 1.0)):
        raise DomainError("quantile: q must be in (0, 1)")
    beyond = qs[np.minimum(qs, 1.0 - qs) < QUANTILE_FLOOR]
    if beyond.size:
        raise DomainError(
            f"quantile: q = {beyond[0]:g} is beyond the {QUANTILE_FLOOR:g} tail floor; cdf_at is accurate "
            "in absolute terms only"
        )
    tables = _CdfTables(cf)
    out = np.array([_bisect(tables, float(v)) for v in qs.flat]).reshape(qs.shape)
    return float(out) if qs.ndim == 0 else out


def _bisect(tables, q):
    """The quantile of one q on shared :class:`_CdfTables` (see quantile)."""
    tol = 2e-7 * min(q, 1.0 - q)

    def cdf(x):
        try:
            return float(tables(np.array([x]))[0])
        except RangeError as exc:
            raise BracketError(f"quantile: F({x:g}) needs too large a t-table ({exc})") from exc

    lo, hi = -1.0, 1.0
    for _ in range(80):
        if cdf(lo) <= q:
            break
        lo *= 2
    else:
        raise BracketError("quantile: lower bracket exhausted")
    for _ in range(80):
        if cdf(hi) >= q:
            break
        hi *= 2
    else:
        raise BracketError("quantile: upper bracket exhausted")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = cdf(mid)
        if abs(fm - q) <= tol or hi - lo < 1e-9 * abs(mid):
            return mid
        if fm < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class _CdfTables:
    """The CDF of one CF through Gil-Pelaez tables, one per octave
    2^k <= |x| < 2^(k+1) of the evaluation points (|x| < _SMALL_X share
    one), each built on first use."""

    def __init__(self, cf):
        self.cf = cf
        self._tables = {}

    def __call__(self, x):
        octave = np.floor(np.log2(np.maximum(np.abs(x), _SMALL_X)))
        out = np.empty(x.shape)
        for k in np.unique(octave):
            if k not in self._tables:
                x_lo = 0.0 if 2.0**k == _SMALL_X else 2.0**k
                self._tables[k] = _GilPelaez(self.cf, x_lo, 2.0 ** (k + 1))
            m = octave == k
            out[m] = self._tables[k].cdf(x[m])
        return out


class _GilPelaez:
    """The Gil-Pelaez integral on one composite Gauss-Legendre t-table,
    valid for every x with x_lo <= |x| <= x_hi:

        F(x) = 1/2 - (1/pi) int_0^inf Im(e^{-itx} cf(t)) / t dt.

    The table has the fewest equal 16-point panels on [0, T] no wider than
    one period 2 pi / x_hi of e^{-itx}, each halved until the CF is
    resolved on it: its top Legendre coefficients and, for the panel at
    t = 0, its interpolant's miss of cf(0) there are within _RESOLVED.
    That exact anchor (cf(0) is evaluated, not assumed) has no length in
    it, so a wide law's CF that falls from 1 to nothing before the first
    node of the panel at 0 shows at any scale.  The integral beyond T is
    the closed form Im(cf(T) E_2(i T x)) of the model cf(t) ~ T cf(T) / t,
    at the first candidate T where an a-posteriori bound on that model's
    error (:meth:`_tail_start`) is below _TAIL_TOL; a CF that decays meets
    it once t cf(t) is negligible.
    The node budget is checked before each round of CF calls: a table
    of more than NODE_BUDGET nodes raises :class:`RangeError`.
    """

    def __init__(self, cf, x_lo, x_hi):
        cap = 2 * np.pi / x_hi
        self.t_top, self.cf_top, cf_0 = self._tail_start(cf, x_lo, cap)
        n = int(np.ceil(self.t_top / cap))
        half = np.full(n, self.t_top / n / 2)  # one float per width: cdf groups by it
        centre = np.cumsum(2 * half) - half
        done = []  # (centres, half-widths, CF values) of the resolved panels, per round
        for _ in range(60):
            if (centre.size + sum(c.size for c, _, _ in done)) * _GL_U.size > NODE_BUDGET:
                raise RangeError(f"cdf_at: the t-table to t={self.t_top:g} needs more than {NODE_BUDGET} nodes")
            vals = eval_cf(cf, (centre[:, None] + half[:, None] * _GL_U).ravel()).reshape(-1, _GL_U.size)
            bad = np.max(np.abs(vals @ _GL_TOP.T), axis=1) > _RESOLVED
            bad |= (centre == half) & (np.abs(vals @ _GL_LEFT - cf_0) > _RESOLVED)  # the panel at t = 0
            done.append((centre[~bad], half[~bad], vals[~bad]))
            if not np.any(bad):
                break
            c, hw = centre[bad], 0.5 * half[bad]
            centre, half = np.concatenate([c - hw, c + hw]), np.concatenate([hw, hw])
        else:
            raise ConvergenceError("cdf_at: panel halving does not resolve the CF")
        self.centre, self.half, vals = (np.concatenate(parts) for parts in zip(*done))
        self.weights = self.half[:, None] * _GL_W * vals / (self.centre[:, None] + self.half[:, None] * _GL_U)

    @staticmethod
    def _tail_start(cf, x_lo, cap):
        """(T, cf(T), cf(0)) for the first T = 64 * 2^k at which the 1/t
        tail model is good to _TAIL_TOL for every |x| >= x_lo.

        With r(t) = t cf(t) - T cf(T), the model's error is at most
        sup|r| / (pi T) and, integrating by parts, at most
        (sup|r'| / T + sup|r| / T^2) / (pi |x|).  The sups over t >= T
        are taken over samples of t cf(t) and its difference quotients on
        [T, 8 T]; an r that keeps oscillating, as from a factor e^{i mu t}
        outside the transform, keeps both bounds large.
        """
        tops = 64.0 * 2.0 ** np.arange(_TAIL_CANDIDATES + 2)
        s = (tops[:, None] * (1 + _TAIL_OFFSETS)).ravel()
        eps = min(1.0, cap) / 64
        pts = np.concatenate([[0.0], tops, s, s + eps])
        vals = eval_cf(cf, pts)
        tv = pts[1:] * vals[1:]
        n = tops.size
        ts = tv[n : n + s.size].reshape(n, -1)
        slope = (tv[n + s.size :] - tv[n : n + s.size]).reshape(n, -1) / eps
        for i, top in enumerate(tops[:_TAIL_CANDIDATES]):
            sup_r = max(np.max(np.abs(ts[i:] - tv[i])), np.max(np.abs(tv[i:n] - tv[i])))
            bound = sup_r / top
            if x_lo > 0:
                bound = min(bound, (np.max(np.abs(slope[i:])) / top + sup_r / top**2) / x_lo)
            if bound / np.pi <= _TAIL_TOL:
                return float(top), complex(tv[i] / top), complex(vals[0])
        raise ConvergenceError(
            f"cdf_at: t cf(t) does not settle by t={top:g}; 1/t tail model error bound {bound / np.pi:.2e}"
        )

    def cdf(self, x):
        """F at the points of the 1-d array ``x``, clamped to [0, 1]."""
        total = np.empty(x.size)
        rows = max(1, _BLOCK // self.centre.size)
        for i in range(0, x.size, rows):
            xb = x[i : i + rows]
            inner = np.empty((self.centre.size, xb.size), dtype=complex)
            for hw in np.unique(self.half):
                m = self.half == hw
                inner[m] = self.weights[m] @ np.exp(-1j * hw * np.outer(_GL_U, xb))
            total[i : i + rows] = np.sum(np.exp(-1j * np.outer(self.centre, xb)) * inner, axis=0).imag
        total += (self.cf_top * _e2(1j * self.t_top * x)).imag
        return np.clip(0.5 - total / np.pi, 0.0, 1.0)


def _e2(z):
    """Exponential integral E_2(z) = e^{-z} - z E_1(z), with E_2(0) = 1."""
    from scipy.special import exp1

    nz = z != 0
    out = np.exp(-z)
    out[nz] -= z[nz] * exp1(z[nz])
    return out


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
