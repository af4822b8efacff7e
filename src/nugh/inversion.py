"""Numerical inversion of characteristic functions: density grids by FFT
of the CF on its band, the frequencies up to the power of two beyond which
an octave bound puts the spectrum below rounding (every frequency of a CF
that has not decayed), CDFs by the Gil-Pelaez formula on one t-table of
Legendre panels per CF, integrated against e^{-itx} exactly (Filon),
quantiles on that table by bracketed Brent steps, all q in lock-step, and
the exponential tail diagnostic.  Grids, tables and the inversion sampler
alike read one record of the CF's frequency scale, cutoff and band from a
walk of power-of-two probes (:func:`_probe`), so each inversion follows the
law's own units at every scale a double holds.

Slowly decaying CFs (the geometric-transform family decays like 1/t) are
handled by a smooth roll-off of the integrand near the truncation
frequency in the density grid, and by a closed-form 1/t tail in the CDF.
"""

from __future__ import annotations

import math
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

CUTOFF_CAP = 2**16  # largest ratio of a decayed CF's cutoff to its frequency scale
_MAX_POINTS = 2**20  # largest density grid
_DECAY_TOL = 1e-12
_NEG_TOL = 1e-7


def _filon_bases():
    """(near, far): the rows that turn a panel's Legendre coefficients
    a_0 .. a_15 of q, times its half-width h, into the coefficients of its
    integral int_{-1}^{1} q(c + h u) e^{-i w u} du, w = h x, on the bases
    cos(w u_j), sin(w u_j), interleaved, at the 16 positive nodes u_j of the
    32-point Gauss-Legendre rule, and [cos(w), sin(w)] w^(-1 .. -17).

    near: the 32-point rule on the series, exact to 4e-15 for |w| <= _NEAR.
    far: the exact moments int_{-1}^{1} P_n(u) e^{-i w u} du = 2 (-i)^n j_n(w)
    (DLMF 10.54.2), j_n by Rayleigh's formula (DLMF 10.49.3), whose integer
    coefficients the recurrence j_{n+1} = (2n + 1) j_n / w - j_{n-1} gives
    exactly; within 1.2e-15 of j_n for |w| >= 16."""
    u, w = np.polynomial.legendre.leggauss(32)
    series = np.polynomial.legendre.legvander(u, 15).T * w
    pos, neg = series[:, 16:], series[:, 15::-1]
    ray = np.zeros((16, 2, 17))  # j_n(w) = sum_k (ray[n, 0, k] cos w + ray[n, 1, k] sin w) w^(-k-1)
    ray[0, 1, 0], ray[1, 1, 1], ray[1, 0, 0] = 1.0, 1.0, -1.0
    for n in range(1, 15):  # ray[n] ends in zeros, so the roll is a shift by one power of 1/w
        ray[n + 1] = (2 * n + 1) * np.roll(ray[n], 1, axis=1) - ray[n - 1]
    near = np.stack([pos + neg, -1j * (pos - neg)], axis=2).reshape(16, 32)
    return near, 2 * (-1j) ** np.arange(16)[:, None] * ray.reshape(16, 34), u[16:]


# Gil-Pelaez table: 16-point Gauss-Legendre panels; _GL_COEF maps a panel's 16 values to
# its Legendre coefficients
_GL_U, _GL_W = np.polynomial.legendre.leggauss(16)
_GL_COEF = np.polynomial.legendre.legvander(_GL_U, 15) * (_GL_W[:, None] * (np.arange(16) + 0.5))
_NEAR_BASIS, _FAR_BASIS, _GL32_POS = _filon_bases()
_NEAR = 16.0  # |h x| up to which a panel is summed on the 32-point rule
_RESOLVED = 1e-11
_TAIL_TOL = 1e-8
_TAIL_CANDIDATES = 18  # T = 64 ... 64 * 2^17, each judged on samples up to 64 * 2^20
_TAIL_OFFSETS = (np.arange(1, 9) * 0.6180339887498949) % 1.0  # irregular, against aliasing
# step of the difference quotients of t cf(t), exact on samples below 2^32: a turn e^{i mu t} cancels
# from them only at mu >= 2 pi 2^20, far more turns on [0, 64] than NODE_BUDGET nodes resolve
_TAIL_STEP = 2.0**-20
QUANTILE_FLOOR = 1e-10  # least tail min(q, 1 - q) that cdf_at's absolute accuracy resolves
NODE_BUDGET = 2**20
_BLOCK = 2**20  # matrix elements per block of the x-by-panel product


def _probe(cf, top):
    """(scale, cutoff, decayed, band) of ``cf`` from a walk of vector CF
    calls, each at t = 0 and at the powers of two t = 2^(k + j), |j| <= 60,
    first about 2^k <= ``top`` < 2^(k + 1).  The first call sets the way:
    down, 60 octaves per call, while the first probe is below |cf(0)| / 2 (a
    law wider than the probes), or up while no probe is below 1e-12 (a
    narrower one), as long as the probes stay within 2^-960 .. 2^960.

    The scale is the CF's frequency scale, the first true crossing of
    |cf(0)| / 2 that the walk meets, a probe t_j with
    |cf(t_j)| < |cf(0)| / 2 <= |cf(t_(j - 1))| (the first call's last probe
    if none).  On the last call, the cutoff is the first probe t with
    |cf(t)| < 1e-12 (the last probe if none), and the CF has decayed if that
    cutoff is at most CUTOFF_CAP times its scale.  The band is the first
    probe t_j at or beyond the cutoff whose octave bound on the spectrum
    above it, the sum of t_i |cf(t_i)| over the probes t_i >= t_j, is at
    most 2^-52 of that sum over the call's probes; it is infinite for a CF
    that has not decayed, or if no probe qualifies.  The probes are powers
    of two, so a CF that is another's rescaled by a power of two has that
    one's record, rescaled."""
    k, step, scale = np.frexp(top)[1] - 1, None, None
    while True:
        t = np.ldexp(1.0, k + np.arange(-60, 61))
        v = np.abs(eval_cf(cf, np.append(0.0, t)))
        half, small, v = v[1:] < 0.5 * v[0], v[1:] < _DECAY_TOL, v[1:]
        cross = half[1:] & ~half[:-1]
        if scale is None and cross.any():
            scale = float(t[1 + np.argmax(cross)])
        if step is None:
            step, last = -60 if half[0] else 60, float(t[-1])
        if not (half[0] and t[0] >= 2.0**-900 if step < 0 else not small.any() and t[-1] <= 2.0**900):
            break
        k += step
    scale = last if scale is None else scale
    cutoff = float(t[np.argmax(small)] if small.any() else t[-1])
    decayed = bool(small.any() and cutoff <= CUTOFF_CAP * scale)
    above = np.cumsum((t * v)[::-1])[::-1]
    band = (t >= cutoff) & (above <= 2.0**-52 * above[0])
    return scale, cutoff, decayed, float(t[np.argmax(band)]) if decayed and band.any() else np.inf


@dataclass(frozen=True)
class DensityGrid:
    """Inversion output: abscissae, density values, and bookkeeping."""

    x: np.ndarray
    pdf: np.ndarray
    total_mass: float
    truncation_bound: float  # |cf| at the last frequency evaluated
    t_top: float  # the grid's top frequency n pi / span
    decayed: bool  # whether |cf| fell below 1e-12 within CUTOFF_CAP times its frequency scale (_probe)
    t_band: float  # the band of _probe up to which the CF is evaluated; t_top if it covers the grid

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
    0 <= t <= min(t_top, band), rolled off on the outer 20% of [0, t_top],
    and one real inverse FFT, which reads the frequencies beyond the band as
    zeros.

    ``n_points``, a power of two >= 1024, is the least grid size: the grid
    doubles (up to 2^20 points) until t_top reaches the cutoff of the
    :func:`_probe` record, whose walk starts at the top frequency
    n_points pi / span of the least grid, so that the grid of cX over
    c x_range is that of X over x_range, rescaled.  A decayed CF whose cutoff
    lies beyond 2^20 points raises :class:`TruncationError`.

    The band is that of the record, infinite for a CF that has not decayed,
    which so keeps its whole half spectrum.  If |cf| does not rise beyond
    the cutoff, as the grid's sizing assumes, the frequencies t_k = k dt in
    an octave [2^j, 2^(j + 1)) add at most
    dt sum |cf(t_k)| <= (2^j + dt) |cf(2^j)| to the inversion sum, so
    dropping those beyond the band moves each density value by at most
    1/pi times the octave sum beyond it: 2^-52 of that sum over all probes,
    below the FFT's own rounding.
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
    _, cutoff, decayed, band = _probe(cf, n * np.pi / span)
    while decayed and n < _MAX_POINTS and n * np.pi < cutoff * span:
        n *= 2
    dt = 2 * np.pi / span
    t_top = n * dt / 2
    if decayed and t_top < cutoff:
        raise TruncationError(
            f"pdf_grid: {n} points on a span of {span:g} reach only t={t_top:g} < cutoff "
            f"{cutoff:g}; the grid stops growing at 2^20 points, so shrink x_range"
        )
    # the CF on t_k = k dt, k = 0 .. m - 1 <= n/2, t_k <= band; cf(-t) = conj(cf(t)) gives the rest
    m = int(min(n // 2, band / dt)) + 1
    vals = eval_cf(cf, np.arange(m) * dt)
    trunc = float(abs(vals[-1]))
    # pdf(lo + j dx) = dt/(2 pi) sum_{|k| <= n/2} cf(t_k) e^{-i t_k (lo + j dx)}, a real
    # inverse DFT of the conjugated half spectrum (dt dx = 2 pi / n), zero beyond k = m - 1
    pdf = np.fft.irfft(_spectral_weights(lo, span, n)[:m] * np.conj(vals), n)
    x = lo + (span / n) * np.arange(n)
    peak = float(np.max(np.abs(pdf)))
    if np.min(pdf) < -_NEG_TOL * peak:
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
    return DensityGrid(x, pdf, total, trunc, float(t_top), decayed, float(min(band, t_top)))


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
    of its shape).  Every x is read off one t-table of the CF in the CF's
    own units (see :class:`_GilPelaez`), whose panels do not depend on x, at
    any |x|, so the CDF of a law of frequency scale >= 1 narrowed by a power
    of two is the law's to the bit; an empty x makes no CF call.
    Raises :class:`ConvergenceError` when t cf(t) does not settle to a
    constant (a 1/t tail, or 0 for a decaying CF), and :class:`RangeError`
    when the table would need more than NODE_BUDGET nodes (a CF that keeps
    turning fast, as from a far shift e^{i mu t}).
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise DomainError("cdf_at: x must be finite")
    if not xs.size:
        return np.empty(xs.shape)
    # every term of F but the limit 1/2 +- 1/2 falls like 1/|x|, so beyond 2^900 F is that limit to
    # rounding, and x in table units (at most 2^960) and t x stay finite
    table = _GilPelaez(cf, "cdf_at")
    lim = min(2.0**900, 2.0**960 / table.scale)
    out = table.cdf(table.scale * np.clip(xs.ravel(), -lim, lim))
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def quantile(cf, q):
    """x with cdf_at(x) ~= q, by bracketed Brent steps, all q in lock-step
    (see :func:`_solve`).  Each q stops once |F - q| <= 2e-7 min(q, 1 - q), a
    tolerance relative to the smaller tail, once its bracket is narrower than
    1e-9 |x|, or after 200 steps (an atom at 0).

    ``q`` may be a scalar (returns a float) or an array (returns an array
    of its shape); every q is solved on its own, and all share one t-table
    and one table read per step, so each x is the one a scalar call returns.
    The steps run in units of the law's width 1/s, s the CF's frequency
    scale, so the bracket ladder starts at x = +-1/s, and a law with s >= 1
    narrowed by a power of two has its quantiles narrowed to the bit.  cdf_at is
    accurate in absolute terms only, so min(q, 1 - q) below QUANTILE_FLOOR
    raises :class:`DomainError`, before any CF call; no q makes none either.
    As in :func:`cdf_at`, a t-table over NODE_BUDGET nodes raises
    :class:`RangeError` and an unsettled t cf(t) :class:`ConvergenceError`;
    a CDF that never reaches q within |x| < 2^80 / s raises
    :class:`BracketError`."""
    qs = np.asarray(q, dtype=float)
    if not np.all((qs > 0.0) & (qs < 1.0)):
        raise DomainError("quantile: q must be in (0, 1)")
    beyond = qs[np.minimum(qs, 1.0 - qs) < QUANTILE_FLOOR]
    if beyond.size:
        raise DomainError(
            f"quantile: q = {beyond[0]:g} is beyond the {QUANTILE_FLOOR:g} tail floor; cdf_at is accurate "
            "in absolute terms only"
        )
    if not qs.size:
        return np.empty(qs.shape)
    table = _GilPelaez(cf, "quantile")
    out = (_solve(table, qs.ravel()) * table.width / table.scale).reshape(qs.shape)
    return float(out) if qs.ndim == 0 else out


def _solve(table, qs):
    """The quantiles of the 1-d array ``qs`` on a shared :class:`_GilPelaez`
    table (see quantile): bracketed Brent steps, all q in lock-step, with one
    table read per round on the next x of every q still open, so that each q
    sees the x and F values of a scalar call.

    The steps run in units of the table's width, a power of two, so that
    their divided differences neither underflow nor overflow at any scale.
    Rung k of the bracket ladder reads F(-x_k) and F(x_k), x_k = 2^k widths,
    in one call, until every q has a first k_lo with F(-x_k_lo) <= q and a
    first k_hi with F(x_k_hi) >= q.  A q's bracket is its tightest pair
    among these rungs, which the later rungs of other q do not change."""
    first = np.full((2, qs.size), -1)
    f, x = [], np.ldexp(1.0, np.arange(80)).tolist()
    for k in range(80):
        f.append(table.cdf(table.width * np.array([-x[k], x[k]])).tolist())
        first[0, (first[0] < 0) & (f[k][0] <= qs)] = k
        first[1, (first[1] < 0) & (f[k][1] >= qs)] = k
        if np.all(first >= 0):
            break
    else:
        raise BracketError(f"quantile: {'lower' if np.any(first[0] < 0) else 'upper'} bracket exhausted")
    solvers = []
    for q, lo, hi in zip(qs.tolist(), *first.tolist()):
        # F(x_(k_hi - 1)) < q if k_hi > 0, and F(-x_(k_lo - 1)) > q if k_lo > 0 (both only where F
        # is not monotone, and then any crossing will do)
        below = (x[hi - 1], f[hi - 1][1]) if hi else (-x[lo], f[lo][0])
        above = (-x[lo - 1], f[lo - 1][0]) if lo else (x[hi], f[hi][1])
        solvers.append(_zeroin(q, *below, *above))
    out = np.empty(qs.size)
    sent = dict.fromkeys(range(qs.size))  # the F value each open q is sent next; None starts it
    while sent:
        asked = {}
        for i, fx in sent.items():
            try:
                asked[i] = solvers[i].send(fx)
            except StopIteration as done:
                out[i] = done.value
        sent = dict(zip(asked, table.cdf(table.width * np.array(list(asked.values()))).tolist())) if asked else {}
    return out


def _zeroin(q, a, fa, b, fb):
    """Brent-Dekker zeroin of F - q from a bracket with F(a) <= q <= F(b)
    (Brent 1973, ch. 4): a generator that yields each next x, is sent F(x)
    and returns the quantile.  Each step is a secant or inverse quadratic
    step inside the bracket if it is shorter than half the step before the
    last, and a bisection otherwise, Brent's guard against slow
    interpolation, so the step length halves at least every second step.
    It stops once |F - q| <= 2e-7 min(q, 1 - q), once the bracket is
    narrower than 1e-9 |x|, or after 200 steps (an atom at 0)."""
    tol = 2e-7 * min(q, 1.0 - q)
    if abs(fa - q) <= tol:
        return a
    # cur is the best point and blk the other end of the bracket; pre is the point before cur,
    # and spre, scur the steps before the last and the last
    pre, fpre, cur, fcur = a, fa - q, b, fb - q
    blk, fblk, spre, scur = pre, fpre, cur - pre, cur - pre
    for _ in range(200):
        if abs(fcur) <= tol:
            return cur
        if (fpre < 0) != (fcur < 0):
            blk, fblk, spre, scur = pre, fpre, cur - pre, cur - pre
        if abs(fblk) < abs(fcur):
            pre, cur, blk, fpre, fcur, fblk = cur, blk, cur, fcur, fblk, fcur
        delta, sbis = 0.5e-9 * abs(cur), 0.5 * (blk - cur)
        if abs(sbis) < delta:
            return cur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if pre == blk:  # secant
                stry = -fcur * (cur - pre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre, dblk = (fpre - fcur) / (pre - cur), (fblk - fcur) / (blk - cur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        pre, fpre = cur, fcur
        cur += scur if abs(scur) > delta else math.copysign(delta, sbis)
        fcur = (yield cur) - q
    return cur


class _GilPelaez:
    """The Gil-Pelaez integral of one CF on one t-table of panels that does
    not depend on x:

        F(x) = 1/2 - (1/pi) int_0^inf Im(e^{-itx} cf(t)) / t dt.

    With q(t) = (cf(t) - cf(0)) / t, which has no pole at t = 0, the
    integral to T is -cf(0) Si(T x) plus that of e^{-itx} q(t), and beyond
    T it is the closed form Im(cf(T) E_2(i T x)) of the model
    cf(t) ~ T cf(T) / t.  Each panel c +- h holds the 16 Legendre
    coefficients a_n of q from its 16 Gauss-Legendre nodes, and is halved
    while h (|a_14| + |a_15|) > _RESOLVED; a CF that falls from cf(0)
    before the first node makes q ~ -cf(0) / t there, which no such series
    resolves, so this one test serves any scale.  A Legendre series
    integrates against e^{-itx} exactly at any x (Filon; see
    :func:`_filon_bases` for the two forms, chosen by |h x|).

    The table is in the CF's own units.  The :func:`_probe` record about
    t = 1, in CF calls of its own, gives the CF's frequency scale s, which
    its walk finds anywhere in 2^-960 .. 2^960.  The table holds
    cf(scale u), scale = max(s, 1), so :meth:`cdf` takes x in table units,
    scale times the CF's, in which the law's width 1/s is ``width``.  The
    table starts as the panels [0, 1/64], [1/64, 1/32], ..., [32, 64] over
    the width, evaluated in the same CF call as the tail samples, and grows
    by panels [T, 2T] up to the largest T(x) asked for.  T = T(x) is the
    first candidate 64 * 2^k in u at which an a-posteriori bound on the tail
    model's error at |x| (:meth:`_tail_reach`) is below _TAIL_TOL; a CF that
    decays meets it once t cf(t) is negligible.  The candidates are never
    shrunk, since t cf(t) of a narrow body may settle only like log t / t.
    Both factors are powers of two, so a law of scale s >= 1 narrowed by
    2^-k has that law's table, to the bit.  The panels are kept sorted, so
    each F(x) sums them in one order, however the table grew.  The node
    budget is checked before each later CF call: a table of more than
    NODE_BUDGET nodes raises :class:`RangeError`.  Errors begin with
    ``name``, the public function that reads the table.
    """

    def __init__(self, cf, name):
        self.cf, self.name = cf, name
        scale = _probe(cf, 1.0)[0]
        self.scale, self.width = max(scale, 1.0), 1.0 / min(scale, 1.0)
        self.tops = 64.0 * 2.0 ** np.arange(_TAIL_CANDIDATES + 2)
        s = (self.tops[:, None] * (1 + _TAIL_OFFSETS)).ravel()
        probe = np.concatenate([[0.0], self.tops, s, s + _TAIL_STEP])
        # per panel: c, h, c + h, and the coefficients on the near and far bases
        self.panels = tuple(np.empty((0,) + shape) for shape in [(), (), (), (32,), (34,)])
        edges = np.append(0.0, 2.0 ** np.arange(-6, 7)) / self.width  # [0, 1/64], ..., [32, 64] over it
        centre, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        vals = eval_cf(cf, self.scale * np.concatenate([probe, (centre[:, None] + half[:, None] * _GL_U).ravel()]))
        self.cf_0, self.cf_tops = vals[0], vals[1 : self.tops.size + 1]
        # the least |x| at which each candidate T holds, and a last entry, 0, for none
        self.reach = np.append(self._tail_reach(probe[1:] * vals[1 : probe.size], self.tops.size), 0.0)
        self._add(centre, half, edges[-1], vals[probe.size :].reshape(-1, _GL_U.size))

    @staticmethod
    def _tail_reach(tv, n):
        """The least |x| at which the 1/t tail model's error bound holds to
        _TAIL_TOL, per candidate T = 64 * 2^k, k < _TAIL_CANDIDATES, from
        t cf(t) at the n tops, their samples, and the samples + _TAIL_STEP.

        With r(t) = t cf(t) - T cf(T), the model's error is at most
        sup|r| / (pi T) and, integrating by parts, at most
        (sup|r'| / T + sup|r| / T^2) / (pi |x|).  The sups over t >= T
        are taken over samples of t cf(t) and its difference quotients in
        [T', 2 T') for T' = T, 2 T, ... 64 * 2^19; an r that keeps oscillating,
        as from a factor e^{i mu t} outside the transform, keeps both large.
        """
        m, k = (tv.size - n) // 2, np.arange(_TAIL_CANDIDATES)
        rows = np.hstack([tv[:n, None], tv[n : n + m].reshape(n, -1)])  # t cf(t) at each top and its samples
        slope = np.max(np.abs(tv[n + m :] - tv[n : n + m]).reshape(n, -1), axis=1) / _TAIL_STEP
        dist = np.max(np.abs(rows - tv[k, None, None]), axis=2)  # sup |r| over the samples of each top
        sup_r = np.max(np.where(k[:, None] <= np.arange(n), dist, 0.0), axis=1)
        top = 64.0 * 2.0**k
        a, b = sup_r / top, np.maximum.accumulate(slope[::-1])[::-1][k] / top + sup_r / top**2
        return np.where(a <= np.pi * _TAIL_TOL, 0.0, b / (np.pi * _TAIL_TOL))  # the bound is min(a, b / |x|) / pi

    def _add(self, centre, half, top, vals=None):
        """Adds the panels c +- h, which extend the table to t = ``top``,
        halving each until it is resolved; the CF at their nodes is
        ``vals``, or is evaluated once the table with them is known to fit
        NODE_BUDGET."""
        for _ in range(60):
            t = centre[:, None] + half[:, None] * _GL_U
            if vals is None:
                if (self.panels[0].size + centre.size) * _GL_U.size > NODE_BUDGET:
                    raise RangeError(
                        f"{self.name}: the t-table to t={self.scale * top:g} needs more than {NODE_BUDGET} nodes"
                    )
                vals = eval_cf(self.cf, self.scale * t.ravel()).reshape(t.shape)
            a = ((vals - self.cf_0) / t) @ _GL_COEF
            bad = half * (np.abs(a[:, -2]) + np.abs(a[:, -1])) > _RESOLVED
            c, h, ha = centre[~bad], half[~bad], half[~bad, None] * a[~bad]
            new = (c, h, c + h, ha @ _NEAR_BASIS, ha @ _FAR_BASIS)
            self.panels = tuple(np.concatenate(pair) for pair in zip(self.panels, new))
            if not bad.any():
                order = np.argsort(self.panels[0])
                self.panels = tuple(a[order] for a in self.panels)
                return
            c, hw = centre[bad], 0.5 * half[bad]
            centre, half, vals = np.concatenate([c - hw, c + hw]), np.concatenate([hw, hw]), None
        raise ConvergenceError(f"{self.name}: panel halving does not resolve the CF")

    def cdf(self, x):
        """F at the points of the 1-d array ``x``, clamped to [0, 1]."""
        from scipy.special import exp1, sici  # at call time: importing nugh loads no scipy

        k = np.argmax(np.abs(x)[:, None] >= self.reach, axis=1)
        top = self.tops[k]
        t_max = top.max(initial=0.0)
        if t_max == self.tops[_TAIL_CANDIDATES]:
            raise ConvergenceError(
                f"{self.name}: t cf(t) does not settle by t={self.scale * t_max / 2:g}; "
                f"its 1/t tail model holds from |x| = {self.reach[-2] / self.scale:.3g}"
            )
        have = self.panels[2].max()  # the panels tile [0, have]
        if t_max > have:  # panels [T, 2 T] up to t_max
            lo = have * 2.0 ** np.arange(np.log2(t_max / have))
            self._add(1.5 * lo, 0.5 * lo, t_max)
        total = np.empty(x.size)
        rows = max(1, _BLOCK // self.panels[3].size)
        for i in range(0, x.size, rows):
            total[i : i + rows] = self._panel_sum(x[i : i + rows], top[i : i + rows])
        # E_2(z) = e^{-z} - z E_1(z) at z = i T x, with E_2(0) = 1: both terms are of size 1, so its
        # error stays near 1e-16 at any |z|; a form in Si and Ci has terms of size |z|, and |z| times that
        z = 1j * top * x
        e2 = np.exp(-z) - z * exp1(np.where(z == 0, 1.0, z))
        total += (self.cf_tops[k] * e2).imag - self.cf_0.real * sici(top * x)[0]
        return np.minimum(np.maximum(0.5 - total / np.pi, 0.0), 1.0)

    def _panel_sum(self, x, top):
        """Im of the sum, over the panels below T(x), of the integral of
        e^{-itx} q(t), at each x."""
        centre, half, edge, near_coef, far_coef = self.panels
        xi, p = np.nonzero(edge <= top[:, None])
        xv = x[xi]
        w = half[p] * xv
        near = np.abs(w) <= _NEAR
        val = np.empty(xi.size, dtype=complex)
        val[near] = np.einsum("km,km->k", np.exp(1j * np.outer(w[near], _GL32_POS)).view(float), near_coef[p[near]])
        powers = np.cumprod(np.repeat(1 / w[~near, None], 17, axis=1), axis=1)
        basis = np.exp(1j * w[~near]).view(float).reshape(-1, 2, 1) * powers[:, None, :]
        val[~near] = np.einsum("km,km->k", basis.reshape(-1, 34), far_coef[p[~near]])
        return np.bincount(xi, (np.exp(-1j * centre[p] * xv) * val).imag, minlength=x.size)


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
