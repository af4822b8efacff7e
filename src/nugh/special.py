"""Complex special functions: modified Bessel K, Chebyshev polynomials,
branch-controlled square roots and the distinguished logarithm of a
characteristic function."""

from __future__ import annotations

import numpy as np
from scipy.special import kv as _scipy_kv

from .errors import BranchError, ConvergenceError, DomainError, RangeError

MAX_BESSEL_ORDER = 50.0

_PHASE_CAP = np.pi / 2
_STEP_FLOOR = 1e-9


def bessel_k(order, z):
    """Modified Bessel function of the second kind K_order(z), re(z) > 0.

    Accepts scalar or array ``z``; real order with ``|order| <= 50``.
    """
    if abs(order) > MAX_BESSEL_ORDER:
        raise DomainError(f"bessel_k: |order| must be <= {MAX_BESSEL_ORDER}, got {order}")
    zc = np.asarray(z, dtype=complex)
    if np.any(zc.real <= 0):
        raise DomainError("bessel_k: requires re(z) > 0")
    out = _scipy_kv(order, zc)
    if not np.all(np.isfinite(out)):
        raise ConvergenceError("bessel_k: non-finite result (argument too extreme)")
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(out)
    return out


def chebyshev_t(n, x):
    """Chebyshev polynomial of the first kind T_n(x) by the three-term
    recurrence; ``x`` may be complex."""
    if n < 0 or int(n) != n:
        raise DomainError(f"chebyshev_t: n must be a nonnegative integer, got {n}")
    if n > 10**6:
        raise RangeError(f"chebyshev_t: n={n} exceeds the supported range 1e6")
    n = int(n)
    x = complex(x) if np.ndim(x) == 0 else np.asarray(x, dtype=complex)
    if n == 0:
        return 1.0 + 0j if np.ndim(x) == 0 else np.ones_like(x)
    prev, cur = (1.0 + 0j, x) if np.ndim(x) == 0 else (np.ones_like(x), x)
    for _ in range(n - 1):
        prev, cur = cur, 2 * x * cur - prev
        bad = not np.all(np.isfinite(cur))
        if bad:
            raise RangeError("chebyshev_t: overflow in recurrence")
    return cur


def sqrt_right(z, require_positive=False):
    """Square root with re >= 0; on the cut (re = 0) the branch with
    im >= 0 is chosen.  Scalar or array."""
    zc = np.asarray(z, dtype=complex)
    if require_positive and np.any(zc == 0):
        raise DomainError("sqrt_right: z = 0 not allowed when a positive real part is required")
    w = np.sqrt(zc)
    # numpy's principal sqrt maps the lower edge of the cut to -i; flip it
    flip = (w.real < 0) | ((w.real == 0) & (w.imag < 0))
    w = np.where(flip, -w, w)
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(w)
    return w


def eval_cf(cf, t):
    """Evaluate a characteristic function on a 1-d array of t.

    A callable that rejects arrays (a TypeError, or a result of the wrong
    shape) is evaluated point by point; any other error propagates.
    """
    t = np.asarray(t, dtype=float)
    try:
        v = np.asarray(cf(t), dtype=complex)
    except TypeError:
        pass
    else:
        if v.shape == t.shape:
            return v
    return np.array([complex(cf(float(x))) for x in t])


class LogTrack:
    """Continuous (distinguished) branch of log cf on [0, t_max].

    Built by :func:`distinguished_log`; immutable once constructed.  The
    imaginary part is continued across the grid so no 2*pi jumps occur,
    and ``log_at`` continues from the nearest grid node for off-grid t.
    Negative t is served through conjugate symmetry.
    """

    def __init__(self, cf, grid, log_values):
        self.cf = cf
        self.grid = np.asarray(grid, dtype=float)
        self.log_values = np.asarray(log_values, dtype=complex)

    @property
    def t_max(self):
        return float(self.grid[-1])

    def log_at(self, t):
        """Distinguished log cf at scalar t, |t| <= t_max."""
        t = float(t)
        if t < 0:
            return np.conj(self.log_at(-t))
        if t > self.t_max + 1e-12:
            raise RangeError(f"LogTrack: t={t} beyond tracked range {self.t_max}")
        idx = int(np.searchsorted(self.grid, min(t, self.t_max), side="right")) - 1
        t0, base = float(self.grid[idx]), self.log_values[idx]
        return _continue_log(self.cf, t0, base, t)

    def values(self, t):
        """Vectorized distinguished log over an array of t."""
        t = np.asarray(t, dtype=float)
        return np.array([self.log_at(x) for x in t.ravel()]).reshape(t.shape)

    def cf_at(self, t):
        return np.exp(self.log_at(t))


def _continue_log(cf, t0, base, t1, depth=0):
    """Continue a known log value at t0 to t1 by principal-log steps with
    phase increments below pi/2."""
    if t1 == t0:
        return base
    f0 = complex(eval_cf(cf, np.array([t0]))[0])
    f1 = complex(eval_cf(cf, np.array([t1]))[0])
    if f1 == 0:
        raise BranchError(f"distinguished log: cf vanishes at t={t1}")
    step = np.log(f1 / f0)
    if abs(step.imag) < _PHASE_CAP:
        return base + step
    if abs(t1 - t0) / 2 < _STEP_FLOOR or depth > 60:
        raise BranchError(
            f"distinguished log: phase increment {step.imag:.3f} at step floor near t={t1}"
        )
    mid = 0.5 * (t0 + t1)
    half = _continue_log(cf, t0, base, mid, depth + 1)
    return _continue_log(cf, mid, half, t1, depth + 1)


def distinguished_log(cf, t_max, initial_points=257):
    """Build the continuous branch of log cf on [0, t_max].

    ``cf`` must satisfy cf(0) = 1 and be continuous and non-vanishing on
    the interval.  The grid refines adaptively until consecutive phase
    increments stay below pi/2; hitting the step floor raises
    :class:`BranchError` (a near-zero of the cf).
    """
    if t_max <= 0:
        raise DomainError("distinguished_log: t_max must be positive")
    grid = np.linspace(0.0, t_max, initial_points)
    vals = eval_cf(cf, grid)
    if abs(vals[0] - 1.0) > 1e-9:
        raise DomainError("distinguished_log: cf(0) must equal 1")
    for _ in range(60):
        if np.any(vals == 0):
            raise BranchError("distinguished_log: cf vanishes on the grid")
        dphi = np.angle(vals[1:] / vals[:-1])
        bad = np.abs(dphi) >= _PHASE_CAP
        if not np.any(bad):
            break
        if np.min(np.diff(grid)[bad]) / 2 < _STEP_FLOOR:
            raise BranchError("distinguished_log: refinement floor hit; cf near zero")
        mids = 0.5 * (grid[:-1][bad] + grid[1:][bad])
        grid = np.sort(np.concatenate([grid, mids]))
        vals = eval_cf(cf, grid)
    else:
        raise BranchError("distinguished_log: refinement did not converge")
    phases = np.concatenate([[0.0], np.cumsum(np.angle(vals[1:] / vals[:-1]))])
    log_values = np.log(np.abs(vals)) + 1j * phases
    log_values[0] = 0.0
    return LogTrack(cf, grid, log_values)
