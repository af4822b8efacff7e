"""Complex special functions: modified Bessel K, branch-controlled square
roots and the distinguished logarithm of a characteristic function."""

from __future__ import annotations

import numpy as np
from scipy.special import kv as _scipy_kv

from .errors import BranchError, ConvergenceError, DomainError, RangeError

MAX_BESSEL_ORDER = 50.0

_PHASE_CAP = np.pi / 2
_STEP_FLOOR = 1e-9
_INITIAL_POINTS = 257  # first grid of distinguished_log, before refinement


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


def sqrt_right(z):
    """Square root with re >= 0; on the cut (re = 0) the branch with
    im >= 0 is chosen.  Scalar or array."""
    w = np.sqrt(np.asarray(z, dtype=complex))
    # numpy's principal sqrt has re >= 0 but maps the lower edge of the cut
    # to -i; flip it
    flip = (w.real == 0) & (w.imag < 0)
    if np.any(flip):
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

    Built by :func:`distinguished_log`; immutable once constructed.  Holds
    the grid, the log values and the CF values at its nodes.  The imaginary
    part is continued across the grid so no 2*pi jumps occur; an off-grid t
    is continued from the node at or below it.  Negative t is served
    through conjugate symmetry.
    """

    def __init__(self, cf, grid, log_values, cf_values):
        self.cf = cf
        self.grid = np.asarray(grid, dtype=float)
        self.log_values = np.asarray(log_values, dtype=complex)
        self.cf_values = np.asarray(cf_values, dtype=complex)

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
        f = complex(eval_cf(self.cf, np.array([t]))[0])
        return _continue_log(self.cf, self.grid[idx], self.cf_values[idx], self.log_values[idx], t, f)

    def values(self, t):
        """Distinguished log over an array of t, |t| <= t_max.

        One vector CF call; each point takes one principal-log step from
        the node at or below |t|.  Only points whose step reaches a phase
        of pi/2, or where the CF vanishes, are continued point by point.
        """
        t = np.asarray(t, dtype=float)
        at = np.abs(t.ravel())
        if np.any(at > self.t_max + 1e-12):
            raise RangeError(f"LogTrack: t={np.max(at)} beyond tracked range {self.t_max}")
        idx = np.searchsorted(self.grid, np.minimum(at, self.t_max), side="right") - 1
        f = eval_cf(self.cf, at)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(at == self.grid[idx], 0.0, np.log(f / self.cf_values[idx]))
        out = self.log_values[idx] + step
        for k in np.flatnonzero((f == 0) | ~(np.abs(step.imag) < _PHASE_CAP)):
            i = idx[k]
            out[k] = _continue_log(self.cf, self.grid[i], self.cf_values[i], self.log_values[i], at[k], f[k])
        return np.where(t.ravel() < 0, np.conj(out), out).reshape(t.shape)


def _continue_log(cf, t0, f0, base, t1, f1, depth=0):
    """Continue the log value ``base`` of cf(t0) = f0 to t1, where
    cf(t1) = f1, by principal-log steps with phase increments below pi/2,
    bisecting the interval as needed."""
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
    fm = complex(eval_cf(cf, np.array([mid]))[0])
    half = _continue_log(cf, t0, f0, base, mid, fm, depth + 1)
    return _continue_log(cf, mid, fm, half, t1, f1, depth + 1)


def distinguished_log(cf, t_max):
    """Build the continuous branch of log cf on [0, t_max].

    ``cf`` must satisfy cf(0) = 1 and be continuous and non-vanishing on
    the interval.  The grid refines adaptively until consecutive phase
    increments stay below pi/2; hitting the step floor raises
    :class:`BranchError` (a near-zero of the cf).
    """
    if t_max <= 0:
        raise DomainError("distinguished_log: t_max must be positive")
    grid = np.linspace(0.0, t_max, _INITIAL_POINTS)
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
    return LogTrack(cf, grid, log_values, vals)
