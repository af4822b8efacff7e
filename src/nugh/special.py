"""Complex special functions: branch-controlled square roots, vectorised
characteristic-function evaluation and the distinguished logarithm of a
characteristic function."""

from __future__ import annotations

import numpy as np

from .errors import BranchError, DomainError

_PHASE_CAP = np.pi / 2
_STEP_FLOOR = 1e-9
_INITIAL_POINTS = 257  # nodes of unwrap_log's first grid, before refinement


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
    """Evaluate a characteristic function on a 1-d array of t, in one call;
    a result whose shape differs from t's raises :class:`DomainError`."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(cf(t), dtype=complex)
    if v.shape != t.shape:
        raise DomainError(f"eval_cf: the CF returned shape {v.shape} for t of shape {t.shape}")
    return v


def unwrap_log(cf, t):
    """Distinguished (continuous) log of ``cf`` at real t, scalar or array.

    ``cf`` must satisfy cf(0) = 1 and be continuous and non-vanishing on
    [0, max|t|].  It is evaluated, in one vector call, on the union of |t|
    and _INITIAL_POINTS nodes spanning [0, max|t|]; every interval whose
    phase step reaches pi/2 is bisected, evaluating only the new midpoints,
    until none does.  Each value is the principal log plus the multiple of
    2 pi i that the summed phase steps select, so rounding does not
    accumulate along the nodes.  Negative t takes the conjugate.  A cf that
    vanishes, or a step that reaches the floor, raises :class:`BranchError`.
    """
    t = np.asarray(t, dtype=float)
    at = np.abs(t.ravel())
    nodes = np.unique(np.concatenate([np.linspace(0.0, np.max(at, initial=0.0), _INITIAL_POINTS), at]))
    vals = eval_cf(cf, nodes)
    if abs(vals[0] - 1.0) > 1e-9:
        raise DomainError("unwrap_log: cf(0) must equal 1")
    for _ in range(60):
        if np.any(vals == 0):
            raise BranchError(f"unwrap_log: cf vanishes at t={nodes[np.argmax(vals == 0)]}")
        bad = np.flatnonzero(np.abs(np.angle(vals[1:] / vals[:-1])) >= _PHASE_CAP)
        if not bad.size:
            break
        half = (nodes[bad + 1] - nodes[bad]) / 2
        if np.min(half) < _STEP_FLOOR:
            near = nodes[bad[np.argmin(half)]]
            raise BranchError(f"unwrap_log: phase step at the floor near t={near}; cf near zero")
        mids = nodes[bad] + half
        nodes = np.insert(nodes, bad + 1, mids)
        vals = np.insert(vals, bad + 1, eval_cf(cf, mids))
    else:
        raise BranchError("unwrap_log: refinement did not converge")
    phases = np.concatenate([[0.0], np.cumsum(np.angle(vals[1:] / vals[:-1]))])
    logs = np.log(vals)
    logs += 2j * np.pi * np.round((phases - logs.imag) / (2 * np.pi))
    logs[0] = 0.0
    out = logs[np.searchsorted(nodes, at)]
    out = np.where(t.ravel() < 0, np.conj(out), out).reshape(t.shape)
    return out if out.ndim else complex(out)
