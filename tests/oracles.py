"""Reference implementations that the tests compare the library against,
written independently of it."""

import numpy as np

from nugh.errors import ConvergenceError, DomainError, RangeError


def chebyshev_t(n, x):
    """Chebyshev polynomial of the first kind T_n(x) by the three-term
    recurrence; ``x`` may be complex.  The oracle for the Chebyshev
    p.g.f. 1 / T_n(1/z)."""
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
        if not np.all(np.isfinite(cur)):
            raise RangeError("chebyshev_t: overflow in recurrence")
    return cur


def sample_gaussian(n, rng, sigma=1.0):
    return sigma * rng.standard_normal(n)


def gaussian_cdf(x, sigma=1.0):
    from scipy.special import ndtr

    return ndtr(np.asarray(x, dtype=float) / sigma)


def sample_stable_symmetric(alpha, n, rng):
    """Symmetric strictly stable with CF exp(-|t|^alpha) by the
    trigonometric (Chambers-Mallows-Stuck) construction."""
    if not 0 < alpha <= 2:
        raise DomainError("stable index must lie in (0, 2]")
    v = rng.uniform(-np.pi / 2, np.pi / 2, size=n)
    if alpha == 1.0:
        return np.tan(v)
    w = rng.exponential(1.0, size=n)
    return (
        np.sin(alpha * v)
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos((1.0 - alpha) * v) / w) ** ((1.0 - alpha) / alpha)
    )


def sample_linnik(alpha, n, rng):
    """Linnik law with CF 1/(1+|t|^alpha): stable times an independent
    exponential power.  The base law of the Linnik fixed-point identity."""
    s = sample_stable_symmetric(alpha, n, rng)
    w = rng.exponential(1.0, size=n)
    return s * w ** (1.0 / alpha)


def linnik1_cdf(x):
    """CDF of the Linnik(1) law, CF 1/(1+|t|), in closed form:
    F(x) = 1 - f(x)/pi for x > 0 and f(|x|)/pi for x < 0, with
    f(x) = Ci(x) sin x - (Si(x) - pi/2) cos x, and F(0) = 1/2."""
    from scipy.special import sici

    x = np.asarray(x, dtype=float)
    ax = np.where(x == 0, 1.0, np.abs(x))  # Ci(0) = -inf
    si, ci = sici(ax)
    f = (ci * np.sin(ax) - (si - np.pi / 2) * np.cos(ax)) / np.pi
    return np.where(x > 0, 1.0 - f, np.where(x < 0, f, 0.5))


_STENCILS = {
    1: (np.array([-1.0, 1.0]) / 2.0, np.array([-1, 1])),
    2: (np.array([1.0, -2.0, 1.0]), np.array([-1, 0, 1])),
    3: (np.array([-0.5, 1.0, -1.0, 0.5]), np.array([-2, -1, 1, 2])),
    4: (np.array([1.0, -4.0, 6.0, -4.0, 1.0]), np.array([-2, -1, 0, 1, 2])),
}


def _derivative(cf, order, h):
    w, off = _STENCILS[order]
    return sum(c * cf(float(o * h)) for c, o in zip(w, off)) / h**order


def moments_from_cf(cf, max_order=4):
    """Raw moments m_1..m_max_order via Richardson-extrapolated central
    differences of the CF at the origin: the oracle for the exact moments
    of ``NuGHChar`` and ``gh_mean_variance``."""
    if not 1 <= max_order <= 4:
        raise DomainError("moments_from_cf: max_order must be in 1..4")
    moments = []
    for k in range(1, max_order + 1):
        h = 1e-3 if k <= 2 else 2e-2
        # three-level Richardson on the O(h^2) stencil error
        d = [_derivative(cf, k, h / 2**j) for j in range(3)]
        r1 = [(4 * d[j + 1] - d[j]) / 3 for j in range(2)]
        r2 = (16 * r1[1] - r1[0]) / 15
        mk = r2 / 1j**k
        scale = max(abs(mk), 1.0)
        if abs(r2 - r1[1]) > 1e-5 * scale:
            raise ConvergenceError(f"moments_from_cf: extrapolation unstable at order {k}")
        if abs(mk.imag) > 1e-5 * scale:
            raise ConvergenceError(f"moments_from_cf: non-real moment at order {k}")
        moments.append(float(mk.real))
    return moments


def bessel_ratio_phase(lam, alpha, beta, delta, t, points=2049):
    """Continuous phase of kve(lam, z(u)) / kve(lam, delta gamma) at each
    u in ``t`` (t >= 0), with z(u) = delta sqrt(alpha^2 - (beta + i u)^2),
    by ``np.unwrap`` of its principal phase along the grid
    u = gamma sinh(s), s uniform on [0, asinh(max t / gamma)], joined with t.
    Returns (phases, z at t, the grid's largest principal phase step),
    the last a check that the grid resolved the phase.  The oracle for the
    branch of the scaled Bessel ratio in ``gh_log_cf``."""
    from scipy.special import kve

    t = np.asarray(t, dtype=float)
    gamma = np.sqrt(alpha**2 - beta**2)
    grid = np.union1d(gamma * np.sinh(np.linspace(0.0, np.arcsinh(np.max(t) / gamma), points)), t)
    z = delta * np.sqrt(alpha**2 - (beta + 1j * grid) ** 2)
    phase = np.angle(kve(lam, z))
    step = np.max(np.abs(np.angle(np.exp(1j * np.diff(phase)))))
    at = np.searchsorted(grid, t)
    return np.unwrap(phase)[at], z[at], step
