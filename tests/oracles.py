"""Reference implementations that the tests compare the library against,
written independently of it."""

import numpy as np

from nugh.errors import DomainError, RangeError


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
