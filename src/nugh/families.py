"""The two random-summation families: geometric and Chebyshev.

Each family bundles its admissible parameter set, probability generating
function, normalized fixed-point function phi (the Laplace transform of
its mixing law), and samplers for the counting variable and the mixing
law.
"""

from __future__ import annotations

from math import erfc

import numpy as np

from .errors import ConvergenceError, DomainError, RangeError
from .special import sqrt_right

CHEBYSHEV_MAX_N = 64
NU_TAIL_TOL = 1e-12  # mass that nu_probabilities may leave beyond its cutoff


def _sech(s):
    """1 / cosh(s) without overflow for large re(s); complex-safe.

    Requires re(s) >= 0, which :func:`sqrt_right` output has."""
    s = np.asarray(s, dtype=complex)
    e = np.exp(-s)
    out = 2.0 * e / (1.0 + e * e)
    return out if out.ndim else complex(out)


class NuFamily:
    """Common interface of the two summation families.

    ``mixing_variance`` is Var T of the mixing law, whose mean is 1."""

    kind = None
    mixing_variance = None

    def contains_p(self, p):
        raise NotImplementedError

    def require_p(self, p):
        if not self.contains_p(p):
            raise DomainError(f"{self.kind}: p={p} outside the admissible set {self.delta_set}")

    def pgf(self, p, z):
        raise NotImplementedError

    def phi(self, w):
        """Fixed-point function at complex w with re(w) >= 0."""
        raise NotImplementedError

    def nu_probabilities(self, p, cutoff):
        raise NotImplementedError

    def sample_nu(self, p, size, rng):
        raise NotImplementedError

    def sample_mixing(self, size, rng):
        raise NotImplementedError

    def _check_phi_arg(self, w):
        w = np.asarray(w, dtype=complex)
        if np.any(w.real < -1e-12):
            raise DomainError(f"{self.kind}: phi requires re(argument) >= 0")
        return w

    def _check_pgf_arg(self, p, z):
        self.require_p(p)
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) > 1 + 1e-9):
            raise DomainError(f"{self.kind}: pgf requires |z| <= 1")
        return z


class GeometricFamily(NuFamily):
    """Counting variable geometric on {1, 2, ...} with success probability p;
    phi(w) = 1/(1+w); mixing law standard exponential."""

    kind = "geometric"
    delta_set = "p in (0, 1)"
    mixing_variance = 1.0

    def contains_p(self, p):
        return 0.0 < p < 1.0

    def pgf(self, p, z):
        z = self._check_pgf_arg(p, z)
        out = p * z / (1.0 - (1.0 - p) * z)
        return out if out.ndim else complex(out)

    def phi(self, w):
        w = self._check_phi_arg(w)
        out = 1.0 / (1.0 + w)
        return out if out.ndim else complex(out)

    def nu_probabilities(self, p, cutoff):
        self.require_p(p)
        k = np.arange(1, cutoff + 1)
        probs = p * (1.0 - p) ** (k - 1)
        if 1.0 - probs.sum() > NU_TAIL_TOL:
            raise RangeError(f"geometric: cutoff {cutoff} leaves tail mass > {NU_TAIL_TOL}")
        return list(zip(k.tolist(), probs.tolist()))

    def sample_nu(self, p, size, rng):
        self.require_p(p)
        return rng.geometric(p, size=size)

    def sample_mixing(self, size, rng):
        return rng.exponential(1.0, size=size)


# Brownian exit-time sampler constants: small-t / large-t series switch.
_T_SPLIT = 0.64
_DENSITY_BLOCK = 2**14  # points per block of the (30, block) series matrices


def _exit_time_density(t):
    """Density of the exit time of standard Brownian motion from (-1, 1),
    whose Laplace transform is 1/cosh(sqrt(2*lambda)).

    Uses the small-t theta series below _T_SPLIT and the large-t series
    above it; both are alternating with decreasing terms there.  Evaluated
    in blocks of _DENSITY_BLOCK points to bound the series' memory.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty(t.shape)
    k = np.arange(0, 30)[:, None]
    for i in range(0, t.size, _DENSITY_BLOCK):
        tb, ob = t.reshape(-1)[i : i + _DENSITY_BLOCK], out.reshape(-1)[i : i + _DENSITY_BLOCK]
        small = tb < _T_SPLIT
        ts = tb[small]
        if ts.size:
            terms = (2 * k + 1) * np.exp(-((2 * k + 1) ** 2) / (2.0 * ts))
            alt = ((-1.0) ** k) * terms
            s = alt.sum(axis=0)
            if np.any(terms[-1] > 1e-13 * np.maximum(s, 1e-300)):
                raise ConvergenceError("exit-time density: small-t series truncation not certified")
            ob[small] = np.sqrt(2.0 / (np.pi * ts**3)) * s
        tl = tb[~small]
        if tl.size:
            terms = (2 * k + 1) * np.exp(-((2 * k + 1) ** 2) * np.pi**2 * tl / 8.0)
            alt = ((-1.0) ** k) * terms
            s = alt.sum(axis=0)
            if np.any(terms[-1] > 1e-13 * np.maximum(s, 1e-300)):
                raise ConvergenceError("exit-time density: large-t series truncation not certified")
            ob[~small] = (np.pi / 2.0) * s
    return out


_SERIES_SLACK = 1e-12  # relative margin for rounding in the partial sums


def _below_exit_time_density(x, y, a0):
    """Whether y < _exit_time_density(x), for y >= 0 and a0 the first term
    of the density series at x.

    The alternating series lies between a0 - a1 and a0 - a1 + a2, where
    a1 = 3 a0 q, a2 = 5 a0 q^3 and q = exp(-4/x) below _T_SPLIT,
    exp(-pi^2 x) above; only y between the two needs the full series.
    """
    q = np.where(x < _T_SPLIT, np.exp(-4.0 / x), np.exp(-np.pi**2 * x))
    below = y < a0 * (1.0 - 3.0 * q) * (1.0 - _SERIES_SLACK)
    band = ~below & (y < a0 * (1.0 - 3.0 * q + 5.0 * q**3) * (1.0 + _SERIES_SLACK))
    below[band] = y[band] < _exit_time_density(x[band])
    return below


def _root_pairs(n):
    """(a_k, 1 - a_k) with a_k = x_k^2 for the roots x_k = cos((2k-1) pi / 2n),
    k = 1..n//2, so that z^n T_n(1/z) = 2^(n-1) prod_k (1 - a_k z^2)."""
    theta = (2 * np.arange(1, n // 2 + 1) - 1) * np.pi / (2 * n)
    return np.cos(theta) ** 2, np.sin(theta) ** 2


class ChebyshevFamily(NuFamily):
    """Family with p.g.f. 1/T_n(1/z) at p = 1/n^2; phi(w) = 1/cosh(sqrt(2w));
    mixing law the Brownian exit time from (-1, 1).

    The p.g.f. factors over the root pairs of T_n as
    z^n prod_k (1 - a_k) / (1 - a_k z^2), which gives both the counting
    probabilities and an exact sampler."""

    kind = "chebyshev"
    delta_set = f"p = 1/n^2, n = 1..{CHEBYSHEV_MAX_N}"
    mixing_variance = 2.0 / 3.0  # E T^2 = 5/3: phi(w) = 1 - w + (5/6) w^2 + ...

    @staticmethod
    def order_of(p):
        if not 0 < p <= 1:
            return None
        n = int(round(1.0 / np.sqrt(p)))
        if n < 1 or n > CHEBYSHEV_MAX_N or abs(p - 1.0 / n**2) > 1e-12:
            return None
        return n

    def contains_p(self, p):
        return self.order_of(p) is not None

    def pgf(self, p, z):
        """z^n prod_k q_k / (1 - a_k z^2), with each factor written as
        1 / (1 + (a_k / q_k)(1 - z)(1 + z)), which is exact at z = 1."""
        z = self._check_pgf_arg(p, z)
        n = self.order_of(p)
        if np.any(z == 0):
            raise DomainError("chebyshev: pgf undefined at z = 0")
        a, q = _root_pairs(n)
        out = z**n / np.prod(1.0 + (a / q) * ((1.0 - z) * (1.0 + z))[..., None], axis=-1)
        return out if out.ndim else complex(out)

    def phi(self, w):
        w = self._check_phi_arg(w)
        out = np.asarray(_sech(sqrt_right(2.0 * w)))
        return out if out.ndim else complex(out)

    def nu_probabilities(self, p, cutoff):
        """P(nu = k) for k <= cutoff: the power series of
        z^n prod_k (1 - a_k) / (1 - a_k z^2), one positive recurrence per
        root pair."""
        from scipy.signal import lfilter  # a module-level import slows CLI start-up

        self.require_p(p)
        n = self.order_of(p)
        a, q = _root_pairs(n)
        ks = np.arange(n, cutoff + 1, 2)
        probs = np.zeros(ks.size)
        probs[:1] = np.prod(q)
        for ak in a:
            probs = lfilter([1.0], [1.0, -ak], probs)
        if 1.0 - probs.sum() > NU_TAIL_TOL:
            raise RangeError(f"chebyshev: cutoff {cutoff} leaves tail mass > {NU_TAIL_TOL}")
        return list(zip(ks.tolist(), probs.tolist()))

    def sample_nu(self, p, size, rng):
        """nu = (n mod 2) + 2 * sum_k G_k with independent G_k geometric
        on {1, 2, ...} with success probability 1 - a_k."""
        self.require_p(p)
        n = self.order_of(p)
        _, q = _root_pairs(n)
        return n % 2 + 2 * rng.geometric(q, size=np.append(size, q.size)).sum(axis=-1)

    def sample_mixing(self, size, rng):
        """Rejection sampler for the Brownian exit-time law (Devroye's J*
        proposal: restricted Levy below _T_SPLIT, exponential above, under
        the first series term), accepting from two further series terms."""
        from scipy.special import erfcinv

        w_small = 2.0 * erfc(1.0 / np.sqrt(2 * _T_SPLIT))
        w_large = (4.0 / np.pi) * np.exp(-np.pi**2 * _T_SPLIT / 8.0)
        out = np.empty(size)
        filled = 0
        while filled < size:
            # the proposal is accepted more than 99.9% of the time
            m = int(np.ceil(1.001 * (size - filled))) + 64
            pick_small = rng.random(m) < w_small / (w_small + w_large)
            cand = np.empty(m)
            ns = int(pick_small.sum())
            if ns:
                # restricted Levy proposal: T = 1/Z^2 conditioned on T < split,
                # by inversion of P(|Z| > z) = erfc(z / sqrt 2) on (0, w_small / 2]
                u = (1.0 - rng.random(ns)) * (w_small / 2.0)
                cand[pick_small] = 0.5 / erfcinv(u) ** 2
            nl = m - ns
            if nl:
                cand[~pick_small] = _T_SPLIT + rng.exponential(8.0 / np.pi**2, size=nl)
            env = np.where(
                pick_small,
                2.0 / np.sqrt(2 * np.pi * cand**3) * np.exp(-1.0 / (2 * cand)),
                (np.pi / 2.0) * np.exp(-np.pi**2 * cand / 8.0),
            )
            acc = _below_exit_time_density(cand, rng.random(m) * env, env)
            take = cand[acc][: size - filled]
            out[filled : filled + take.size] = take
            filled += take.size
        return out


GEOMETRIC = GeometricFamily()
CHEBYSHEV = ChebyshevFamily()

_FAMILIES = {"geometric": GEOMETRIC, "geo": GEOMETRIC, "chebyshev": CHEBYSHEV, "cheb": CHEBYSHEV}


def get_family(name):
    try:
        return _FAMILIES[name.lower()]
    except KeyError:
        raise DomainError(f"unknown family {name!r}; expected geo or cheb") from None


def verify_poincare(family, p_values, t_grid):
    """Max residual |phi(t) - P_p(phi(p t))| over the given grid and p values."""
    t = np.asarray(t_grid, dtype=float)
    if np.any(t < 0):
        raise DomainError("verify_poincare: t grid must be nonnegative")
    worst = 0.0
    for p in p_values:
        family.require_p(p)
        lhs = np.asarray(family.phi(t))
        rhs = np.asarray(family.pgf(p, np.asarray(family.phi(p * t))))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
