"""The two random-summation families: geometric and Chebyshev.

Each family bundles its admissible parameter set, its counting law (the
law of nu, behind the probability generating function and the counting
sampler), normalized fixed-point function phi (the Laplace transform of
its mixing law), and the mixing-law sampler.
"""

from __future__ import annotations

from math import erfc

import numpy as np

from .errors import ConvergenceError, DomainError, RangeError

CHEBYSHEV_MAX_N = 64
NU_TAIL_TOL = 1e-12  # mass that nu_probabilities may leave beyond its cutoff
_NU_BLOCK = 2**16  # geometric draws per pass of sample_nu


def _sech(s):
    """1 / cosh(s) of a complex array without overflow, for re(s) >= 0."""
    e = np.exp(-s)
    return 2.0 * e / (1.0 + e * e)


class NuFamily:
    """Common interface of the two summation families.

    Each family defines ``contains_p(p)``, the fixed-point function
    ``phi(w)`` at complex w with re(w) >= 0, ``sample_mixing(size, rng)``
    and ``_counting_law(p)``: the (shift, step, a, q) of its counting variable
    nu = shift + step * sum_k (G_k - 1), G_k independent geometric on
    {1, 2, ...} with success probability q_k = 1 - a_k.  The pgf, the
    counting probabilities and the sampler of nu are written once, here."""

    kind = None

    def require_p(self, p):
        if not self.contains_p(p):
            raise DomainError(f"{self.kind}: p={p} outside the admissible set {self.delta_set}")

    def _check_phi_arg(self, w):
        w = np.asarray(w, dtype=complex)
        if w.real.min(initial=0.0) < -1e-12:
            raise DomainError(f"{self.kind}: phi requires re(argument) >= 0")
        return w

    def pgf(self, p, z):
        """E z^nu = z^shift prod_k q_k / (1 - a_k z^step), each factor
        written as 1 / (1 + (a_k / q_k)(1 - z)(1 + z + ... + z^(step - 1))),
        which is exact at z = 1; P(nu = 0) = 0 at z = 0."""
        shift, step, a, q = self._counting_law(p)
        z = np.asarray(z, dtype=complex)
        if np.any(np.abs(z) > 1 + 1e-9):
            raise DomainError(f"{self.kind}: pgf requires |z| <= 1")
        ones = np.polyval(np.ones(step), z)  # 1 + z + ... + z^(step - 1)
        out = z**shift / np.prod(1.0 + (a / q) * ((1.0 - z) * ones)[..., None], axis=-1)
        return out if out.ndim else complex(out)

    def nu_probabilities(self, p, cutoff):
        """[(k, P(nu = k))] for k = shift, shift + step, ... <= cutoff: the
        power series of prod_k q_k / (1 - a_k w) in w = z^step, one
        positive recurrence per factor."""
        from scipy.signal import lfilter  # a module-level import slows CLI start-up

        shift, step, a, q = self._counting_law(p)
        ks = np.arange(shift, cutoff + 1, step)
        probs = np.zeros(ks.size)
        probs[:1] = np.prod(q)
        for ak in a:
            probs = lfilter([1.0], [1.0, -ak], probs)
        if 1.0 - probs.sum() > NU_TAIL_TOL:
            raise RangeError(f"{self.kind}: cutoff {cutoff} leaves tail mass > {NU_TAIL_TOL}")
        return list(zip(ks.tolist(), probs.tolist()))

    def sample_nu(self, p, size, rng):
        """Exact draws of nu, with no table or cutoff; the geometric draws
        are summed a block of rows at a time, in the stream's order."""
        shift, step, _, q = self._counting_law(p)
        out = np.empty(size, dtype=np.int64)
        flat = out.reshape(-1)
        rows = _NU_BLOCK // max(q.size, 1)
        for start in range(0, flat.size, rows):
            block = flat[start : start + rows]
            rng.geometric(q, size=(block.size, q.size)).sum(axis=-1, out=block)
        return shift + step * (out - q.size)


class GeometricFamily(NuFamily):
    """Counting variable geometric on {1, 2, ...} with success probability p,
    the one-factor counting law (shift 1, step 1, a = 1 - p, q = p);
    phi(w) = 1/(1+w); mixing law standard exponential."""

    kind = "geometric"
    delta_set = "p in (0, 1)"

    def contains_p(self, p):
        return 0.0 < p < 1.0

    def _counting_law(self, p):
        self.require_p(p)
        return 1, 1, np.array([1.0 - p]), np.array([p])

    def phi(self, w):
        w = self._check_phi_arg(w)
        out = 1.0 / (1.0 + w)
        return out if out.ndim else complex(out)

    def sample_mixing(self, size, rng):
        return rng.exponential(1.0, size=size)


# Brownian exit-time sampler constants: small-t / large-t series switch.
_T_SPLIT = 0.64
_SERIES_SLACK = 1e-12  # relative margin for rounding in the partial sums


def _series_head(t):
    """(a0, q) of the exit-time density series at t > 0, whose term k is
    (-1)^k a0 (2k + 1) q^(k (k + 1) / 2): below _T_SPLIT the small-t theta
    series, a0 = 2 e^(-1/2t) / sqrt(2 pi t^3) and q = e^(-4/t); above it the
    large-t series, a0 = (pi / 2) e^(-pi^2 t / 8) and q = e^(-pi^2 t).  Both
    alternate with decreasing terms on their side of the split."""
    small = t < _T_SPLIT
    a0 = np.where(small, 2 / np.sqrt(2 * np.pi * t**3) * np.exp(-0.5 / t), np.pi / 2 * np.exp(-np.pi**2 * t / 8))
    return a0, np.where(small, np.exp(-4.0 / t), np.exp(-np.pi**2 * t))


def _exit_time_density(t):
    """Density of the exit time of standard Brownian motion from (-1, 1),
    whose Laplace transform is 1/cosh(sqrt(2*lambda)), as 30 terms of the
    series of :func:`_series_head`; a last term above 1e-13 of the sum
    raises :class:`ConvergenceError`.  The sampler calls it only for the
    rare draws between two partial sums."""
    t = np.asarray(t, dtype=float)
    a0, q = _series_head(t.ravel())
    k = np.arange(30)[:, None]
    terms = (2 * k + 1) * q ** (k * (k + 1) // 2)
    s = np.sum((-1.0) ** k * terms, axis=0)
    if np.any(terms[-1] > 1e-13 * s):
        raise ConvergenceError("exit-time density: series truncation not certified")
    return (a0 * s).reshape(t.shape)


def _below_exit_time_density(x, y, a0, q):
    """Whether y < _exit_time_density(x), for y >= 0 and (a0, q) the
    series head of x (:func:`_series_head`).

    The alternating series lies between a0 (1 - 3 q) and
    a0 (1 - 3 q + 5 q^3); only y between the two needs the full series.
    """
    below = y < a0 * (1.0 - 3.0 * q) * (1.0 - _SERIES_SLACK)
    band = ~below & (y < a0 * (1.0 - 3.0 * q + 5.0 * q**3) * (1.0 + _SERIES_SLACK))
    below[band] = y[band] < _exit_time_density(x[band])
    return below


class ChebyshevFamily(NuFamily):
    """Family with p.g.f. 1/T_n(1/z) at p = 1/n^2; phi(w) = 1/cosh(sqrt(2w));
    mixing law the Brownian exit time from (-1, 1)."""

    kind = "chebyshev"
    delta_set = f"p = 1/n^2, n = 1..{CHEBYSHEV_MAX_N}"

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

    def _counting_law(self, p):
        """z^n T_n(1/z) = 2^(n-1) prod_k (1 - a_k z^2) over the root pairs
        +-x_k = +-cos((2k - 1) pi / 2n), k = 1..n//2, of T_n: shift n, step 2,
        a_k = x_k^2 and q_k = 1 - a_k, taken as a sine squared."""
        self.require_p(p)
        n = self.order_of(p)
        theta = (2 * np.arange(1, n // 2 + 1) - 1) * np.pi / (2 * n)
        return n, 2, np.cos(theta) ** 2, np.sin(theta) ** 2

    def phi(self, w):
        w = self._check_phi_arg(w)
        # sech is even, and numpy's principal root has the re >= 0 it needs
        out = _sech(np.sqrt(2.0 * w))
        return out if out.ndim else complex(out)

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
            env, q = _series_head(cand)  # the envelope is the first series term
            acc = _below_exit_time_density(cand, rng.random(m) * env, env, q)
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
