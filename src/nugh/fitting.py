"""Maximum-likelihood fitting of the NIG-based transformed laws to return
series, plus a scikit-learn-compatible estimator wrapper.

The fit runs in units of the series' standard deviation, by multi-start
Nelder-Mead (:func:`minimize`, scipy's non-adaptive steps without
scipy.optimize) over an unconstrained reparametrization of the parameter
domain, so every visited point maps to valid parameters.  Each start's
simplex has edges of a fixed 0.25 along every unconstrained coordinate,
which is the same step at every data scale in these units.  The likelihood
is evaluated through an inversion grid of the model CF on the data's range
padded by 1.05 times that range, with linear interpolation between nodes.
"""

from __future__ import annotations

import math
from collections import namedtuple
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import AliasError, DomainError, InsufficientData, ParseError, TruncationError
from .gh import GHParams
from .inversion import pdf_grid
from .montecarlo import make_rng, sample_nu_gh
from .transform import NuGHChar

MIN_SERIES_LENGTH = 100
_PDF_FLOOR = 1e-300
_GRID_POINTS = 2**16  # least density grid size of one likelihood evaluation
_MAX_ITER = 2000  # Nelder-Mead iterations per start
_SIMPLEX_STEP = 0.25  # edge of each start's simplex, in unit-sd coordinates
_INFEASIBLE = 1e12  # objective value of a candidate without a likelihood


class _Spent(Exception):
    """The evaluation budget of :func:`minimize` is used up."""


NelderMead = namedtuple("NelderMead", "x fun nit nfev success")


def minimize(fun, simplex, xatol, fatol, maxiter, maxfev):
    """Nelder-Mead (Nelder & Mead 1965) from the (n + 1) x n ``simplex``:
    scipy's non-adaptive steps (reflect 1, expand 2, contract 1/2, shrink
    1/2) in its expression order, so that x, fun, nit, nfev and success are
    those of ``scipy.optimize.minimize(method="Nelder-Mead")``, whose import
    costs about 0.13 s and 21 MB.  It stops once every vertex is within
    xatol of the best in each coordinate and its value within fatol, or at
    maxiter iterations or maxfev evaluations (success False)."""
    sim, nit, nfev = np.array(simplex, dtype=float), 1, 0  # nit counts from 1, as scipy's does
    n, fsim = sim.shape[1], np.full(len(sim), np.inf)

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _Spent
        nfev += 1
        return fun(x)

    with suppress(_Spent):
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    for _ in range(2):  # scipy sorts the first simplex twice; argsort need not be stable
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    while nfev < maxfev and nit < maxiter:
        if np.max(np.abs(sim[1:] - sim[0])) <= xatol and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol:
            break
        with suppress(_Spent):  # a step cut short by the budget leaves nit as it was
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract outside the worst vertex if xr beats it, else inside
                outside = fxr < fsim[-1]
                xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            nit += 1
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    return NelderMead(sim[0], np.min(fsim), nit, nfev, bool(nfev < maxfev and nit < maxiter))


def ingest_series(path, fmt="returns"):
    """Load a one-column numeric text file (comma or whitespace separated,
    optional header) as an array of returns.

    ``fmt="prices"`` converts to log-returns by differencing natural logs.
    A :class:`ParseError` names the file's line number.
    A path that cannot be read as UTF-8 text (a byte-order mark is skipped)
    raises :class:`DomainError`.
    """
    if fmt not in ("returns", "prices"):
        raise DomainError(f"ingest_series: unknown format {fmt!r}")
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DomainError(f"ingest_series: cannot read {str(path)!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise DomainError(f"ingest_series: {str(path)!r} is not UTF-8 text") from None
    values = []
    for lineno, line in enumerate(lines, start=1):
        text = line.strip().replace(",", " ")
        if not text:
            raise ParseError(lineno, "blank row")
        fields = text.split()
        if len(fields) != 1:
            raise ParseError(lineno, f"expected one column, found {len(fields)}")
        try:
            v = float(fields[0])
        except ValueError:
            if lineno == 1 and not values:
                continue  # optional header
            raise ParseError(lineno, f"not numeric: {fields[0]!r}") from None
        if not math.isfinite(v):
            raise ParseError(lineno, "non-finite value")
        if fmt == "prices" and v <= 0:
            raise ParseError(lineno, "non-positive price")
        values.append(v)
    arr = np.asarray(values, dtype=float)
    if fmt == "prices":
        arr = np.diff(np.log(arr))
    if arr.size < MIN_SERIES_LENGTH:
        raise InsufficientData(f"need at least {MIN_SERIES_LENGTH} returns, got {arr.size}")
    return arr


@dataclass(frozen=True)
class FitResult:
    family: str
    params: GHParams
    neg_log_lik: float
    iterations: int
    converged: bool

    def as_dict(self):
        p = self.params
        return {
            "family": self.family,
            "lambda": p.lam,
            "alpha": p.alpha,
            "beta": p.beta,
            "delta": p.delta,
            "mu": p.mu,
            "negLogLik": self.neg_log_lik,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def _theta_to_params(theta, lam):
    """Unconstrained (b, a, d, mu) -> valid GH parameters:
    beta = b, alpha = |b| + exp(a), delta = exp(d)."""
    b, a, d, mu = (float(v) for v in theta[:4])
    if len(theta) == 5:
        lam = float(np.clip(theta[4], -24.9, 24.9))
    return GHParams(lam, abs(b) + math.exp(a), b, math.exp(d), mu)


def _params_to_theta(params, free_lambda):
    theta = [
        params.beta,
        math.log(params.alpha - abs(params.beta)),
        math.log(params.delta),
        params.mu,
    ]
    if free_lambda:
        theta.append(params.lam)
    return np.asarray(theta, dtype=float)


class LikelihoodGrid:
    """Density grids for likelihood evaluations over a fixed data set."""

    def __init__(self, family, data):
        self.family = family
        self.values = np.asarray(data, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise DomainError("likelihood: the data contain non-finite values")
        lo, hi = float(self.values.min()), float(self.values.max())
        self._pad = 1.05 * (hi - lo)
        self.x_range = (lo - self._pad, hi + self._pad)

    def grid_for(self, params):
        cf = NuGHChar(self.family, params)
        lo, hi = self.x_range
        # heavy-tailed candidates need more room than the padded data
        # range; widen in multiples of the pad until the checks pass
        for extra in (0.0, 2.0, 6.0, 14.0, 30.0):
            try:
                return pdf_grid(cf, (lo - extra * self._pad, hi + extra * self._pad), _GRID_POINTS)
            except AliasError:
                if extra == 30.0:
                    raise

    def neg_log_lik(self, params):
        grid = self.grid_for(params)
        pdf = np.maximum(grid.interp_pdf(self.values), _PDF_FLOOR)
        return float(-np.sum(np.log(pdf)))


def neg_log_lik(family, params: GHParams, data):
    """Negative log-likelihood of the data (an array of returns) under the
    transformed law."""
    return LikelihoodGrid(family, data).neg_log_lik(params)


def fit_mle(family, data, starts=5, seed=0, free_lambda=False):
    """Multi-start Nelder-Mead maximum likelihood fit (NIG base by default)
    to the array of returns x = ``data``: the fit runs on x / s, s the
    standard deviation of x, from NIG (2, 0, 1, mean / s);
    each start's initial simplex is the start plus the start moved
    0.25 along each unconstrained coordinate (scipy's default simplex
    would move the zero coordinates by only 0.00025);
    the best point maps back as (alpha / s, beta / s, delta s, mu s) with
    negative log-likelihood + n log s.

    Deterministic for fixed (seed, starts).  Returns the best start; when
    no start converges, or no candidate had a likelihood, the best-so-far
    result is flagged converged=False.
    """
    if starts < 1:
        raise DomainError(f"fit_mle: starts must be >= 1, got {starts}")
    if np.size(data) < MIN_SERIES_LENGTH:
        raise InsufficientData(f"fit_mle: need at least {MIN_SERIES_LENGTH} returns")
    x = LikelihoodGrid(family, data).values  # rejects NaN and inf before np.std warns on them
    s = float(np.std(x))
    if s < 1e-12:
        raise DomainError("fit_mle: degenerate (constant) series")
    helper = LikelihoodGrid(family, x / s)
    lam0 = -0.5
    theta0 = _params_to_theta(GHParams(lam0, 2.0, 0.0, 1.0, float(np.mean(helper.values))), free_lambda)
    rng = make_rng(seed, 991)

    def objective(theta):
        try:
            params = _theta_to_params(theta, lam0)
        except (DomainError, OverflowError):
            return _INFEASIBLE
        try:
            return helper.neg_log_lik(params)
        except (AliasError, TruncationError):
            return _INFEASIBLE

    best = None
    total_iter = 0
    any_converged = False
    for k in range(starts):
        start = theta0 if k == 0 else theta0 + rng.normal(0.0, 0.35, size=theta0.size)
        simplex = np.vstack([start, start + _SIMPLEX_STEP * np.eye(start.size)])
        res = minimize(objective, simplex, xatol=1e-6, fatol=1e-8, maxiter=_MAX_ITER, maxfev=2 * _MAX_ITER)
        total_iter += int(res.nit)
        any_converged = any_converged or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    p = _theta_to_params(best.x, lam0)
    feasible = best.fun < _INFEASIBLE
    return FitResult(
        family=family.kind,
        params=GHParams(p.lam, p.alpha / s, p.beta / s, p.delta * s, p.mu * s),
        neg_log_lik=float(best.fun) + (x.size * math.log(s) if feasible else 0.0),
        iterations=total_iter,
        converged=bool(any_converged and feasible),
    )


class NuGHEstimator:
    """scikit-learn style density estimator for the transformed NIG laws.

    Parameters mirror :func:`fit_mle`; after ``fit`` the recovered
    parameters are available as ``params_`` and the fit diagnostics as
    ``result_``.
    """

    def __init__(self, family="geometric", starts=5, seed=0, free_lambda=False):
        self.family = family
        self.starts = starts
        self.seed = seed
        self.free_lambda = free_lambda

    # get_params/set_params per the sklearn contract
    def get_params(self, deep=True):
        return {
            "family": self.family,
            "starts": self.starts,
            "seed": self.seed,
            "free_lambda": self.free_lambda,
        }

    def set_params(self, **kwargs):
        for key, value in kwargs.items():
            if key not in self.get_params():
                raise ValueError(f"invalid parameter {key!r}")
            setattr(self, key, value)
        return self

    def _family(self):
        from .families import get_family

        return get_family(self.family)

    def fit(self, X, y=None):
        x = np.asarray(X, dtype=float).reshape(-1)
        self.result_ = fit_mle(self._family(), x, starts=self.starts, seed=self.seed, free_lambda=self.free_lambda)
        self.params_ = self.result_.params
        self._grid = LikelihoodGrid(self._family(), x).grid_for(self.params_)
        return self

    def score_samples(self, X):
        self._check_fitted()
        x = np.asarray(X, dtype=float).reshape(-1)
        grid = self._grid
        lo, hi = grid.x[0], grid.x[-1]
        if not np.all((x >= lo) & (x <= hi)):
            raise DomainError(f"score_samples: x must lie in the density grid's range [{lo:.6g}, {hi:.6g}]")
        return np.log(np.maximum(grid.interp_pdf(x), _PDF_FLOOR))

    def score(self, X, y=None):
        return float(np.mean(self.score_samples(X)))

    def sample(self, n_samples=1, random_state=0):
        self._check_fitted()
        rng = make_rng(random_state, 7)
        return sample_nu_gh(self._family(), self.params_, n_samples, rng)

    def _check_fitted(self):
        if not hasattr(self, "params_"):
            raise DomainError("estimator is not fitted; call fit first")
