"""Maximum-likelihood fitting of the NIG-based transformed laws to return
series, plus a scikit-learn-compatible estimator wrapper.

The likelihood is evaluated through a cached inversion grid of the model
CF with linear interpolation between nodes; optimization is multi-start
Nelder-Mead over an unconstrained reparametrization of the parameter
domain, so every visited point maps to valid parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AliasError, DomainError, InsufficientData, ParseError
from .gh import GHParams
from .inversion import pdf_grid
from .montecarlo import make_rng, sample_nu_gh
from .transform import NuGHChar

MIN_SERIES_LENGTH = 100
_PDF_FLOOR = 1e-300


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on first use: importing
    scipy.optimize costs about 0.3 s, which every CLI call would pay."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


@dataclass(frozen=True)
class ReturnSeries:
    """A validated series of log-returns."""

    values: np.ndarray
    source: str

    @property
    def n(self):
        return int(self.values.size)


def ingest_series(path, fmt="returns"):
    """Load a one-column numeric text file (comma or whitespace separated,
    optional header) as a return series.

    ``fmt="prices"`` converts to log-returns by differencing natural logs.
    """
    if fmt not in ("returns", "prices"):
        raise DomainError(f"ingest_series: unknown format {fmt!r}")
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
            values.append(v)
    arr = np.asarray(values, dtype=float)
    if fmt == "prices":
        if np.any(arr <= 0):
            raise ParseError(int(np.argmax(arr <= 0)) + 1, "non-positive price")
        arr = np.diff(np.log(arr))
    if arr.size < MIN_SERIES_LENGTH:
        raise InsufficientData(f"need at least {MIN_SERIES_LENGTH} returns, got {arr.size}")
    return ReturnSeries(arr, str(path))


@dataclass(frozen=True)
class FitResult:
    family: str
    params: GHParams
    neg_log_lik: float
    iterations: int
    converged: bool
    seed_grid: str

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
            "seed": self.seed_grid,
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
    """Density-grid cache for likelihood evaluations over a fixed data set."""

    def __init__(self, family, data: ReturnSeries, n_points=2**16):
        self.family = family
        self.values = np.asarray(data.values, dtype=float)
        lo, hi = float(self.values.min()), float(self.values.max())
        self._pad = 0.35 * max(hi - lo, 1e-3) + 2.0
        self.x_range = (lo - self._pad, hi + self._pad)
        self.n_points = n_points
        self._cache = {}

    def _key(self, params):
        return tuple(round(v * 1e8) for v in (params.lam, params.alpha, params.beta, params.delta, params.mu))

    def grid_for(self, params):
        key = self._key(params)
        grid = self._cache.get(key)
        if grid is None:
            cf = NuGHChar(self.family, params)
            lo, hi = self.x_range
            # heavy-tailed candidates need more room than the data span
            # suggests; widen until the boundary/mass checks are happy
            for extra in (0.0, 2.0, 6.0, 14.0, 30.0):
                try:
                    grid = pdf_grid(
                        cf, (lo - extra * self._pad, hi + extra * self._pad), self.n_points, taper=True
                    )
                    break
                except AliasError:
                    if extra == 30.0:
                        raise
            self._cache[key] = grid
        return grid

    def neg_log_lik(self, params):
        grid = self.grid_for(params)
        pdf = np.maximum(grid.interp_pdf(self.values), _PDF_FLOOR)
        return float(-np.sum(np.log(pdf)))


def neg_log_lik(family, params: GHParams, data: ReturnSeries, n_points=2**16):
    """Negative log-likelihood of the data under the transformed law."""
    helper = LikelihoodGrid(family, data, n_points)
    if np.any(data.values < helper.x_range[0]) or np.any(data.values > helper.x_range[1]):
        raise AliasError("neg_log_lik: inversion grid does not cover the data range")
    return helper.neg_log_lik(params)


def _moment_start(data: ReturnSeries):
    """Crude NIG-shaped start from sample mean and standard deviation."""
    m = float(np.mean(data.values))
    s = float(np.std(data.values))
    s = max(s, 1e-6)
    return GHParams(-0.5, 2.0 / s, 0.0, s, m)


def fit_mle(family, data: ReturnSeries, starts=5, seed=0, free_lambda=False, max_iter=2000):
    """Multi-start Nelder-Mead maximum likelihood fit (NIG base by default).

    Deterministic for fixed (seed, starts).  Returns the best start; when
    no start converges the best-so-far result is flagged converged=False.
    """
    if data.n < MIN_SERIES_LENGTH:
        raise InsufficientData(f"fit_mle: need at least {MIN_SERIES_LENGTH} returns")
    if float(np.std(data.values)) < 1e-12:
        raise DomainError("fit_mle: degenerate (constant) series")
    helper = LikelihoodGrid(family, data)
    base = _moment_start(data)
    lam0 = base.lam
    theta0 = _params_to_theta(base, free_lambda)
    rng = make_rng(seed, 991)

    def objective(theta):
        try:
            params = _theta_to_params(theta, lam0)
        except (DomainError, OverflowError):
            return 1e12
        try:
            return helper.neg_log_lik(params)
        except AliasError:
            return 1e12

    best = None
    total_iter = 0
    any_converged = False
    for k in range(starts):
        start = theta0 if k == 0 else theta0 + rng.normal(0.0, 0.35, size=theta0.size)
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "xatol": 1e-6,
                "fatol": 1e-8,
                "maxiter": max_iter,
                "maxfev": 2 * max_iter,
            },
        )
        total_iter += int(res.nit)
        any_converged = any_converged or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    params = _theta_to_params(best.x, lam0)
    return FitResult(
        family=family.kind,
        params=params,
        neg_log_lik=float(best.fun),
        iterations=total_iter,
        converged=bool(any_converged and np.isfinite(best.fun)),
        seed_grid=f"seed={seed},starts={starts}",
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
        series = ReturnSeries(x, "array")
        self.result_ = fit_mle(
            self._family(), series, starts=self.starts, seed=self.seed, free_lambda=self.free_lambda
        )
        self.params_ = self.result_.params
        self._grid = LikelihoodGrid(self._family(), series)
        return self

    def score_samples(self, X):
        self._check_fitted()
        x = np.asarray(X, dtype=float).reshape(-1)
        grid = self._grid.grid_for(self.params_)
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
