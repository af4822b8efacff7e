import numpy as np
import pytest

import nugh.fitting
import nugh.inversion
from nugh.errors import AliasError, DomainError, InsufficientData, ParseError, TruncationError
from nugh.families import CHEBYSHEV, GEOMETRIC
from nugh.fitting import (
    LikelihoodGrid,
    NuGHEstimator,
    _params_to_theta,
    _theta_to_params,
    fit_mle,
    ingest_series,
    minimize,
    neg_log_lik,
)
from nugh.gh import GHParams
from nugh.inversion import pdf_grid
from nugh.montecarlo import make_rng, sample_nu_gh

TRUTH = GHParams(-0.5, 2.0, 0.5, 1.0, 0.0)


def synthetic_series(n=4000, seed=123, stream=5):
    return sample_nu_gh(GEOMETRIC, TRUTH, n, make_rng(seed, stream))


class TestIngest:
    def test_returns_file(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("ret\n" + "\n".join(str(0.01 * ((-1) ** i)) for i in range(150)) + "\n")
        s = ingest_series(f)
        assert s.shape == (150,)
        assert s[0] == pytest.approx(0.01)

    @pytest.mark.parametrize("header", ["", "ret\n"])
    def test_byte_order_mark(self, tmp_path, header):
        # a UTF-8 byte-order mark is not part of the first row: a numeric
        # first row is kept, not taken for a header
        f = tmp_path / "bom.csv"
        f.write_bytes(("\ufeff" + header + "".join(f"{0.01 * (-1) ** i}\n" for i in range(150))).encode())
        s = ingest_series(f)
        assert s.shape == (150,)
        assert s[0] == 0.01

    def test_prices_file(self, tmp_path):
        f = tmp_path / "p.csv"
        prices = 100 * np.exp(np.cumsum(0.01 * np.sin(np.arange(200))))
        f.write_text("\n".join(f"{p:.10f}" for p in prices) + "\n")
        s = ingest_series(f, "prices")
        assert s.shape == (199,)
        assert s[0] == pytest.approx(np.log(prices[1] / prices[0]))

    def test_blank_row(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("0.1\n\n0.2\n")
        with pytest.raises(ParseError) as exc:
            ingest_series(f)
        assert exc.value.row == 2

    def test_non_numeric_row(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("0.1\noops\n0.2\n")
        with pytest.raises(ParseError) as exc:
            ingest_series(f)
        assert exc.value.row == 2
        assert "oops" in str(exc.value)

    @pytest.mark.parametrize("text, row, reason", [("r\n1,2\n", 2, "expected one column, found 2"),
                                                   ("r\n1\ninf\n", 3, "non-finite value")])
    def test_malformed_row_names_its_line(self, tmp_path, text, row, reason):
        f = tmp_path / "bad.csv"
        f.write_text(text)
        with pytest.raises(ParseError, match=f"^row {row}: {reason}$") as exc:
            ingest_series(f)
        assert (exc.value.row, exc.value.reason) == (row, reason)

    def test_too_short(self, tmp_path):
        f = tmp_path / "short.csv"
        f.write_text("\n".join(["0.01"] * 50) + "\n")
        with pytest.raises(InsufficientData):
            ingest_series(f)

    def test_non_positive_price_names_its_line(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("price\n100\n0\n")
        with pytest.raises(ParseError) as exc:
            ingest_series(f, "prices")
        assert exc.value.row == 3

    def test_bad_format_name(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("0.1\n")
        with pytest.raises(DomainError):
            ingest_series(f, "volumes")


class TestLikelihood:
    def test_truth_beats_perturbation(self):
        data = synthetic_series()
        nll_true = neg_log_lik(GEOMETRIC, TRUTH, data)
        worse = GHParams(-0.5, 2.0, 0.5, 2.5, 0.8)
        assert nll_true < neg_log_lik(GEOMETRIC, worse, data)

    def test_matches_mean_log_density(self):
        data = synthetic_series(500)
        nll = neg_log_lik(GEOMETRIC, TRUTH, data)
        assert nll > 0
        assert np.isfinite(nll)

    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV], ids=["geo", "cheb"])
    def test_return_scale(self, family):
        # X ~ p  =>  s X ~ s p with density f(x / s) / s; the grid spans the
        # data plus a multiple of their range, so it scales with them and
        # keeps its 2^16 points, and the Chebyshev CF's decay probe reaches
        # the cutoff at every s
        unit = sample_nu_gh(family, TRUTH, 1000, make_rng(123, 5))
        unit_nll = neg_log_lik(family, TRUTH, unit)
        for s in (0.01, 0.003, 0.001):
            scaled = s * unit
            p = GHParams(TRUTH.lam, TRUTH.alpha / s, TRUTH.beta / s, TRUTH.delta * s, TRUTH.mu * s)
            grid = LikelihoodGrid(family, scaled).grid_for(p)
            assert grid.x.size == 2**16
            if family is CHEBYSHEV:
                assert grid.decayed
            assert neg_log_lik(family, p, scaled) == pytest.approx(unit_nll + unit.size * np.log(s), abs=1e-8)

    def test_non_nig_base(self):
        truth = GHParams(1.0, 2.0, 0.5, 1.0, 0.0)
        data = sample_nu_gh(GEOMETRIC, truth, 2000, make_rng(123, 6))
        nll_true = neg_log_lik(GEOMETRIC, truth, data)
        assert np.isfinite(nll_true)
        assert nll_true < neg_log_lik(GEOMETRIC, GHParams(1.0, 2.0, 0.5, 2.5, 0.8), data)


class TestReparametrization:
    def test_free_lambda_is_clipped_and_round_trips(self):
        for lam in (-30.0, 30.0):
            p = _theta_to_params([0.5, 0.0, 0.0, 0.1, lam], -0.5)
            assert p.lam == np.sign(lam) * 24.9
        p = _theta_to_params([0.5, 0.3, -0.2, 0.1, 2.5], -0.5)
        assert (p.lam, p.alpha, p.beta, p.delta, p.mu) == pytest.approx(
            (2.5, 0.5 + np.exp(0.3), 0.5, np.exp(-0.2), 0.1)
        )
        theta = _params_to_theta(p, True)
        assert theta.size == 5
        assert theta == pytest.approx([0.5, 0.3, -0.2, 0.1, 2.5])
        assert _theta_to_params(theta, -0.5) == p


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def quadratic(x):
    return float(np.sum((np.arange(1, 5) * (x - 0.3)) ** 2))


def half_space(x):
    # the fit's objective reads _INFEASIBLE where a candidate has no likelihood; the
    # quadratic's minimum lies beyond the half-space's edge, so many steps meet it
    return nugh.fitting._INFEASIBLE if x[0] + x[1] > 0.5 else quadratic(x)


class TestMinimize:
    @pytest.mark.parametrize(
        "fun, x0, maxiter, maxfev",
        [
            (quadratic, [0.0, 0.0, 0.0, 0.0], 2000, 4000),
            (rosenbrock, [-1.2, 1.0, -0.5, 0.8], 2000, 4000),
            (half_space, [0.3, 0.2, 0.0, 0.0], 2000, 4000),
            (half_space, [0.5, 0.4, 0.0, 0.0], 2000, 4000),  # every vertex infeasible: all values tie
            (rosenbrock, [-1.2, 1.0, -0.5, 0.8], 2000, 137),
            (rosenbrock, [-1.2, 1.0, -0.5, 0.8], 50, 4000),
        ],
        ids=["quadratic", "rosenbrock", "half-space", "infeasible-start", "maxfev", "maxiter"],
    )
    def test_steps_as_scipy_nelder_mead(self, fun, x0, maxiter, maxfev):
        from scipy.optimize import minimize as scipy_minimize

        x0 = np.asarray(x0)
        simplex = np.vstack([x0, x0 + 0.25 * np.eye(4)])
        opts = {"xatol": 1e-6, "fatol": 1e-8, "maxiter": maxiter, "maxfev": maxfev}
        ref = scipy_minimize(fun, x0, method="Nelder-Mead", options={"initial_simplex": simplex, **opts})
        res = minimize(fun, simplex, **opts)
        assert np.array_equal(res.x, ref.x)
        assert (res.fun, res.nit, res.nfev, res.success) == (ref.fun, ref.nit, ref.nfev, ref.success)
        assert res.success == (maxiter == 2000 and maxfev == 4000)


class TestFit:
    def test_recovers_parameters(self):
        data = synthetic_series(8000)
        res = fit_mle(GEOMETRIC, data, starts=2, seed=0)
        assert res.converged
        p = res.params
        assert p.alpha == pytest.approx(TRUTH.alpha, rel=0.25)
        assert p.beta == pytest.approx(TRUTH.beta, abs=0.3)
        assert p.delta == pytest.approx(TRUTH.delta, rel=0.25)
        assert p.mu == pytest.approx(TRUTH.mu, abs=0.25)
        assert res.neg_log_lik <= neg_log_lik(GEOMETRIC, TRUTH, data) + 1e-6

    def test_deterministic(self):
        data = synthetic_series(2000)
        r1 = fit_mle(GEOMETRIC, data, starts=2, seed=7)
        r2 = fit_mle(GEOMETRIC, data, starts=2, seed=7)
        assert r1.params == r2.params
        assert r1.neg_log_lik == r2.neg_log_lik

    def test_return_scale(self, monkeypatch):
        # fit_mle fits x / sd(x) and maps the result back, so a series at
        # return scale gives the unit-scale fit in its own units, and its
        # grid range, fixed by the data, seldom needs widening
        unit = synthetic_series(500)
        s = 0.01
        ref = fit_mle(GEOMETRIC, unit, starts=2, seed=7)
        grids, aliased = [], []

        def counting_pdf_grid(*args, **kwargs):
            grids.append(1)
            try:
                return pdf_grid(*args, **kwargs)
            except AliasError:
                aliased.append(1)
                raise

        monkeypatch.setattr(nugh.fitting, "pdf_grid", counting_pdf_grid)
        res = fit_mle(GEOMETRIC, s * unit, starts=2, seed=7)
        assert res.neg_log_lik == pytest.approx(ref.neg_log_lik + unit.size * np.log(s), abs=1e-8)
        p, q = res.params, ref.params
        assert (p.alpha * s, p.beta * s, p.delta / s, p.mu / s) == pytest.approx(
            (q.alpha, q.beta, q.delta, q.mu), abs=1e-5
        )
        assert len(aliased) <= 0.05 * len(grids)

    @pytest.mark.parametrize(
        "family, max_grids, nll_before, max_cf_points",
        # nll_before: the optimum that scipy's default start simplex (5% of
        # each nonzero coordinate, 0.00025 along the zero ones) reached,
        # with 568 and 835 likelihood grids; max_cf_points: the geometric CF
        # is read on every grid's whole half spectrum, the Chebyshev CF on its
        # band (16,149,481 points on whole half spectra)
        [(GEOMETRIC, 320, 974.4717919259735, 7_367_584), (CHEBYSHEV, 600, 980.8780074171927, 7_605_729)],
        ids=["geo", "cheb"],
    )
    def test_likelihood_grid_count(self, monkeypatch, family, max_grids, nll_before, max_cf_points):
        # the optimizer's work is deterministic: a 0.25 start simplex in the
        # unit-sd coordinates reaches the same optimum with fewer grids
        grids, points = [], []
        evaluate = nugh.inversion.eval_cf

        def counting_pdf_grid(*args, **kwargs):
            grids.append(1)
            return pdf_grid(*args, **kwargs)

        def counting_eval(cf, t):
            points.append(np.size(t))
            return evaluate(cf, t)

        monkeypatch.setattr(nugh.fitting, "pdf_grid", counting_pdf_grid)
        monkeypatch.setattr(nugh.inversion, "eval_cf", counting_eval)
        res = fit_mle(family, synthetic_series(1000), starts=1)
        assert res.converged
        assert len(grids) <= max_grids
        assert res.neg_log_lik <= nll_before + 1e-6
        assert sum(points) <= max_cf_points

    @pytest.mark.parametrize("error", [AliasError, TruncationError])
    def test_no_feasible_candidate_is_not_converged(self, monkeypatch, error):
        def infeasible(self, params):
            raise error("no density grid")

        monkeypatch.setattr(LikelihoodGrid, "neg_log_lik", infeasible)
        res = fit_mle(GEOMETRIC, synthetic_series(200), starts=1)
        assert res.neg_log_lik == 1e12
        assert not res.converged

    def test_rejects_degenerate(self):
        with pytest.raises(DomainError):
            fit_mle(GEOMETRIC, np.zeros(500), starts=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        x = synthetic_series(200)
        x[17] = bad
        with pytest.raises(DomainError, match="non-finite"):
            fit_mle(GEOMETRIC, x, starts=1)
        with pytest.raises(DomainError, match="non-finite"):
            neg_log_lik(GEOMETRIC, TRUTH, x)
        with pytest.raises(DomainError, match="non-finite"):
            NuGHEstimator(starts=1).fit(x)

    def test_rejects_short(self):
        with pytest.raises(InsufficientData):
            fit_mle(GEOMETRIC, np.arange(10.0), starts=1)


class TestEstimator:
    def test_sklearn_contract(self):
        est = NuGHEstimator(family="geo", starts=1, seed=3)
        params = est.get_params()
        assert params == {"family": "geo", "starts": 1, "seed": 3, "free_lambda": False}
        est.set_params(starts=2)
        assert est.get_params()["starts"] == 2
        with pytest.raises(ValueError):
            est.set_params(bogus=1)

    def test_fit_score_sample(self):
        x = synthetic_series(2000)
        est = NuGHEstimator(family="geo", starts=1, seed=0).fit(x)
        assert est.params_.alpha > 0
        logp = est.score_samples(x[:10])
        assert logp.shape == (10,)
        assert np.all(np.isfinite(logp))
        assert est.score(x) == pytest.approx(float(np.mean(est.score_samples(x))))
        draws = est.sample(500, random_state=1)
        assert draws.shape == (500,)
        # samples should live on the same scale as the data
        assert abs(np.median(draws) - np.median(x)) < 2.0

    def test_score_outside_the_grid_raises(self):
        x = synthetic_series(500)
        est = NuGHEstimator(family="geo", starts=1, seed=0).fit(x)
        assert np.all(np.isfinite(est.score_samples([x.min(), x.max()])))
        for far in (x.max() + 1e3, x.min() - 1e6):
            with pytest.raises(DomainError, match="range"):
                est.score_samples([0.0, far])

    def test_scoring_reuses_the_fitted_grid(self, monkeypatch):
        x = synthetic_series(500)
        est = NuGHEstimator(family="geo", starts=1, seed=0).fit(x)
        grid = LikelihoodGrid(GEOMETRIC, x).grid_for(est.params_)
        calls = []
        monkeypatch.setattr(nugh.fitting, "pdf_grid", lambda *a, **k: calls.append(a))
        logp = est.score_samples(x[:50])
        assert np.array_equal(logp, np.log(grid.interp_pdf(x[:50])))
        assert est.score(x) == float(np.mean(np.log(grid.interp_pdf(x))))
        assert calls == []

    def test_unfitted_raises(self):
        with pytest.raises(DomainError):
            NuGHEstimator().score_samples([0.0])
