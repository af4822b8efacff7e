import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from nugh.errors import DomainError
from nugh.families import CHEBYSHEV, CHEBYSHEV_MAX_N, GEOMETRIC
from nugh.gh import GHParams
from nugh.inversion import cdf_at
from nugh.montecarlo import (
    empirical_cf,
    hsecant_cdf,
    identity_suite,
    ks_statistic,
    laplace_cdf,
    make_rng,
    random_sum_sample,
    sample_hsecant,
    sample_laplace,
    sample_nu_gh,
)
from nugh.transform import NuGHChar

from oracles import gaussian_cdf, linnik1_cdf, sample_gaussian, sample_linnik, sample_stable_symmetric

NIG_SYM = GHParams(-0.5, 1.0, 0.0, 1.0, 0.0)
NIG_SKEW = GHParams(-0.5, 2.0, 0.3, 1.0, 0.25)


class TestRng:
    def test_streams_differ_and_reproduce(self):
        a = make_rng(5, 0).standard_normal(4)
        b = make_rng(5, 1).standard_normal(4)
        c = make_rng(5, 0).standard_normal(4)
        assert not np.allclose(a, b)
        assert np.array_equal(a, c)


    @pytest.mark.parametrize("seed, stream", [(-1, 0), (5, -5)])
    def test_negative_key_raises(self, seed, stream):
        with pytest.raises(DomainError, match="must be >= 0"):
            make_rng(seed, stream)


class TestBaseSamplers:
    def test_laplace_ks(self):
        x = sample_laplace(100_000, make_rng(1, 0))
        assert ks_statistic(x, laplace_cdf).passed

    def test_hsecant_ks(self):
        x = sample_hsecant(100_000, make_rng(1, 1))
        assert ks_statistic(x, hsecant_cdf).passed

    def test_hsecant_in_place_is_the_inverse_cdf_bit_for_bit(self):
        u = make_rng(1, 1).random(100_000)
        expected = (2.0 / np.pi) * np.log(np.tan(np.pi * u / 2.0))
        np.testing.assert_array_equal(sample_hsecant(100_000, make_rng(1, 1)), expected)

    def test_gaussian_ks(self):
        x = sample_gaussian(100_000, make_rng(1, 2))
        assert ks_statistic(x, gaussian_cdf).passed

    def test_stable_cauchy_case(self):
        # alpha = 1 is standard Cauchy: CDF 1/2 + arctan(x)/pi
        x = sample_stable_symmetric(1.0, 100_000, make_rng(1, 3))
        assert ks_statistic(x, lambda v: 0.5 + np.arctan(v) / np.pi).passed

    def test_stable_gaussian_case(self):
        # alpha = 2 has CF e^{-t^2}, i.e. N(0, 2)
        x = sample_stable_symmetric(2.0, 100_000, make_rng(1, 4))
        assert ks_statistic(x, lambda v: gaussian_cdf(v, np.sqrt(2.0))).passed

    def test_stable_empirical_cf(self):
        x = sample_stable_symmetric(0.7, 200_000, make_rng(1, 5))
        t = np.array([0.5, 1.0, 2.0])
        mean, se = empirical_cf(x, t)
        assert np.all(np.abs(mean - np.exp(-np.abs(t) ** 0.7)) <= 4 * se)

    def test_stable_bad_index(self):
        with pytest.raises(DomainError):
            sample_stable_symmetric(2.5, 10, make_rng(0, 0))

    def test_linnik_cf(self):
        x = sample_linnik(1.3, 200_000, make_rng(1, 6))
        t = np.array([0.5, 1.0, 2.0])
        mean, se = empirical_cf(x, t)
        assert np.all(np.abs(mean - 1.0 / (1.0 + np.abs(t) ** 1.3)) <= 4 * se)

    def test_linnik1_cdf_oracle(self):
        # Linnik(1) = Cauchy scale-mixed by Exp(1):
        # F(x) = int_0^inf e^{-w} (1/2 + arctan(x/w)/pi) dw
        x = sample_linnik(1.0, 100_000, make_rng(1, 7))
        assert ks_statistic(x, linnik1_cdf).passed
        for v in (-3.0, 0.0, 0.1, 20.0):
            ref, _ = quad(lambda w: np.exp(-w) * (0.5 + np.arctan(v / w) / np.pi), 0, np.inf, limit=200)
            assert linnik1_cdf(v) == pytest.approx(ref, abs=1e-10)


class TestNuGHSampling:
    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV])
    def test_mixture_empirical_cf(self, family):
        x = sample_nu_gh(family, NIG_SKEW, 100_000, make_rng(2, 0))
        cf = NuGHChar(family, NIG_SKEW)
        t = np.array([0.5, 1.0, 2.0])
        mean, se = empirical_cf(x, t)
        assert np.all(np.abs(mean - cf(t)) <= 4 * se)

    def test_inversion_route(self):
        gh = GHParams(1.0, 2.0, 0.0, 1.0, 0.0)
        x = sample_nu_gh(GEOMETRIC, gh, 100_000, make_rng(2, 1))
        cf = NuGHChar(GEOMETRIC, gh)
        t = np.array([0.5, 1.0, 2.0])
        mean, se = empirical_cf(x, t)
        assert np.all(np.abs(mean - cf(t)) <= 4 * se)

    def test_zero_inversion_draws_make_no_cf_call(self, monkeypatch):
        import nugh.inversion

        def no_cf_call(cf, t):
            raise AssertionError("the CF was evaluated")

        monkeypatch.setattr(nugh.inversion, "eval_cf", no_cf_call)
        for lam in (1.0, -0.5):  # the inversion and the mixture route
            assert sample_nu_gh(CHEBYSHEV, GHParams(lam, 2.0, 0.5, 1.0, 0.1), 0, make_rng(0, 0)).shape == (0,)

    @pytest.mark.parametrize("lam", [1.0, 2.5, -3.0])
    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV])
    def test_inversion_draws_scale_with_the_law(self, family, lam):
        # the law is sampled in units of its CF's cutoff, a power of two, so a
        # law rescaled by 2^k, narrowed or widened, draws 2^k times the unit
        # draws to the bit
        def draws(c):
            gh = GHParams(lam, 2.0 / c, 0.5 / c, c, 0.1 * c)
            return sample_nu_gh(family, gh, 2000, make_rng(3, 0), method="inversion")

        unit = draws(1.0)
        for k in (-80, -14, -3, 3, 14, 80):
            np.testing.assert_array_equal(draws(2.0**k), 2.0**k * unit)

    @pytest.mark.parametrize("lam", [1.0, 2.5, -3.0])
    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV])
    def test_inversion_draws_invert_the_cdf_at_any_scale(self, family, lam):
        # each draw of cX, divided by c, is the u-quantile of X to within the
        # grid CDF's accuracy between nodes, for the uniforms u it was drawn from
        law = NuGHChar(family, GHParams(lam, 2.0, 0.5, 1.0, 0.1))
        u = make_rng(3, 0).random(2000)
        for c in (1.0, 1e-100, 1e100):
            gh = GHParams(lam, 2.0 / c, 0.5 / c, c, 0.1 * c)
            x = sample_nu_gh(family, gh, 2000, make_rng(3, 0), method="inversion") / c
            assert np.max(np.abs(cdf_at(law, x) - u)) <= (2e-4 if family is GEOMETRIC else 1e-6)

    @pytest.mark.parametrize("zeta", [1e7, 1e10])
    @pytest.mark.parametrize("lam", [1.0, -3.0, 10.0])
    def test_inversion_draws_at_large_zeta(self, lam, zeta):
        # GH(lam, r, 0.2 r, r, 0), r = sqrt(zeta): a base near the normal law
        # of variance alpha^2 delta / gamma^3 at any lam, whose inversion
        # draws must follow cdf_at
        r = np.sqrt(zeta)
        gh = GHParams(lam, r, 0.2 * r, r, 0.0)
        x = sample_nu_gh(CHEBYSHEV, gh, 4000, make_rng(1, 1), method="inversion")
        assert ks_statistic(x, lambda v: cdf_at(NuGHChar(CHEBYSHEV, gh), v)).passed

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method", ["mixture", "inversion"])
    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV])
    def test_draws_scale_with_the_law_at_any_scale(self, family, method):
        # both routes draw sX, s the CF's cutoff, a power of two, and divide
        # by s, so a law rescaled by 2^k draws 2^k times the unit draws to the
        # bit, with no intermediate past the largest double or below the least
        def draws(c):
            gh = GHParams(-0.5, 2.0 / c, 0.5 / c, c, 0.1 * c)
            return sample_nu_gh(family, gh, 2000, make_rng(3, 0), method=method)

        unit = draws(1.0)
        for k in (-400, -100, 100, 400, 900):
            np.testing.assert_array_equal(draws(2.0**k), 2.0**k * unit)

    def test_mixture_needs_nig(self):
        with pytest.raises(DomainError):
            sample_nu_gh(GEOMETRIC, GHParams(1.0, 2.0, 0.0, 1.0, 0.0), 10, make_rng(0, 0), "mixture")

    def test_unknown_method(self):
        with pytest.raises(DomainError, match="^unknown sampling method 'bogus'$"):
            sample_nu_gh(GEOMETRIC, NIG_SYM, 10, make_rng(0, 0), method="bogus")

    def test_deterministic(self):
        a = sample_nu_gh(GEOMETRIC, NIG_SYM, 1000, make_rng(3, 0))
        b = sample_nu_gh(GEOMETRIC, NIG_SYM, 1000, make_rng(3, 0))
        assert np.array_equal(a, b)


class TestKS:
    def test_report_fields(self):
        rep = ks_statistic(make_rng(4, 0).standard_normal(10_000), gaussian_cdf)
        assert rep.n == 10_000
        assert 0.0 <= rep.statistic <= 1.0
        assert rep.threshold == pytest.approx(1.628 / 100.0)
        assert rep.passed

    def test_wrong_reference_fails_near_exact_distance(self):
        # Gaussian sample against the Laplace CDF: the statistic should
        # approach the exact sup distance between the two CDFs
        xs = np.linspace(-8, 8, 20001)
        exact = float(np.max(np.abs(gaussian_cdf(xs) - laplace_cdf(xs))))
        rep = ks_statistic(make_rng(4, 1).standard_normal(10_000), laplace_cdf)
        assert not rep.passed
        assert rep.statistic == pytest.approx(exact, abs=0.02)

    def test_scaling_with_n(self):
        # mean statistic under the null shrinks like 1/sqrt(n)
        stats = {}
        for n in (2000, 8000):
            vals = [
                ks_statistic(make_rng(100 + k, n).standard_normal(n), gaussian_cdf).statistic
                for k in range(20)
            ]
            stats[n] = np.mean(vals)
        assert stats[2000] / stats[8000] == pytest.approx(2.0, rel=0.2)

    def test_needs_samples(self):
        with pytest.raises(DomainError):
            ks_statistic(np.zeros(10), gaussian_cdf)

    def test_scalar_cdf_raises(self):
        # a CDF that ignores its array must not be broadcast into a statistic
        with pytest.raises(DomainError, match="shape"):
            ks_statistic(make_rng(4, 2).standard_normal(200), lambda v: 0.5)


class TestIdentitySuite:
    def test_geometric_laplace(self):
        for k, p in enumerate((0.5, 0.1)):
            rep = identity_suite(
                GEOMETRIC, p, 2.0, sample_laplace, laplace_cdf, 100_000, make_rng(5, k)
            )
            assert rep.passed, rep

    def test_chebyshev_hsecant(self):
        rep = identity_suite(
            CHEBYSHEV, 0.25, 2.0, sample_hsecant, hsecant_cdf, 100_000, make_rng(5, 10)
        )
        assert rep.passed, rep

    @pytest.mark.parametrize("n", range(1, CHEBYSHEV_MAX_N + 1))
    def test_chebyshev_every_order(self, n):
        rep = identity_suite(
            CHEBYSHEV, 1.0 / n**2, 2.0, sample_hsecant, hsecant_cdf, 2000, make_rng(6, n)
        )
        assert rep.passed, rep

    def test_negative_control(self):
        rep = identity_suite(
            GEOMETRIC, 0.25, 2.0, sample_gaussian, gaussian_cdf, 100_000, make_rng(5, 20)
        )
        assert not rep.passed

    def test_random_sum_shapes(self):
        x = random_sum_sample(GEOMETRIC, 0.5, 2.0, sample_laplace, 500, make_rng(5, 30))
        assert x.shape == (500,)
        with pytest.raises(DomainError):
            random_sum_sample(GEOMETRIC, 0.5, 3.0, sample_laplace, 10, make_rng(0, 0))

    @pytest.mark.parametrize(
        "family, p, base, n",
        [
            *[(CHEBYSHEV, 1.0 / k**2, sample_hsecant, 2000) for k in (1, 2, 33, 64)],
            (GEOMETRIC, 1e-5, sample_laplace, 40),  # sums longer than a block
            (GEOMETRIC, 0.01, sample_gaussian, 2000),
            (CHEBYSHEV, 1.0 / 64**2, sample_hsecant, 1),
            (CHEBYSHEV, 1.0 / 64**2, sample_hsecant, 0),
        ],
        ids=["cheb-1", "cheb-2", "cheb-33", "cheb-64", "geo-1e-5", "geo-0.01-gauss", "n-1", "n-0"],
    )
    def test_random_sum_blocks_give_the_one_buffer_bits(self, family, p, base, n):
        # the formula with every summand of all n sums drawn by one call
        rng = make_rng(8, n)
        nu = family.sample_nu(p, n, rng)
        ref = p**0.5 * np.add.reduceat(base(int(nu.sum()), rng), np.cumsum(nu) - nu)
        ref_next = rng.random(4)
        rng = make_rng(8, n)
        x = random_sum_sample(family, p, 2.0, base, n, rng)
        assert x.shape == (n,)
        assert np.array_equal(x, ref)
        assert np.array_equal(rng.random(4), ref_next)

    def test_random_sum_working_set_is_one_block(self):
        # Chebyshev order 64 draws about 4096 summands per sum: 62 MiB for
        # 2000 sums held at once
        tracemalloc.start()
        try:
            random_sum_sample(CHEBYSHEV, 1.0 / 64**2, 2, sample_hsecant, 2000, make_rng(1, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("family, p", [(GEOMETRIC, 0.5), (CHEBYSHEV, 0.25), (CHEBYSHEV, 1.0)])
    def test_random_sum_counts(self, family, p):
        x = random_sum_sample(family, p, 2.0, sample_laplace, 0, make_rng(5, 31))
        assert x.shape == (0,)
        with pytest.raises(DomainError, match="draws must be >= 0"):
            random_sum_sample(family, p, 2.0, sample_laplace, -1, make_rng(5, 31))
