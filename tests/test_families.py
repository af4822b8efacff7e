import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from nugh.errors import DomainError, RangeError
from nugh.families import (
    CHEBYSHEV,
    CHEBYSHEV_MAX_N,
    GEOMETRIC,
    ChebyshevFamily,
    _T_SPLIT,
    _below_series,
    get_family,
    verify_poincare,
)
from nugh.montecarlo import make_rng

from oracles import chebyshev_t, exit_time_density, exit_time_sample, exit_time_series, exit_time_sum


class TestGeometric:
    def test_pgf_examples(self):
        assert GEOMETRIC.pgf(0.5, 1.0) == pytest.approx(1.0)
        assert GEOMETRIC.pgf(0.5, 0.5) == pytest.approx(1.0 / 3.0)
        z = 0.3 + 0.4j
        assert GEOMETRIC.pgf(0.25, z) == pytest.approx(0.25 * z / (1 - 0.75 * z))

    def test_phi_examples(self):
        assert GEOMETRIC.phi(0.0) == 1.0
        assert GEOMETRIC.phi(1.0) == pytest.approx(0.5)
        assert GEOMETRIC.phi(1j) == pytest.approx(1.0 / (1.0 + 1j))

    def test_nu_probabilities(self):
        pairs = GEOMETRIC.nu_probabilities(0.5, 60)
        assert pairs[0] == (1, 0.5)
        assert pairs[1][1] == pytest.approx(0.25)
        assert sum(pr for _, pr in pairs) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(RangeError):
            GEOMETRIC.nu_probabilities(0.1, 5)

    def test_sample_nu_mean(self):
        rng = make_rng(11, 0)
        nu = GEOMETRIC.sample_nu(0.25, 200_000, rng)
        assert nu.min() >= 1
        assert nu.mean() == pytest.approx(4.0, abs=4 * np.sqrt(12.0 / 200_000))

    def test_mixing_is_standard_exponential(self):
        rng = make_rng(11, 1)
        t = GEOMETRIC.sample_mixing(200_000, rng)
        assert t.mean() == pytest.approx(1.0, abs=4 / np.sqrt(200_000))
        # Laplace transform at lam=1 should match phi(1) = 1/2
        assert np.exp(-t).mean() == pytest.approx(0.5, abs=4 * np.exp(-t).std() / np.sqrt(t.size))

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                GEOMETRIC.require_p(bad)
        with pytest.raises(DomainError):
            GEOMETRIC.pgf(0.5, 1.5)
        with pytest.raises(DomainError):
            GEOMETRIC.phi(-1.0 + 0j)


class TestChebyshev:
    def test_admissible_set(self):
        assert CHEBYSHEV.contains_p(1.0)
        assert CHEBYSHEV.contains_p(0.25)
        assert CHEBYSHEV.contains_p(1.0 / 64**2)
        assert not CHEBYSHEV.contains_p(0.3)
        assert not CHEBYSHEV.contains_p(1.0 / 65**2)
        assert ChebyshevFamily.order_of(1.0 / 9.0) == 3

    def test_pgf_examples(self):
        # n=2: 1/T_2(1/z) = z^2/(2 - z^2)
        assert CHEBYSHEV.pgf(0.25, 1.0) == pytest.approx(1.0)
        assert CHEBYSHEV.pgf(0.25, 0.5) == pytest.approx(0.25 / 1.75)
        z = 0.6 + 0.2j
        assert CHEBYSHEV.pgf(1.0 / 9, z) == pytest.approx(z**3 / (4 - 3 * z**2))

    def test_phi_examples(self):
        assert CHEBYSHEV.phi(0.0) == 1.0
        assert CHEBYSHEV.phi(0.5) == pytest.approx(1.0 / np.cosh(1.0))
        assert CHEBYSHEV.phi(2.0) == pytest.approx(1.0 / np.cosh(2.0))
        # negative real part of sqrt argument: phi(-t^2/2) continues to 1/cos(t)
        assert CHEBYSHEV.phi(1j) == pytest.approx(complex(1.0 / np.cosh(np.sqrt(2j))))

    def test_nu_probabilities_n2(self):
        # z^2/(2 - z^2): support {2, 4, 6, ...}, P(nu = 2k) = 2^{-k}
        pairs = dict(CHEBYSHEV.nu_probabilities(0.25, 80))
        assert pairs[2] == pytest.approx(0.5, abs=1e-14)
        assert pairs[4] == pytest.approx(0.25, abs=1e-14)
        assert pairs[6] == pytest.approx(0.125, abs=1e-14)
        assert 3 not in pairs
        assert sum(pairs.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, CHEBYSHEV_MAX_N + 1))
    def test_pgf_matches_recurrence(self, n):
        # z^n prod_k q_k / (1 - a_k z^2) against 1 / T_n(1/z) from the
        # three-term recurrence, on random points of the unit disk
        rng = make_rng(12, 5)
        z = np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
        got = CHEBYSHEV.pgf(1.0 / n**2, z)
        checked = 0
        for zk, gk in zip(z, got):
            try:
                ref = 1.0 / chebyshev_t(n, 1.0 / zk)
            except RangeError:
                continue  # the recurrence overflows; the factored form does not
            assert abs(gk - ref) <= 1e-13 * abs(ref)
            checked += 1
        assert checked >= 100

    def test_pgf_near_zero_is_finite(self):
        # T_64(1e6) overflows the recurrence; the factored form underflows to 0
        assert np.isfinite(CHEBYSHEV.pgf(1.0 / 64**2, 1e-6))

    def test_nu_probabilities_match_pgf(self):
        # sum p_k z^k reproduces the pgf for n = 3
        pairs = CHEBYSHEV.nu_probabilities(1.0 / 9, 400)
        z = 0.7
        series = sum(pr * z**k for k, pr in pairs)
        assert series == pytest.approx(complex(CHEBYSHEV.pgf(1.0 / 9, z)).real, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, CHEBYSHEV_MAX_N + 1))
    def test_nu_probabilities_every_order(self, n):
        # support {n, n+2, ...}, mass 1 up to the tail tolerance, E[nu] = n^2
        tail_tol = 1e-12
        pairs = CHEBYSHEV.nu_probabilities(1.0 / n**2, 60 * n**2)
        ks = np.array([k for k, _ in pairs])
        probs = np.array([pr for _, pr in pairs])
        assert ks[0] == n and np.all(np.diff(ks) == 2)
        assert probs[0] > 0 and np.all(probs >= 0)
        assert abs(1.0 - probs.sum()) <= tail_tol
        assert (ks * probs).sum() == pytest.approx(n**2, rel=1e-10)

    @pytest.mark.parametrize("n", [16, 47, 64])
    def test_nu_probabilities_match_pgf_high_orders(self, n):
        p = 1.0 / n**2
        pairs = CHEBYSHEV.nu_probabilities(p, 60 * n**2)
        ks = np.array([k for k, _ in pairs])
        probs = np.array([pr for _, pr in pairs])
        for z in (0.5, 0.9):
            series = np.sum(probs * z**ks)
            assert series == pytest.approx((1.0 / chebyshev_t(n, 1.0 / z)).real, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 16, 47, 64])
    def test_sample_nu_mean(self, n):
        # E[nu] = 1/p = n^2
        rng = make_rng(12, 0)
        nu = CHEBYSHEV.sample_nu(1.0 / n**2, 100_000, rng)
        assert nu.min() >= n
        assert np.all(nu % 2 == n % 2)
        assert nu.mean() == pytest.approx(n**2, abs=4 * nu.std() / np.sqrt(nu.size))

    def test_exit_time_density_normalized(self):
        mass, err = quad(lambda t: float(exit_time_density(t)), 1e-9, 60.0, limit=300)
        assert mass == pytest.approx(1.0, abs=1e-9)
        t = make_rng(12, 3).exponential(1.0, size=(3, 11))  # both series, any shape
        assert np.array_equal(exit_time_density(t), exit_time_density(t.ravel()).reshape(t.shape))

    def test_series_acceptance_matches_density(self):
        # in units of the first series term: u against the 30-term series,
        # uniform, between the first two partial sums, and within 3 ulps of 1 - 3q
        rng = make_rng(12, 4)
        x = np.concatenate([rng.uniform(0.05, _T_SPLIT, 2000), _T_SPLIT + rng.exponential(1.0, 2000)])
        q = exit_time_series(x)[1]
        lo, hi = 1 - 3 * q, 1 - 3 * q + 5 * q**3
        ulps = np.spacing(lo)[None, :] * np.arange(-3, 4)[:, None]
        for u in [rng.random(x.size), lo + rng.random(x.size) * (hi - lo), *(lo + ulps)]:
            assert np.array_equal(_below_series(u, q), u < exit_time_sum(q))

    @staticmethod
    def _record_series(monkeypatch):
        import nugh.families

        calls = []

        def recording(u, q):
            calls.append((u, q))
            return _below_series(u, q)

        monkeypatch.setattr(nugh.families, "_below_series", recording)
        return calls

    def test_mixing_sampler_skips_the_series(self, monkeypatch):
        # a proposal lies at or above the first partial sum with probability
        # 3q, about 700 of 10^6 (to 5 Poisson sd), and every such one at or
        # above the second: two terms decide all
        calls = self._record_series(monkeypatch)
        CHEBYSHEV.sample_mixing(10**6, make_rng(12, 1))
        [(u, q)] = calls
        past_first = u >= 1 - 3 * q
        expected = np.sum(3 * q)
        assert 650 < expected < 750
        assert abs(past_first.sum() - expected) <= 5 * np.sqrt(expected)
        assert not np.any(past_first & (u < 1 - 3 * q + 5 * q**3))

    def test_mixing_sampler_draws_one_round(self, monkeypatch):
        calls = self._record_series(monkeypatch)
        size = 200_000
        assert CHEBYSHEV.sample_mixing(size, make_rng(12, 1)).shape == (size,)
        assert [u.size for u, _ in calls] == [int(np.ceil(1.001 * size)) + 64]

    @pytest.mark.parametrize("size", [1, 5000, 100_001])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixing_draws_match_the_density_comparison(self, seed, size):
        # the alternating series accepts the proposals that a comparison of
        # U a0 with the density accepts, and takes the same stream
        rng, ref_rng = make_rng(seed, 0), make_rng(seed, 0)
        assert np.array_equal(CHEBYSHEV.sample_mixing(size, rng), exit_time_sample(size, ref_rng))
        assert np.array_equal(rng.random(4), ref_rng.random(4))

    def test_mixing_sampler_working_set(self):
        # the output and, for each of about 1.001e6 proposals, its candidate,
        # q, uniform and first partial sum: about 50 MiB at once
        CHEBYSHEV.sample_mixing(10, make_rng(12, 5))  # scipy.special is loaded
        tracemalloc.start()
        try:
            CHEBYSHEV.sample_mixing(10**6, make_rng(12, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 54 * 2**20

    def test_mixing_matches_laplace_transform(self):
        rng = make_rng(12, 1)
        t = CHEBYSHEV.sample_mixing(200_000, rng)
        for lam in (0.5, 1.0, 2.0):
            e = np.exp(-lam * t)
            se = e.std() / np.sqrt(e.size)
            assert abs(e.mean() - complex(CHEBYSHEV.phi(lam)).real) <= 4 * se

    def test_mixing_mean(self):
        # E[T] = -phi'(0) = 1
        rng = make_rng(12, 2)
        t = CHEBYSHEV.sample_mixing(200_000, rng)
        assert t.mean() == pytest.approx(1.0, abs=4 * t.std() / np.sqrt(t.size))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            CHEBYSHEV.require_p(0.3)
        with pytest.raises(DomainError):
            CHEBYSHEV.pgf(0.25, 1.5)


class TestFamilyCommon:
    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV])
    def test_phi_initial_conditions(self, family):
        assert complex(family.phi(0.0)) == 1.0
        # one-sided 4th-order finite difference for phi'(0+)
        h = 1e-3
        c = np.array([-25.0 / 12, 4.0, -3.0, 4.0 / 3, -0.25])
        d = sum(ci * complex(family.phi(i * h)) for i, ci in enumerate(c)) / h
        assert d.real == pytest.approx(-1.0, abs=1e-6)
        assert abs(d.imag) <= 1e-9

    @pytest.mark.parametrize(
        "family,p", [(GEOMETRIC, 0.5), (GEOMETRIC, 0.01), (CHEBYSHEV, 0.25), (CHEBYSHEV, 1.0 / 25)]
    )
    def test_pgf_derivative_at_one(self, family, p):
        # P_p'(1) = E[nu] = 1/p, by complex-step differentiation along
        # the inside of the unit disk
        h = 1e-7
        d = (complex(family.pgf(p, 1.0 - 1j * h)) - complex(family.pgf(p, 1.0))) / (-1j * h)
        assert d.real == pytest.approx(1.0 / p, rel=1e-5)

    def test_get_family(self):
        assert get_family("geo") is GEOMETRIC
        assert get_family("Geometric") is GEOMETRIC
        assert get_family("cheb") is CHEBYSHEV
        with pytest.raises(DomainError):
            get_family("poisson")

    @pytest.mark.parametrize("name", [GEOMETRIC, None], ids=["family", "none"])
    def test_get_family_of_a_non_name(self, name):
        from nugh.fitting import NuGHEstimator

        with pytest.raises(DomainError, match="^unknown family"):
            get_family(name)
        with pytest.raises(DomainError, match="^unknown family"):
            NuGHEstimator(family=name).fit(make_rng(12, 6).standard_normal(200))

    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV])
    def test_negative_draw_count(self, family):
        rng = make_rng(12, 7)
        with pytest.raises(DomainError, match="^sample_nu: the number of draws must be >= 0, got -1$"):
            family.sample_nu(1.0 / 4, -1, rng)
        with pytest.raises(DomainError, match="^sample_mixing: the number of draws must be >= 0, got -1$"):
            family.sample_mixing(-1, rng)


class TestCountingLaw:
    """The one counting law, nu = shift + step * sum_k (G_k - 1), against
    references that do not share its code."""

    @pytest.mark.parametrize("p", [0.5, 0.1, 0.01])
    def test_geometric_pmf(self, p):
        pairs = GEOMETRIC.nu_probabilities(p, 4000)
        ks = np.array([k for k, _ in pairs])
        assert np.array_equal(ks, np.arange(1, 4001))
        ref = p * (1.0 - p) ** (ks - 1.0)
        assert np.allclose([pr for _, pr in pairs], ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "family, p, seed",
        [(GEOMETRIC, 0.5, 1), (GEOMETRIC, 0.1, 2), *[(CHEBYSHEV, 1.0 / n**2, n) for n in (1, 2, 7, 64)]],
        ids=["geo-0.5", "geo-0.1", "cheb-1", "cheb-2", "cheb-7", "cheb-64"],
    )
    def test_sample_nu_matches_probabilities(self, family, p, seed):
        # the empirical CDF of the draws against the cumulated probabilities,
        # at the 0.1% level of the (conservative, for a discrete law) KS bound
        pairs = family.nu_probabilities(p, int(80 / p))
        ks = np.array([k for k, _ in pairs])
        cdf = np.cumsum([pr for _, pr in pairs])
        size = 100_000
        nu = family.sample_nu(p, size, make_rng(13, seed))
        assert nu.shape == (size,)
        assert np.all(np.isin(nu, ks))
        ecdf = np.searchsorted(np.sort(nu), ks, side="right") / size
        assert np.max(np.abs(ecdf - cdf)) <= 1.95 / np.sqrt(size)

    @pytest.mark.parametrize("family, p", [(CHEBYSHEV, 1.0 / 64**2), (CHEBYSHEV, 1.0 / 9), (CHEBYSHEV, 1.0), (GEOMETRIC, 0.3)])
    def test_sample_nu_in_blocks_is_the_one_matrix_draw(self, family, p):
        # the (n, k) matrix of geometric draws summed at once, k = q.size
        shift, step, _, q = family._counting_law(p)
        rng = make_rng(14, 1)
        ref = shift + step * (rng.geometric(q, size=(100_000, q.size)).sum(axis=-1) - q.size)
        ref_next = rng.random(4)
        rng = make_rng(14, 1)
        nu = family.sample_nu(p, 100_000, rng)
        assert nu.dtype == ref.dtype and np.array_equal(nu, ref)
        assert np.array_equal(rng.random(4), ref_next)

    def test_sample_nu_working_set_is_one_block(self):
        # at order 64, 20,000 draws of nu sum 640,000 geometric draws: 5 MiB at once
        tracemalloc.start()
        try:
            CHEBYSHEV.sample_nu(1.0 / 64**2, 20_000, make_rng(14, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("family, p", [(GEOMETRIC, 0.5), (GEOMETRIC, 0.01), (CHEBYSHEV, 1.0), (CHEBYSHEV, 1.0 / 64**2)])
    def test_pgf_at_zero(self, family, p):
        # P(nu = 0) = 0: nu >= 1 in both families
        assert family.pgf(p, 0.0) == 0
        assert np.array_equal(family.pgf(p, np.array([0.0, 0.0])), [0, 0])

    def test_order_one_is_one(self):
        # n = 1: T_1(x) = x has no root pair, and nu = 1 surely
        z = np.array([0.0, 0.3 - 0.4j, -1.0, 1.0])
        assert np.array_equal(CHEBYSHEV.pgf(1.0, z), z)
        pairs = CHEBYSHEV.nu_probabilities(1.0, 9)
        assert pairs == [(1, 1.0), (3, 0.0), (5, 0.0), (7, 0.0), (9, 0.0)]
        nu = CHEBYSHEV.sample_nu(1.0, 1000, make_rng(13, 9))
        assert np.array_equal(nu, np.ones(1000))


class TestPoincare:
    def test_residuals(self):
        t = np.linspace(0.0, 50.0, 200)
        geo = verify_poincare(GEOMETRIC, [0.5, 0.1, 0.01], t)
        cheb = verify_poincare(CHEBYSHEV, [1.0, 0.25, 1.0 / 9, 1.0 / 25], t)
        assert geo <= 1e-12
        assert cheb <= 1e-12

    def test_wrong_p_rejected(self):
        with pytest.raises(DomainError):
            verify_poincare(CHEBYSHEV, [0.3], np.linspace(0, 1, 10))

    def test_negative_t_rejected(self):
        with pytest.raises(DomainError, match="^verify_poincare: t grid must be nonnegative$"):
            verify_poincare(GEOMETRIC, [0.5], np.array([0.0, -1.0]))
