import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nugh.errors import BranchError, ConvergenceError, DomainError, RangeError
from nugh.gh import GHParams, gh_cf
from nugh.special import (
    eval_cf,
    unwrap_log,
)

from oracles import chebyshev_t


def bessel_k_quadrature(order, z):
    """Independent evaluation of K_order(z), re(z) > 0, by adaptive
    quadrature of exp(-z cosh u) cosh(order u) over u >= 0; the oracle for
    the Bessel factor of :func:`gh_cf`.

    The absolute tolerance is relative to the integrand's peak, so it
    means the same for every (order, z); a miss of 1e-8 relative raises.
    """
    z = complex(z)
    if z.real <= 0:
        raise DomainError("bessel_k_quadrature: requires re(z) > 0")
    # cutoff where the integrand magnitude drops below 1e-12 e^{-re z}
    u_max = 1.0
    while z.real * np.cosh(u_max) - abs(order) * u_max < z.real - np.log(1e-12) and u_max < 60:
        u_max += 1.0

    def f(u):
        return np.exp(-z * np.cosh(u)) * np.cosh(order * u)

    peak = float(np.max(np.abs(f(np.linspace(0.0, u_max, 2001)))))
    opts = dict(epsabs=1e-12 * peak, epsrel=1e-10, limit=400)
    re, re_err = quad(lambda u: f(u).real, 0, u_max, **opts)
    im, im_err = quad(lambda u: f(u).imag, 0, u_max, **opts)
    val = complex(re, im)
    if (re_err + im_err) > 1e-8 * abs(val):
        raise ConvergenceError("bessel_k_quadrature: quadrature tolerance unmet")
    return val


def _bessel_argument(params, t):
    return params.delta * np.sqrt(params.alpha**2 - (params.beta + 1j * t) ** 2)


def _base(lam, t_beta):
    """(GH base, t) for a point t + i beta of the (t, beta) plane."""
    return GHParams(lam, 4.5, t_beta.imag, 0.8, 0.3), t_beta.real


class TestBesselK:
    """K_lam enters the library only through the factor
    K_lam(z(t)) / K_lam(delta gamma) of :func:`gh_cf`, with
    z(t) = delta sqrt(alpha^2 - (beta + i t)^2)."""

    def test_half_order_closed_form(self):
        # K_{1/2}(z) = sqrt(pi/(2z)) e^{-z}, so the lam = 1/2 CF is
        # e^{i mu t} (z0/z) e^{z0 - z}
        p = GHParams(0.5, 2.0, 0.5, 1.3, 0.2)
        t = np.linspace(-20.0, 20.0, 81)
        z, z0 = _bessel_argument(p, t), p.delta * p.gamma
        expect = np.exp(1j * t * p.mu) * (z0 / z) * np.exp(z0 - z)
        np.testing.assert_allclose(gh_cf(p, t), expect, rtol=1e-12, atol=0)

    def test_order_one_quadrature_oracle(self):
        # z(sqrt 3) = 2 and z0 = 1, so the CF is K_1(2) / (2 K_1(1)), with
        # K_1(1) and K_1(2) frozen from the quadrature of exp(-z cosh u) cosh(u)
        value = gh_cf(GHParams(1.0, 1.0, 0.0, 1.0, 0.0), np.sqrt(3.0))
        assert value == pytest.approx(0.1398658818165224 / (2 * 0.6019072301972346), rel=1e-10)

    def test_conjugate_symmetry(self):
        p = GHParams(0.7, 1.5, 0.3, 1.1, 0.4)
        assert gh_cf(p, -1.3) == pytest.approx(np.conj(gh_cf(p, 1.3)), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.3, 5.0, -2.5])
    @pytest.mark.parametrize("t_beta", [0.5 + 0j, 1 + 1j, 3 - 2j, 0.2 + 0.9j, 8 + 4j])
    def test_against_quadrature_grid(self, lam, t_beta):
        p, t = _base(lam, t_beta)
        z, z0 = _bessel_argument(p, t), p.delta * p.gamma
        ref = np.exp(1j * t * p.mu) * (z0 / z) ** lam * bessel_k_quadrature(lam, z) / bessel_k_quadrature(lam, z0)
        assert abs(gh_cf(p, t) / ref - 1.0) <= 1e-8

    @pytest.mark.parametrize("t_beta", [1 + 0.5j, 2 - 1j, 0.7 + 0.2j])
    def test_recurrence(self, t_beta):
        # K_{lam+1}(z) = K_{lam-1}(z) + (2 lam / z) K_lam(z), with
        # K_nu(z) = f_nu(t) K_nu(z0) (z/z0)^nu for the CF f_nu of order nu
        from scipy.special import kv

        lam = 1.1
        (pm, t), (p0, _), (pp, _) = (_base(lam + d, t_beta) for d in (-1, 0, 1))
        z, z0 = _bessel_argument(p0, t), p0.delta * p0.gamma
        lhs = gh_cf(pp, t) * kv(lam + 1, z0) * (z / z0) ** 2
        rhs = gh_cf(pm, t) * kv(lam - 1, z0) + (2 * lam / z0) * gh_cf(p0, t) * kv(lam, z0)
        assert abs(lhs - rhs) <= 1e-8 * abs(lhs)

    def test_domain_errors(self):
        # K_25(1e-12) overflows and is named before any CF arithmetic; orders
        # beyond 25 and |beta| = alpha, where re z(0) = 0, are not GH bases
        with pytest.raises(DomainError, match="lam = 25"):
            gh_cf(GHParams(25.0, 1.0, 0.0, 1e-12, 0.0), 1.0)
        with pytest.raises(DomainError):
            GHParams(26.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            GHParams(0.5, 1.0, 1.0, 1.0, 0.0)


class TestChebyshevT:
    def test_small_cases(self):
        assert chebyshev_t(2, 3.0) == pytest.approx(17.0)
        assert chebyshev_t(0, 123.4 + 5j) == 1.0
        assert chebyshev_t(1, 0.3 + 0.1j) == pytest.approx(0.3 + 0.1j)

    def test_cosh_identity(self):
        assert chebyshev_t(3, np.cosh(1.0)) == pytest.approx(np.cosh(3.0), rel=1e-13)

    @given(st.integers(min_value=0, max_value=64), st.floats(min_value=0.0, max_value=np.pi))
    @settings(max_examples=60, deadline=None)
    def test_cos_identity(self, n, theta):
        assert abs(chebyshev_t(n, np.cos(theta)) - np.cos(n * theta)) <= 1e-12

    def test_errors(self):
        with pytest.raises(DomainError):
            chebyshev_t(-1, 0.5)
        with pytest.raises(RangeError):
            chebyshev_t(10**6 + 1, 0.5)
        with pytest.raises(RangeError):
            chebyshev_t(10**4, 50.0)  # overflows long before n is reached


class TestDistinguishedLog:
    def test_gaussian_cf(self):
        assert unwrap_log(lambda t: np.exp(-np.asarray(t) ** 2 / 2), 2.0) == pytest.approx(-2.0, abs=1e-12)

    def test_pure_rotation_beyond_pi(self):
        assert unwrap_log(lambda t: np.exp(1j * np.asarray(t)), 7.0) == pytest.approx(7j, abs=1e-10)

    def test_nig_closed_form(self):
        from nugh.gh import GHParams, gh_cf

        p = GHParams(-0.5, 1.0, 0.0, 1.0, 0.0)
        assert unwrap_log(lambda t: gh_cf(p, t), 1.0) == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-12)

    def test_exp_reproduces_cf(self):
        cf = lambda t: np.exp(1j * 3 * np.asarray(t) - np.asarray(t) ** 2 / 4)
        t = np.array([0.0, 0.37, 2.0, 9.99])
        logs = unwrap_log(cf, t)
        assert np.max(np.abs(np.exp(logs) - cf(t))) <= 1e-12
        assert np.max(np.abs(logs.imag - 3 * t)) <= 1e-12

    def test_conjugate_extension(self):
        cf = lambda t: np.exp(1j * np.asarray(t) - np.asarray(t) ** 2 / 2)
        assert unwrap_log(cf, -2.0) == pytest.approx(np.conj(unwrap_log(cf, 2.0)))

    def test_lone_far_query_evaluates_each_t_once(self):
        # 90 radians of phase over [0, 9]: the nodes below each query carry
        # the winding, and no node is evaluated twice
        seen = []

        def cf(t):
            seen.append(np.array(t, dtype=float))
            return np.exp(10j * np.asarray(t))

        logs = unwrap_log(cf, [0.9, -0.9, 9.0])
        assert np.allclose(logs, [9j, -9j, 90j], atol=1e-12)
        nodes = np.concatenate(seen)
        assert np.unique(nodes).size == nodes.size

    def test_refinement_evaluates_only_new_midpoints(self):
        # 600 radians over 257 nodes: steps of 2.3 radians, each bisected once
        seen = []

        def cf(t):
            seen.append(np.array(t, dtype=float))
            return np.exp(1.2j * np.asarray(t))

        assert unwrap_log(cf, 500.0) == pytest.approx(600j, abs=1e-9)
        assert [v.size for v in seen] == [257, 256]
        nodes = np.concatenate(seen)
        assert np.unique(nodes).size == nodes.size

    def test_vanishing_cf_raises(self):
        # cos t is the CF of a fair +-1 coin and vanishes at pi/2
        with pytest.raises(BranchError):
            unwrap_log(lambda t: np.cos(np.asarray(t)) + 0j, 3.0)

    def test_requires_unit_origin(self):
        with pytest.raises(DomainError):
            unwrap_log(lambda t: 0.5 * np.exp(-np.asarray(t) ** 2), 1.0)


class TestEvalCF:
    def test_scalar_result_raises(self):
        with pytest.raises(DomainError, match=r"shape \(\) for t of shape \(2,\)"):
            eval_cf(lambda u: 1.0, np.array([0.0, 1.0]))

    def test_wrong_shape_raises(self):
        t = np.array([0.0, 0.5, 2.0])
        with pytest.raises(DomainError, match=r"shape \(3, 1\) for t of shape \(3,\)"):
            eval_cf(lambda u: np.exp(-u * u / 2)[:, None], t)

    def test_non_finite_value_raises(self):
        cf = lambda u: np.where(u > 1.0, np.nan, np.exp(-u * u / 2))
        with pytest.raises(ConvergenceError, match=r"not finite at t=2$"):
            eval_cf(cf, np.array([0.0, 0.5, 2.0, 3.0]))
        with pytest.raises(ConvergenceError, match=r"not finite at t=0.5$"):
            eval_cf(lambda u: np.where(u > 0.2, np.inf, 1.0 + 0j), np.array([0.0, 0.5]))

    @pytest.mark.parametrize("error", [ConvergenceError, DomainError])
    def test_cf_errors_propagate_without_retry(self, error):
        calls = []

        def failing(t):
            calls.append(np.shape(t))
            raise error("cf failed")

        with pytest.raises(error):
            eval_cf(failing, np.linspace(0.0, 1.0, 5))
        assert calls == [(5,)]
