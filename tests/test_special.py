import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from nugh.errors import BranchError, ConvergenceError, DomainError, RangeError
from nugh.special import (
    LogTrack,
    bessel_k,
    distinguished_log,
    eval_cf,
    sqrt_right,
)

from oracles import chebyshev_t


def bessel_k_quadrature(order, z):
    """Independent evaluation of K_order(z), re(z) > 0, by adaptive
    quadrature of exp(-z cosh u) cosh(order u) over u >= 0; the oracle for
    :func:`bessel_k`.

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


class TestBesselK:
    def test_half_order_closed_form(self):
        # K_{1/2}(z) = sqrt(pi/(2z)) e^{-z}
        assert bessel_k(0.5, 1.0 + 0j) == pytest.approx(np.sqrt(np.pi / 2) * np.exp(-1.0), rel=1e-12)
        z = 2.0 + 1.5j
        expect = np.sqrt(np.pi / (2 * z)) * np.exp(-z)
        assert bessel_k(0.5, z) == pytest.approx(expect, rel=1e-12)

    def test_order_one_quadrature_oracle(self):
        # frozen from the adaptive quadrature of exp(-z cosh u) cosh(u)
        assert bessel_k(1.0, 1.0 + 0j) == pytest.approx(0.6019072301972346, rel=1e-10)

    def test_conjugate_symmetry(self):
        z = 1.3 + 0.8j
        assert bessel_k(0.7, np.conj(z)) == pytest.approx(np.conj(bessel_k(0.7, z)), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.3, 5.0, -2.5])
    @pytest.mark.parametrize("z", [0.5 + 0j, 1 + 1j, 3 - 2j, 0.2 + 0.9j, 8 + 4j])
    def test_against_quadrature_grid(self, lam, z):
        ref = bessel_k_quadrature(lam, z)
        assert abs(bessel_k(lam, z) / ref - 1.0) <= 1e-8

    @pytest.mark.parametrize("z", [1 + 0.5j, 2 - 1j, 0.7 + 0.2j])
    def test_recurrence(self, z):
        lam = 1.1
        lhs = bessel_k(lam + 1, z)
        rhs = bessel_k(lam - 1, z) + (2 * lam / z) * bessel_k(lam, z)
        assert abs(lhs - rhs) <= 1e-8 * abs(lhs)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_k(0.5, -1.0 + 0j)
        with pytest.raises(DomainError):
            bessel_k(0.5, 0.0 + 2j)
        with pytest.raises(DomainError):
            bessel_k(51.0, 1.0 + 0j)


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


class TestSqrtRight:
    def test_examples(self):
        assert sqrt_right(4.0) == pytest.approx(2.0)
        assert sqrt_right(-1.0 + 0j) == pytest.approx(1j)
        # alpha=1, beta=0, t=1: alpha^2 - (it)^2 = 2
        assert sqrt_right(1.0 - (1j * 1.0 + 0.0) ** 2) == pytest.approx(np.sqrt(2.0))

    def test_lower_cut_edge(self):
        assert sqrt_right(complex(-4.0, -0.0)) == pytest.approx(2j)

    @given(st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_branch_invariant(self, z):
        w = sqrt_right(z)
        assert abs(w * w - z) <= 1e-9 * abs(z)
        assert w.real >= 0 or (w.real == 0 and w.imag >= 0)

    def test_zero(self):
        assert sqrt_right(0.0) == 0.0


class TestDistinguishedLog:
    def test_gaussian_cf(self):
        track = distinguished_log(lambda t: np.exp(-np.asarray(t) ** 2 / 2), 4.0)
        assert track.log_at(2.0) == pytest.approx(-2.0, abs=1e-12)

    def test_pure_rotation_beyond_pi(self):
        track = distinguished_log(lambda t: np.exp(1j * np.asarray(t)), 8.0)
        assert track.log_at(7.0) == pytest.approx(7j, abs=1e-10)

    def test_nig_closed_form(self):
        from nugh.gh import GHParams, gh_cf

        p = GHParams(-0.5, 1.0, 0.0, 1.0, 0.0)
        track = distinguished_log(lambda t: gh_cf(p, t), 2.0)
        assert track.log_at(1.0) == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-12)

    def test_exp_reproduces_cf(self):
        cf = lambda t: np.exp(1j * 3 * np.asarray(t) - np.asarray(t) ** 2 / 4)
        track = distinguished_log(cf, 10.0)
        for t in [0.0, 0.37, 2.0, 9.99]:
            assert abs(np.exp(track.log_at(t)) - complex(cf(np.array([t]))[0])) <= 1e-12
        dimag = np.diff(track.log_values.imag)
        assert np.max(np.abs(dimag)) < np.pi

    def test_conjugate_extension(self):
        cf = lambda t: np.exp(1j * np.asarray(t) - np.asarray(t) ** 2 / 2)
        track = distinguished_log(cf, 3.0)
        assert track.log_at(-2.0) == pytest.approx(np.conj(track.log_at(2.0)))

    def test_values_match_per_point_log_at(self):
        from nugh.gh import GHParams, gh_cf

        gh = GHParams(1.0, 2.0, 0.5, 1.0, 0.1)
        track = distinguished_log(lambda t: gh_cf(gh, t), 12.5)
        t = np.linspace(-12.5, 12.5, 201)
        per_point = np.array([track.log_at(x) for x in t])
        assert np.max(np.abs(track.values(t) - per_point)) <= 1e-14

    def test_values_fall_back_on_a_coarse_track(self):
        # a step of 8 radians from the node at 0.1 must be bisected
        cf = lambda t: np.exp(10j * np.asarray(t))
        grid = np.array([0.0, 0.1, 1.0])
        track = LogTrack(cf, grid, 10j * grid, cf(grid))
        assert np.allclose(track.values(np.array([0.9, -0.9, 1.0])), [9j, -9j, 10j], atol=1e-12)
        assert track.log_at(0.9) == pytest.approx(9j, abs=1e-12)
        with pytest.raises(RangeError):
            track.values(np.array([0.5, 1.5]))

    def test_vanishing_cf_raises(self):
        # cos t is the CF of a fair +-1 coin and vanishes at pi/2
        with pytest.raises(BranchError):
            distinguished_log(lambda t: np.cos(np.asarray(t)) + 0j, 3.0)

    def test_requires_unit_origin(self):
        with pytest.raises(DomainError):
            distinguished_log(lambda t: 0.5 * np.exp(-np.asarray(t) ** 2), 1.0)


class TestEvalCF:
    def test_scalar_only_callable(self):
        t = np.array([0.0, 0.5, 2.0])
        assert np.allclose(eval_cf(lambda u: complex(np.exp(-u * u / 2)), t), np.exp(-t * t / 2))

    def test_wrong_shape_falls_back(self):
        assert np.array_equal(eval_cf(lambda u: 1.0, np.array([0.0, 1.0])), [1.0, 1.0])

    @pytest.mark.parametrize("error", [ConvergenceError, DomainError])
    def test_cf_errors_propagate_without_retry(self, error):
        calls = []

        def failing(t):
            calls.append(np.shape(t))
            raise error("cf failed")

        with pytest.raises(error):
            eval_cf(failing, np.linspace(0.0, 1.0, 5))
        assert calls == [(5,)]
