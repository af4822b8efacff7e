from dataclasses import dataclass

import numpy as np
import pytest

from nugh.errors import ConvergenceError, DomainError
from nugh.gh import (
    GHParams,
    _kve,
    gh_cf,
    gh_log_cf,
    nig_log_cf,
)

from oracles import bessel_ratio_phase, moments_from_cf

NIG_SYM = GHParams(-0.5, 1.0, 0.0, 1.0, 0.0)
NIG_SKEW = GHParams(-0.5, 2.0, 0.8, 1.5, 0.3)
HYP = GHParams(1.0, 2.0, 0.0, 1.0, 0.0)


@dataclass(frozen=True)
class CFEvaluation:
    """A characteristic-function value together with its distinguished log."""

    t: float
    value: complex
    log_value: complex


def cf_evaluation(params, t):
    """CF value plus distinguished log at a single t."""
    log_value = gh_log_cf(params, t)
    return CFEvaluation(float(t), np.exp(log_value), log_value)


class TestParams:
    def test_valid(self):
        p = GHParams(0.5, 2.0, -1.0, 0.3, 5.0)
        assert p.gamma == pytest.approx(np.sqrt(3.0))
        assert not p.is_nig
        assert NIG_SYM.is_nig

    def test_all_violations_listed(self):
        with pytest.raises(DomainError) as exc:
            GHParams(30.0, -1.0, 2.0, 0.0, 0.0)
        msg = str(exc.value)
        for phrase in ("lam", "alpha", "beta", "delta"):
            assert phrase in msg

    def test_nonfinite(self):
        with pytest.raises(DomainError):
            GHParams(0.0, np.inf, 0.0, 1.0, 0.0)

    def test_alpha_squared_overflow(self):
        with pytest.raises(DomainError, match="invalid GH parameters: alpha = 1e\\+200"):
            GHParams(-0.5, 1e200, 0.0, 1.0, 0.0)
        assert GHParams(-0.5, 1e150, 0.0, 1.0, 0.0).gamma == pytest.approx(1e150)


class TestCF:
    def test_nig_closed_form(self):
        # lam=-1/2, alpha=1, beta=0, delta=1, mu=0 at t=1: e^{1-sqrt(2)}
        assert gh_cf(NIG_SYM, 1.0) == pytest.approx(np.exp(1.0 - np.sqrt(2.0)), rel=1e-13)
        assert nig_log_cf(NIG_SYM, 1.0) == pytest.approx(1.0 - np.sqrt(2.0), rel=1e-13)

    def test_large_zeta_does_not_underflow(self):
        # K_1(1000) ~ e^{-1000} underflows unscaled; the scaled form keeps the
        # CF finite and equal to the exponential of its distinguished log
        p = GHParams(1.0, 1000.0, 0.0, 1.0, 0.0)
        assert gh_cf(p, 1.0) == pytest.approx(np.exp(gh_log_cf(p, 1.0)), rel=1e-12)
        assert gh_cf(p, 1.0) == pytest.approx(0.9994993752924036, rel=1e-12)

    def test_origin_and_symmetry(self):
        for p in (NIG_SYM, NIG_SKEW, HYP):
            assert gh_cf(p, 0.0) == pytest.approx(1.0, abs=1e-14)
            t = np.linspace(-8, 8, 101)
            v = gh_cf(p, t)
            assert np.max(np.abs(v - np.conj(v[::-1]))) <= 1e-13
            assert np.max(np.abs(v)) <= 1 + 1e-12

    @pytest.mark.parametrize("a", [1e5, 1e7, 1e9])
    def test_nig_near_gaussian(self, a):
        # NIG(a, 0, a, 0) tends to N(0, 1): its log CF delta gamma - z(t)
        # is -a t^2 / (a + sqrt(a^2 + t^2)), which a subtraction of z(t)
        # from delta gamma = a^2 would get wrong by about 1e-16 a^2
        t = np.array([1e-3, 0.1, 1.0, 10.0])
        exact = -a * t**2 / (a + np.sqrt(a * a + t * t))
        np.testing.assert_allclose(nig_log_cf(GHParams(-0.5, a, 0.0, a, 0.0), t), exact, rtol=1e-14, atol=0)

    def test_nig_gamma_underflow(self):
        # alpha^2 underflows, but gamma = 1e-200 is formed at scale, and is
        # negligible beside |t|: the Cauchy limit, log CF -delta |t|
        p = GHParams(-0.5, 1e-200, 0.0, 1.5, 0.0)
        np.testing.assert_array_equal(nig_log_cf(p, np.array([0.0, 2.0])), [0.0, -3.0])

    def test_nig_log_cf_needs_nig(self):
        with pytest.raises(DomainError, match="^nig_log_cf: requires lam = -1/2$"):
            nig_log_cf(HYP, 1.0)

    def test_bessel_route_matches_nig_formula(self):
        t = np.linspace(-5, 5, 41)
        assert np.max(np.abs(gh_cf(NIG_SKEW, t) - np.exp(nig_log_cf(NIG_SKEW, t)))) <= 1e-12

    def test_drift_dominated_log(self):
        # large location: the distinguished log winds many times
        p = GHParams(-0.5, 1.0, 0.0, 1.0, 5.0)
        lv = gh_log_cf(p, 10.0)
        assert lv.imag == pytest.approx(50.0, abs=1e-6)
        assert abs(lv.imag) > np.pi  # beyond the principal branch

    def test_lone_far_point_needs_no_range(self):
        # the phase winds 5000 radians, with no range set up beforehand
        assert gh_log_cf(GHParams(-0.5, 1.0, 0.0, 1.0, 5.0), 1000.0).imag == pytest.approx(5000.0, abs=1e-6)

    def test_general_lambda_track(self):
        t = np.array([0.0, 0.5, 3.0, 19.5])
        direct = gh_cf(HYP, t)
        assert np.max(np.abs(np.exp(gh_log_cf(HYP, t)) - direct)) <= 1e-12
        # log-space evaluation survives far past CF underflow
        far = gh_log_cf(HYP, np.array([3000.0]))[0]
        assert far.real < -2500

    def test_cf_evaluation(self):
        ev = cf_evaluation(NIG_SYM, 1.0)
        assert ev.value == pytest.approx(np.exp(ev.log_value))
        assert ev.log_value == pytest.approx(1.0 - np.sqrt(2.0))


class TestBesselRatioBranch:
    """log h, h(t) = kve(lam, z(t)) / kve(lam, delta gamma), has one branch,
    which gh_log_cf picks at each t on its own."""

    @staticmethod
    def assert_unwrapped(p, t):
        phase, z, step = bessel_ratio_phase(p.lam, p.alpha, p.beta, p.delta, t)
        assert step <= 0.5
        # im log f = mu t - lam arg z - im z + im log h
        expect = p.mu * t - p.lam * np.angle(z) - z.imag + phase
        got = np.array([gh_log_cf(p, x) for x in t]).imag
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-9)

    @staticmethod
    def seeded_base(rng, lam):
        alpha = 10 ** rng.uniform(-0.5, 0.7)
        beta, delta = alpha * rng.uniform(-0.9, 0.9), 10 ** rng.uniform(-0.7, 0.7)
        return GHParams(lam, alpha, beta, delta, rng.uniform(-1.0, 1.0))

    def test_seeded_bases_against_unwrap(self):
        # |lam| up to 25 with skew: the phase of h turns fast near t = 0
        rng = np.random.default_rng(6)
        t = np.array([0.3, 1.0, 3.0, 10.0, 50.0])
        for _ in range(240):
            self.assert_unwrapped(self.seeded_base(rng, rng.uniform(-25.0, 25.0)), t)

    def test_small_orders_and_far_arguments(self):
        # one Debye phase serves every order and argument: lam = 0 and
        # |lam| < 1, and nu = 25 where |z| >= 1e6 nu
        rng = np.random.default_rng(8)
        t = np.array([0.3, 1.0, 3.0, 10.0, 50.0, 1e4])
        for lam in (0.0, 0.2, -0.5, 0.7, -0.95):
            self.assert_unwrapped(self.seeded_base(rng, lam), t)
        for lam in (25.0, -25.0):
            self.assert_unwrapped(GHParams(lam, 2.0, 1.2, 1.0, 0.0), np.array([3e7, 1e8]))


@pytest.mark.filterwarnings("error")
class TestBesselOverflow:
    # K_25(1e-12) overflows a double: every entry point names the cause
    TINY = GHParams(25.0, 1e-6, 0.0, 1e-6, 0.0)

    def test_entry_points_raise_domain_error(self):
        from nugh.families import GEOMETRIC
        from nugh.transform import NuGHChar, gh_closed_form

        calls = [
            lambda: NuGHChar(GEOMETRIC, self.TINY)(1.0),
            lambda: gh_cf(self.TINY, 1.0),
            lambda: gh_closed_form(GEOMETRIC, self.TINY, 1.0),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="lam = 25"):
                call()


class TestKveHankel:
    """|z| >= 2^29, where scipy's kve returns NaN from about 1.07e9 on, is
    summed from the Hankel expansion, which terminates at half-integer
    orders: kve(1/2, z) = r, kve(3/2, z) = r (1 + 1/z) and
    kve(5/2, z) = r (1 + 3/z + 3/z^2), with r = sqrt(pi / 2z)."""

    @pytest.mark.parametrize("size", [2.0**29, 1e12, 1e300])
    @pytest.mark.parametrize("phase", [0.0, 0.7, -1.5])
    def test_half_integer_orders(self, size, phase):
        z = np.array([size * np.exp(1j * phase) if phase else size])
        r = np.sqrt(np.pi / (2 * z))
        for order, poly in [(0.5, 1.0), (-1.5, 1 + 1 / z), (2.5, 1 + 3 / z + 3 / z / z)]:
            np.testing.assert_allclose(_kve(order, z), r * poly, rtol=4e-16, atol=0)

    @pytest.mark.parametrize("order", [-25.0, -7.3, 0.0, 1.0, 2.5, 27.0])
    @pytest.mark.parametrize("phase", [0.0, 1.2])
    def test_continuous_at_the_switch(self, order, phase):
        # scipy just below 2^29, the expansion at and above it; sqrt(z) kve(z)
        # moves by about 1e-21 relative between the two points
        z = 2.0**29 * np.array([1 - 2.0**-40, 1 + 2.0**-40]) * np.exp(1j * phase)
        assert abs(z[0]) < 2.0**29 <= abs(z[1])
        v = np.sqrt(z) * _kve(order, z)
        assert abs(v[1] / v[0] - 1) <= 1e-14

    @pytest.mark.filterwarnings("error")
    def test_far_t_keeps_the_cf_finite(self):
        # z(t) ~ delta t passes 1.07e9 at t ~ 1e9, and t^2 overflows a double
        # beyond 1.3e154: the log CF stays ~ -delta |t| + i mu t
        t = np.array([2e9, 1e160, -1e300])
        for p in (NIG_SKEW, HYP):
            log_f = gh_log_cf(p, t) if not p.is_nig else nig_log_cf(p, t)
            np.testing.assert_allclose(log_f, -p.delta * np.abs(t) + 1j * p.mu * t, rtol=1e-7)
            assert np.all(np.isfinite(gh_cf(p, t)))

    @pytest.mark.filterwarnings("error")
    def test_arguments_near_the_largest_double(self):
        # z(t) = t, where 2 z, 8 k z and z + r pass the largest double from
        # about 7.5e306: the log CF is -t to rounding, and the CF underflows
        t = np.array([1e307, 5e307, 1e308])
        p = GHParams(1.0, 1.0, 0.0, 1.0, 0.0)
        log_f = gh_log_cf(p, t)
        np.testing.assert_allclose(log_f.real, -t, rtol=1e-15)
        assert np.all(log_f.imag == 0) and np.all(gh_cf(p, t) == 0)
        np.testing.assert_allclose(np.sqrt(t) * _kve(1.0, t + 0j), np.sqrt(np.pi / 2), rtol=4e-16)


class TestConvolutionPower:
    def test_cf_power_identity(self):
        # the NIG log CF is linear in (delta, mu): scaling both by x gives
        # the x-fold convolution power, f_x(t) = f(t)^x
        x = 1.7
        q = GHParams(NIG_SKEW.lam, NIG_SKEW.alpha, NIG_SKEW.beta, x * NIG_SKEW.delta, x * NIG_SKEW.mu)
        t = np.linspace(-6, 6, 61)
        assert np.max(np.abs(nig_log_cf(q, t) - x * nig_log_cf(NIG_SKEW, t))) <= 1e-12


class TestMoments:
    def test_gaussian(self):
        cf = lambda t: np.exp(-(t**2) / 2)
        m = moments_from_cf(cf, 4)
        assert m[0] == pytest.approx(0.0, abs=1e-9)
        assert m[1] == pytest.approx(1.0, rel=1e-7)
        assert m[2] == pytest.approx(0.0, abs=1e-6)
        assert m[3] == pytest.approx(3.0, rel=1e-4)

    def test_nig_mean_variance(self):
        # mean = mu + delta beta / gamma, var = delta alpha^2 / gamma^3
        p = NIG_SKEW
        m = moments_from_cf(lambda t: gh_cf(p, t), 2)
        g = p.gamma
        assert m[0] == pytest.approx(p.mu + p.delta * p.beta / g, rel=1e-7)
        assert m[1] - m[0] ** 2 == pytest.approx(p.delta * p.alpha**2 / g**3, rel=1e-6)

    def test_unstable_raises(self):
        # a CF-shaped function whose higher derivatives do not extrapolate
        rng = np.random.default_rng(0)
        jitter = lambda t: np.exp(-(t**2) / 2) * (1 + 1e-4 * rng.standard_normal())
        with pytest.raises(ConvergenceError):
            moments_from_cf(jitter, 4)
