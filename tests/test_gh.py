from dataclasses import dataclass

import numpy as np
import pytest

from nugh.errors import ConvergenceError, DomainError
from nugh.gh import (
    GHParams,
    gh_cf,
    gh_log_cf,
    gh_mean_variance,
    nig_log_cf,
)

from oracles import moments_from_cf

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


@pytest.mark.filterwarnings("error")
class TestBesselOverflow:
    # K_25(1e-12) overflows a double: every entry point names the cause
    TINY = GHParams(25.0, 1e-6, 0.0, 1e-6, 0.0)

    def test_entry_points_raise_domain_error(self):
        from nugh.families import GEOMETRIC
        from nugh.transform import NuGHChar, gh_closed_form

        calls = [
            lambda: NuGHChar(GEOMETRIC, self.TINY)(1.0),
            lambda: gh_mean_variance(self.TINY),
            lambda: gh_cf(self.TINY, 1.0),
            lambda: gh_closed_form(GEOMETRIC, self.TINY, 1.0),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="lam = 25"):
                call()


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
