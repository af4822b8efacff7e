import numpy as np
import pytest

from nugh.families import CHEBYSHEV, GEOMETRIC
from nugh.gh import GHParams, gh_cf
from nugh.special import sqrt_right
from nugh.transform import (
    NuGaussianChar,
    NuGHChar,
    NuTransform,
    cheb_gh_closed_form,
    geo_gh_closed_form,
)

from oracles import moments_from_cf

NIG_SYM = GHParams(-0.5, 1.0, 0.0, 1.0, 0.0)

FIXTURES = [
    NIG_SYM,
    GHParams(-0.5, 2.0, 0.8, 1.5, 0.3),   # asymmetric
    GHParams(1.0, 2.0, 0.0, 1.0, 0.0),
    GHParams(0.5, 1.5, -0.5, 0.7, -1.0),  # asymmetric, negative skew
    GHParams(-1.2, 3.0, 1.0, 2.0, 0.0),
]


class TestComposition:
    def test_geo_nig_value(self):
        g = NuGHChar(GEOMETRIC, NIG_SYM)
        # log f(1) = 1 - sqrt(2); g(1) = 1/(1 - (1 - sqrt(2))) = 1/sqrt(2)
        assert g(1.0) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-13)

    def test_cheb_nig_value(self):
        g = NuGHChar(CHEBYSHEV, NIG_SYM)
        expect = 1.0 / np.cosh(np.sqrt(2.0 * (np.sqrt(2.0) - 1.0)))
        assert g(1.0) == pytest.approx(expect, rel=1e-12)
        assert g(1.0) == pytest.approx(0.6927076370640991, rel=1e-10)

    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV])
    @pytest.mark.parametrize("gh", FIXTURES)
    def test_cf_axioms(self, family, gh):
        g = NuGHChar(family, gh)
        t = np.linspace(-20, 20, 201)
        v = g(t)
        assert complex(g(0.0)) == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(v)) <= 1 + 1e-12
        assert np.max(np.abs(v - np.conj(v[::-1]))) <= 1e-12

    @pytest.mark.parametrize("gh", FIXTURES)
    def test_closed_forms_agree(self, gh):
        t = np.linspace(-20, 20, 161)
        assert np.max(np.abs(NuGHChar(GEOMETRIC, gh)(t) - geo_gh_closed_form(gh, t))) <= 1e-12
        assert np.max(np.abs(NuGHChar(CHEBYSHEV, gh)(t) - cheb_gh_closed_form(gh, t))) <= 1e-12

    def test_closed_form_table_is_one_vector_call(self, monkeypatch):
        import nugh.transform

        sizes = []

        def counting_gh_cf(gh, t):
            sizes.append(np.size(t))
            return gh_cf(gh, t)

        monkeypatch.setattr(nugh.transform, "gh_cf", counting_gh_cf)
        cheb_gh_closed_form(GHParams(1.0, 2.0, 0.5, 1.0, 0.1), np.linspace(-10.0, 10.0, 201))
        assert len(sizes) == 1 and sizes[0] <= 257 + 201

    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV])
    @pytest.mark.parametrize("lam", [1.0, 2.5, -3.0])
    def test_path_independence(self, family, lam):
        # a value does not depend on the other points of the call
        gh = GHParams(lam, 1.5, -0.3, 1.0, 2.0)
        closed = geo_gh_closed_form if family is GEOMETRIC else cheb_gh_closed_form
        t = np.linspace(-20.0, 20.0, 201)
        for cf in (NuGHChar(family, gh), lambda u: closed(gh, u)):
            assert np.max(np.abs(cf(t) - np.array([cf(x) for x in t]))) <= 1e-14

    def test_mean_preserved(self):
        # the transform preserves the base mean (E[T] = 1)
        gh = GHParams(-0.5, 1.5, 0.0, 1.0, 3.0)
        assert NuGHChar(GEOMETRIC, gh).mean() == pytest.approx(3.0, abs=1e-6)
        skew = GHParams(-0.5, 2.0, 0.3, 1.0, 0.25)
        base_mean = skew.mu + skew.delta * skew.beta / skew.gamma
        assert NuGHChar(CHEBYSHEV, skew).mean() == pytest.approx(base_mean, abs=1e-6)

    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV])
    @pytest.mark.parametrize("lam", [-0.5, -3.0, 1.0, 2.5])
    def test_exact_moments_match_cf_derivatives(self, family, lam):
        # mu != 0, so the Var T * mean^2 term of the variance counts
        g = NuGHChar(family, GHParams(lam, 2.0, 0.8, 1.5, 0.3))
        m1, m2 = moments_from_cf(g, 2)
        assert g.mean() == pytest.approx(m1, rel=1e-6)
        assert g.variance() == pytest.approx(m2 - m1**2, rel=1e-6)

    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV])
    def test_nig_base_builds_no_track(self, family, monkeypatch):
        import nugh.gh
        import nugh.transform

        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapped

        sites = [(nugh.transform, "gh_log_cf"), (nugh.transform, "unwrap_log"), (nugh.gh, "unwrap_log")]
        for module, name in sites:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        g = NuGHChar(family, GHParams(-0.5, 2.0, 0.8, 1.5, 0.3))
        g(np.linspace(-50.0, 50.0, 101))
        assert calls == []

    def test_lazy_track_extension(self):
        g = NuGHChar(GEOMETRIC, GHParams(1.0, 2.0, 0.5, 1.0, 0.0))
        v = g(100.0)  # a lone far point
        assert abs(v) < 0.05
        assert abs(complex(geo_gh_closed_form(g.gh, 100.0)) - v) <= 1e-12


class TestGaussianSpecialCase:
    def test_geometric(self):
        t = np.linspace(-10, 10, 201)
        g = NuTransform(GEOMETRIC, lambda u: np.exp(-np.asarray(u) ** 2 / 2))
        assert np.max(np.abs(g(t) - 1.0 / (1.0 + t**2 / 2))) <= 1e-14

    def test_chebyshev(self):
        t = np.linspace(-10, 10, 201)
        g = NuTransform(CHEBYSHEV, lambda u: np.exp(-np.asarray(u) ** 2 / 2))
        assert np.max(np.abs(g(t) - 1.0 / np.cosh(t))) <= 1e-12

    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV])
    def test_matches_fixed_point_cf(self, family):
        t = np.linspace(-10, 10, 201)
        g = NuTransform(family, lambda u: np.exp(-np.asarray(u) ** 2 / 2))
        fp = NuGaussianChar(family, 0.5)
        assert np.max(np.abs(g(t) - fp(t))) <= 1e-12

    def test_nu_gaussian_values(self):
        assert complex(NuGaussianChar(GEOMETRIC, 0.5)(2.0)) == pytest.approx(1.0 / 3.0)
        assert complex(NuGaussianChar(CHEBYSHEV, 0.5)(2.0)) == pytest.approx(1.0 / np.cosh(2.0))


def example2_bessel_argument(gh: GHParams, t):
    """The rearranged Bessel argument delta * sqrt(alpha^2 + (t - i beta)^2);
    algebraically identical to the Example-1 arrangement."""
    t = np.asarray(t, dtype=float)
    return gh.delta * sqrt_right(gh.alpha**2 + (t - 1j * gh.beta) ** 2)


class TestBesselArgumentRearrangement:
    @pytest.mark.parametrize("gh", FIXTURES)
    def test_equal_arrangements(self, gh):
        from nugh.gh import _bessel_argument

        t = np.linspace(-15, 15, 121)
        a1 = _bessel_argument(gh, t)
        a2 = example2_bessel_argument(gh, t)
        assert np.max(np.abs(a1 - a2)) <= 1e-12 * np.max(np.abs(a1))
