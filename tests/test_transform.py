import numpy as np
import pytest

from nugh.errors import RangeError
from nugh.families import CHEBYSHEV, GEOMETRIC
from nugh.gh import GHParams, gh_cf, gh_log_cf, gh_mean_variance, nig_log_cf
from nugh.transform import NuGHChar, NuTransform, gh_closed_form

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
        for family in (GEOMETRIC, CHEBYSHEV):
            assert np.max(np.abs(NuGHChar(family, gh)(t) - gh_closed_form(family, gh, t))) <= 1e-12

    def test_closed_form_table_is_one_vector_call(self, monkeypatch):
        import nugh.transform

        sizes = []

        def counting_gh_cf(gh, t):
            sizes.append(np.size(t))
            return gh_cf(gh, t)

        monkeypatch.setattr(nugh.transform, "gh_cf", counting_gh_cf)
        gh_closed_form(CHEBYSHEV, GHParams(1.0, 2.0, 0.5, 1.0, 0.1), np.linspace(-10.0, 10.0, 201))
        assert len(sizes) == 1 and sizes[0] <= 257 + 201

    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV])
    @pytest.mark.parametrize("lam", [1.0, 2.5, -3.0])
    def test_path_independence(self, family, lam):
        # a value does not depend on the other points of the call
        gh = GHParams(lam, 1.5, -0.3, 1.0, 2.0)
        t = np.linspace(-20.0, 20.0, 201)
        for cf in (NuGHChar(family, gh), lambda u: gh_closed_form(family, gh, u)):
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
    def test_nu_gh_char_builds_no_track(self, family, monkeypatch):
        # NIG bases take the elementary log, the others gh_log_cf's branch at
        # each point; neither evaluates the CF along a grid of t
        import nugh.special
        import nugh.transform

        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapped

        sites = [(nugh.transform, "gh_log_cf"), (nugh.transform, "unwrap_log")]
        sites += [(nugh.special, "unwrap_log"), (nugh.special, "eval_cf")]
        for module, name in sites:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        for lam in (-0.5, 1.0, -23.8):
            NuGHChar(family, GHParams(lam, 2.0, 0.8, 1.5, 0.3))(np.linspace(-50.0, 50.0, 101))
        assert calls == ["gh_log_cf", "gh_log_cf"]

    def test_lone_far_point(self):
        g = NuGHChar(GEOMETRIC, GHParams(1.0, 2.0, 0.5, 1.0, 0.0))
        v = g(100.0)
        assert abs(v) < 0.05
        assert abs(complex(gh_closed_form(GEOMETRIC, g.gh, 100.0)) - v) <= 1e-12

    def test_scalar_calls_return_python_complex(self):
        # a 0-d t takes the same in-place path as an array, and gives its value
        nig, gh = GHParams(-0.5, 2.0, 0.5, 1.0, 0.1), GHParams(1.0, 2.0, 0.5, 1.0, 0.1)
        calls = [
            (lambda t: nig_log_cf(nig, t), 0.3),
            (lambda t: gh_log_cf(gh, t), 0.3),
            (NuGHChar(GEOMETRIC, nig), 0.3),
            (NuGHChar(CHEBYSHEV, gh), 0.3),
            (GEOMETRIC.phi, 0.5),
            (CHEBYSHEV.phi, 0.5),
        ]
        for f, t in calls:
            v = f(t)
            assert type(v) is complex
            assert v == f(np.array([t]))[0]

    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV])
    def test_large_index_value_does_not_depend_on_the_call(self, family):
        # for |lam| this large the phase of kve(lam, z(t)) turns by 7 rad
        # near t = 0; a value must not depend on the other points asked for
        g = NuGHChar(family, GHParams(-23.8, 3.11, 2.16, 1.68, -0.509))
        t0 = 179.2866736319822
        alone = g([t0])[0]
        assert abs(alone - g([t0, 65535.7])[0]) <= 1e-14
        if family is GEOMETRIC:
            assert abs(alone - (0.0037365062974780124 - 0.0013992922962254998j)) <= 1e-14

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [2.0**600, 1e160, 1e162, 1e170, 1e300])
    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV])
    @pytest.mark.parametrize("lam", [-0.5, 1.0])
    def test_law_scaled_beyond_the_normal_range(self, lam, family, c):
        # cX is nu-GH(lam, alpha / c, beta / c, c delta, c mu); at alpha / c below
        # 2^-511, (alpha - beta)(alpha + beta) and t^2 at t ~ 1 / c are subnormal
        # or 0 unless alpha, beta and t are first rescaled
        t = np.array([0.3, 1.0, 3.0, 10.0])
        unit = NuGHChar(family, GHParams(lam, 2.0, 0.5, 1.0, 0.1))(t)
        scaled = NuGHChar(family, GHParams(lam, 2.0 / c, 0.5 / c, c, 0.1 * c))(t / c)
        assert np.max(np.abs(scaled - unit)) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("c", [1.0, 1e150, 1e160, 1e200])
    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV])
    def test_moments_of_a_law_scaled_beyond_the_normal_range(self, family, c):
        # the mean mu + (beta / gamma)(delta R_1) of cX is c times that of X at
        # any c; the variance, of order c^2, passes the largest double from
        # c ~ 1e154 and raises
        unit = NuGHChar(family, GHParams(-0.5, 2.0, 0.5, 1.0, 0.1))
        gh = GHParams(-0.5, 2.0 / c, 0.5 / c, c, 0.1 * c)
        scaled = NuGHChar(family, gh)
        assert scaled.mean() / c == pytest.approx(unit.mean(), rel=1e-15)
        if c < 1e154:
            assert scaled.variance() / c / c == pytest.approx(unit.variance(), rel=1e-14)
            return
        for call in (scaled.variance, lambda: gh_mean_variance(gh)):
            with pytest.raises(RangeError, match=r"variance of the GH law GHParams\(.*\) overflows a double"):
                call()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV])
    def test_variance_past_the_largest_double_from_the_mixing_time(self, family):
        # the base GH variance is finite, but Var T mean^2 ~ 1e400 Var T is not
        with pytest.raises(RangeError, match=f"variance of the {family.kind}-GH law"):
            NuGHChar(family, GHParams(-0.5, 2.0, 0.5, 1.0, 1e200)).variance()


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
        assert np.max(np.abs(g(t) - family.phi(0.5 * t**2))) <= 1e-12

    def test_nu_gaussian_values(self):
        # the fixed-point law's CF is phi(a t^2)
        assert complex(GEOMETRIC.phi(0.5 * 2.0**2)) == pytest.approx(1.0 / 3.0)
        assert complex(CHEBYSHEV.phi(0.5 * 2.0**2)) == pytest.approx(1.0 / np.cosh(2.0))


def example2_bessel_argument(gh: GHParams, t):
    """The rearranged Bessel argument delta * sqrt(alpha^2 + (t - i beta)^2);
    algebraically identical to the Example-1 arrangement."""
    t = np.asarray(t, dtype=float)
    return gh.delta * np.sqrt(gh.alpha**2 + (t - 1j * gh.beta) ** 2)


class TestBesselArgumentRearrangement:
    @pytest.mark.parametrize("gh", FIXTURES)
    def test_equal_arrangements(self, gh):
        from nugh.gh import _bessel_argument

        t = np.linspace(-15, 15, 121)
        a1 = _bessel_argument(gh, t)
        a2 = example2_bessel_argument(gh, t)
        assert np.max(np.abs(a1 - a2)) <= 1e-12 * np.max(np.abs(a1))
