import numpy as np
import pytest
from scipy.integrate import quad

from nugh.errors import (
    AliasError,
    BracketError,
    ConvergenceError,
    DomainError,
    RangeError,
    TruncationError,
)
from nugh.families import CHEBYSHEV, GEOMETRIC
from nugh.gh import GHParams
from nugh.inversion import (
    adaptive_cutoff,
    cdf_at,
    default_x_range,
    pdf_grid,
    quantile,
    tail_diagnostic,
)
from nugh.montecarlo import laplace_cdf
from nugh.transform import NuGHChar

GAUSS = lambda t: np.exp(-np.asarray(t, dtype=float) ** 2 / 2)
LAPLACE = lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float) ** 2)
EXPONENTIAL = lambda t: 1.0 / (1.0 - 1j * np.asarray(t, dtype=float))


def gil_pelaez_quad(cf, x):
    """P(X <= x), x != 0, by adaptive quadrature of the Gil-Pelaez integral
    with a scalar CF callback: the independent oracle for :func:`cdf_at`.

    Fast-decaying CFs are integrated directly to their cutoff; slowly
    decaying ones, and large |x|, use oscillatory-weighted quadrature on
    the tail.  Slow: hundreds of CF calls per point.
    """
    x = float(x)
    ax, sgn = abs(x), (1.0 if x >= 0 else -1.0)

    def cf1(t):
        return complex(cf(np.array([t]))[0])

    def integrand(t):
        return (np.exp(-1j * t * x) * cf1(t)).imag / t

    t_cutoff, decayed = adaptive_cutoff(cf)
    a = min(1.0, 1.0 / ax)
    integral, err = quad(integrand, 1e-12, a, limit=200, epsabs=1e-11, epsrel=1e-11)
    if decayed and ax * (t_cutoff - a) < 4000.0:
        mid, merr = quad(integrand, a, t_cutoff, limit=800, epsabs=1e-10, epsrel=1e-10)
    else:
        top = t_cutoff if decayed else np.inf
        c, cerr = quad(lambda t: cf1(t).imag / t, a, top, weight="cos", wvar=ax, limit=400, epsabs=1e-11)
        s, serr = quad(lambda t: cf1(t).real / t, a, top, weight="sin", wvar=ax, limit=400, epsabs=1e-11)
        mid, merr = c - sgn * s, cerr + serr
    assert err + merr <= 1e-9, "oracle quadrature missed its tolerance"
    return 0.5 - (integral + mid) / np.pi


class CountingCF:
    """Wraps a CF and counts the points asked for and the calls with a
    single point."""

    def __init__(self, cf):
        self.cf = cf
        self.points = self.scalar_calls = 0

    def __call__(self, t):
        self.points += np.size(t)
        self.scalar_calls += np.size(t) == 1
        return self.cf(t)


class TestPdfGrid:
    def test_normal_peak(self):
        grid = pdf_grid(GAUSS, (-12, 12), 4096)
        i0 = int(np.argmin(np.abs(grid.x)))
        assert grid.pdf[i0] == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-9)
        assert grid.total_mass == pytest.approx(1.0, abs=1e-8)

    def test_normal_matches_density_everywhere(self):
        grid = pdf_grid(GAUSS, (-12, 12), 4096)
        ref = np.exp(-grid.x**2 / 2) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(grid.pdf - ref)) <= 1e-9

    def test_laplace_peak_tapered(self):
        # slow 1/t^2 decay: tapered inversion with a generous band
        grid = pdf_grid(LAPLACE, (-20, 20), 2**20, t_cutoff=5e4)
        assert grid.interp_pdf(0.0) == pytest.approx(0.5, abs=1e-4)
        assert grid.interp_pdf(1.3) == pytest.approx(0.5 * np.exp(-1.3), abs=1e-4)

    def test_round_trip_reproduces_cf(self):
        grid = pdf_grid(GAUSS, (-12, 12), 4096)
        for t in (0.0, 0.7, 2.0):
            back = np.trapezoid(grid.pdf * np.exp(1j * t * grid.x), grid.x)
            assert abs(back - complex(GAUSS(t))) <= 1e-6

    def test_geo_nig_round_trip(self):
        cf = NuGHChar(GEOMETRIC, GHParams(-0.5, 1.0, 0.0, 1.0, 0.0))
        grid = pdf_grid(cf, (-60, 60), 2**16)
        for t in (0.0, 0.5, 1.0, 2.0):
            back = np.trapezoid(grid.pdf * np.exp(1j * t * grid.x), grid.x)
            assert abs(back - complex(cf(t))) <= 1e-6

    def test_narrow_range_raises_alias(self):
        with pytest.raises(AliasError):
            pdf_grid(GAUSS, (-0.5, 0.5), 1024)

    def test_untapered_requires_decay(self):
        with pytest.raises(TruncationError):
            pdf_grid(LAPLACE, (-20, 20), 4096, taper=False)

    def test_insufficient_band_raises(self):
        with pytest.raises(TruncationError):
            pdf_grid(GAUSS, (-200, 200), 1024)  # dt too small for the cutoff

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            pdf_grid(GAUSS, (1, 1), 4096)
        with pytest.raises(DomainError):
            pdf_grid(GAUSS, (-10, 10), 1000)

    def test_adaptive_cutoff(self):
        cut, decayed = adaptive_cutoff(GAUSS)
        assert decayed and abs(complex(GAUSS(cut))) < 1e-12
        cut2, decayed2 = adaptive_cutoff(LAPLACE)
        assert not decayed2 and cut2 == 2**16

    def test_default_x_range(self):
        lo, hi = default_x_range(GAUSS, 10.0)
        assert lo == pytest.approx(-10.0, abs=1e-4)
        assert hi == pytest.approx(10.0, abs=1e-4)


class TestCdf:
    def test_gaussian_values(self):
        from scipy.special import ndtr

        for x in (-1.5, 0.0, 0.5, 1.96):
            assert cdf_at(GAUSS, x) == pytest.approx(float(ndtr(x)), abs=1e-8)

    def test_laplace_values(self):
        for x in (-2.0, 0.0, 1.0, 3.0):
            assert cdf_at(LAPLACE, x) == pytest.approx(float(laplace_cdf(x)), abs=1e-8)

    def test_far_tail(self):
        assert cdf_at(LAPLACE, 30.0) == pytest.approx(float(laplace_cdf(30.0)), abs=1e-8)

    def test_monotone(self):
        xs = np.linspace(-4, 4, 17)
        vals = [cdf_at(GAUSS, x) for x in xs]
        assert np.all(np.diff(vals) >= -1e-10)

    def test_array_input_keeps_shape(self):
        xs = np.array([[-1.0, 0.0], [0.5, 40.0]])
        got = cdf_at(GAUSS, xs)
        assert got.shape == xs.shape
        np.testing.assert_allclose(got, [[cdf_at(GAUSS, x) for x in row] for row in xs], rtol=0, atol=1e-14)
        assert isinstance(cdf_at(GAUSS, 0.5), float)
        with pytest.raises(DomainError):
            cdf_at(GAUSS, [0.0, np.nan])

    @pytest.mark.parametrize("t_cutoff", [0.0, -5.0, np.inf, np.nan])
    def test_bad_cutoff(self, t_cutoff):
        with pytest.raises(DomainError):
            cdf_at(GAUSS, 0.5, t_cutoff)

    @pytest.mark.parametrize("lam", [-0.5, 1.0, 2.5, -3.0])
    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV], ids=["geo", "cheb"])
    def test_against_quadrature_oracle(self, family, lam):
        cf = NuGHChar(family, GHParams(lam, 1.5, -0.3, 0.9, 0.2))
        xs = np.array([-2.3, 0.4, 3.1])
        ref = [gil_pelaez_quad(cf, x) for x in xs]
        assert np.max(np.abs(cdf_at(cf, xs) - ref)) <= 1e-8

    def test_exponential_exact(self):
        # decays like 1/t, so the tail beyond the table is the 1/t model
        xs = np.array([-1.0, 0.0, 0.5, 3.0])
        exact = np.where(xs > 0, -np.expm1(-np.maximum(xs, 0.0)), 0.0)
        assert np.max(np.abs(cdf_at(EXPONENTIAL, xs) - exact)) <= 1e-8

    def test_shifted_exponential_never_silently_wrong(self):
        # t cf(t) keeps rotating, so the 1/t tail model does not hold: the
        # answer at the atom of the shift must be exact or refused
        shifted = lambda t: np.exp(0.7j * np.asarray(t, dtype=float)) * EXPONENTIAL(t)
        try:
            value = cdf_at(shifted, 0.7)
        except ConvergenceError:
            return
        assert value == pytest.approx(0.0, abs=1e-8)

    def test_wide_law_resolved_by_panel_halving(self):
        from scipy.special import ndtr

        wide = lambda t: np.exp(-((20.0 * np.asarray(t, dtype=float)) ** 2) / 2)
        xs = np.array([-30.0, 0.0, 7.0])
        assert np.max(np.abs(cdf_at(wide, xs) - ndtr(xs / 20.0))) <= 1e-8

    def test_cf_point_counts(self):
        # deterministic counts: the 201-point default CDF and one quantile
        # of the Chebyshev-NIG law evaluate the CF in vector calls only,
        # apart from the cutoff search's doublings t = 16, 32, ..., 512
        cf = CountingCF(NuGHChar(CHEBYSHEV, GHParams(-0.5, 1.0, 0.0, 1.0, 0.0)))
        cdf_at(cf, np.linspace(-30.0, 30.0, 201))
        assert (cf.points, cf.scalar_calls) == (83238, 6)
        cf = CountingCF(NuGHChar(CHEBYSHEV, GHParams(-0.5, 1.0, 0.0, 1.0, 0.0)))
        quantile(cf, 0.99)
        assert (cf.points, cf.scalar_calls) == (18310, 6)

    def test_consistent_with_pdf_grid(self):
        grid = pdf_grid(GAUSS, (-12, 12), 4096)
        cum = grid.cdf_values()
        for a, b in [(-1.0, 1.0), (0.3, 2.2)]:
            window = float(np.interp(b, grid.x, cum) - np.interp(a, grid.x, cum))
            assert window == pytest.approx(cdf_at(GAUSS, b) - cdf_at(GAUSS, a), abs=1e-5)


class TestQuantile:
    def test_gaussian(self):
        assert quantile(GAUSS, 0.5) == pytest.approx(0.0, abs=1e-6)
        assert quantile(GAUSS, 0.975) == pytest.approx(1.959964, abs=1e-4)

    def test_laplace(self):
        assert quantile(LAPLACE, 0.9) == pytest.approx(np.log(5.0), abs=1e-5)

    def test_round_trip(self):
        q = 0.77
        assert cdf_at(GAUSS, quantile(GAUSS, q)) == pytest.approx(q, abs=1e-6)

    def test_bad_q(self):
        with pytest.raises(DomainError):
            quantile(GAUSS, 0.0)

    def test_bracket_failure(self):
        # a defective transform (total mass 1/2) plateaus at F = 0.75,
        # so the upper bracket for q = 0.9 can never be found
        with pytest.raises(BracketError):
            quantile(lambda t: 0.5 * np.exp(-np.asarray(t, dtype=float) ** 2 / 2), 0.9)


class TestTails:
    def test_laplace_exponential(self):
        grid = pdf_grid(LAPLACE, (-24, 24), 2**20, t_cutoff=5e4)
        rep = tail_diagnostic(grid, "right")
        assert rep.r2 > 0.999
        assert rep.slope == pytest.approx(-1.0, rel=1e-3)
        left = tail_diagnostic(grid, "left")
        assert left.slope == pytest.approx(1.0, rel=1e-3)

    def test_gaussian_not_exponential(self):
        grid = pdf_grid(GAUSS, (-12, 12), 2**14)
        rep = tail_diagnostic(grid, "right", (0.9, 0.9999))
        # log-density is quadratic, so a line fits poorly over a wide window
        assert rep.r2 < 0.999

    def test_window_needs_resolution(self):
        grid = pdf_grid(GAUSS, (-12, 12), 1024)
        with pytest.raises(RangeError):
            tail_diagnostic(grid, "right", (0.9995, 0.9999))

    def test_bad_arguments(self):
        grid = pdf_grid(GAUSS, (-12, 12), 1024)
        with pytest.raises(DomainError):
            tail_diagnostic(grid, "up")
        with pytest.raises(DomainError):
            tail_diagnostic(grid, "right", (0.4, 0.9))
