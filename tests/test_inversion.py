import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import k1e

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
    _GilPelaez,
    _probe,
    _spectral_grid,
    cdf_at,
    pdf_grid,
    quantile,
    tail_diagnostic,
)
from nugh.montecarlo import hsecant_cdf, laplace_cdf, make_rng, sample_nu_gh
from nugh.transform import NuGHChar
from test_relations import Q, _law, domain_laws

GAUSS = lambda t: np.exp(-np.asarray(t, dtype=float) ** 2 / 2)
LAPLACE = lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float) ** 2)
EXPONENTIAL = lambda t: 1.0 / (1.0 - 1j * np.asarray(t, dtype=float))
# a CF that turns NaN beyond |t| = 5, as a failing special function would
GAUSS_NAN_TAIL = lambda t: np.where(np.abs(t) > 5, np.nan, GAUSS(t))
# narrow and wide scales of a law, two of them powers of two
SCALES = [2.0**-20, 2.0**-14, 1e-4, 1e4, 1e20, 1e24]
# scales far beyond the probes about t = 1, 2^-60 .. 2^60, and two powers of two
EXTREME_SCALES = [1e40, 1e100, 1e154, 1e160, 1e-30, 1e-100, 2.0**200, 2.0**-200]


def gil_pelaez_quad(cf, x):
    """P(X <= x), x != 0, by adaptive quadrature of the Gil-Pelaez integral
    with a scalar CF callback: the independent oracle for :func:`cdf_at`.

    Fast-decaying CFs are integrated directly to their cutoff, the first
    t = 16 * 2^k <= 2^16 with |cf(t)| < 1e-12; slowly decaying ones, and
    large |x|, use oscillatory-weighted quadrature on the tail.  Slow:
    hundreds of CF calls per point.
    """
    x = float(x)
    ax, sgn = abs(x), (1.0 if x >= 0 else -1.0)

    def cf1(t):
        return complex(cf(np.array([t]))[0])

    def integrand(t):
        return (np.exp(-1j * t * x) * cf1(t)).imag / t

    t_cutoff = 16.0
    while abs(cf1(t_cutoff)) >= 1e-12 and t_cutoff < 2**16:
        t_cutoff *= 2
    decayed = abs(cf1(t_cutoff)) < 1e-12
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


def exit_time_density(t):
    """Density of the exit time of Brownian motion from (-1, 1): the theta
    series for t < 1, the eigenfunction series from 1 on."""
    k = np.arange(12)[:, None]
    c = (-1.0) ** k * (2 * k + 1)
    ts, tl = np.minimum(t, 1.0), np.maximum(t, 1.0)
    small = np.sqrt(2 / (np.pi * ts**3)) * np.sum(c * np.exp(-((2 * k + 1) ** 2) / (2 * ts)), axis=0)
    large = np.pi / 2 * np.sum(c * np.exp(-((2 * k + 1) ** 2) * np.pi**2 * tl / 8), axis=0)
    return np.where(t < 1.0, small, large)


def nu_nig_pdf(family, p, x, nodes=256):
    """Density of the nu-NIG law at ``x``: the mixture over the mixing time
    T of NIG laws with scale delta T and location mu T, by the trapezoid
    rule in u = log T on [-40, 5], with mixing density e^{-T} (geometric)
    or the exit-time density (Chebyshev).  The independent oracle for
    :func:`pdf_grid`; 256 and 512 nodes agree to 2e-15 relative."""
    u = np.linspace(-40.0, 5.0, nodes)
    T = np.exp(u)
    mixing = (np.exp(-T) if family is GEOMETRIC else exit_time_density(T))[:, None]
    d, y = T[:, None] * p.delta, x - T[:, None] * p.mu
    q = np.hypot(d, y)
    gamma = np.sqrt(p.alpha**2 - p.beta**2)
    nig = p.alpha * d / (np.pi * q) * k1e(p.alpha * q) * np.exp(d * gamma + p.beta * y - p.alpha * q)
    return np.trapezoid(mixing * T[:, None] * nig, u, axis=0)


class CountingCF:
    """Wraps a CF and counts the calls, the points asked for and the calls
    with a single point."""

    def __init__(self, cf):
        self.cf = cf
        self.calls = self.points = self.scalar_calls = 0

    def __call__(self, t):
        self.calls += 1
        self.points += np.size(t)
        self.scalar_calls += np.size(t) == 1
        return self.cf(t)


def full_spectrum_pdf(cf, x_range, n, m=None):
    """The density grid of :func:`pdf_grid` from one inverse FFT of the CF on
    the first m frequencies t_k = k 2 pi / span of the half spectrum, by
    default all of k = 0 .. n/2, clipped at 0."""
    lo, span = x_range[0], x_range[1] - x_range[0]
    m = n // 2 + 1 if m is None else m
    vals = cf(np.arange(m) * (2 * np.pi / span))
    return np.clip(np.fft.irfft(_spectral_grid(lo, span, n)[2][:m] * np.conj(vals), n), 0.0, None)


class TestPdfGrid:
    def test_normal_peak(self):
        grid = pdf_grid(GAUSS, (-12, 12), 4096)
        i0 = int(np.argmin(np.abs(grid.x)))
        assert grid.pdf[i0] == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-9)
        assert grid.total_mass == pytest.approx(1.0, abs=1e-8)

    def test_normal_matches_density_everywhere(self):
        # on a symmetric range the shift e^{i t_k lo} is (-1)^k; the
        # asymmetric one checks its phase
        for x_range in [(-12, 12), (-9.5, 14.5)]:
            grid = pdf_grid(GAUSS, x_range, 4096)
            ref = np.exp(-grid.x**2 / 2) / np.sqrt(2 * np.pi)
            assert np.max(np.abs(grid.pdf - ref)) <= 1e-9

    def test_laplace_peak_tapered(self):
        # slow 1/t^2 decay: tapered inversion with a generous band
        grid = pdf_grid(LAPLACE, (-20, 20), 2**20)
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

    @pytest.mark.parametrize(
        "family",
        [
            CHEBYSHEV,
            pytest.param(
                GEOMETRIC,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="the tapered 1/t spectrum misses the geo-NIG body by 1e-2 to 3e-2 next to "
                    "the singularity at 0 (ROADMAP item 1: exact geometric densities by singularity subtraction)",
                ),
            ),
        ],
        ids=["cheb", "geo"],
    )
    def test_nig_body_matches_mixture_density(self, family):
        p = GHParams(-0.5, 2.0, 0.5, 1.0, 0.1)
        grid = pdf_grid(NuGHChar(family, p), (-60, 60), 2**16)
        # the geometric law's density is infinite at 0: skip that node
        body = (np.abs(grid.x - p.mu) <= 6.0) & (np.abs(grid.x) >= 0.5 * grid.dx)
        ref = nu_nig_pdf(family, p, grid.x[body])
        assert np.max(np.abs(grid.pdf[body] - ref) / ref) <= 2e-6

    def test_cf_evaluated_once_on_half_spectrum(self):
        # two vector calls on the default Chebyshev grid: the decay probe
        # t = 0 and 2^(7 + j), |j| <= 60 (2^7 <= 4096 pi / 60 < 2^8), then
        # t_k = k dt, k = 0 .. n/2, of the grid grown from 4096 to 16384 points
        cf = CountingCF(NuGHChar(CHEBYSHEV, GHParams(-0.5, 1.0, 0.0, 1.0, 0.0)))
        assert pdf_grid(cf, (-30, 30)).x.size == 16384
        assert (cf.calls, cf.scalar_calls, cf.points) == (2, 0, 122 + 2**13 + 1)

    def test_band_of_a_wide_grid(self):
        # 2^16 points on (-60, 60) reach t_top = 1716; cheb-NIG (2, .5, 1, .1)
        # has |cf| ~ 3e-14 at t = 512 and 4e-20 at t = 1024, where the octave
        # bound first falls below 2^-52 of the probes' sum: the CF is read on
        # t_k = k 2 pi / 120 <= 1024, k <= 19556, of the 32769
        cf = CountingCF(NuGHChar(CHEBYSHEV, GHParams(-0.5, 2.0, 0.5, 1.0, 0.1)))
        grid = pdf_grid(cf, (-60, 60), 2**16)
        assert (cf.calls, cf.scalar_calls, cf.points) == (2, 0, 122 + 19557)
        assert grid.t_band == 1024.0 and grid.t_top == pytest.approx(2**15 * np.pi / 60)
        assert grid.truncation_bound == abs(cf.cf(19556 * (2 * np.pi / 120)))

    def test_band_drops_only_a_negligible_spectrum(self):
        # seeded Chebyshev laws, NIG and lam in {1, 2.5, -3}, at 2^16 points on
        # (-60, 60) and at the defaults: within 1e-15 of the peak of the grid
        # of the whole half spectrum
        rng = np.random.default_rng(28)
        truncated = 0
        for lam in (-0.5, 1.0, 2.5, -3.0):
            for _ in range(2):
                alpha = 10 ** rng.uniform(0.2, 0.6)
                beta, delta = alpha * rng.uniform(-0.5, 0.5), 10 ** rng.uniform(-0.5, 0.2)
                cf = NuGHChar(CHEBYSHEV, GHParams(lam, alpha, beta, delta, rng.uniform(-0.5, 0.5)))
                for x_range, n in [((-60.0, 60.0), 2**16), ((-30.0, 30.0), 4096)]:
                    grid = pdf_grid(cf, x_range, n)
                    gap = grid.pdf - full_spectrum_pdf(cf, x_range, grid.x.size)
                    assert np.max(np.abs(gap)) <= 1e-15 * grid.pdf.max()
                    truncated += grid.t_band < grid.t_top
        assert truncated >= 4

    def test_undecayed_cf_keeps_its_whole_spectrum(self):
        # bit for bit: the CF on every t_k, k = 0 .. n/2
        geo = NuGHChar(GEOMETRIC, GHParams(-0.5, 2.0, 0.5, 1.0, 0.1))
        for cf, x_range in [(LAPLACE, (-20.0, 20.0)), (geo, (-30.0, 30.0)), (geo, (-60.0, 60.0))]:
            grid = pdf_grid(cf, x_range)
            assert not grid.decayed and grid.t_band == grid.t_top
            assert np.array_equal(grid.pdf, full_spectrum_pdf(cf, x_range, grid.x.size))

    def test_cached_weights_are_read_only(self):
        grid = _spectral_grid(-12.0, 24.0, 4096)
        assert grid is _spectral_grid(-12.0, 24.0, 4096)
        for v in grid:
            with pytest.raises(ValueError):
                v[0] = 0.0

    def test_grids_on_one_range_share_read_only_abscissae(self):
        a = pdf_grid(GAUSS, (-30.0, 30.0), 4096)
        b = pdf_grid(LAPLACE, (-30.0, 30.0), 4096)
        assert a.x is b.x
        assert np.array_equal(a.x, -30.0 + (60.0 / 4096) * np.arange(4096))
        with pytest.raises(ValueError):
            a.x[0] = 0.0

    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV], ids=["geo", "cheb"])
    @pytest.mark.parametrize("lam", [-0.5, 1.0, -3.0])
    @pytest.mark.parametrize("n", [2**12, 2**16])
    def test_grid_is_the_band_limited_inverse_fft_to_the_bit(self, family, lam, n):
        # the grid is one inverse FFT of the CF on t_k, k < m, the frequencies up to its band
        cf = NuGHChar(family, GHParams(lam, 2.0, 0.5, 1.0, 0.1))
        grid = pdf_grid(cf, (-30.0, 30.0), n)
        size, dt = grid.x.size, 2 * np.pi / 60.0
        m = size // 2 + 1 if grid.t_band == grid.t_top else int(grid.t_band / dt) + 1
        assert np.array_equal(grid.pdf, full_spectrum_pdf(cf, (-30.0, 30.0), size, m))
        assert grid.total_mass == pytest.approx(np.trapezoid(grid.pdf, grid.x), abs=1e-14)

    def test_narrow_range_raises_alias(self):
        with pytest.raises(AliasError):
            pdf_grid(GAUSS, (-0.5, 0.5), 1024)

    def test_negative_density_raises_alias(self):
        # a geo-GH base with lambda = -25 puts the CF's 1/t roll-off beyond
        # what 1024 points on (-30, 30) resolve: the grid dips below zero
        cf = NuGHChar(GEOMETRIC, GHParams(-25.0, 1.0, 0.0, 1.0, 0.0))
        with pytest.raises(AliasError, match=r"negative density -4\.95e-04 signals inversion misconfiguration"):
            pdf_grid(cf, (-30.0, 30.0), 1024)
        # the test is relative to the peak: the law 1e4 times wider, of peak
        # below 1, dips by as much of it
        cf = NuGHChar(GEOMETRIC, GHParams(-25.0, 1e-4, 0.0, 1e4, 0.0))
        with pytest.raises(AliasError, match=r"negative density -4\.95e-08"):
            pdf_grid(cf, (-3e5, 3e5), 1024)

    def test_default_size_reaches_the_cutoff(self):
        # cheb-NIG decays below 1e-12 by t = 512, which 4096 and 8192 points
        # on (-30, 30) fall short of: both grow to 16384
        cf = NuGHChar(CHEBYSHEV, GHParams(-0.5, 1.0, 0.0, 1.0, 0.0))
        grid = pdf_grid(cf, (-30, 30))
        assert grid.x.size == 16384
        for n in (16384, 8192):
            explicit = pdf_grid(cf, (-30, 30), n)
            assert np.array_equal(grid.x, explicit.x) and np.array_equal(grid.pdf, explicit.pdf)
        # a CF that does not decay keeps 4096 points
        assert pdf_grid(LAPLACE, (-20, 20)).x.size == 4096

    @pytest.mark.parametrize("c", [2.0**-20, 1e-3, 1e3, 1e4, 2.0**33, 1e10])
    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV], ids=["geo", "cheb"])
    def test_grid_scales_with_the_law(self, family, c):
        # cX is nu-GH(lam, alpha / c, beta / c, c delta, c mu), so its grid on
        # c (mean +- 30 sd) is that of X, rescaled, in any units; a power of
        # two rescales every float exactly
        unit_cf = NuGHChar(family, GHParams(-0.5, 2.0, 0.5, 1.0, 0.1))
        m, s = unit_cf.mean(), np.sqrt(unit_cf.variance())
        unit = pdf_grid(unit_cf, (m - 30 * s, m + 30 * s))
        scaled_cf = NuGHChar(family, GHParams(-0.5, 2.0 / c, 0.5 / c, c, 0.1 * c))
        scaled = pdf_grid(scaled_cf, (c * (m - 30 * s), c * (m + 30 * s)))
        n = min(unit.x.size, scaled.x.size)  # every (size / n)-th node is common to both
        gap = c * scaled.pdf[:: scaled.x.size // n] - unit.pdf[:: unit.x.size // n]
        assert np.max(np.abs(gap)) <= 1e-8 * unit.pdf.max()
        if np.frexp(c)[0] == 0.5:
            assert np.array_equal(scaled.x / c, unit.x) and np.array_equal(scaled.pdf * c, unit.pdf)

    def test_top_frequency_and_decay_are_recorded(self):
        p = GHParams(-0.5, 1.0, 0.0, 1.0, 0.0)
        geo = pdf_grid(NuGHChar(GEOMETRIC, p), (-30, 30))
        assert not geo.decayed
        assert geo.t_top == pytest.approx(4096 * np.pi / 60)  # 214.47
        assert geo.truncation_bound == pytest.approx(4.7e-3, rel=0.01)
        cheb = pdf_grid(NuGHChar(CHEBYSHEV, p), (-30, 30))
        assert cheb.decayed
        assert cheb.t_top == pytest.approx(16384 * np.pi / 60) and cheb.t_top >= 512  # 857.86
        # its band, 1024, lies beyond t_top: nothing is dropped
        assert geo.t_band == geo.t_top and cheb.t_band == cheb.t_top

    def test_insufficient_band_raises(self):
        # the cutoff t = 8 lies beyond 2^20 points on a span of 5e6, which
        # reach t = 0.66, but within those on a span of 4e5, which reach 8.2
        cf = CountingCF(GAUSS)
        with pytest.raises(TruncationError, match="2\\^20"):
            pdf_grid(cf, (-2.5e6, 2.5e6), 1024)
        assert (cf.calls, cf.points) == (1, 122)  # only the decay probe: no FFT
        grid = pdf_grid(GAUSS, (-2e5, 2e5), 1024)
        assert grid.x.size == 2**20 and grid.t_top >= 8.0

    def test_non_finite_cf_raises(self):
        with pytest.raises(ConvergenceError, match="not finite at t=8"):
            pdf_grid(GAUSS_NAN_TAIL, (-10.0, 10.0))

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            pdf_grid(GAUSS, (1, 1), 4096)
        with pytest.raises(DomainError):
            pdf_grid(GAUSS, (-10, 10), 1000)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x_range", [(-30.0, np.inf), (-np.inf, 30.0), (-1e308, 1e308), (np.nan, 1.0)])
    def test_non_finite_range(self, x_range):
        cf = CountingCF(GAUSS)
        with pytest.raises(DomainError, match="finite"):
            pdf_grid(cf, x_range)
        assert cf.calls == 0

    def test_adaptive_cutoff(self):
        # the record (scale, cutoff, decayed, band): the Gaussian falls
        # below 1/2 at t = 2 and below 1e-12 at t = 8; 8 e^-32 = 1e-13 is
        # above 2^-52 of the probes' sum of t |cf(t)| (about 1.8), and
        # 16 e^-128 is not: the band is 16
        assert _probe(GAUSS, 100.0) == (2.0, 8.0, True, 16.0)
        assert _probe(GAUSS, 1e-6) == (2.0, 8.0, True, 16.0)
        # 1 / (1 + t^2) falls below 1e-12 at t = 2^20, 2^19 times its scale
        # t = 2 and beyond CUTOFF_CAP = 2^16 times it: no band
        cf = CountingCF(LAPLACE)
        assert _probe(cf, 100.0) == (2.0, 2.0**20, False, np.inf)
        assert (cf.calls, cf.points) == (1, 122)
        # nor has a geo law, whose CF decays like 1/t, in any units (here
        # scaled by 1e8)
        geo = GHParams(-0.5, 2.0 / 1e8, 0.5 / 1e8, 1e8, 0.1 * 1e8)
        assert not _probe(NuGHChar(GEOMETRIC, geo), 4096 * np.pi / 1e10)[2]

    def test_cutoff_frequency_at_any_scale(self):
        # the Gaussian's record about t = 1 takes one call; scaled by 2^k it
        # is that record over 2^k, beyond the first probes' 2^-60 .. 2^60 for
        # |k| = 200
        cf = CountingCF(GAUSS)
        assert _probe(cf, 1.0) == (2.0, 8.0, True, 16.0) and (cf.calls, cf.points) == (1, 122)
        for k in (-200, 200):
            assert _probe(lambda t: GAUSS(np.ldexp(t, k)), 1.0) == (2.0 ** (1 - k), 2.0 ** (3 - k), True, 2.0 ** (4 - k))
        # so are those of nu-GH laws rescaled by 2^k, in at most 16 calls: a
        # wide geo law's 1/t CF falls from 1/2 to 1e-12 over some 40 octaves,
        # so the walk's last call may hold the cutoff and not the scale
        for family in (GEOMETRIC, CHEBYSHEV):
            for base in (GHParams(1.0, 2.0, 0.5, 1.0, 0.1), GHParams(-0.5, 0.5, 0.2, 30.0, 0.1)):
                scale, cutoff, decayed, band = _probe(NuGHChar(family, base), 1.0)
                assert decayed == (family is CHEBYSHEV)
                for k in (-200, -80, 80, 200, 500):
                    c = 2.0**k
                    cf = CountingCF(_law(family, base, c))
                    assert _probe(cf, 1.0) == (scale / c, cutoff / c, decayed, band / c), (family, base, k)
                    assert cf.calls <= 16
        # a CF with an atom never falls below 1e-12: the walk goes up to
        # 2^960 in 16 calls.  With mass 0.6 at 0 it never falls below 1/2
        # either, so its scale is the first call's last probe, 2^60, and F
        # is that of the mixture; with mass 1/4 t cf(t) does not settle
        atom = lambda p: lambda t: p + (1 - p) * GAUSS(np.minimum(np.abs(t), 64.0))
        cf = CountingCF(atom(0.6))
        assert _probe(cf, 1.0) == (2.0**60, 2.0**960, False, np.inf) and cf.calls == 16
        assert np.max(np.abs(cdf_at(atom(0.6), [-1.0, 0.5]) - [0.0634621, 0.87658498])) <= 1e-8
        cf = CountingCF(atom(0.25))
        assert _probe(cf, 1.0)[:3] == (2.0, 2.0**960, False) and cf.calls == 16
        with pytest.raises(ConvergenceError, match="cdf_at: t cf\\(t\\) does not settle"):
            cdf_at(atom(0.25), [-1.0, 0.5])


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
        # no x, no CF call
        cf = CountingCF(GAUSS)
        assert cdf_at(cf, np.empty((0, 3))).shape == (0, 3) and cf.calls == 0

    @pytest.mark.parametrize("lam", [-0.5, 1.0, 2.5, -3.0])
    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV], ids=["geo", "cheb"])
    def test_against_quadrature_oracle(self, family, lam):
        cf = NuGHChar(family, GHParams(lam, 1.5, -0.3, 0.9, 0.2))
        xs = np.array([-2.3, 0.4, 3.1])
        ref = [gil_pelaez_quad(cf, x) for x in xs]
        assert np.max(np.abs(cdf_at(cf, xs) - ref)) <= 1e-8

    @pytest.mark.parametrize("lam, delta", [(1.0, 30.0), (-3.0, 100.0)])
    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV], ids=["geo", "cheb"])
    def test_wide_base_against_quadrature_oracle(self, family, lam, delta):
        # the tail probe samples t up to ~6.5e7, so |z(t)| passes 1.07e9,
        # beyond which scipy's kve returns NaN, for delta >= 17
        cf = NuGHChar(family, GHParams(lam, 1.0, 0.0, delta, 0.0))
        xs = np.array([-1.3, 0.4, 2.1]) * np.sqrt(cf.variance())
        ref = [gil_pelaez_quad(cf, x) for x in xs]
        assert np.max(np.abs(cdf_at(cf, xs) - ref)) <= 1e-8

    @pytest.mark.parametrize("a", [1e5, 1e9])
    @pytest.mark.parametrize("lam", [-0.5, 1.0])
    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV], ids=["geo", "cheb"])
    def test_near_gaussian_base(self, family, lam, a):
        # GH(lam, a, 0, a, 0) tends to N(0, 1), so the geo law tends to the
        # Laplace law with CF 1 / (1 + t^2 / 2) and the Chebyshev law to the
        # hyperbolic secant law with CF 1 / cosh t, each within about 1 / a^2
        xs = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        limit = laplace_cdf(np.sqrt(2.0) * xs) if family is GEOMETRIC else hsecant_cdf(xs)
        assert np.max(np.abs(cdf_at(NuGHChar(family, GHParams(lam, a, 0.0, a, 0.0)), xs) - limit)) <= 1e-8

    def test_non_finite_cf_raises(self):
        # the scale probe, t = 2^j, meets the NaN at t = 8 before the tail samples reach t = 64
        with pytest.raises(ConvergenceError, match="not finite at t=8"):
            cdf_at(GAUSS_NAN_TAIL, [0.0, 1.0])

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
        # the CF of a normal law of scale s is below 1e-15 beyond t = 8.3 / s,
        # so the panel at t = 0 may hold no node that sees it fall from
        # cf(0) = 1; it is halved until its interpolant meets cf(0)
        from scipy.special import ndtr

        xs = np.array([-30.0, 0.0, 0.1, 7.0])
        scales = [(20.0, 0.0), (50.0, 0.0), (50.0, 0.3), (100.0, 0.3), (1e3, 0.0), (3e3, 0.3), (1e4, 0.0), (1e5, 0.3)]
        for scale, mu in scales:
            wide = lambda t: np.exp(1j * mu * np.asarray(t, dtype=float) - (scale * np.asarray(t, dtype=float)) ** 2 / 2)
            assert np.max(np.abs(cdf_at(wide, xs) - ndtr((xs - mu) / scale))) <= 1e-8, (scale, mu)
            assert abs(ndtr((quantile(wide, 0.5) - mu) / scale) - 0.5) <= 1e-7, (scale, mu)
        # the table is laid out on the law's frequency scale, so F of cX at c x
        # is that of X at x for narrow and wide laws alike, and to the bit when
        # c is a power of two
        xs = np.array([-2.3, -0.4, 0.0, 0.4, 3.1])
        for family in (GEOMETRIC, CHEBYSHEV):
            for lam in (-0.5, 1.0, -3.0):
                base = GHParams(lam, 2.0, 0.5, 1.0, 0.1)
                unit = cdf_at(NuGHChar(family, base), xs)
                for c in SCALES:
                    f = cdf_at(_law(family, base, c), c * xs)
                    assert np.max(np.abs(f - unit)) <= 1e-8, (family, lam, c)
                    if np.frexp(c)[0] == 0.5:  # c = 2^-k
                        assert np.array_equal(f, unit), (family, lam, c)

    def test_cf_point_counts(self):
        # deterministic counts: the 201-point default CDF and one quantile
        # of the Chebyshev-NIG law evaluate the CF in vector calls only, 122
        # points of them in the scale probe
        cf = CountingCF(NuGHChar(CHEBYSHEV, GHParams(-0.5, 1.0, 0.0, 1.0, 0.0)))
        cdf_at(cf, np.linspace(-30.0, 30.0, 201))
        assert (cf.points, cf.scalar_calls) == (879, 0)
        cf = CountingCF(NuGHChar(CHEBYSHEV, GHParams(-0.5, 1.0, 0.0, 1.0, 0.0)))
        quantile(cf, 0.99)
        assert (cf.points, cf.scalar_calls) == (831, 0)

    def test_node_budget_checked_before_the_table(self):
        # the table does not depend on x: the normal law at |x| = 1e4 needs
        # the scale probe (122 points, scale 2), the first call (341 tail
        # samples, 13 panels on [0, 64] of cf(2 u)) and one round of halving
        cf = CountingCF(GAUSS)
        assert cdf_at(cf, 1e4) == pytest.approx(1.0, abs=1e-8)
        assert (cf.calls, cf.points) == (3, 863)
        # a CF that turns once per 2 pi / 1e6 while e^{-|t|} is above the
        # resolution: after the probe, each of 12 rounds halves the panels it
        # leaves unresolved, the last to 45,612 new ones; the 13th round
        # would pass 2^16 panels and is refused before its CF call
        cf = CountingCF(lambda t: np.exp(1e6j * np.asarray(t, dtype=float) - np.abs(t)))
        with pytest.raises(RangeError, match="the t-table to t=64 needs more than 1048576 nodes"):
            cdf_at(cf, 0.0)
        assert (cf.calls, cf.points) == (14, 1462943)

    def test_errors_name_the_caller(self):
        # quantile reads the t-table of cdf_at, and its errors say quantile
        with pytest.raises(RangeError, match="^quantile: the t-table to t=64 needs more than 1048576 nodes"):
            quantile(lambda t: np.exp(-np.abs(t) + 4e4j * t), 0.3)
        shifted = lambda t: np.exp(0.7j * np.asarray(t, dtype=float)) * EXPONENTIAL(t)
        with pytest.raises(ConvergenceError, match="^quantile: t cf\\(t\\) does not settle by t="):
            quantile(shifted, 0.3)

    def test_node_budget_checked_after_halving(self):
        # a Cauchy law centred at 4e4, at x = 3000: its CF turns once per
        # 2 pi / 4e4, and halving stops at the 15th round after the scale
        # probe, which would pass 2^16 panels, before its CF call
        cf = CountingCF(lambda t: np.exp(-np.abs(t) + 4e4j * t))
        with pytest.raises(RangeError, match="the t-table to t=64 needs more than 1048576 nodes"):
            cdf_at(cf, 3000.0)
        assert (cf.calls, cf.points) == (16, 2083071)

    @pytest.mark.parametrize(
        "cf",
        [GAUSS] + [NuGHChar(family, p) for family in (GEOMETRIC, CHEBYSHEV)
                   for p in (GHParams(-0.5, 1.0, 0.0, 1.0, 0.0), GHParams(-0.5, 1.0, 0.5, 1.0, 0.1))],
        ids=["gauss", "geo", "geo-skew", "cheb", "cheb-skew"],
    )
    def test_far_x(self, cf):
        # every panel integrates e^{-itx} exactly, so no |x| is too large; a
        # skewed law has Im cf(T) != 0, so its 1/t tail adds Im(cf(T)) Re E_2(iTx),
        # which must stay O(1/(T x)) as T x grows
        big = np.finfo(float).max
        xs = np.array([-big, -1e20, -1e10, -1e6, -1e4, -6000.0, 6000.0, 1e4, 1e6, 1e10, 1e20, big])
        assert np.max(np.abs(cdf_at(cf, xs) - (xs > 0))) <= 1e-8

    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV], ids=["geo", "cheb"])
    def test_law_shifted_by_128_pi(self, family):
        # the shift e^{i mu t}, mu = 128 pi, turns t cf(t) once per 1/64 in t, so a
        # difference quotient of step 1/64 sees none of it.  The geometric law's
        # t cf(t) keeps its size, so no 1/t tail holds near x = mu and F is
        # refused; the Chebyshev law's decays, and F(mu + d) is F(d) unshifted
        base = NuGHChar(family, GHParams(-0.5, 1.0, 0.0, 1.0, 0.0))
        mu = 128 * np.pi
        shifted = lambda t: np.exp(1j * mu * np.asarray(t, dtype=float)) * base(t)
        d = np.array([-0.5, -1e-3, -1e-5, 0.0, 1e-5, 1e-3, 0.5])
        if family is GEOMETRIC:
            with pytest.raises(ConvergenceError, match="does not settle"):
                cdf_at(shifted, mu + d)
        else:
            assert np.max(np.abs(cdf_at(shifted, mu + d) - cdf_at(base, d))) <= 1e-8

    def test_consistent_with_pdf_grid(self):
        grid = pdf_grid(GAUSS, (-12, 12), 4096)
        cum = grid.cdf_values()
        for a, b in [(-1.0, 1.0), (0.3, 2.2)]:
            window = float(np.interp(b, grid.x, cum) - np.interp(a, grid.x, cum))
            assert window == pytest.approx(cdf_at(GAUSS, b) - cdf_at(GAUSS, a), abs=1e-5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c", EXTREME_SCALES)
@pytest.mark.parametrize("lam", [-0.5, 1.0, -3.0])
@pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV], ids=["geo", "cheb"])
def test_inversion_at_extreme_scales(family, lam, c):
    # the probe walks to the law's own frequency scale, so cX has the unit
    # law's F at c x, and its limits at the largest doubles, and its
    # quantiles over c, with no warning; a law of lam != -1/2 samples by
    # inversion, bit for bit c times the unit law's draws when c is a power
    # of two
    base = GHParams(lam, 2.0, 0.5, 1.0, 0.1)
    law, xs, qs = _law(family, base, c), np.array([-1.3, 0.4, 2.2]), np.array([0.01, 0.3, 0.5, 0.99])
    assert np.max(np.abs(cdf_at(law, c * xs) - cdf_at(NuGHChar(family, base), xs))) <= 1e-8
    big = np.finfo(float).max
    assert np.max(np.abs(cdf_at(law, [-big, big]) - [0.0, 1.0])) <= 1e-8
    f = cdf_at(NuGHChar(family, base), quantile(law, qs) / c)
    assert np.all(np.abs(f - qs) <= 2e-7 * np.minimum(qs, 1 - qs) + 2e-8), f - qs
    if lam != -0.5:
        scaled = GHParams(lam, 2.0 / c, 0.5 / c, c, 0.1 * c)
        draws = sample_nu_gh(family, scaled, 100, make_rng(1)) / c
        assert np.all(np.isfinite(draws)) and np.all(np.abs(draws) < 100)
        if np.frexp(c)[0] == 0.5:
            assert np.array_equal(draws, sample_nu_gh(family, base, 100, make_rng(1)))


class TestQuantile:
    def test_gaussian(self):
        assert quantile(GAUSS, 0.5) == pytest.approx(0.0, abs=1e-6)
        assert quantile(GAUSS, 0.975) == pytest.approx(1.959964, abs=1e-4)

    def test_laplace(self):
        assert quantile(LAPLACE, 0.9) == pytest.approx(np.log(5.0), abs=1e-5)

    def test_round_trip(self):
        q = 0.77
        assert cdf_at(GAUSS, quantile(GAUSS, q)) == pytest.approx(q, abs=1e-6)

    @pytest.mark.parametrize("q", [1e-8, 1e-10, 1 - 1e-8])
    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV], ids=["geo", "cheb"])
    @pytest.mark.parametrize(
        "p", [GHParams(-0.5, 1.0, 0.0, 1.0, 0.0), GHParams(-0.5, 2.0, 0.5, 1.0, 0.1)], ids=["sym", "skew"]
    )
    def test_extreme_tail(self, p, family, q):
        # the stop rule is relative to the smaller tail: the mass beyond x_q,
        # by quadrature of the mixture density, matches min(q, 1 - q)
        x = quantile(NuGHChar(family, p), q)
        pdf = lambda v: nu_nig_pdf(family, p, np.array([v]))[0]
        lo, hi = (-np.inf, x) if q < 0.5 else (x, np.inf)
        tail, _ = quad(pdf, lo, hi, limit=200, epsabs=0.0, epsrel=1e-10)
        assert tail == pytest.approx(min(q, 1 - q), rel=5e-3)

    def test_bad_q(self):
        with pytest.raises(DomainError):
            quantile(GAUSS, 0.0)

    @pytest.mark.parametrize("q", [1e-12, 1e-14, 1 - 1e-12, [0.5, 1e-12]])
    def test_tail_floor(self, q):
        # cdf_at's absolute accuracy does not resolve tails below 1e-10
        cf = CountingCF(NuGHChar(CHEBYSHEV, GHParams(-0.5, 1.0, 0.0, 1.0, 0.0)))
        with pytest.raises(DomainError, match="tail floor"):
            quantile(cf, q)
        assert cf.calls == 0

    @pytest.mark.parametrize("family, shared, alone", [(CHEBYSHEV, 879, 2541), (GEOMETRIC, 847, 2445)],
                             ids=["cheb", "geo"])
    def test_array_shares_tables(self, family, shared, alone):
        # one call on three q gives the floats of three scalar calls, from
        # one t-table: about a third of their CF evaluations
        qs = [0.01, 0.5, 0.99]
        law = GHParams(-0.5, 1.0, 0.0, 1.0, 0.0)
        cf = CountingCF(NuGHChar(family, law))
        together = quantile(cf, qs)
        singles = [CountingCF(NuGHChar(family, law)) for _ in qs]
        assert together.tolist() == [quantile(one, q) for one, q in zip(singles, qs)]
        assert (cf.points, sum(one.points for one in singles)) == (shared, alone)
        assert cf.scalar_calls == 0
        for q, x in zip(qs, together):
            assert abs(cdf_at(cf, x) - q) <= 2e-7 * min(q, 1 - q)

    @pytest.mark.parametrize("index", [33, 57])
    def test_array_gives_scalar_floats_on_narrow_laws(self, index):
        # lock-step rounds grow the t-table in other steps than scalar calls
        # do; on these seed-1 sweep laws (Chebyshev, c < 1e-4) a table whose
        # panels kept the order they were added in summed them in another
        # order, and the quantiles differed in their last bits
        qs = [1e-6, 0.01, 0.3, 0.5, 0.7, 0.99]
        law = _law(*list(domain_laws())[index])
        assert quantile(law, qs).tolist() == [quantile(law, q) for q in qs]

    @pytest.mark.parametrize("q", [0.01, 0.3, 0.99])
    @pytest.mark.parametrize("family", [GEOMETRIC, CHEBYSHEV], ids=["geo", "cheb"])
    def test_wide_law(self, family, q):
        # GH(lam, 1/c, 0, c, 0) is c times GH(lam, 1, 0, 1, 0): its quantile
        # over c meets the unit law's F within quantile's stop rule and twice
        # cdf_at's accuracy, and is the unit law's quantile to the bit when c
        # is a power of two
        for lam in (-0.5, 1.0, -3.0):
            base = GHParams(lam, 1.0, 0.0, 1.0, 0.0)
            unit = NuGHChar(family, base)
            for c in SCALES:
                x = quantile(_law(family, base, c), q) / c
                assert abs(cdf_at(unit, x) - q) <= 2e-7 * min(q, 1 - q) + 2e-8, (lam, c)
                if np.frexp(c)[0] == 0.5:  # c = 2^-k
                    assert x == quantile(unit, q), (lam, c)

    def test_array_keeps_shape(self):
        got = quantile(GAUSS, [[0.25, 0.5], [0.75, 0.975]])
        assert got.shape == (2, 2)
        assert got.ravel().tolist() == [quantile(GAUSS, q) for q in (0.25, 0.5, 0.75, 0.975)]
        assert isinstance(quantile(GAUSS, 0.5), float)
        with pytest.raises(DomainError, match="in \\(0, 1\\)"):
            quantile(GAUSS, [0.5, np.nan])
        # no q, no CF call
        cf = CountingCF(GAUSS)
        assert quantile(cf, []).shape == (0,) and cf.calls == 0

    def test_bracket_failure(self):
        # a defective transform (total mass 1/2) plateaus at F = 0.75,
        # so the upper bracket for q = 0.9 can never be found
        with pytest.raises(BracketError):
            quantile(lambda t: 0.5 * np.exp(-np.asarray(t, dtype=float) ** 2 / 2), 0.9)

    def test_f_calls(self, monkeypatch):
        # deterministic counts of table reads F(x), one per bracket rung or
        # Brent step; three q in one call advance in lock-step.  The ladder
        # starts at the law's width, x = +-1/2 for these laws of scale 2
        calls = []
        read = _GilPelaez.cdf
        monkeypatch.setattr(_GilPelaez, "cdf", lambda table, x: calls.append(x.size) or read(table, x))

        def count(cf, q):
            calls.clear()
            quantile(cf, q)
            return len(calls)

        qs = [0.01, 0.5, 0.99]
        for family in (GEOMETRIC, CHEBYSHEV):
            law = NuGHChar(family, GHParams(-0.5, 1.0, 0.0, 1.0, 0.0))
            assert (count(law, qs), [count(law, q) for q in qs]) == (11, [11, 2, 11])
        # no q = 0.3 quantile of the seed-1 sweep takes more reads than the
        # bracket ladder and bisection took, one side at a time, per law (None:
        # it raised ConvergenceError)
        bisection = [38, 27, None, 37, 30, 28, 26, 32, 43, 39, 26, 35, 34, 32, 31, 21, None, 25, 27, None,
                     34, None, None, 35, 19, None, 25, 27, 45, None, 31, 33, 30, 32, None, 46, None, 34, 27, 29,
                     None, None, None, 40, None, 40, 25, 26, 34, 26, 27, None, 20, 35, 27, 32, 31, 37, 44, None]
        brent = []
        for (family, base, c), old in zip(domain_laws(), bisection):
            if old is not None:
                brent.append(count(_law(family, base, c), Q))
                assert brent[-1] <= old, (family, base, c)
        # bisection: 1,422 and 46 over these 45 laws
        assert (sum(brent), max(brent)) == (286, 8)


class TestTails:
    def test_laplace_exponential(self):
        grid = pdf_grid(LAPLACE, (-24, 24), 2**20)
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
