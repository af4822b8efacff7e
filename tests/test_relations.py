"""Exact relations between nu-GH laws over a seeded draw of the advertised
domain: both families, |lam| <= 25, |beta| / alpha <= 0.95 and scale c in
10^[-6, 6].  They need no oracle.  Of the characteristic functions:

- evaluation set: cf(t) alone equals cf(T)[i] for t = T[i];
- reflection: -X is nu-GH(lam, alpha, -beta, delta, -mu), so its CF at t
  is conj g(t);
- scale: cX is nu-GH(lam, alpha/c, beta/c, c delta, c mu), so its CF at t
  is g(c t);
- conjugate symmetry, g(-t) = conj g(t), and |g| <= 1.

Of the CDFs, at x in X: scale, F_cX(c x) = F_X(x); reflection,
F_cX(c x) = 1 - F_-cX(-c x); evaluation set, cdf_at(x) alone equals
cdf_at(X)[i]; of the quantiles, F_X(x_0.3(cX) / c) = 0.3; of the density
grids on mean +- 30 sd, scale, c pdf_cX(c x) = pdf_X(x) at common nodes,
and reflection, pdf_-cX(-x) = pdf_cX(x) at every node; and of the sampler,
draws of cX pass the Kolmogorov-Smirnov test against cdf_at of cX.  Of
the paper's random-sum closure, on the law's base taken as NIG (lam = -1/2)
at unit scale and at c: a nu_p-sum of its draws has CF pgf(p, g(t)), which
is the CF of nu-NIG(alpha, beta, delta / p, mu / p); and, at the sampler
level on the NIG base at c, sqrt(p) times random_sum_sample's nu_p-sums of
sample_nu_gh draws passes the Kolmogorov-Smirnov test against cdf_at of that
law at x / sqrt(p).

The same relations hold far outside that domain: a second sweep scales
the geometric and Chebyshev laws on NIG (2, .5, 1, .1) and on
GH (2.5; 1.5, -.3, 1, 2) by c = 10^k, k = -150 .. 300.

Each law meets every relation, raises a typed :class:`NughError`, or is
wrong; a warning counts as wrong."""

import warnings
from collections import Counter
from functools import lru_cache, partial

import numpy as np
import pytest

from nugh.errors import BracketError, ConvergenceError, NughError, RangeError
from nugh.families import CHEBYSHEV, CHEBYSHEV_MAX_N, GEOMETRIC
from nugh.gh import GHParams
from nugh.inversion import cdf_at, pdf_grid, quantile
from nugh.montecarlo import identity_suite, ks_statistic, make_rng, sample_nu_gh
from nugh.transform import NuGHChar

from oracles import nu_gh_mean_sd

SEED, LAWS = 1, 60
T = np.array([0.3, 1.0, 3.0, 10.0, 50.0, 179.2866736319822, 65535.7])
X = np.array([-2.3, -0.4, 0.0, 0.4, 3.1])
Q = 0.3
DRAWS = 1000
# the nu_p of the sampler-level closure; Chebyshev order 64 (p = 1 / 64**2)
# is left out, as its sums of about 4096 summands take some 15 s per law
SUM_PS = {GEOMETRIC: (0.5, 0.1), CHEBYSHEV: (0.25, 1.0 / 9)}


def domain_laws(seed=SEED, count=LAWS):
    """(family, unit-scale GH base, scale c) for ``count`` laws."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        family = (GEOMETRIC, CHEBYSHEV)[rng.integers(2)]
        alpha = 10 ** rng.uniform(-0.5, 0.7)
        beta, delta = alpha * rng.uniform(-0.95, 0.95), 10 ** rng.uniform(-0.7, 0.7)
        base = GHParams(rng.uniform(-25.0, 25.0), alpha, beta, delta, rng.uniform(-1.0, 1.0))
        yield family, base, 10 ** rng.uniform(-6.0, 6.0)


def _equal(a, b):
    return bool(np.all(np.abs(a - b) <= 1e-9 * np.abs(b) + 1e-14))


def _law(family, base, c=1.0, sign=1.0):
    """The CF of sign * c * X, X the law of ``family`` on ``base``."""
    b = base
    return NuGHChar(family, GHParams(b.lam, b.alpha / c, sign * b.beta / c, c * b.delta, sign * c * b.mu))


def broken_relations(family, base, c):
    """Names of the CF relations that the law breaks."""
    t = np.concatenate([-T[::-1], [0.0], T])
    g = _law(family, base)
    table = g(t)
    checks = {
        "evaluation set": _equal(np.array([g(x) for x in t]), table),
        "reflection": _equal(_law(family, base, sign=-1.0)(t), np.conj(table)),
        "scale": _equal(_law(family, base, c)(t / c), g(c * (t / c))),
        "conjugate symmetry": _equal(table[::-1], np.conj(table)),
        "|g| <= 1": bool(np.all(np.abs(table) <= 1 + 1e-12)),
    }
    return [name for name, ok in checks.items() if not ok]


def broken_cdf_relations(family, base, c):
    """Names of the CDF relations that the law breaks: scale and reflection
    to 2e-8, twice cdf_at's accuracy, and evaluation set to rounding."""
    f = cdf_at(_law(family, base), X)
    fc = cdf_at(_law(family, base, c), c * X)
    checks = {
        "scale": np.all(np.abs(fc - f) <= 2e-8),
        "reflection": np.all(np.abs(fc - (1.0 - cdf_at(_law(family, base, c, -1.0), -c * X))) <= 2e-8),
        "evaluation set": np.all(np.abs([cdf_at(_law(family, base), x) for x in X] - f) <= 1e-13),
    }
    return [name for name, ok in checks.items() if not ok]


def broken_quantile_relation(family, base, c):
    """['quantile scale'] if F_X(x_0.3(cX) / c) misses 0.3 by more than
    quantile's stopping tolerance 2e-7 q plus twice cdf_at's 1e-8."""
    x = quantile(_law(family, base, c), Q) / c
    return [] if abs(cdf_at(_law(family, base), x) - Q) <= 2e-7 * Q + 2e-8 else ["quantile scale"]


def broken_pdf_relations(family, base, c):
    """Names of the density relations that the law breaks, each to 1e-8 of
    the peak: scale, c times the density grid of cX on c (mean +- 30 sd) of
    X, at 4096 points, against that of X at their common nodes, every
    (size / n)-th, n the smaller size; reflection, node n - j of the grid of
    -cX on (-c hi, -c lo) against node j of that of cX, 1 <= j < n."""
    g = _law(family, base)
    mean, sd = nu_gh_mean_sd(family, g.gh)
    lo, hi = mean + np.array([-30.0, 30.0]) * sd
    unit, scaled = pdf_grid(g, (lo, hi)), pdf_grid(_law(family, base, c), (c * lo, c * hi))
    mirror = pdf_grid(_law(family, base, c, -1.0), (-c * hi, -c * lo))
    n = min(unit.x.size, scaled.x.size)
    gap = c * scaled.pdf[:: scaled.x.size // n] - unit.pdf[:: unit.x.size // n]
    checks = {
        "density scale": np.max(np.abs(gap)) <= 1e-8 * unit.pdf.max(),
        "density reflection": mirror.x.size == scaled.x.size
        and np.max(np.abs(mirror.pdf[:0:-1] - scaled.pdf[1:])) <= 1e-8 * scaled.pdf.max(),
    }
    return [name for name, ok in checks.items() if not ok]


def broken_sample_relation(family, base, c, stream):
    """['sample KS'] if DRAWS draws of cX by sample_nu_gh, from stream
    ``stream`` of seed SEED, fail the KS test at KS_LEVEL against cdf_at."""
    g = _law(family, base, c)
    report = ks_statistic(sample_nu_gh(family, g.gh, DRAWS, make_rng(SEED, stream)), lambda x: cdf_at(g, x))
    return [] if report.passed else ["sample KS"]


def broken_closure(family, base, c):
    """['random-sum closure ...'] if pgf(p, g(t)) misses the CF of
    nu-NIG(alpha, beta, delta / p, mu / p) by more than 1e-13, for g the CF
    of the law's NIG base at unit scale, at t in +-T and 0, or at c, at
    those t / c as in the scale relation, and p any Chebyshev 1 / n^2,
    n = 1 .. CHEBYSHEV_MAX_N, or geometric 0.5, 0.1, 0.01.  (Read at t, a
    narrow law's g(t) lies near 1, where the pgf's slope E nu = 1 / p, up to
    4096, magnifies the rounding of g itself.)"""
    t = np.concatenate([-T[::-1], [0.0], T])
    ps = [1.0 / n**2 for n in range(1, CHEBYSHEV_MAX_N + 1)] if family is CHEBYSHEV else [0.5, 0.1, 0.01]
    nig = GHParams(-0.5, base.alpha, base.beta, base.delta, base.mu)
    worst = 0.0
    for g, ts in ((_law(family, nig), t), (_law(family, nig, c), t / c)):
        gt, b = g(ts), g.gh
        for p in ps:
            closed = NuGHChar(family, GHParams(-0.5, b.alpha, b.beta, b.delta / p, b.mu / p))
            worst = max(worst, float(np.max(np.abs(family.pgf(p, gt) - closed(ts)))))
    return [] if worst <= 1e-13 else [f"random-sum closure {worst:.3g}"]


def broken_sum_closure(family, base, c, stream):
    """['random-sum KS at p = ...'] for each p of SUM_PS at which sqrt(p)
    times DRAWS nu_p-sums of sample_nu_gh draws of the law's NIG base at c,
    from stream ``stream`` of seed SEED, fails the KS test at KS_LEVEL twice
    (a failure is drawn again, as identity_suite does) against cdf_at of
    nu-NIG(alpha, beta, delta / p, mu / p) at x / sqrt(p)."""
    nig = _law(family, GHParams(-0.5, base.alpha, base.beta, base.delta, base.mu), c).gh
    rng = make_rng(SEED, stream)
    broken = []
    for p in SUM_PS[family]:
        closed = NuGHChar(family, GHParams(-0.5, nig.alpha, nig.beta, nig.delta / p, nig.mu / p))
        report = identity_suite(
            family, p, 2, lambda m, rng: sample_nu_gh(family, nig, m, rng), lambda x: cdf_at(closed, x / np.sqrt(p)),
            DRAWS, rng,
        )
        if not report.passed:
            broken.append(f"random-sum KS at p = {p:.3g}")
    return broken


def classify(broken_by, family, base, c):
    """'meets', 'typed error: ' and its type, or 'wrong: ' and what went
    wrong, for the relations that ``broken_by`` checks."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            broken = broken_by(family, base, c)
        except NughError as exc:
            broken = exc
    if caught:  # wrong even where a typed error follows the warning
        return f"wrong: warning {caught[0].message}"
    if isinstance(broken, NughError):
        return f"typed error: {type(broken).__name__}"
    return "wrong: " + ", ".join(broken) if broken else "meets"


def wrong_laws(broken_by):
    return [(law, verdict) for law in domain_laws() if (verdict := classify(broken_by, *law)).startswith("wrong")]


def test_domain_sweep_has_no_wrong_law():
    assert wrong_laws(broken_relations) == []


def test_cdf_sweep_has_no_wrong_law():
    assert wrong_laws(broken_cdf_relations) == []


def test_quantile_sweep_has_no_wrong_law():
    assert wrong_laws(broken_quantile_relation) == []


def test_random_sum_closure_sweep_meets_on_every_law():
    # no wrong law, and no typed error either
    assert [v for law in domain_laws() if (v := classify(broken_closure, *law)) != "meets"] == []


def test_random_sum_sample_sweep_meets_the_closed_law():
    # law i draws from stream LAWS + i, apart from the sample sweep's streams;
    # no law is wrong, and none raises a typed error either
    verdicts = [classify(partial(broken_sum_closure, stream=LAWS + i), *law) for i, law in enumerate(domain_laws())]
    assert [v for v in verdicts if v.startswith("wrong")] == []
    assert Counter(verdicts) == {"meets": LAWS}


def _raised(broken_by, error):
    """The laws for which ``broken_by`` raises ``error``."""
    laws = []
    for law in domain_laws():
        try:
            broken_by(*law)
        except error:
            laws.append(law)
        except NughError:
            pass
    return laws


def test_cdf_sweep_raises_no_range_error():
    # the t-table does not depend on x, so no |c x| is too large for it; nor
    # does it depend on the law's units, so no narrow law's t cf(t) settles
    # beyond its tail candidates (ConvergenceError)
    assert _raised(broken_cdf_relations, (RangeError, ConvergenceError)) == []


def test_quantile_sweep_raises_no_bracket_error():
    # nor the RangeError of a t-table over budget, nor the ConvergenceError
    # of an unsettled t cf(t), which quantile passes on
    assert _raised(broken_quantile_relation, (BracketError, RangeError, ConvergenceError)) == []


@lru_cache(maxsize=1)
def density_verdicts():
    return tuple((family, classify(broken_pdf_relations, family, base, c)) for family, base, c in domain_laws())


def test_density_sweep_has_no_wrong_law():
    # nor a TruncationError: the grid's decay probe scales with its range
    assert [v for v in density_verdicts() if v[1].startswith("wrong") or "TruncationError" in v[1]] == []


def test_density_sweep_records_its_typed_errors():
    # 20 of the 31 geometric laws alias ("negative density"): the FFT's
    # truncation spreads the error of the geometric density's log singularity
    # at 0 over the grid (ROADMAP item 1); every Chebyshev law meets both
    # relations, scale and reflection
    assert [v for v in density_verdicts() if v[1] != "meets"] == [(GEOMETRIC, "typed error: AliasError")] * 20


@lru_cache(maxsize=1)
def sample_verdicts():
    # law i draws from its own stream i, so no verdict depends on another law's
    return tuple(classify(partial(broken_sample_relation, stream=i), *law) for i, law in enumerate(domain_laws()))


def test_sample_sweep_has_no_wrong_law():
    assert [v for v in sample_verdicts() if v.startswith("wrong")] == []


def test_sample_sweep_records_its_typed_errors():
    # every sweep law has lam != -1/2, so sample_nu_gh draws by inversion of
    # a 2^17 density grid spanning the law's 1e-10 and 1 - 1e-10 quantiles;
    # on that span no grid falls short of its cutoff or aliases
    errors = {i: v for i, v in enumerate(sample_verdicts()) if v != "meets"}
    assert errors == {}


def extreme_laws():
    """(family, unit-scale GH base, scale c) for the 40 laws of the
    extreme-scale sweep."""
    for family in (GEOMETRIC, CHEBYSHEV):
        for base in (GHParams(-0.5, 2.0, 0.5, 1.0, 0.1), GHParams(2.5, 1.5, -0.3, 1.0, 2.0)):
            for k in range(-150, 301, 50):
                yield family, base, 10.0**k


EXTREME_RELATIONS = {
    "cf": broken_relations,
    "pdf_grid": broken_pdf_relations,
    "cdf_at": broken_cdf_relations,
    "quantile": broken_quantile_relation,
    "sample": broken_sample_relation,
}


@pytest.mark.parametrize("name", EXTREME_RELATIONS)
def test_extreme_scale_sweep(name):
    # every law meets every relation, save that cdf_at, quantile and the
    # sample's KS test against cdf_at raise RangeError at c = 1e300, where
    # the Gil-Pelaez probe walk from t = 1 meets a z(t) past the largest double
    off = []
    for i, (family, base, c) in enumerate(extreme_laws()):
        broken_by = partial(broken_sample_relation, stream=i) if name == "sample" else EXTREME_RELATIONS[name]
        verdict = classify(broken_by, family, base, c)
        typed = c == 1e300 and name in ("cdf_at", "quantile", "sample")
        if verdict != ("typed error: RangeError" if typed else "meets"):
            off.append((family.kind, base.lam, c, verdict))
    assert off == []
