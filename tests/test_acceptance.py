"""End-to-end acceptance gate.

Each test exercises one advertised guarantee of the package at its stated
tolerance and prints a single PASS/FAIL line (visible under ``pytest -s``
or in the captured output of a failing run).
"""

import json
import time

import numpy as np
import pytest

from nugh.cli import main as cli_main
from nugh.families import CHEBYSHEV, GEOMETRIC, verify_poincare
from nugh.fitting import LikelihoodGrid, ReturnSeries, fit_mle, neg_log_lik
from nugh.gh import GHParams, gh_cf
from nugh.inversion import cdf_at, pdf_grid, tail_diagnostic
from nugh.montecarlo import (
    empirical_cf,
    hsecant_cdf,
    identity_suite,
    laplace_cdf,
    make_rng,
    sample_hsecant,
    sample_laplace,
    sample_nu_gh,
)
from nugh.transform import (
    NuGaussianChar,
    NuGHChar,
    NuTransform,
    cheb_gh_closed_form,
    geo_gh_closed_form,
)

from oracles import gaussian_cdf, linnik1_cdf, sample_gaussian, sample_linnik

FIXTURES = [
    GHParams(-0.5, 1.0, 0.0, 1.0, 0.0),
    GHParams(-0.5, 2.0, 0.8, 1.5, 0.3),   # asymmetric
    GHParams(1.0, 2.0, 0.0, 1.0, 0.0),
    GHParams(0.5, 1.5, -0.5, 0.7, -1.0),  # asymmetric
    GHParams(-1.2, 3.0, 1.0, 2.0, 0.0),
]


def report(number, title, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"[acceptance {number:>2}] {tag}: {title}" + (f" ({detail})" if detail else ""), flush=True)
    assert passed, f"acceptance criterion {number} failed: {title} {detail}"


def test_01_poincare_equation():
    t = np.linspace(0.0, 50.0, 200)
    geo = verify_poincare(GEOMETRIC, [0.5, 0.1, 0.01], t)
    cheb = verify_poincare(CHEBYSHEV, [1.0, 0.25, 1.0 / 9, 1.0 / 25], t)
    worst = max(geo, cheb)
    report(1, "Poincare functional equation residual <= 1e-12", worst <= 1e-12, f"max {worst:.2e}")


def test_02_initial_conditions():
    ok = True
    details = []
    for fam in (GEOMETRIC, CHEBYSHEV):
        ok = ok and complex(fam.phi(0.0)) == 1.0
        h = 1e-3
        coeffs = np.array([-25.0 / 12, 4.0, -3.0, 4.0 / 3, -0.25])
        d = sum(c * complex(fam.phi(i * h)) for i, c in enumerate(coeffs)) / h
        details.append(f"{fam.kind}: phi'(0)={d.real:.9f}")
        ok = ok and abs(d.real + 1.0) <= 1e-6 and abs(d.imag) <= 1e-9
    report(2, "phi(0)=1 exactly, finite-difference phi'(0)=-1 within 1e-6", ok, "; ".join(details))


def test_03_gaussian_special_case():
    t = np.linspace(-10.0, 10.0, 401)
    base = lambda u: np.exp(-np.asarray(u, dtype=float) ** 2 / 2)
    g_geo = NuTransform(GEOMETRIC, base)(t)
    g_cheb = NuTransform(CHEBYSHEV, base)(t)
    err_geo = float(np.max(np.abs(g_geo - 1.0 / (1.0 + t**2 / 2))))
    err_cheb = float(np.max(np.abs(g_cheb - 1.0 / np.cosh(t))))
    err_fp = max(
        float(np.max(np.abs(g_geo - NuGaussianChar(GEOMETRIC, 0.5)(t)))),
        float(np.max(np.abs(g_cheb - NuGaussianChar(CHEBYSHEV, 0.5)(t)))),
    )
    report(
        3,
        "Gaussian base: geo -> 1/(1+t^2/2) (1e-14), cheb -> 1/cosh t (1e-12), matches phi(t^2/2)",
        err_geo <= 1e-14 and err_cheb <= 1e-12 and err_fp <= 1e-12,
        f"geo {err_geo:.2e}, cheb {err_cheb:.2e}, fixed-point {err_fp:.2e}",
    )


def test_04_closed_form_agreement():
    t = np.linspace(-20.0, 20.0, 321)
    worst = 0.0
    for gh in FIXTURES:
        worst = max(worst, float(np.max(np.abs(NuGHChar(GEOMETRIC, gh)(t) - geo_gh_closed_form(gh, t)))))
        worst = max(worst, float(np.max(np.abs(NuGHChar(CHEBYSHEV, gh)(t) - cheb_gh_closed_form(gh, t)))))
    report(4, "explicit formulas match phi(-log f) within 1e-12 on 5 fixtures", worst <= 1e-12, f"max {worst:.2e}")


def test_05_cf_axioms():
    t = np.linspace(-20.0, 20.0, 321)
    worst = 0.0
    for fam in (GEOMETRIC, CHEBYSHEV):
        for gh in FIXTURES:
            g = NuGHChar(fam, gh)
            v = g(t)
            worst = max(
                worst,
                abs(complex(g(0.0)) - 1.0),
                float(np.max(np.abs(v)) - 1.0),
                float(np.max(np.abs(v - np.conj(v[::-1])))),
            )
    report(5, "CF axioms: g(0)=1, |g|<=1, Hermitian symmetry within 1e-12", worst <= 1e-12, f"max {worst:.2e}")


def test_06_fixed_point_ks():
    t0 = time.perf_counter()
    n = 100_000
    ok = True
    stats = []
    for k, p in enumerate((0.5, 0.1, 0.01)):
        rep = identity_suite(GEOMETRIC, p, 2.0, sample_laplace, laplace_cdf, n, make_rng(61, k))
        stats.append(f"geo p={p}: {rep.statistic:.4f}")
        ok = ok and rep.passed
    for k, p in enumerate((0.25, 1.0 / 9)):
        rep = identity_suite(CHEBYSHEV, p, 2.0, sample_hsecant, hsecant_cdf, n, make_rng(62, k))
        stats.append(f"cheb p={p:.3f}: {rep.statistic:.4f}")
        ok = ok and rep.passed
    neg = identity_suite(GEOMETRIC, 0.25, 2.0, sample_gaussian, gaussian_cdf, n, make_rng(63, 0))
    ok = ok and not neg.passed
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 30.0
    report(
        6,
        "KS fixed-point identities pass at 1% (n=1e5); Gaussian negative control fails; <= 30 s",
        ok,
        "; ".join(stats) + f"; control {neg.statistic:.4f}; {elapsed:.1f}s",
    )


def test_07_linnik_fixed_point():
    rep = identity_suite(
        GEOMETRIC,
        0.25,
        1.0,
        lambda n, rng: sample_linnik(1.0, n, rng),
        linnik1_cdf,
        100_000,
        make_rng(71, 0),
    )
    report(
        7,
        "geometric + Linnik(1) stability-index-1 identity passes KS at 1% (n=1e5)",
        rep.passed,
        f"stat {rep.statistic:.4f} < {rep.threshold:.4f}",
    )


def test_08_mixture_representation():
    n = 100_000
    tpts = np.array([0.5, 1.0, 2.0])
    nig = GHParams(-0.5, 2.0, 0.3, 1.0, 0.25)
    worst_cf = 0.0
    worst_mix = 0.0
    for k, fam in enumerate((GEOMETRIC, CHEBYSHEV)):
        draws = sample_nu_gh(fam, nig, n, make_rng(81, k))
        emp, se = empirical_cf(draws, tpts)
        worst_cf = max(worst_cf, float(np.max(np.abs(emp - NuGHChar(fam, nig)(tpts)) / se)))
        mix = fam.sample_mixing(n, make_rng(82, k))
        for lam in (0.5, 1.0, 2.0):
            vals = np.exp(-lam * mix)
            se_m = float(np.std(vals) / np.sqrt(n))
            worst_mix = max(worst_mix, abs(float(vals.mean()) - complex(fam.phi(lam)).real) / se_m)
    report(
        8,
        "mixture samples match the transform CF and mixing laws match phi, within 4 SE",
        worst_cf <= 4.0 and worst_mix <= 4.0,
        f"cf {worst_cf:.2f} SE, mixing {worst_mix:.2f} SE",
    )


def test_09_inversion_oracles():
    gauss = lambda t: np.exp(-np.asarray(t, dtype=float) ** 2 / 2)
    lap = lambda t: 1.0 / (1.0 + np.asarray(t, dtype=float) ** 2)

    g_grid = pdf_grid(gauss, (-12.0, 12.0), 4096)
    e1 = abs(float(g_grid.interp_pdf(0.0)) - 1.0 / np.sqrt(2 * np.pi))

    l_grid = pdf_grid(lap, (-20.0, 20.0), 2**24)
    e2 = abs(float(l_grid.interp_pdf(0.0)) - 0.5)

    e3 = abs(cdf_at(lap, 1.0) - (1.0 - 0.5 / np.e))

    e4 = 0.0
    cf = NuGHChar(GEOMETRIC, FIXTURES[0])
    rt = pdf_grid(cf, (-60.0, 60.0), 2**16)
    for t in (0.0, 0.5, 1.0, 2.0):
        back = np.trapezoid(rt.pdf * np.exp(1j * t * rt.x), rt.x)
        e4 = max(e4, abs(back - complex(cf(t))))
    for t in (0.7, 2.0):
        back = np.trapezoid(g_grid.pdf * np.exp(1j * t * g_grid.x), g_grid.x)
        e4 = max(e4, abs(back - complex(gauss(t))))

    report(
        9,
        "inversion oracles: N(0,1) pdf(0), Laplace pdf(0) within 1e-6; Laplace CDF(1) within 1e-5; "
        "CF round-trip within 1e-6",
        e1 <= 1e-6 and e2 <= 1e-6 and e3 <= 1e-5 and e4 <= 1e-6,
        f"pdfN {e1:.1e}, pdfL {e2:.1e}, cdfL {e3:.1e}, roundtrip {e4:.1e}",
    )


def test_10_exponential_tails():
    ok = True
    details = []
    for gh in (FIXTURES[0], GHParams(-0.5, 2.0, 0.5, 1.5, 0.3)):
        cf = NuGHChar(GEOMETRIC, gh)
        grid = pdf_grid(cf, (-80.0, 80.0), 2**17)
        for side in ("left", "right"):
            rep = tail_diagnostic(grid, side)
            ok = ok and rep.r2 > 0.999
            details.append(f"geo r2={rep.r2:.5f}")
    # Chebyshev transform keeps the base GH tail slope; compare log-density
    # slopes on a matched far window where both laws are in the
    # exponential regime but still above the inversion noise floor
    gh = FIXTURES[0]
    base_grid = pdf_grid(lambda t: gh_cf(gh, t), (-60.0, 60.0), 2**16)
    cheb_grid = pdf_grid(NuGHChar(CHEBYSHEV, gh), (-60.0, 60.0), 2**16)

    def window_slope(grid):
        m = (grid.x >= 10.0) & (grid.x <= 20.0) & (grid.pdf > 0)
        A = np.vstack([grid.x[m], np.ones(int(m.sum()))]).T
        return float(np.linalg.lstsq(A, np.log(grid.pdf[m]), rcond=None)[0][0])

    s_base = window_slope(base_grid)
    s_cheb = window_slope(cheb_grid)
    rel = abs(s_cheb - s_base) / abs(s_base)
    ok = ok and rel <= 0.05
    details.append(f"cheb slope {s_cheb:.4f} vs base {s_base:.4f} ({100 * rel:.1f}%)")
    report(10, "geo-NIG tails exponential (r2 > 0.999); cheb-GH slope matches base within 5%", ok, "; ".join(details))


def test_11_fit_self_consistency():
    t0 = time.perf_counter()
    truth = GHParams(-0.5, 2.0, 0.5, 1.0, 0.0)
    data = ReturnSeries(sample_nu_gh(GEOMETRIC, truth, 20_000, make_rng(7, 1)), "synthetic")
    res = fit_mle(GEOMETRIC, data, starts=5, seed=0)
    res2 = fit_mle(GEOMETRIC, data, starts=5, seed=0)
    deterministic = res.params == res2.params and res.neg_log_lik == res2.neg_log_lik

    nll_truth = neg_log_lik(GEOMETRIC, truth, data)
    nll_ok = res.neg_log_lik <= nll_truth + 0.5

    helper = LikelihoodGrid(GEOMETRIC, data)

    def profile_ok(name):
        """Fix one parameter at its true value, re-optimize the rest, and
        accept if the true value lies in the 95% profile region."""
        from scipy.optimize import minimize

        fixed = {"alpha": truth.alpha, "beta": truth.beta, "delta": truth.delta, "mu": truth.mu}[name]

        def to_params(theta):
            vals = {"beta": res.params.beta, "delta": res.params.delta, "mu": res.params.mu}
            free = [k for k in ("beta", "delta", "mu") if k != name]
            import math

            if name == "alpha":
                b, d, m = theta
                return GHParams(-0.5, fixed, np.clip(b, -0.999 * fixed, 0.999 * fixed), math.exp(d), m)
            vals[name] = fixed
            for k, v in zip(free, theta[1:]):
                vals[k] = math.exp(v) if k == "delta" else v
            a = abs(vals["beta"]) + math.exp(theta[0])
            return GHParams(-0.5, a, vals["beta"], vals["delta"], vals["mu"])

        def obj(theta):
            try:
                return helper.neg_log_lik(to_params(theta))
            except Exception:
                return 1e12

        if name == "alpha":
            start = [res.params.beta, np.log(res.params.delta), res.params.mu]
        else:
            start = [np.log(max(res.params.alpha - abs(res.params.beta), 1e-3))]
            for k in ("beta", "delta", "mu"):
                if k != name:
                    start.append(np.log(res.params.delta) if k == "delta" else getattr(res.params, k))
        out = minimize(obj, np.asarray(start, float), method="Nelder-Mead", options={"xatol": 1e-5, "maxiter": 800})
        return out.fun - res.neg_log_lik <= 1.92

    param_ok = True
    details = []
    for name in ("alpha", "beta", "delta", "mu"):
        est = getattr(res.params, name)
        true = getattr(truth, name)
        close = abs(est - true) <= 0.15 * max(abs(true), 1e-12)
        if not close:
            close = profile_ok(name)
            details.append(f"{name}={est:.3f} (profile)")
        else:
            details.append(f"{name}={est:.3f}")
        param_ok = param_ok and close
    elapsed = time.perf_counter() - t0
    report(
        11,
        "MLE recovers synthetic geo-NIG: negLogLik within 0.5 of truth, params within 15% or "
        "profile intervals, deterministic, <= 3 min",
        res.converged and nll_ok and param_ok and deterministic and elapsed <= 180.0,
        f"nll {res.neg_log_lik:.2f} vs truth {nll_truth:.2f}; " + ", ".join(details) + f"; {elapsed:.0f}s",
    )


def test_12_check_subcommand(capsys, tmp_path):
    argv = ["check", "--family", "both", "--n", "100000", "--seed", "5"]
    code1 = cli_main(argv + ["-o", str(tmp_path / "a.json")])
    code2 = cli_main(argv + ["-o", str(tmp_path / "b.json")])
    a = (tmp_path / "a.json").read_bytes()
    b = (tmp_path / "b.json").read_bytes()
    doc = json.loads(a)
    report(
        12,
        "`nugh check` is green and byte-identical under a fixed seed",
        code1 == 0 and code2 == 0 and a == b and doc["pass"] is True,
        f"{len(doc['checks'])} checks",
    )
