"""Seeded request lists of the three workloads and the oracle check of
each request's output.

A request is either a CLI argv (run in-process through ``nugh.cli.main``
with ``-o`` into a scratch directory) or, for the Chebyshev random-sum
identity, one ``random_sum_sample`` call.  Every request carries a
``tag`` naming its class independently of the seed; the known-defect
inventory is keyed by tags.  The list depends on the seed only, so two
commits time the same requests.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import kv

import oracle

# Tolerances of the oracle checks.
CF_ATOL = 1e-12  # |g - reference| on NIG bases; composed vs closed on all bases
CDF_ATOL = 1e-6  # |F - reference| per CDF row; |F(x_q) - q| per quantile
PDF_RTOL = 1e-3  # relative density error per checked row ...
# ... on rows where the reference density exceeds this floor: the
# double-precision round-off of a 2^16-point FFT is about 1e-13 absolute
PDF_FLOOR = 1e-10
TAIL_RTOL = 1e-3  # relative error of the tail slope
FIT_NLL_SLACK = 0.5  # NLL(fit) <= NLL(truth) + slack, both by the reference density
# order statistics compared for million-row samples: understates the KS
# distance by at most 1/16384, 3% of the limit at n = 10^6
KS_EVAL_POINTS = 16384
MEAN_Z = 5.0  # |sample mean - mean| <= MEAN_Z standard errors

QS = (0.01, 0.5, 0.99)
RANDOM_SUM_N = 2000
SAMPLE_N = 1_000_000
FIT_N = 1000
FIT_STARTS = 1
FIT_TRUTH = (-0.5, 2.0, 0.0, 1.0, 0.0)
TABLES_ROUNDS = 2  # seeded rounds after the fixed requests


class Miss(NamedTuple):
    """An output that failed its oracle check, and the size of the miss
    in the check's own measure (inf where it has none)."""

    reason: str
    worst: float = math.inf


@dataclass
class Request:
    kind: str
    tag: str
    argv: list | None = None
    call: dict | None = None
    ref: dict = field(default_factory=dict)

    def describe(self):
        if self.argv is not None:
            return "nugh " + " ".join(self.argv)
        return "random_sum_sample(CHEBYSHEV, 1/{order}**2, 2, sample_hsecant, {n}, make_rng({seed}, {stream}))".format(
            **self.call
        )


def requests_for(workload, seed, data_dir):
    """The request list of one run; the sample workload writes its fit
    series into ``data_dir``."""
    if workload == "tables":
        return tables_requests(seed, TABLES_ROUNDS)
    return sample_requests(seed, data_dir)


def _gh_flags(family, lam, a, b, d, m):
    # "--mu=-3e-05", not "--mu -3e-05": argparse takes a negative number in
    # exponent notation for an option name
    values = {"family": family, "lambda": lam, "alpha": a, "beta": b, "delta": d, "mu": m}
    return [f"--{k}={v}" if k == "family" else f"--{k}={v!r}" for k, v in values.items()]


def _draw_base(rng, lam=-0.5):
    """GH parameters around (alpha, beta, delta, mu) = (2, 0, 1, 0)."""
    a = float(rng.uniform(1.8, 2.2))
    return (lam, a, a * float(rng.uniform(-0.25, 0.25)), float(rng.uniform(0.9, 1.1)), float(rng.uniform(-0.1, 0.1)))


def _ref(family, params):
    return {"family": family, "params": params}


def _table_requests(family, params, rng, extras, label):
    """cf pair, a 2-point CDF, and the ``extras`` subcommands for one base."""
    flags = _gh_flags(family, *params)
    ref = _ref(family, params)
    t_top = float(rng.uniform(8.0, 16.0))
    cf = ["--t-min", repr(-t_top), "--t-max", repr(t_top), "--t-points", "201"]
    x_lo, x_hi = float(rng.uniform(-5.0, -1.0)), float(rng.uniform(1.0, 5.0))
    reqs = [
        Request("cf", f"cf/{label}", ["cf", *flags, *cf], ref=ref),
        Request("cf_closed", f"cf_closed/{label}", ["cf", *flags, *cf, "--formula", "closed"], ref=ref),
        Request("cdf", f"cdf/{label}", ["cdf", *flags, "--x-min", repr(x_lo), "--x-max", repr(x_hi), "--points", "2"], ref=ref),
    ]
    for extra in extras:
        if extra == "pdf":
            grid = ["--x-min", "-60", "--x-max", "60", "--points", "65536"]
            reqs.append(Request("pdf", f"pdf/{label}/2^16", ["pdf", *flags, *grid], ref=ref))
        elif extra == "tails":
            grid = ["--x-min", "-60", "--x-max", "60", "--points", "65536"]
            reqs.append(Request("tails", f"tails/{label}/2^16", ["tails", *flags, *grid], ref=ref))
        else:
            q = extra
            reqs.append(Request("quantile", f"quantile/{label}", ["quantile", *flags, "--q", repr(q)], ref=ref))
    return reqs


def tables_requests(seed, rounds):
    reqs = []
    nig_default = _ref("", (-0.5, 1.0, 0.0, 1.0, 0.0))
    for family in ("geo", "cheb"):
        ref = {**nig_default, "family": family}
        fam = ["--family", family]
        reqs += [
            Request("cf", f"cf/{family}/default", ["cf", *fam], ref=ref),
            Request("pdf", f"pdf/{family}/default", ["pdf", *fam], ref=ref),
            # the defaults are the slowest requests (seconds each): kinds of
            # their own, so that a per-kind median follows them
            Request("cdf_default", f"cdf/{family}/default", ["cdf", *fam], ref=ref),
            Request("quantile_default", f"quantile/{family}/default", ["quantile", *fam, "--q", *map(str, QS)], ref=ref),
            Request("tails", f"tails/{family}/default", ["tails", *fam], ref=ref),
        ]
    # an asymmetric geo-NIG CDF through x = 0, where the CF decays like 1/t
    probe = (-0.5, 2.5, -0.8, 0.7, -0.3)
    reqs.append(
        Request(
            "cdf",
            "cdf/geo/nig/through-0",
            ["cdf", *_gh_flags("geo", *probe), "--x-min", "-1", "--x-max", "1", "--points", "3"],
            ref=_ref("geo", probe),
        )
    )
    for r in range(rounds):
        rng = np.random.default_rng([seed, 1, r])
        for i, family in enumerate(("geo", "cheb")):
            q = QS[(r + i) % 3]
            reqs += _table_requests(family, _draw_base(rng), rng, ["pdf", q, "tails"], f"{family}/nig")
        for family, lam, extra in (
            ("geo", 1.0, QS[(r + 2) % 3]),
            ("cheb", 2.5, "tails"),
            ("geo", -3.0, "pdf"),
            ("cheb", -3.0, "tails"),
        ):
            reqs += _table_requests(family, _draw_base(rng, lam), rng, [extra], f"{family}/gh{lam:g}")
    return reqs


def fit_requests(data_dir):
    """``fit --starts 1`` per family on a fixed series: the reference
    quantiles of the law at (i + 1/2)/n.  A seeded series would make the
    optimizer's work, and so the request time, vary by a factor of up to
    six between seeds; a fixed one varies only with the code."""
    reqs = []
    for family in ("geo", "cheb"):
        path = data_dir / f"returns-{family}.csv"
        data = quantile_series(family, FIT_TRUTH, FIT_N)
        path.write_text("r\n" + "\n".join(repr(float(v)) for v in data) + "\n")
        argv = ["fit", "--family", family, "--input", os.path.relpath(path), "--starts", str(FIT_STARTS)]
        reqs.append(Request("fit", f"fit/{family}/quantile-series", argv, ref={**_ref(family, FIT_TRUTH), "data": data}))
    return reqs


def sample_requests(seed, data_dir):
    rng = np.random.default_rng([seed, 3])
    reqs = fit_requests(data_dir)
    for order in rng.permutation(np.arange(1, 65)):
        call = {"order": int(order), "n": RANDOM_SUM_N, "seed": seed, "stream": int(order)}
        reqs.append(Request("random_sum", f"random_sum/order={int(order)}", call=call))
    gh = _draw_base(rng, 1.0)
    argv = ["sample", *_gh_flags("cheb", *gh), "--n", "100000", "--method", "inversion", "--seed", str(seed)]
    reqs.append(Request("sample", "sample/cheb/gh1/inversion", argv, ref=_ref("cheb", gh)))
    reqs.append(Request("check", "check/both/default", ["check", "--family", "both", "--seed", str(seed)]))
    rng = np.random.default_rng([seed, 3, 0])
    for family in ("geo", "cheb"):
        params = _draw_base(rng)
        argv = ["sample", *_gh_flags(family, *params), "--n", str(SAMPLE_N), "--seed", str(seed)]
        reqs.append(Request("sample", f"sample/{family}/nig/mixture", argv, ref=_ref(family, params)))
    return reqs


def quantile_series(family, params, n):
    """The reference quantiles of the nu-NIG law at (i + 1/2)/n."""
    _, a, b, d, m = params
    mix = oracle.MixtureNIG(family, a, b, d, m)
    x = np.linspace(*mix.support(), 1001)
    return np.interp((np.arange(n) + 0.5) / n, mix.cdf(x), x)


# ----------------------------------------------------------------- checks


def _read_rows(text):
    lines = text.splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def _read_column(path):
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return np.fromiter((float(line) for line in fh), dtype=float)


class Checker:
    """Oracle checks; returns None for a correct output, else a ``Miss``."""

    def __init__(self):
        self._mixtures = {}
        self._cf_by_grid = {}

    def mixture(self, ref):
        key = (ref["family"], ref["params"])
        if key not in self._mixtures:
            _, a, b, d, m = ref["params"]
            self._mixtures[key] = oracle.MixtureNIG(ref["family"], a, b, d, m)
        return self._mixtures[key]

    def check(self, req, output, rerun):
        return getattr(self, "_" + req.kind)(req, output, rerun)

    @staticmethod
    def _nig(req):
        return req.ref["params"][0] == -0.5

    def _cf(self, req, output, rerun):
        rows = _read_rows(output)
        t, g = rows[:, 0], rows[:, 1] + 1j * rows[:, 2]
        key = (req.ref["family"], req.ref["params"], t.tobytes())
        if np.max(np.abs(g)) > 1.0 + CF_ATOL:
            return Miss(f"|g| = {np.max(np.abs(g)):.3e} exceeds 1")
        if self._nig(req):
            _, a, b, d, m = req.ref["params"]
            err = float(np.max(np.abs(g - oracle.nu_nig_cf(req.ref["family"], a, b, d, m, t))))
            if err > CF_ATOL:
                return Miss(f"max |g - reference| = {err:.3e} > {CF_ATOL:g}", err)
        other = self._cf_by_grid.setdefault(key, g)
        if other is not g:
            err = float(np.max(np.abs(g - other)))
            if err > CF_ATOL:
                return Miss(f"composed and closed forms differ by {err:.3e} > {CF_ATOL:g}", err)
        return None

    _cf_closed = _cf

    def _pdf(self, req, output, rerun):
        rows = _read_rows(output)
        x, p = rows[:, 0], rows[:, 1]
        if not np.all(np.isfinite(p)) or np.min(p) < 0:
            return Miss("density not finite and non-negative")
        if not self._nig(req):
            mass = float(np.trapezoid(p, x))
            return None if abs(mass - 1.0) <= 1e-6 else Miss(f"grid mass {mass:.8f}")
        dx = x[1] - x[0]
        idx = np.unique(np.linspace(0, x.size - 1, 257).astype(int))
        if req.ref["family"] == "geo":
            # the geometric law's density is infinite at 0: skip that node
            idx = idx[np.abs(x[idx]) >= 0.5 * dx]
        ref = self.mixture(req.ref).pdf(x[idx])
        sel = ref > PDF_FLOOR
        rel = np.abs(p[idx][sel] - ref[sel]) / ref[sel]
        worst = int(np.argmax(rel))
        if rel[worst] > PDF_RTOL:
            bad = int(np.sum(rel > PDF_RTOL))
            reason = f"{bad}/{rel.size} rows off by > {PDF_RTOL:g}; worst {rel[worst]:.3e} at x={x[idx][sel][worst]:.4g}"
            return Miss(reason, float(rel[worst]))
        return None

    def _cdf(self, req, output, rerun):
        rows = _read_rows(output)
        x, f = rows[:, 0], rows[:, 1]
        if np.any(f < 0) or np.any(f > 1) or np.any(np.diff(f) < -CDF_ATOL):
            return Miss("CDF rows outside [0, 1] or decreasing")
        if not self._nig(req):
            return None
        err = np.abs(f - self.mixture(req.ref).cdf(x))
        worst = int(np.argmax(err))
        if err[worst] > CDF_ATOL:
            return Miss(f"|F - reference| = {err[worst]:.3e} > {CDF_ATOL:g} at x={x[worst]:.6g}", float(err[worst]))
        return None

    _cdf_default = _cdf

    def _quantile(self, req, output, rerun):
        rows = _read_rows(output)
        q, x = rows[:, 0], rows[:, 1]
        if not np.all(np.isfinite(x)) or np.any(np.diff(x) < 0):
            return Miss("quantiles not finite and increasing")
        if not self._nig(req):
            return None
        err = np.abs(self.mixture(req.ref).cdf(x) - q)
        worst = int(np.argmax(err))
        if err[worst] > CDF_ATOL:
            return Miss(f"|F(x_q) - q| = {err[worst]:.3e} > {CDF_ATOL:g} at q={q[worst]:g}", float(err[worst]))
        return None

    _quantile_default = _quantile

    def _tails(self, req, output, rerun):
        doc = json.loads(output)
        slope, (x0, x1) = doc["slope"], doc["window"]
        sign = -1.0 if doc["side"] == "right" else 1.0
        if not (math.isfinite(slope) and sign * slope > 0 and 0.0 <= doc["r2"] <= 1.0):
            return Miss(f"implausible tail fit slope={slope} r2={doc['r2']}")
        if not self._nig(req):
            return None
        cfg = doc["config"]
        dx = (cfg["x_max"] - cfg["x_min"]) / cfg["points"]
        xs = cfg["x_min"] + dx * np.arange(round((x0 - cfg["x_min"]) / dx), round((x1 - cfg["x_min"]) / dx) + 1)
        logp = np.log(self.mixture(req.ref).pdf(xs))
        ref_slope = float(np.polyfit(xs, logp, 1)[0])
        rel = abs(slope - ref_slope) / abs(ref_slope)
        return None if rel <= TAIL_RTOL else Miss(f"slope {slope:.6g} vs reference {ref_slope:.6g} (rel {rel:.2e})", rel)

    def _fit(self, req, output, rerun):
        doc = json.loads(output)
        ref = req.ref
        fitted = (-0.5, doc["alpha"], doc["beta"], doc["delta"], doc["mu"])
        nll_fit = self.mixture({**ref, "params": fitted}).nll(ref["data"])
        nll_truth = self.mixture(ref).nll(ref["data"])
        if not nll_fit <= nll_truth + FIT_NLL_SLACK:
            return Miss(f"NLL(fit) {nll_fit:.4f} > NLL(truth) {nll_truth:.4f} + {FIT_NLL_SLACK}", nll_fit - nll_truth)
        return None

    def _sample(self, req, output, rerun):
        def verdict(x):
            if not np.all(np.isfinite(x)):
                return "non-finite draws"
            if not self._nig(req):
                return _mean_check(x, req.ref)
            d = oracle.ks_distance(x, self.mixture(req.ref).cdf_sorted, KS_EVAL_POINTS)
            return _ks_verdict(d, x.size)

        first = verdict(_read_column(output))
        return None if first is None else _repeat(first, verdict(_read_column(rerun())))

    def _check(self, req, output, rerun):
        doc = json.loads(output)
        failed = [c["name"] for c in doc["checks"] if not c["pass"]]
        return None if doc["pass"] and not failed else Miss(f"checks failed: {failed}")

    def _random_sum(self, req, output, rerun):
        def verdict(x):
            return _ks_verdict(oracle.ks_distance(x, oracle.hsecant_cdf), x.size)

        first = verdict(output)
        return None if first is None else _repeat(first, verdict(rerun()))


def _ks_verdict(d, n):
    limit = oracle.KS_CRITICAL / math.sqrt(n)
    return None if d < limit else Miss(f"KS distance {d:.3e} >= {limit:.3e}", math.sqrt(n) * d)


def _repeat(first, second):
    """A sample fails only if its repeat on a fresh stream fails too."""
    if second is None:
        return None
    return Miss(f"{first.reason}; on a fresh stream: {second.reason}", min(first.worst, second.worst))


def _mean_check(x, ref):
    """Sample mean against the nu-GH mean E[T] * GH mean, with E[T] = 1."""
    lam, a, b, d, m = ref["params"]
    g = math.sqrt(a * a - b * b)
    mean = m + d * b / g * kv(lam + 1, d * g) / kv(lam, d * g)
    z = abs(float(np.mean(x)) - mean) / (float(np.std(x)) / math.sqrt(x.size))
    return None if z <= MEAN_Z else Miss(f"sample mean {np.mean(x):.6g} is {z:.1f} standard errors from {mean:.6g}", z)
