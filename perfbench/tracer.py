"""Spans and counters around the calls into each nugh module, installed
from outside the library by rebinding functions and methods.

Every binding site of a target is patched: a function imported by name
into several modules (``pdf_grid`` lives in ``inversion``, ``cli``,
``fitting``, ``montecarlo`` and the package namespace) is replaced in
each of them.  A target that no longer exists is reported as absent.
Self time is a span's duration minus the time covered by its children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

SPAN_CAP = 200_000  # spans kept in memory; later ones are only aggregated


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.failures = defaultdict(Counter)
        self.spans = []
        self.dropped_spans = 0
        self.absent = []
        self.sites = defaultdict(list)
        self._stack = []  # [name, start, child_seconds, span_id]
        self._next_id = 0
        self._undo = []

    # ------------------------------------------------------------ spans

    def enter(self, name):
        self._next_id += 1
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id])

    def exit(self, error=None):
        end = time.perf_counter()
        name, start, child, span_id = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.counts[name + ".calls"] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        if error is not None:
            self.failures[name][error] += 1
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[3] if parent else 0, name, start, end))
        else:
            self.dropped_spans += 1

    def within(self, name):
        return any(frame[0] == name for frame in self._stack)

    def wrap(self, name, fn, before=None, after=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(type(exc).__name__)
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            tracer.exit()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    # ---------------------------------------------------------- install

    def patch_function(self, name, module_name, attr, **hooks):
        """Replace ``module.attr`` there and in every loaded nugh module
        bound to it."""
        module = _import(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            self.absent.append(name)
            return
        wrapper = self.wrap(name, original, **hooks)
        holders = [m for key, m in list(sys.modules.items()) if key == "nugh" or key.startswith("nugh.")]
        if module not in holders:
            holders.append(module)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._undo.append((holder, key, original))
                    self.sites[name].append(f"{holder.__name__}.{key}")

    def patch_method(self, name, module_name, cls_name, attr, **hooks):
        module = _import(module_name)
        cls = getattr(module, cls_name, None) if module is not None else None
        original = cls.__dict__.get(attr) if cls is not None else None
        if original is None:
            self.absent.append(name)
            return
        setattr(cls, attr, self.wrap(name, original, **hooks))
        self._undo.append((cls, attr, original))
        self.sites[name].append(f"{module_name}.{cls_name}.{attr}")

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()


def _import(module_name):
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None


# ------------------------------------------------------------- hooks


def _arg(args, kwargs, index, key, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def _points(counter_name, index, key):
    def after(tr, args, kwargs, result):
        tr.counts[counter_name] += int(np.size(_arg(args, kwargs, index, key)))

    return after


def _amount(counter_name, index, key):
    def after(tr, args, kwargs, result):
        tr.counts[counter_name] += int(_arg(args, kwargs, index, key))

    return after


def _cf_call(tr, args, kwargs, result):
    t = _arg(args, kwargs, 1, "t")
    tr.counts["transform.cf.points"] += int(np.size(t))
    if np.size(t) == 1:
        tr.counts["transform.cf.scalar_calls"] += 1


def _count_integrand(tr, args, kwargs):
    fn = args[0]

    def integrand(*a):
        tr.counts["inversion.quad.integrand_evals"] += 1
        return fn(*a)

    return (integrand, *args[1:]), kwargs


def _pdf_grid_before(tr, args, kwargs):
    tr.counts["inversion.pdf_grid.fft_points"] += int(_arg(args, kwargs, 2, "n_points", 4096))
    if tr.within("fitting.grid_for"):
        tr.counts["fitting.grid.attempts"] += 1
    return args, kwargs


def _pdf_grid_error(tr, exc):
    if type(exc).__name__ == "AliasError" and tr.within("fitting.grid_for"):
        tr.counts["fitting.grid.alias_retries"] += 1


def _cdf_at_before(tr, args, kwargs):
    if tr.within("inversion.quantile"):
        tr.counts["inversion.cdf_at.in_quantile"] += 1
    return args, kwargs


def _grid_for_before(tr, args, kwargs):
    tr.counts["fitting.grid.attempts_before"] = tr.counts["fitting.grid.attempts"]
    return args, kwargs


def _grid_for_after(tr, args, kwargs, result):
    if tr.counts["fitting.grid.attempts"] == tr.counts["fitting.grid.attempts_before"]:
        tr.counts["fitting.grid.cache_hits"] += 1


def _sample_mixing_after(tr, args, kwargs, result):
    size = int(_arg(args, kwargs, 1, "size"))
    tr.counts["families.sample_mixing.draws"] += size
    if type(args[0]).__name__ == "ChebyshevFamily":
        # only the Chebyshev law is drawn by rejection
        tr.counts["families.sample_mixing.rejection_draws"] += size


def _random_sum_before(tr, args, kwargs):
    args = list(args)
    sampler = _arg(args, kwargs, 3, "base_sampler")

    def counted(n, rng):
        tr.counts["montecarlo.random_sum_sample.base_draws"] += int(n)
        return sampler(n, rng)

    if len(args) > 3:
        args[3] = counted
    else:
        kwargs = {**kwargs, "base_sampler": counted}
    return tuple(args), kwargs


def _minimize_after(tr, args, kwargs, result):
    tr.counts["fitting.minimize.nfev"] += int(result.nfev)
    tr.counts["fitting.minimize.nit"] += int(result.nit)


def _track_nodes(tr, args, kwargs, result):
    tr.counts["special.distinguished_log.nodes"] += int(len(result.grid))


def _nu_terms(tr, args, kwargs, result):
    tr.counts["families.nu_probabilities.terms"] += len(result)


def _csv_rows(tr, args, kwargs, result):
    tr.counts["cli.csv.rows"] += len(_arg(args, kwargs, 0, "rows"))


def install(tracer):
    """Patch every traced target; returns the tracer."""
    f, m = tracer.patch_function, tracer.patch_method
    f("cli.main", "nugh.cli", "main")
    f("cli.csv", "nugh.cli", "_csv", after=_csv_rows)
    f("cli.write", "nugh.cli", "_write")
    m("transform.cf", "nugh.transform", "NuTransform", "__call__", after=_cf_call)
    m("transform.closed_form", "nugh.transform", "_ClosedForm", "__call__", after=_points("transform.closed_form.points", 1, "t"))
    f("gh.gh_cf", "nugh.gh", "gh_cf", after=_points("gh.gh_cf.points", 1, "t"))
    f("gh.nig_log_cf", "nugh.gh", "nig_log_cf", after=_points("gh.nig_log_cf.points", 1, "t"))
    f("gh.gh_log_cf", "nugh.gh", "gh_log_cf")
    m("gh.GHLogTrack.values", "nugh.gh", "GHLogTrack", "values", after=_points("gh.GHLogTrack.values.points", 1, "t"))
    m("gh.GHLogTrack.log_at", "nugh.gh", "GHLogTrack", "log_at")
    # nugh.gh imports kve from scipy.special at call time
    f("gh.bessel_ratio", "scipy.special", "kve", after=_points("gh.bessel_ratio.points", 1, "z"))
    f("special.bessel_k", "nugh.special", "bessel_k", after=_points("special.bessel_k.points", 1, "z"))
    f("special.distinguished_log", "nugh.special", "distinguished_log", after=_track_nodes)
    m("special.LogTrack.values", "nugh.special", "LogTrack", "values", after=_points("special.LogTrack.values.points", 1, "t"))
    m("special.LogTrack.log_at", "nugh.special", "LogTrack", "log_at")
    for cls in ("GeometricFamily", "ChebyshevFamily"):
        m("families.phi", "nugh.families", cls, "phi", after=_points("families.phi.points", 1, "w"))
        m("families.sample_mixing", "nugh.families", cls, "sample_mixing", after=_sample_mixing_after)
        m("families.sample_nu", "nugh.families", cls, "sample_nu", after=_amount("families.sample_nu.draws", 2, "size"))
        m("families.nu_probabilities", "nugh.families", cls, "nu_probabilities", after=_nu_terms)
    f("families.exit_time_density", "nugh.families", "_exit_time_density", after=_points("families.exit_time_density.points", 0, "t"))
    f("inversion.cdf_at", "nugh.inversion", "cdf_at", before=_cdf_at_before)
    f("inversion.quad", "nugh.inversion", "quad", before=_count_integrand)
    f("inversion.adaptive_cutoff", "nugh.inversion", "adaptive_cutoff")
    f("inversion.quantile", "nugh.inversion", "quantile")
    f("inversion.pdf_grid", "nugh.inversion", "pdf_grid", before=_pdf_grid_before, on_error=_pdf_grid_error)
    f("montecarlo.sample_nu_gh", "nugh.montecarlo", "sample_nu_gh", after=_amount("montecarlo.sample_nu_gh.draws", 2, "n"))
    f("montecarlo.random_sum_sample", "nugh.montecarlo", "random_sum_sample", before=_random_sum_before)
    f("montecarlo.ks_statistic", "nugh.montecarlo", "ks_statistic")
    f("fitting.fit_mle", "nugh.fitting", "fit_mle")
    f("fitting.minimize", "nugh.fitting", "minimize", after=_minimize_after)
    f("fitting.theta_to_params", "nugh.fitting", "_theta_to_params")
    m("fitting.likelihood", "nugh.fitting", "LikelihoodGrid", "neg_log_lik")
    m("fitting.grid_for", "nugh.fitting", "LikelihoodGrid", "grid_for", before=_grid_for_before, after=_grid_for_after)
    return tracer


# ------------------------------------------------------------ report


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metric values (name -> number) of one traced run."""
    c, s, fail = tracer.counts, tracer.self_s, tracer.failures
    pdf_fail = fail["inversion.pdf_grid"]
    grid_attempts = c["fitting.grid.attempts"]
    alias_in_fit = c["fitting.grid.alias_retries"]
    lik_fail = sum(fail["fitting.likelihood"].values()) + sum(fail["fitting.theta_to_params"].values())
    values = {
        "cli.csv.rows": c["cli.csv.rows"],
        "cli.csv.self_s": s["cli.csv"],
        "cli.write.self_s": s["cli.write"],
        "cli.main.self_s": s["cli.main"],
        "transform.cf.calls": c["transform.cf.calls"],
        "transform.cf.points": c["transform.cf.points"],
        "transform.cf.scalar_calls": c["transform.cf.scalar_calls"],
        "transform.cf.self_s": s["transform.cf"],
        "transform.closed_form.points": c["transform.closed_form.points"],
        "transform.closed_form.self_s": s["transform.closed_form"],
        "gh.gh_cf.points": c["gh.gh_cf.points"],
        "gh.gh_cf.self_s": s["gh.gh_cf"],
        "gh.nig_log_cf.points": c["gh.nig_log_cf.points"],
        "gh.nig_log_cf.self_s": s["gh.nig_log_cf"],
        "gh.gh_log_cf.calls": c["gh.gh_log_cf.calls"],
        "gh.gh_log_cf.self_s": s["gh.gh_log_cf"],
        "gh.GHLogTrack.values.calls": c["gh.GHLogTrack.values.calls"],
        "gh.GHLogTrack.values.points": c["gh.GHLogTrack.values.points"],
        "gh.GHLogTrack.values.self_s": s["gh.GHLogTrack.values"],
        "gh.GHLogTrack.log_at.calls": c["gh.GHLogTrack.log_at.calls"],
        "gh.bessel_ratio.points": c["gh.bessel_ratio.points"],
        "special.bessel_k.points": c["special.bessel_k.points"],
        "special.bessel_k.self_s": s["special.bessel_k"],
        "special.distinguished_log.calls": c["special.distinguished_log.calls"],
        "special.distinguished_log.nodes": c["special.distinguished_log.nodes"],
        "special.distinguished_log.self_s": s["special.distinguished_log"],
        "special.LogTrack.values.points": c["special.LogTrack.values.points"],
        "special.LogTrack.values.self_s": s["special.LogTrack.values"],
        "special.LogTrack.log_at.calls": c["special.LogTrack.log_at.calls"],
        "families.phi.points": c["families.phi.points"],
        "families.sample_mixing.draws": c["families.sample_mixing.draws"],
        "families.sample_mixing.self_s": s["families.sample_mixing"],
        "families.sample_mixing.accept_rate": _ratio(
            c["families.sample_mixing.rejection_draws"], c["families.exit_time_density.points"]
        ),
        "families.sample_nu.draws": c["families.sample_nu.draws"],
        "families.sample_nu.self_s": s["families.sample_nu"],
        "families.sample_nu.failures": sum(fail["families.sample_nu"].values()),
        "families.nu_probabilities.calls": c["families.nu_probabilities.calls"],
        "families.nu_probabilities.terms": c["families.nu_probabilities.terms"],
        "families.nu_probabilities.self_s": s["families.nu_probabilities"],
        "inversion.cdf_at.calls": c["inversion.cdf_at.calls"],
        "inversion.cdf_at.self_s": s["inversion.cdf_at"],
        "inversion.quad.calls": c["inversion.quad.calls"],
        "inversion.quad.integrand_evals": c["inversion.quad.integrand_evals"],
        "inversion.adaptive_cutoff.calls": c["inversion.adaptive_cutoff.calls"],
        "inversion.quantile.calls": c["inversion.quantile.calls"],
        "inversion.quantile.self_s": s["inversion.quantile"],
        "inversion.quantile.cdf_calls_per_quantile": _ratio(
            c["inversion.cdf_at.in_quantile"], c["inversion.quantile.calls"]
        ),
        "inversion.pdf_grid.calls": c["inversion.pdf_grid.calls"],
        "inversion.pdf_grid.fft_points": c["inversion.pdf_grid.fft_points"],
        "inversion.pdf_grid.self_s": s["inversion.pdf_grid"],
        "inversion.pdf_grid.failures": sum(pdf_fail.values()),
        "inversion.pdf_grid.failures.AliasError": pdf_fail["AliasError"],
        "inversion.pdf_grid.failures.TruncationError": pdf_fail["TruncationError"],
        "montecarlo.sample_nu_gh.draws": c["montecarlo.sample_nu_gh.draws"],
        "montecarlo.sample_nu_gh.self_s": s["montecarlo.sample_nu_gh"],
        "montecarlo.random_sum_sample.calls": c["montecarlo.random_sum_sample.calls"],
        "montecarlo.random_sum_sample.base_draws": c["montecarlo.random_sum_sample.base_draws"],
        "montecarlo.random_sum_sample.self_s": s["montecarlo.random_sum_sample"],
        "montecarlo.random_sum_sample.failures": sum(fail["montecarlo.random_sum_sample"].values()),
        "montecarlo.ks_statistic.self_s": s["montecarlo.ks_statistic"],
        "fitting.fit_mle.self_s": s["fitting.fit_mle"],
        "fitting.minimize.nfev": c["fitting.minimize.nfev"],
        "fitting.minimize.nit": c["fitting.minimize.nit"],
        "fitting.likelihood.calls": c["fitting.likelihood.calls"],
        "fitting.likelihood.self_s": s["fitting.likelihood"],
        "fitting.likelihood.failures": lik_fail,
        "fitting.grid.attempts": grid_attempts,
        "fitting.grid.alias_retries": alias_in_fit,
        "fitting.grid.useful_ratio": _ratio(grid_attempts - alias_in_fit, grid_attempts),
        "fitting.grid.cache_hit_ratio": _ratio(c["fitting.grid.cache_hits"], c["fitting.grid_for.calls"]),
    }
    return values

