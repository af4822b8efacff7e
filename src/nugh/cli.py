"""Batch command-line interface: CF tables, density/CDF/quantile tables,
sampling, property checks, tail diagnostics and fitting.

The random subcommands take --seed (sample, check, fit) and --stream-id
(sample, check), with fixed defaults, so every run is reproducible; CSV
output carries 17 significant digits so runs diff cleanly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import DomainError, NughError
from .families import GEOMETRIC, get_family, verify_poincare
from .gh import GHParams
from .inversion import cdf_at, pdf_grid, quantile, tail_diagnostic
from .montecarlo import (
    empirical_cf,
    hsecant_cdf,
    identity_suite,
    laplace_cdf,
    make_rng,
    sample_hsecant,
    sample_laplace,
    sample_nu_gh,
)
from .transform import NuGHChar, gh_closed_form

DEFAULT_SEED = 20260826  # documented fixed default: reproducible by default
OUTPUT_DIR_ENV = "NUGH_OUTPUT_DIR"
_CSV_BLOCK_ROWS = 4096  # rows formatted by one % operation


def _gh_from_args(args):
    return GHParams(args.lam, args.alpha, args.beta, args.delta, args.mu)


def _resolve_output(path):
    if path is None:
        return None
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir and not os.path.isabs(path):
        os.makedirs(out_dir, exist_ok=True)
        return os.path.join(out_dir, path)
    return path


def _write(path, text):
    path = _resolve_output(path)
    if path is None:
        sys.stdout.write(text)
        return
    tmp = path + ".part"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _csv(rows, header):
    """CSV text of the 2-D float array ``rows``, one column per header
    field, with 17 significant digits.  Each block of rows is formatted by
    one ``%`` operation, so no string is made per value; ``%.17g`` gives
    the same bytes as ``"{:.17g}".format``."""
    values = np.asarray(rows, dtype=float).reshape(-1, len(header))
    line = ",".join(["%.17g"] * len(header)) + "\n"
    parts = [",".join(header) + "\n"]
    for start in range(0, len(values), _CSV_BLOCK_ROWS):
        block = values[start : start + _CSV_BLOCK_ROWS]
        parts.append((line * len(block)) % tuple(block.ravel().tolist()))
    return "".join(parts)


def _json_report(args, payload):
    doc = {
        "version": __version__,
        "config": {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "output")},
        **payload,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _finite(value, flag):
    if not math.isfinite(value):
        raise DomainError(f"{flag} must be finite, got {value}")
    return value


def _linspace(lo, hi, count, flags):
    """np.linspace(lo, hi, count); ``flags`` names the three in errors."""
    _finite(lo, flags[0])
    _finite(hi, flags[1])
    _finite(hi - lo, f"the span {flags[0]} .. {flags[1]}")
    if count < 0:
        raise DomainError(f"{flags[2]} must be >= 0, got {count}")
    return np.linspace(lo, hi, count)


def _t_grid(args):
    if args.t is not None:
        return np.asarray([_finite(args.t, "--t")], dtype=float)
    return _linspace(args.t_min, args.t_max, args.t_points, ("--t-min", "--t-max", "--t-points"))


def cmd_cf(args):
    family, gh = get_family(args.family), _gh_from_args(args)
    t = _t_grid(args)
    g = NuGHChar(family, gh)(t) if args.formula == "composed" else gh_closed_form(family, gh, t)
    _write(args.output, _csv(np.column_stack([t, g.real, g.imag]), ["t", "re_g", "im_g"]))
    return 0


def _model_cf(args):
    return NuGHChar(get_family(args.family), _gh_from_args(args))


def _density_grid(args):
    """The grid of ``pdf`` and ``tails``: at least ``--points`` points,
    grown by :func:`pdf_grid` to the CF's decay cutoff; its size goes back
    into ``args`` for reports."""
    grid = pdf_grid(_model_cf(args), (args.x_min, args.x_max), args.points)
    args.points = grid.x.size
    return grid


def cmd_pdf(args):
    grid = _density_grid(args)
    _write(args.output, _csv(np.column_stack([grid.x, grid.pdf]), ["x", "pdf"]))
    return 0


def cmd_cdf(args):
    cf = _model_cf(args)
    xs = _linspace(args.x_min, args.x_max, args.points, ("--x-min", "--x-max", "--points"))
    _write(args.output, _csv(np.column_stack([xs, cdf_at(cf, xs)]), ["x", "cdf"]))
    return 0


def cmd_quantile(args):
    cf = _model_cf(args)
    rows = [(q, quantile(cf, q)) for q in args.q]
    _write(args.output, _csv(rows, ["q", "x"]))
    return 0


def cmd_sample(args):
    gh = _gh_from_args(args)
    rng = make_rng(args.seed, args.stream_id)
    draws = sample_nu_gh(get_family(args.family), gh, args.n, rng, method=args.method)
    _write(args.output, _csv(draws[:, None], ["x"]))
    return 0


def cmd_tails(args):
    grid = _density_grid(args)
    report = tail_diagnostic(grid, args.side, (args.q_lo, args.q_hi))
    _write(
        args.output,
        _json_report(
            args,
            {
                "side": report.side,
                "slope": report.slope,
                "r2": report.r2,
                "window": list(report.window),
            },
        ),
    )
    return 0


def cmd_fit(args):
    from .fitting import fit_mle, ingest_series

    series = ingest_series(args.input, args.input_format)
    result = fit_mle(
        get_family(args.family),
        series,
        starts=args.starts,
        seed=args.seed,
        free_lambda=args.free_lambda,
    )
    _write(args.output, _json_report(args, result.as_dict()))
    return 0


def _check_suite(args):
    """The aggregated property suite behind the `check` subcommand."""
    family_names = ["geo", "cheb"] if args.family == "both" else [args.family]
    rng = make_rng(args.seed, args.stream_id)
    checks = []

    def record(name, passed, **info):
        checks.append({"name": name, "pass": bool(passed), **info})

    t_pg = np.linspace(0.0, 50.0, 200)
    fixtures = [
        GHParams(-0.5, 1.0, 0.0, 1.0, 0.0),
        GHParams(1.0, 2.0, 0.5, 1.0, 0.0),
        GHParams(-0.5, 1.5, -0.4, 0.8, 0.7),
    ]
    grid = np.linspace(-20.0, 20.0, 81)
    for name in family_names:
        family = get_family(name)
        p_values = [0.5, 0.1, 0.01] if family is GEOMETRIC else [1.0, 0.25, 1.0 / 9, 1.0 / 25]
        residual = verify_poincare(family, p_values, t_pg)
        record(f"{name}.poincare_residual", residual <= 1e-12, residual=residual)

        worst_axiom = 0.0
        worst_closed = 0.0
        for gh in fixtures:
            g = NuGHChar(family, gh)(grid)
            worst_axiom = max(
                worst_axiom,
                abs(complex(NuGHChar(family, gh)(0.0)) - 1.0),
                float(np.max(np.abs(g)) - 1.0),
                float(np.max(np.abs(g[::-1] - np.conj(g)))),
            )
            worst_closed = max(worst_closed, float(np.max(np.abs(gh_closed_form(family, gh, grid) - g))))
        record(f"{name}.cf_axioms", worst_axiom <= 1e-12, worst=worst_axiom)
        record(f"{name}.closed_form_agreement", worst_closed <= 1e-12, worst=worst_closed)

        if family is GEOMETRIC:
            ks = identity_suite(family, 0.1, 2, sample_laplace, laplace_cdf, args.n, rng)
        else:
            ks = identity_suite(family, 0.25, 2, sample_hsecant, hsecant_cdf, args.n, rng)
        record(
            f"{name}.fixed_point_ks",
            ks.passed,
            statistic=ks.statistic,
            threshold=ks.threshold,
            n=ks.n,
        )

        nig = fixtures[0]
        draws = sample_nu_gh(family, nig, args.n, rng)
        tpts = np.array([0.5, 1.0, 2.0])
        emp, se = empirical_cf(draws, tpts)
        model = NuGHChar(family, nig)(tpts)
        dev = float(np.max(np.abs(emp - model) / se))
        record(f"{name}.mixture_cf_consistency", dev <= 4.0, max_dev_se=dev)

        mix = family.sample_mixing(args.n, rng)
        dev_mix = 0.0
        for lam in (0.5, 1.0, 2.0):
            vals = np.exp(-lam * mix)
            se_m = float(np.std(vals) / np.sqrt(vals.size))
            dev_mix = max(dev_mix, abs(float(vals.mean()) - complex(family.phi(lam)).real) / se_m)
        record(f"{name}.mixing_laplace_transform", dev_mix <= 4.0, max_dev_se=dev_mix)

    all_pass = all(c["pass"] for c in checks)
    return all_pass, checks


def cmd_check(args):
    all_pass, checks = _check_suite(args)
    text = _json_report(args, {"pass": all_pass, "checks": checks})
    _write(args.output, text)
    return 0 if all_pass else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nugh",
        description="Random-summation generalizations of GH laws: evaluate, invert, sample, fit.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # flag groups shared by the subcommands, as argparse parent parsers
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--output", "-o", default=None, help="output file (default: stdout)")
    gh = argparse.ArgumentParser(add_help=False, parents=[out])
    gh.add_argument("--family", choices=["geo", "cheb"], default="geo")
    gh.add_argument("--lambda", dest="lam", type=float, default=-0.5)
    gh.add_argument("--alpha", type=float, default=1.0)
    gh.add_argument("--beta", type=float, default=0.0)
    gh.add_argument("--delta", type=float, default=1.0)
    gh.add_argument("--mu", type=float, default=0.0)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=DEFAULT_SEED)
    rng = argparse.ArgumentParser(add_help=False, parents=[seed])
    rng.add_argument("--stream-id", type=int, default=0)

    p = sub.add_parser("cf", parents=[gh], help="table of the model characteristic function")
    p.add_argument("--t", type=float, default=None, help="single evaluation point")
    p.add_argument("--t-min", type=float, default=-10.0)
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--t-points", type=int, default=201)
    p.add_argument("--formula", choices=["composed", "closed"], default="composed")
    p.set_defaults(func=cmd_cf)

    for name, fn in (("pdf", cmd_pdf), ("cdf", cmd_cdf), ("tails", cmd_tails)):
        p = sub.add_parser(name, parents=[gh])
        p.add_argument("--x-min", type=float, default=-30.0)
        p.add_argument("--x-max", type=float, default=30.0)
        p.add_argument("--points", type=int, default=201 if name == "cdf" else 4096)
        if name == "tails":
            p.add_argument("--side", choices=["left", "right"], default="right")
            p.add_argument("--q-lo", type=float, default=0.995)
            p.add_argument("--q-hi", type=float, default=0.9999)
        p.set_defaults(func=fn)

    p = sub.add_parser("quantile", parents=[gh])
    p.add_argument("--q", type=float, nargs="+", required=True)
    p.set_defaults(func=cmd_quantile)

    p = sub.add_parser("sample", parents=[gh, rng], help="draw n variates from the model")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--method", choices=["auto", "mixture", "inversion"], default="auto")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("check", parents=[out, rng], help="run the aggregated property suite")
    p.add_argument("--family", choices=["geo", "cheb", "both"], default="both")
    p.add_argument("--n", type=int, default=100000, help="Monte Carlo sample size")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("fit", parents=[out, seed], help="maximum-likelihood fit to a return series")
    p.add_argument("--family", choices=["geo", "cheb"], default="geo")
    p.add_argument("--input", required=True)
    p.add_argument("--input-format", choices=["returns", "prices"], default="returns")
    p.add_argument("--starts", type=int, default=5)
    p.add_argument("--free-lambda", action="store_true")
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NughError as exc:
        print(f"numerical error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
