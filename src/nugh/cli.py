"""Batch command-line interface: CF tables, density/CDF/quantile tables,
sampling, property checks, tail diagnostics and fitting.

The random subcommands take --seed (sample, check, fit) and --stream-id
(sample, check), with fixed defaults, so every run is reproducible; CSV
output carries 17 significant digits, the bytes of ``"%.17g" % v``, so runs
diff cleanly.

The first :func:`main` call of a process builds the argument parser and
later calls reuse it, so a Python caller that runs many commands pays that
once; a one-shot ``python -m nugh.cli`` run builds it once either way.  At
module level this imports only what :func:`main` and the CSV writer need:
each subcommand imports the library modules it computes with, so a run
pays only for those.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .errors import DomainError, NughError

DEFAULT_SEED = 20260826  # documented fixed default: reproducible by default
OUTPUT_DIR_ENV = "NUGH_OUTPUT_DIR"
_CSV_BLOCK = 2**13  # values per pass of the CSV kernel
# fewer values go through one '%' operation, which beats the kernel's fixed
# cost of about 0.2 ms up to about 430 values
_CSV_SMALL = 432
# a field's bytes in the kernel: the integer digits end at byte 17, the point
# is byte 18, 16 fraction digits follow, then "e+XXX" and the separator
_CSV_SLOT = 41
# values whose 17-digit rounding lies this close to a tie go to '%': the
# error of the kernel's double-double product is about 2**-48
_CSV_TIE_BAND = 2.0**-30


def _gh_from_args(args):
    from .gh import GHParams

    return GHParams(args.lam, args.alpha, args.beta, args.delta, args.mu)


def _resolve_output(path):
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir and not os.path.isabs(path):
        os.makedirs(out_dir, exist_ok=True)
        return os.path.join(out_dir, path)
    return path


def _is_stdout(path):
    """Whether ``path`` is the file behind stdout, as in ``-o /dev/stdout >> file``."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):  # no such path, or no file behind stdout
        return False


def _write(path, parts):
    """Write the ASCII byte strings ``parts``, in turn, to stdout as text if ``path`` is None or
    stdout's file, else as bytes to ``path``: a regular or new file, or a symlink's target, via
    ``<path>.part`` and a rename, anything else as given; OSError raises DomainError."""
    if path is None:
        sys.stdout.writelines(part.decode("ascii") for part in parts)
        return
    tmp = None
    try:
        target = _resolve_output(path)
        if _is_stdout(target):
            sys.stdout.writelines(part.decode("ascii") for part in parts)
            return
        if os.path.isfile(target) or not os.path.exists(target):
            if os.path.islink(target):
                target = os.path.realpath(target)
            tmp = target + ".part"
        with open(tmp or target, "wb") as fh:
            fh.writelines(parts)
        if tmp:
            os.replace(tmp, target)
    except BaseException as exc:
        if tmp and os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise DomainError(f"cannot write {path!r}: {exc.strerror or exc}") from None
        raise


@functools.cache
def _csv_tables():
    """The CSV kernel's lookup tables, built on first use.

    Column k + 324 of ``scale`` holds 10**(16 - k) = (h + l) * 2**e to 106
    bits, h in [1, 2] split as hh + hl for Dekker's product, for each
    decimal exponent k of a float64; of ``layout``, k's ``%g`` layout; of
    ``suffix``, its exponent, empty where ``%g`` writes fixed notation."""
    ks = range(-324, 309)
    m, e = [], []
    for k in ks:  # 10**(16 - k) = m * 2**(b - 105) to 106 bits, m in [2**105, 2**106]
        p = 10 ** abs(16 - k)
        if k <= 16:
            b = p.bit_length() - 1
            m.append(p << (105 - b) if b <= 105 else ((p >> (b - 106)) + 1) >> 1)
        else:
            b = -p.bit_length()  # 1/p, and p = 10**(k - 16) is no power of two
            m.append(((1 << (106 - b)) // p + 1) >> 1)
        e.append(b)
    h = np.array([float(v) for v in m])
    l = np.array([float(v - int(f)) for v, f in zip(m, h)])
    hh = h * 134217729.0  # 2**27 + 1
    hh -= hh - h
    suffix = [b"" if -4 <= k < 17 else b"e%+03d" % k for k in ks]
    layout = []
    for k, s in zip(ks, suffix):
        point = 16 - k if 0 <= k < 17 else 16  # digits of r after the point
        small = -4 <= k < 0  # 0.000ddd
        # 10**point and 10**(16 - point), the first byte, the count of trailing
        # zeros that drops the point, the exponent's length and, for 0.000ddd,
        # the entry of ``prefix`` less the first digit
        layout.append((10**point, 10 ** (16 - point), 17 + k if small else point + 1, 16 + small, len(s),
                       -10 * k - 10 if small else -1))
    digits = (np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10).astype(np.uint8)
    # "0.", z zeros and the digit d, ending a little-endian word, at 10 z + d
    prefix = b"".join((b"0." + b"0" * z + b"%d" % d).rjust(8, b"\0") for z in range(4) for d in range(10))
    col = np.arange(_CSV_SLOT)
    return (
        np.stack([h, hh, h - hh, l]) * 2.0**-105,
        np.array(e, np.int32),
        np.array(layout, np.int64).T.copy(),
        np.frombuffer(b"".join(s.ljust(5, b"\0") for s in suffix), np.uint8).reshape(-1, 5).T.copy(),
        (digits + 48).view("<u4").ravel(),  # the 4-digit groups 0000 .. 9999 as ASCII
        np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1),  # and their trailing zeros
        np.frombuffer(prefix, "<u8"),
        ((col >= col[:18, None, None]) & (col < np.arange(_CSV_SLOT + 1)[:, None])).reshape(-1, _CSV_SLOT),
    )


def _csv_scale(a, i, scale, e):
    """a * 10**(16 - k) as s + t, i = k + 324, within about 2**-48 below 2**57:
    with m = a * 2**e exact, s = fl(m * h) and t = m * h - s (Dekker) + m * l."""
    h, hh, hl, l = np.take(scale, i, axis=1)
    m = np.ldexp(a, np.take(e, i))
    s = m * h
    mh = m * 134217729.0
    mh -= mh - m
    ml = m - mh
    return s, ((mh * hh - s) + mh * hl + ml * hh) + ml * hl + m * l


def _csv_digits(v, count, lut):
    """The ``count`` 4-digit groups of the integers 0 <= v < 10**(4 * count),
    most significant first, and the (n, count) uint32 array of their ASCII
    digits."""
    groups = []
    for _ in range(count - 1):
        q = v // 10**4
        groups.append(v - q * 10**4)
        v = q
    groups = [v, *groups[::-1]]
    chars = np.empty((v.size, count), "<u4")
    for j, group in enumerate(groups):
        chars[:, j] = lut[group]
    return groups, chars


def _csv_fields(x, seps):
    """``b"%.17g%c" % (v, sep)`` for the values v of the 1-D array x and
    their separator bytes in seps, joined."""
    scale, e, layout, suffix, lut, tzs, prefix, masks = _csv_tables()
    finite = np.isfinite(x)
    nonzero = finite & (x != 0)
    a = np.where(nonzero, np.abs(x), 1.0)
    # r = round(a * 10**(16 - k)) in [1e16, 1e17) holds the 17 significant
    # digits.  log10 can put k one off next to a power of ten; test the
    # unrounded s + t, since s alone can round onto either bound.
    k = np.floor(np.log10(a)).astype(np.intp)
    s, t = _csv_scale(a, k + 324, scale, e)
    step = ((s - 1e17) + t >= 0).astype(np.intp) - ((s - 1e16) + t < 0)
    if step.any():
        fix = np.flatnonzero(step)
        k[fix] += step[fix]
        s[fix], t[fix] = _csv_scale(a[fix], k[fix] + 324, scale, e)
    near = np.rint(t)  # half to even, as '%' rounds exact ties such as 1 + 2**-17
    unsure = (np.abs(t - near) > 0.5 - _CSV_TIE_BAND) | ~finite  # inf and nan go to '%' too
    r = s.astype(np.int64) + near.astype(np.int64)
    carry = r == 10**17
    r[carry] = 10**16
    k += carry
    r *= nonzero
    k *= nonzero
    # %g: fixed notation for -4 <= k < 17, else d.ddd and the exponent.  The
    # integer part ip ends at byte 17 and the fraction starts at byte 19; ip
    # is written only in the 4-digit groups that the block's largest needs,
    # since no field starts before them.
    i = k + 324
    div, mul, start, nopoint, elen, pre = np.take(layout, i, axis=1)
    ip = r // div
    lead = ip // 10**16
    count = min(4, (len(str(ip.max(initial=0))) + 3) // 4)
    width = f"V{4 * count}"  # the digit blocks are copied as void items, one per row
    row = np.empty((x.size, _CSV_SLOT), np.uint8)
    row[:, 1] = lead + 48
    row[:, 18 - 4 * count : 18].view(width)[:] = _csv_digits(ip - lead * 10**16, count, lut)[1].view(width)
    row[:, 18] = ord(".")
    groups, chars = _csv_digits((r - ip * div) * mul, 4, lut)
    row[:, 19:35].view("V16")[:] = chars.view("V16")
    zeros = tzs[groups[3]]  # trailing zeros of the fraction
    for j in (2, 1, 0):
        z = np.flatnonzero(zeros == 12 - 4 * j)
        if not z.size:
            break
        zeros[z] += tzs[groups[j][z]]
    end = 35 - zeros - (zeros == nopoint)
    stop = end + elen
    small = np.flatnonzero(pre >= 0)
    if small.size:
        row[:, 11:19].view("<u8")[small, 0] = prefix[pre[small] + ip[small]]
    flat = row.ravel()
    at = np.arange(0, flat.size, _CSV_SLOT)
    if elen.any():
        sci = np.flatnonzero(elen)
        for j, byte in enumerate(suffix):
            flat[at[sci] + end[sci] + j] = byte[i[sci]]
    neg = np.signbit(x) & ~np.isnan(x)
    if unsure.any():
        for j in np.flatnonzero(unsure):
            text = b"%.17g" % abs(x[j])
            row[j, 17 : 17 + len(text)] = list(text)
            start[j], stop[j] = 17, 17 + len(text)
    flat[at + stop] = seps
    flat[at + start - 1] = ord("-")
    start -= neg
    return row[np.take(masks, start * (_CSV_SLOT + 1) + stop + 1, axis=0)].tobytes()


def _csv(rows, header):
    """CSV of the 2-D float array ``rows``, one column per header field,
    each value written as ``"%.17g" % v`` writes it, yielded as ASCII bytes
    in parts: the header line, then the bytes of each pass below.

    Fewer than ``_CSV_SMALL`` values are formatted by one ``%`` operation.
    Otherwise a vectorised kernel formats ``_CSV_BLOCK`` values per pass: a
    double-double product with a table of powers of ten gives the 17
    digits, lookup tables the ``%g`` layout, and inf, nan and the rare
    values within 2**-30 of a rounding tie go to ``%`` one at a time."""
    values = np.asarray(rows, dtype=float).reshape(-1, len(header))
    yield (",".join(header) + "\n").encode("ascii")
    if values.size < _CSV_SMALL:
        line = b",".join([b"%.17g"] * len(header)) + b"\n"
        yield (line * len(values)) % tuple(values.ravel().tolist())
        return
    seps = np.full(values.shape, ord(","), np.uint8)
    seps[:, -1] = ord("\n")
    values, seps = values.ravel(), seps.ravel()
    for start in range(0, values.size, _CSV_BLOCK):
        block = slice(start, start + _CSV_BLOCK)
        yield _csv_fields(values[block], seps[block])


def _json_report(args, payload):
    import json

    doc = {
        "version": __version__,
        "config": {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "output")},
        **payload,
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("ascii")


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
    from .families import get_family
    from .transform import NuGHChar, gh_closed_form

    family, gh = get_family(args.family), _gh_from_args(args)
    t = _t_grid(args)
    g = NuGHChar(family, gh)(t) if args.formula == "composed" else gh_closed_form(family, gh, t)
    _write(args.output, _csv(np.column_stack([t, g.real, g.imag]), ["t", "re_g", "im_g"]))
    return 0


def _model_cf(args):
    from .families import get_family
    from .transform import NuGHChar

    return NuGHChar(get_family(args.family), _gh_from_args(args))


def _density_grid(args):
    """The grid of ``pdf`` and ``tails``: at least ``--points`` points,
    grown by :func:`pdf_grid` to the CF's decay cutoff; its size goes back
    into ``args`` for reports."""
    from .inversion import pdf_grid

    grid = pdf_grid(_model_cf(args), (args.x_min, args.x_max), args.points)
    args.points = grid.x.size
    return grid


def cmd_pdf(args):
    grid = _density_grid(args)
    _write(args.output, _csv(np.column_stack([grid.x, grid.pdf]), ["x", "pdf"]))
    return 0


def cmd_cdf(args):
    from .inversion import cdf_at

    cf = _model_cf(args)
    xs = _linspace(args.x_min, args.x_max, args.points, ("--x-min", "--x-max", "--points"))
    _write(args.output, _csv(np.column_stack([xs, cdf_at(cf, xs)]), ["x", "cdf"]))
    return 0


def cmd_quantile(args):
    from .inversion import quantile

    _write(args.output, _csv(np.column_stack([args.q, quantile(_model_cf(args), args.q)]), ["q", "x"]))
    return 0


def cmd_sample(args):
    from .families import get_family
    from .montecarlo import make_rng, sample_nu_gh

    gh = _gh_from_args(args)
    rng = make_rng(args.seed, args.stream_id)
    draws = sample_nu_gh(get_family(args.family), gh, args.n, rng, method=args.method)
    _write(args.output, _csv(draws[:, None], ["x"]))
    return 0


def cmd_tails(args):
    import dataclasses

    from .inversion import tail_diagnostic

    grid = _density_grid(args)
    report = tail_diagnostic(grid, args.side, (args.q_lo, args.q_hi))
    _write(args.output, (_json_report(args, dataclasses.asdict(report)),))
    return 0


def cmd_fit(args):
    from .families import get_family
    from .fitting import fit_mle, ingest_series

    series = ingest_series(args.input, args.input_format)
    result = fit_mle(
        get_family(args.family),
        series,
        starts=args.starts,
        seed=args.seed,
        free_lambda=args.free_lambda,
    )
    _write(args.output, (_json_report(args, result.as_dict()),))
    return 0


def _check_suite(args):
    """The aggregated property suite behind the `check` subcommand."""
    from .families import GEOMETRIC, get_family, verify_poincare
    from .gh import GHParams
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
    _write(args.output, (_json_report(args, {"pass": all_pass, "checks": checks}),))
    return 0 if all_pass else 2


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative float literal (-1e5,
    -1E+05, -.5e-3, -inf) as a value, not only argparse's -1 and -.5;
    the subcommand parsers inherit it through ``parser_class``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf(inity)?|nan)$", re.I)


@functools.cache
def build_parser():
    """The ``nugh`` argument parser, built on the first call and shared by
    every later one (and by every :func:`main` call) in the process; callers
    must not mutate it."""
    parser = _Parser(
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
    """Run one ``nugh`` command line and return its exit code.  The parser
    is built on the first call, not at import, and reused after that."""
    try:
        args = build_parser().parse_args(argv)
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
