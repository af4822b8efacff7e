import argparse
import contextlib
import io
import json
import os
import stat
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nugh
from nugh.cli import _CSV_BLOCK, _CSV_SMALL, _csv, _csv_fields, _write, build_parser, main
from nugh.gh import GHParams
from nugh.montecarlo import make_rng, sample_nu_gh


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCf:
    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "cf", "--t", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,re_g,im_g"
        t, re, im = lines[1].split(",")
        assert float(re) == pytest.approx(1 / np.sqrt(2), rel=1e-15)
        assert float(im) == 0.0

    def test_closed_matches_composed(self, capsys):
        args = ["--family", "cheb", "--alpha", "2", "--beta", "0.5", "--t-points", "21"]
        _, out1, _ = run(capsys, "cf", *args, "--formula", "composed")
        _, out2, _ = run(capsys, "cf", *args, "--formula", "closed")
        for l1, l2 in zip(out1.splitlines()[1:], out2.splitlines()[1:]):
            v1 = [float(v) for v in l1.split(",")]
            v2 = [float(v) for v in l2.split(",")]
            assert v1 == pytest.approx(v2, abs=1e-13)

    def test_closed_form_refuses_where_gh_cf_underflows(self, capsys):
        # --formula closed unwraps the whole GH CF, which reads 0 from t ~ 747
        code, _, err = run(capsys, "cf", "--formula", "closed", "--t", "800")
        assert code == 2
        assert "[BranchError]" in err

    def test_bad_params_exit_1(self, capsys):
        code, _, err = run(capsys, "cf", "--alpha", "-1", "--t", "1")
        assert code == 1
        assert "error" in err

    @pytest.mark.filterwarnings("error")
    def test_bessel_overflow_exit_1(self, capsys):
        # K_25(delta*gamma) at delta*gamma = 1e-12 overflows a double
        code, _, err = run(capsys, "cf", "--lambda", "25", "--alpha", "1e-6", "--delta", "1e-6", "--t", "1")
        assert code == 1
        assert "error:" in err


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", ["-0.5", "1"])
    @pytest.mark.parametrize("t", [1e300, -1e160])
    def test_far_t(self, capsys, lam, t):
        # t^2 overflows a double; the geometric CF is 1 / (1 + w), with
        # w ~ |t| delta - i mu t
        code, out, _ = run(capsys, "cf", "--lambda", lam, "--beta", "0.5", "--mu", "0.3", f"--t={t!r}")
        assert code == 0
        _, re, im = map(float, out.splitlines()[1].split(","))
        assert complex(re, im) == pytest.approx(1 / (abs(t) - 0.3j * t), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", ["-1", "1"])
    def test_far_t_past_the_largest_ratio_to_delta_gamma(self, capsys, lam):
        # |z(t)| / (delta gamma) = 1e309 is past the largest double, while
        # z(t) = 1e306 is not; the geometric CF is 1 / (1 + w), w ~ delta |t|
        code, out, _ = run(capsys, "cf", "--lambda", lam, "--alpha", "1e-3", "--beta", "0", "--t", "1e306")
        assert code == 0
        _, re, im = map(float, out.splitlines()[1].split(","))
        assert complex(re, im) == pytest.approx(1e-306, rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_bessel_argument_near_the_largest_double(self, capsys):
        # z(1e307) = 1e307, where the Hankel sum's 8 k z passes the largest double
        code, out, _ = run(capsys, "cf", "--lambda", "1", "--t", "1e307")
        assert code == 0
        assert out.splitlines()[1] == "9.9999999999999999e+306,1.0000000000000001e-307,0"

    @pytest.mark.filterwarnings("error")
    def test_bessel_argument_beyond_scipy_kve(self, capsys):
        # z(2e9) = 2e9 is past the 1.07e9 from which scipy's kve returns NaN
        code, out, _ = run(capsys, "cf", "--lambda", "1", "--t", "2e9")
        assert code == 0
        _, re, im = map(float, out.splitlines()[1].split(","))
        assert (re, im) == (pytest.approx(5e-10, rel=1e-7), 0.0)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("base", [[], ["--lambda", "1"]], ids=["nig", "gh"])
    @pytest.mark.parametrize("family", ["geo", "cheb"])
    def test_bessel_argument_past_the_largest_double(self, capsys, family, base):
        # delta |t| = 1e310, and so z(t), is past the largest double
        code, _, err = run(capsys, "cf", "--family", family, *base, "--delta", "1e10", "--t", "1e300")
        assert code == 2
        assert "[RangeError]: z(t) overflows a double" in err


class TestTables:
    def test_pdf_file_output(self, tmp_path, capsys):
        out = tmp_path / "pdf.csv"
        code, _, _ = run(capsys, "pdf", "--x-min", "-40", "--x-max", "40",
                         "--points", "4096", "-o", str(out))
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (4096, 2)
        mass = np.trapezoid(data[:, 1], data[:, 0])
        assert mass == pytest.approx(1.0, abs=1e-5)

    def test_pdf_alias_exit_2(self, capsys):
        code, _, err = run(capsys, "pdf", "--x-min", "-0.2", "--x-max", "0.2",
                           "--points", "1024")
        assert code == 2
        assert "AliasError" in err

    def test_cdf_monotone(self, capsys):
        code, out, _ = run(capsys, "cdf", "--x-min", "-5", "--x-max", "5", "--points", "11")
        assert code == 0
        vals = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
        assert vals[5] == pytest.approx(0.5, abs=1e-6)  # symmetric model, x=0

    def test_cdf_of_a_wide_law_is_the_unit_law_rescaled(self, capsys):
        # the Chebyshev law (13.4, 3.65, 1.11, 0.44, -0.58) scaled by 8192:
        # its CF falls from 1 to nothing before the first node of a panel at 0
        unit = ["--family", "cheb", "--lambda", "13.4", "--alpha", "3.65", "--beta", "1.11", "--delta", "0.44",
                "--mu", "-0.58", "--x-min=-6.103515625e-05", "--x-max", "6.103515625e-05", "--points", "3"]
        wide = ["--family", "cheb", "--lambda", "13.4", "--alpha", "4.45556640625e-4", "--beta", "1.35498046875e-4",
                "--delta", "3604.48", "--mu", "-4751.36", "--x-min", "-0.5", "--x-max", "0.5", "--points", "3"]
        cdfs = []
        for argv in (unit, wide):
            code, out, _ = run(capsys, "cdf", *argv)
            assert code == 0
            cdfs.append(np.array([float(row.split(",")[1]) for row in out.splitlines()[1:]]))
        assert np.max(np.abs(cdfs[1] - cdfs[0])) <= 1e-8
        assert cdfs[0][1] == pytest.approx(0.1580073, abs=1e-7)

    def test_cdf_of_no_points(self, capsys, monkeypatch):
        # --points 0 asks for no x: the header alone, and no CF call
        import nugh.inversion

        def no_cf_call(cf, t):
            raise AssertionError("the CF was evaluated")

        monkeypatch.setattr(nugh.inversion, "eval_cf", no_cf_call)
        assert run(capsys, "cdf", "--points", "0") == (0, "x,cdf\n", "")

    def test_quantile(self, capsys):
        code, out, _ = run(capsys, "quantile", "--q", "0.5", "0.9")
        assert code == 0
        rows = [l.split(",") for l in out.strip().splitlines()[1:]]
        assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-5)
        assert float(rows[1][1]) > 0.5

    def test_tails_json(self, capsys):
        code, out, _ = run(capsys, "tails", "--x-min", "-60", "--x-max", "60",
                           "--points", "65536", "--q-lo", "0.99", "--q-hi", "0.9995")
        assert code == 0
        doc = json.loads(out)
        assert doc["r2"] > 0.999
        assert doc["slope"] < 0
        assert doc["config"]["family"] == "geo"
        assert doc["version"]
        assert not {"seed", "stream_id"} & set(doc["config"])

    @pytest.mark.parametrize("family, points", [("cheb", 16384), ("geo", 4096)])
    def test_pdf_and_tails_default_grid(self, capsys, family, points):
        # the default grid reaches the CF's decay cutoff (512 for cheb-NIG);
        # the geo CF does not decay, so it keeps 4096 points
        code, out, _ = run(capsys, "pdf", "--family", family)
        assert code == 0
        assert len(out.splitlines()) == points + 1
        code, out, _ = run(capsys, "tails", "--family", family)
        assert code == 0
        assert json.loads(out)["config"]["points"] == points

    @pytest.mark.parametrize("subcommand", ["pdf", "tails"])
    def test_default_grid_probes_the_cutoff_once(self, capsys, monkeypatch, subcommand):
        # two CF calls in all: the decay probe and the half spectrum
        import nugh.inversion

        probes, cf_calls = [], []
        probe, evaluate = nugh.inversion._probe, nugh.inversion.eval_cf

        def counting_probe(cf, top):
            probes.append(top)
            return probe(cf, top)

        def counting_eval(cf, t):
            cf_calls.append(np.size(t))
            return evaluate(cf, t)

        monkeypatch.setattr(nugh.inversion, "_probe", counting_probe)
        monkeypatch.setattr(nugh.inversion, "eval_cf", counting_eval)
        code, _, _ = run(capsys, subcommand, "--family", "cheb")
        assert code == 0
        assert probes == [4096 * np.pi / 60]  # the top frequency of 4096 points on (-30, 30)
        assert cf_calls == [122, 2**13 + 1]


REMOVED_FLAGS = [
    *[(cmd, flag) for cmd in ("cf", "pdf", "cdf", "tails", "quantile") for flag in ("--seed", "--stream-id")],
    *[("fit", flag) for flag in ("--lambda", "--alpha", "--beta", "--delta", "--mu", "--stream-id")],
]


@pytest.mark.parametrize("subcommand, flag", REMOVED_FLAGS)
def test_flags_that_change_no_output_are_rejected(capsys, subcommand, flag):
    required = {"quantile": ["--q", "0.5"], "fit": ["--input", "returns.csv"]}.get(subcommand, [])
    code, out, err = run(capsys, subcommand, *required, flag, "1")
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sample", "--n", "-1"], "draws must be >= 0"),
        (["cdf", "--points", "-3"], "--points must be >= 0"),
        (["cf", "--t-points", "-1"], "--t-points must be >= 0"),
        (["fit", "--starts", "0"], "starts must be >= 1"),
    ],
)
def test_negative_counts_exit_1(tmp_path, capsys, argv, message):
    if argv[0] == "fit":
        f = tmp_path / "returns.csv"
        f.write_text("\n".join(f"{v:.12g}" for v in make_rng(9, 1).standard_normal(200)) + "\n")
        argv = [*argv, "--input", str(f)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, message",
    [
        (["pdf", "--x-max", "inf"], "finite"),
        (["pdf", "--x-min=-inf"], "finite"),
        (["pdf", "--x-min=-1e308", "--x-max=1e308"], "finite"),
        (["tails", "--x-max", "nan"], "finite"),
        (["cf", "--t", "inf"], "--t must be finite"),
        (["cf", "--t-min=-inf"], "--t-min must be finite"),
        (["cdf", "--x-max", "inf"], "--x-max must be finite"),
        (["cdf", "--x-min=-1e308", "--x-max=1e308"], "the span --x-min .. --x-max must be finite"),
        (["cf", "--alpha", "1e200", "--t", "1"], "alpha = 1e+200"),
        (["quantile", "--q", "1e-12"], "tail floor"),
        (["quantile", "--family", "cheb", "--q", "0.5", "1e-300"], "tail floor"),
        (["pdf", "--x-min", "-inf"], "finite"),
    ],
)
def test_out_of_range_values_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["cf", "--t-min", "-1e5", "--t-max", "1e5", "--t-points", "3"], "--t-min", -1e5),
        (["cf", "--mu", "-3e-05", "--t", "1"], "--mu", -3e-05),
        (["cdf", "--x-min", "-1E+01", "--x-max", "1", "--points", "3"], "--x-min", -10.0),
        (["cf", "--t", "-.5e-3"], "--t", -5e-4),
    ],
)
def test_negative_exponent_values_parse(capsys, argv, flag, value):
    # the value after a space is read as the value, as after '='
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    i = argv.index(flag)
    assert run(capsys, *argv[:i], f"{flag}={argv[i + 1]}", *argv[i + 2 :])[1] == out
    assert getattr(build_parser().parse_args(argv), flag[2:].replace("-", "_")) == value


def test_negative_number_matcher_overrides_argparse():
    # _Parser replaces a private argparse attribute: fail loudly if it goes
    assert hasattr(argparse.ArgumentParser(), "_negative_number_matcher")
    matcher = build_parser()._negative_number_matcher
    for text in ("-1", "-.5", "-1e5", "-1E+05", "-.5e-3", "-2.", "-inf", "-Infinity", "-nan"):
        assert matcher.match(text), text
    for text in ("-o", "-h", "--t", "-e5", "-1e", "-", "-1e5x"):
        assert not matcher.match(text), text


class TestCsv:
    def test_byte_identical_to_row_formatter(self):
        def row_csv(rows, header):
            # the per-row formatter the columnar writer replaced
            lines = [",".join(header)]
            for row in rows:
                lines.append(",".join(f"{float(v):.17g}" for v in row))
            return ("\n".join(lines) + "\n").encode()

        special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, 0.1, 1 / 3, -2.5e-17]
        rows = np.column_stack([special, special[::-1], np.arange(len(special)) * 1e15])
        rows = np.vstack([rows, make_rng(1, 0).standard_normal((200, 3)) * 10.0 ** np.arange(-8, 10, 6)])
        assert b"".join(_csv(rows, ["a", "b", "c"])) == row_csv(rows, ["a", "b", "c"])
        assert b"".join(_csv(rows[:, :1], ["a"])) == row_csv(rows[:, :1], ["a"])
        assert b"".join(_csv(np.empty((0, 2)), ["a", "b"])) == b"a,b\n"
        # rows are formatted in blocks of 4096: cross and meet the boundaries
        draws = make_rng(2, 0).standard_normal((2 * 4096 + 3, 3)) * 10.0 ** np.arange(-5, 10, 6)
        draws[4090 : 4090 + len(special)] = np.asarray(special)[:, None]
        for n in (0, 1, 4095, 4096, 4097, 2 * 4096 + 3):
            for k in (1, 2, 3):
                header = ["a", "b", "c"][:k]
                assert b"".join(_csv(draws[:n, :k], header)) == row_csv(draws[:n, :k], header)
        # the (q, x) tuples of cmd_quantile
        pairs = [(0.01, -4.25), (0.5, 0.0), (0.99, 1 / 3), (1e-10, -np.inf)]
        assert b"".join(_csv(pairs, ["q", "x"])) == row_csv(pairs, ["q", "x"])

    def test_written_as_formatted(self, tmp_path):
        # 10**6 rows are 24 MB of text: the file gets it one kernel pass at a time
        x = make_rng(3, 0).standard_normal(10**6)
        path = tmp_path / "x.csv"
        tracemalloc.start()
        try:
            _write(str(path), _csv(x[:, None], ["x"]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert path.read_bytes() == b"".join(_csv(x[:, None], ["x"]))
        assert sorted(os.listdir(tmp_path)) == ["x.csv"]


def percent_csv(values, header):
    """The CSV bytes that "%.17g" writes, one value at a time."""
    values = np.asarray(values, dtype=float).reshape(-1, len(header))
    return "".join([",".join(header) + "\n"] + [",".join("%.17g" % v for v in row) + "\n" for row in values]).encode()


def kernel_fields(values, columns):
    """The kernel's bytes and '%.17g''s for the values laid out in rows of
    ``columns``, whatever their number (_csv sends few values to '%')."""
    seps = np.tile(np.array([ord(",")] * (columns - 1) + [ord("\n")], np.uint8), values.size // columns)
    return _csv_fields(values, seps), b"".join(b"%.17g%c" % (v, s) for v, s in zip(values, seps))


class TestCsvKernel:
    """The vectorised writer against '%.17g' where its digits or layout
    could go wrong."""

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_any_bit_pattern(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        kernel, percent = kernel_fields(values, 1)
        assert kernel == percent
        if values.size % 3 == 0:
            kernel, percent = kernel_fields(values, 3)
            assert kernel == percent

    def test_random_bit_patterns(self):
        values = make_rng(3, 0).integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
        assert b"".join(_csv(values, ["a", "b"])) == percent_csv(values, ["a", "b"])

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = np.concatenate([powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)])
        values = np.concatenate([values, -values])
        assert b"".join(_csv(values, ["x"])) == percent_csv(values, ["x"])

    def test_digit_count_edges_and_subnormals(self):
        edges = np.array([1e16, 1e17, 99999999999999992.0, 9999999999999998.0, 99999999999999984.0,
                          123456789012345678.0, 12345678901234567.0, 1e-4, 1e-5, 9.9999999999999995e-5])
        tiny = np.finfo(float).tiny
        subnormal = np.concatenate([[5e-324, 1e-323, tiny, np.nextafter(tiny, 0)],
                                    make_rng(4, 0).integers(1, 2**52, 1000).astype(float) * 5e-324])
        values = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf), subnormal])
        values = np.concatenate([values, -values, [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]])
        assert b"".join(_csv(values, ["x"])) == percent_csv(values, ["x"])

    @pytest.mark.parametrize("columns", [1, 2, 3])
    def test_rows_crossing_the_block_size(self, columns):
        header = ["a", "b", "c"][:columns]
        draws = make_rng(5, columns).standard_normal((2 * _CSV_BLOCK + 5, 3)) * 10.0 ** np.arange(-6, 12, 7)
        for n in (_CSV_BLOCK // columns, _CSV_BLOCK // columns + 1, 2 * _CSV_BLOCK // columns + 1):
            assert b"".join(_csv(draws[:n, :columns], header)) == percent_csv(draws[:n, :columns], header)

    @pytest.mark.parametrize("columns", [1, 2, 3])
    def test_rows_around_the_switch_to_the_kernel(self, monkeypatch, columns):
        # fewer than _CSV_SMALL values go to one '%', the rest to the kernel
        header = ["a", "b", "c"][:columns]
        draws = make_rng(6, columns).standard_normal((_CSV_SMALL + 1, 3)) * 10.0 ** np.arange(-6, 12, 7)
        kernel_calls = []

        def counting_fields(x, seps):
            kernel_calls.append(x.size)
            return _csv_fields(x, seps)

        monkeypatch.setattr(nugh.cli, "_csv_fields", counting_fields)
        for n in range((_CSV_SMALL - 1) // columns - 1, _CSV_SMALL // columns + 2):
            assert b"".join(_csv(draws[:n, :columns], header)) == percent_csv(draws[:n, :columns], header)
            assert kernel_calls == ([n * columns] if n * columns >= _CSV_SMALL else [])
            kernel_calls.clear()

    def test_exact_ties_round_half_to_even(self):
        # m * 2**-e, m odd, with m * 5**e of 18 digits ends in 5: a tie at 17 digits
        ties = []
        for e in range(1, 60):
            n = -(-(10**17) // 5**e) | 1
            ties += [np.ldexp(float(m), -e) for m in range(n, n + 200, 2) if m * 5**e < 10**18 and m < 2**53]
        assert len(ties) > 1000
        assert "%.17g" % (1 + 2**-17) == "1.0000076293945312"
        values = np.array(ties + [1 + 2**-17])
        assert b"".join(_csv(values, ["x"])) == percent_csv(values, ["x"])

    def test_exact_fallback_lays_out_every_form(self, monkeypatch):
        # a band of 0.6 sends every value to the one-at-a-time '%' path
        monkeypatch.setattr(nugh.cli, "_CSV_TIE_BAND", 0.6)
        values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e300, 12345678901234567.0, -1e-4,
                           0.25, -3.5e-5, 1 + 2**-17, 1e16, -1e17])
        kernel, percent = kernel_fields(np.column_stack([values, values[::-1]]).ravel(), 2)
        assert kernel == percent


class TestSample:
    def test_deterministic_bytes(self, capsys):
        argv = ["sample", "--n", "500", "--seed", "42"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_matches_library_draws(self, capsys):
        code, out, _ = run(capsys, "sample", "--n", "100", "--seed", "42", "--stream-id", "3")
        assert code == 0
        vals = np.array([float(l) for l in out.strip().splitlines()[1:]])
        direct = sample_nu_gh(
            __import__("nugh").GEOMETRIC,
            GHParams(-0.5, 1.0, 0.0, 1.0, 0.0),
            100,
            make_rng(42, 3),
        )
        assert np.allclose(vals, direct, rtol=0, atol=1e-15)

    def test_no_draws_print_the_header(self, capsys):
        assert run(capsys, "sample", "--lambda", "1", "--n", "0") == (0, "x\n", "")

    def test_inversion_range_from_the_quantiles(self, capsys):
        # a wide geo-GH law whose CF-difference moments are unstable; the
        # sampler's grid spans the law's own quantiles
        code, out, _ = run(
            capsys, "sample", "--family", "geo", "--lambda", "25", "--alpha", "0.2", "--beta", "0.1",
            "--delta", "5", "--mu", "1", "--method", "inversion", "--n", "1000",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1001

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", ["geo", "cheb"])
    def test_inversion_range_of_a_variance_past_the_largest_double(self, capsys, family):
        # (2, .5, 1, .1) scaled by 1e160, whose variance is past the largest
        # double: it is sampled in units of its CF's cutoff, so its draws are
        # 1e160 times the unit law's to the accuracy of the two grids
        def draws(c):
            code, out, _ = run(
                capsys, "sample", "--family", family, "--alpha", repr(2 / c), "--beta", repr(0.5 / c),
                "--delta", repr(c), "--mu", repr(0.1 * c), "--method", "inversion", "--n", "10",
            )
            assert code == 0
            return np.array([float(l) for l in out.strip().splitlines()[1:]])

        wide = draws(1e160)
        assert wide.shape == (10,)
        np.testing.assert_allclose(wide / 1e160, draws(1.0), rtol=0, atol=1e-4)


class TestFitCommand:
    def test_fit_json(self, tmp_path, capsys):
        data = sample_nu_gh(
            __import__("nugh").GEOMETRIC,
            GHParams(-0.5, 2.0, 0.0, 1.0, 0.0),
            1500,
            make_rng(9, 0),
        )
        f = tmp_path / "returns.csv"
        f.write_text("\n".join(f"{v:.12g}" for v in data) + "\n")
        code, out, _ = run(capsys, "fit", "--input", str(f), "--starts", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "geometric"
        assert doc["converged"] is True
        assert doc["alpha"] == pytest.approx(2.0, rel=0.4)
        assert not {"lam", "alpha", "beta", "delta", "mu", "stream_id"} & set(doc["config"])

    @pytest.mark.parametrize("name, content", [("missing.csv", None), ("adir", "dir"), ("latin1.csv", b"0.1\n\xe9\n")])
    def test_unreadable_input_exit_1(self, tmp_path, capsys, name, content):
        f = tmp_path / name
        if content == "dir":
            f.mkdir()
        elif content is not None:
            f.write_bytes(content)
        code, out, err = run(capsys, "fit", "--input", str(f))
        assert (code, out) == (1, "")
        assert err.startswith("error:") and str(f) in err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_text("0.1\nnope\n")
        code, _, err = run(capsys, "fit", "--input", str(f))
        assert code == 2
        assert "ParseError" in err


class TestCheck:
    def test_geo_green_and_deterministic(self, capsys):
        argv = ["check", "--family", "geo", "--n", "20000", "--seed", "11"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == 0 and code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["pass"] is True
        names = {c["name"] for c in doc["checks"]}
        assert "geo.poincare_residual" in names
        assert "geo.fixed_point_ks" in names

    @pytest.mark.parametrize("argv", [["sample", "--seed", "-1"], ["check", "--stream-id", "-5"], ["fit", "--seed", "-2"]])
    def test_negative_seed_exit_1(self, capsys, tmp_path, argv):
        data = tmp_path / "r.csv"
        data.write_text("\n".join(f"{v:.12g}" for v in make_rng(9, 1).standard_normal(200)) + "\n")
        code, out, err = run(capsys, *argv, *(["--input", str(data)] if argv[0] == "fit" else []))
        assert code == 1
        assert "error: make_rng" in err
        assert out == ""

    def test_output_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NUGH_OUTPUT_DIR", str(tmp_path / "outs"))
        code, _, _ = run(capsys, "cf", "--t", "1", "-o", "cf.csv")
        assert code == 0
        assert (tmp_path / "outs" / "cf.csv").exists()


class TestOutput:
    def test_fifo_is_written_through(self, tmp_path, capsys):
        # the reader runs in a thread joined with a timeout, so a FIFO that
        # is replaced instead of written fails the test instead of hanging it
        fifo = tmp_path / "p"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        code, _, err = run(capsys, "cf", "--t", "1", "-o", str(fifo))
        reader.join(timeout=30)
        assert (code, err) == (0, "")
        assert not reader.is_alive()
        assert got == [run(capsys, "cf", "--t", "1")[1]]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert sorted(os.listdir(tmp_path)) == ["p"]

    def test_symlink_target_receives_the_csv(self, tmp_path, capsys):
        target, link = tmp_path / "real.csv", tmp_path / "link.csv"
        target.write_text("old\n")
        link.symlink_to(target)
        code, _, _ = run(capsys, "cf", "--t", "1", "-o", str(link))
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == run(capsys, "cf", "--t", "1")[1]
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]

    @pytest.mark.parametrize("name", ["missing/x.csv", "."])
    def test_unwritable_path_exit_1(self, tmp_path, capsys, name):
        path = str(tmp_path / name)
        code, out, err = run(capsys, "cf", "--t", "1", "-o", path)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {path!r}: ")
        assert sorted(os.listdir(tmp_path)) == []

    def test_pipe_fd_is_written_through(self, tmp_path, capsys):
        # /dev/fd/N of a pipe resolves to no path, so it must be written
        # as given, not through a .part file beside its resolved name
        r, w = os.pipe()
        try:
            code, _, err = run(capsys, "cf", "--t", "1", "-o", f"/dev/fd/{w}")
            os.close(w)
            w = None
            with os.fdopen(r) as fh:
                got = fh.read()
        finally:
            if w is not None:
                os.close(w)
        assert (code, err) == (0, "")
        assert got == run(capsys, "cf", "--t", "1")[1]

    def test_stdout_named_as_path_is_appended_to(self, tmp_path, capsys):
        # under `>> file`, -o /dev/stdout names that file: the CSV must be
        # appended through stdout, not replace the file through a .part
        out = tmp_path / "out.csv"
        out.write_text("keep\n")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nugh.__file__))}
        command = f"'{sys.executable}' -m nugh.cli cf --t 1 -o /dev/stdout >> out.csv"
        subprocess.run(command, shell=True, cwd=tmp_path, env=env, check=True)
        assert out.read_text() == "keep\n" + run(capsys, "cf", "--t", "1")[1]
        assert sorted(os.listdir(tmp_path)) == ["out.csv"]

    def test_output_dir_that_cannot_be_made_exit_1(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "afile").write_text("")
        monkeypatch.setenv("NUGH_OUTPUT_DIR", str(tmp_path / "afile" / "outs"))
        code, out, err = run(capsys, "cf", "--t", "1", "-o", "cf.csv")
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write 'cf.csv': ")


SEQUENCE = [
    ["cf", "--t", "1"],
    ["--version"],
    ["cf", "--help"],
    ["quantile"],  # --q missing: exit 2
    ["cf", "--seed", "1"],  # a removed flag: exit 2
    ["cf", "--t", "inf"],  # DomainError: exit 1
    ["cdf", "--points", "3"],
    ["cf"],
]


def test_calls_share_no_state(capsys, monkeypatch):
    # the parser is built once per process: each call of a mixed sequence
    # gives what the same argv gives alone, in a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")  # the help text's width
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nugh.__file__))}
    main(["cf", "--t", "1"])
    capsys.readouterr()
    parsers = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        parsers.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    together = [run(capsys, *argv) for argv in SEQUENCE]
    assert parsers == []
    codes = [code for code, _, _ in together]
    assert codes == [0, 0, 0, 2, 2, 1, 0, 0]
    for argv, result in zip(SEQUENCE, together):
        alone = subprocess.run([sys.executable, "-m", "nugh.cli", *argv], env=env, capture_output=True, text=True)
        assert (alone.returncode, alone.stdout, alone.stderr) == result, argv


def test_import_builds_no_parser():
    # the parser is built by the first main call, so import time does not grow
    code = (
        "import argparse; n = []; init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: n.append(1) or init(self, *a, **k)\n"
        "import nugh, nugh.cli; print(len(n))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nugh.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_import_leaves_integrate_and_optimize_unloaded():
    # each CLI call pays the import; scipy costs about 0.2 s of it, so no
    # scipy module (scipy.integrate and scipy.optimize included) is loaded
    # before a computation needs it
    code = "import sys, nugh, nugh.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nugh.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_only_what_the_command_uses():
    # each CLI call pays the import of every module it loads: the import
    # loads the exceptions and the CLI, and a subcommand the modules it uses
    code = (
        "import os, sys, nugh, nugh.cli\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'nugh')\n"
        "print(loaded(), 'numpy.polynomial' in sys.modules)\n"
        "print(set(nugh.__all__) < set(dir(nugh)), {'cli', 'montecarlo', 'special'} < set(dir(nugh)), loaded())\n"
        "nugh.cli.main(['cf', '--t', '1', '-o', os.devnull])\n"
        "print(loaded())\n"
        "nugh.cli.main(['pdf', '-o', os.devnull])\n"
        "print(loaded())\n"
        "print(nugh.montecarlo is sys.modules['nugh.montecarlo'])\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nugh.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    cli = ["nugh", "nugh.cli", "nugh.errors"]
    cf = sorted([*cli, "nugh.families", "nugh.gh", "nugh.special", "nugh.transform"])
    assert out.stdout.splitlines() == [
        f"{cli} False",
        f"True True {cli}",
        str(cf),
        str(sorted([*cf, "nugh.inversion"])),
        "True",
    ]


def test_public_names_resolve_in_their_modules(monkeypatch):
    # nugh's names are read from their defining modules on each access, so a
    # patch of the module is what nugh returns
    for name in nugh.__all__:
        value = getattr(nugh, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    namespace = {}
    exec("from nugh import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(nugh.__all__) and len(nugh.__all__) == 37
    with pytest.raises(AttributeError, match="module 'nugh' has no attribute 'no_such_name'"):
        nugh.no_such_name
    patched = object()
    monkeypatch.setattr(nugh.inversion, "pdf_grid", patched)
    assert nugh.pdf_grid is patched


def test_stdout_without_a_buffer_gets_the_text(capsys):
    # stdout is written as text, so one with no binary buffer, as under
    # redirect_stdout, gets what a captured stdout gets
    for argv in (["cf", "--t", "1"], ["sample", "--n", "1000"], ["tails"]):
        _, expected, _ = run(capsys, *argv)
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert main(argv) == 0
        assert text.getvalue() == expected, argv


def test_fit_leaves_optimize_unloaded():
    # the fit's Nelder-Mead is nugh's own, so a fit does not pay scipy.optimize's import
    code = (
        "import sys\n"
        "from nugh.families import GEOMETRIC\n"
        "from nugh.fitting import fit_mle\n"
        "from nugh.gh import GHParams\n"
        "from nugh.montecarlo import make_rng, sample_nu_gh\n"
        "x = sample_nu_gh(GEOMETRIC, GHParams(-0.5, 2.0, 0.5, 1.0, 0.0), 200, make_rng(123, 5))\n"
        "assert fit_mle(GEOMETRIC, x, starts=1).converged\n"
        "print('scipy.optimize' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nugh.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
