import json
import os
import subprocess
import sys

import numpy as np
import pytest

import nugh
from nugh.cli import _csv, main
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
    def test_bessel_argument_beyond_scipy_kve(self, capsys):
        # z(2e9) = 2e9 is past the 1.07e9 from which scipy's kve returns NaN
        code, out, _ = run(capsys, "cf", "--lambda", "1", "--t", "2e9")
        assert code == 0
        _, re, im = map(float, out.splitlines()[1].split(","))
        assert (re, im) == (pytest.approx(5e-10, rel=1e-7), 0.0)


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
        probe, evaluate = nugh.inversion.adaptive_cutoff, nugh.inversion.eval_cf

        def counting_probe(cf, reach):
            probes.append(reach)
            return probe(cf, reach)

        def counting_eval(cf, t):
            cf_calls.append(np.size(t))
            return evaluate(cf, t)

        monkeypatch.setattr(nugh.inversion, "adaptive_cutoff", counting_probe)
        monkeypatch.setattr(nugh.inversion, "eval_cf", counting_eval)
        code, _, _ = run(capsys, subcommand, "--family", "cheb")
        assert code == 0
        assert probes == [2**16]
        assert cf_calls == [13, 2**13 + 1]


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
    ],
)
def test_out_of_range_values_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err and err.count("\n") == 1


class TestCsv:
    def test_byte_identical_to_row_formatter(self):
        def row_csv(rows, header):
            # the per-row formatter the columnar writer replaced
            lines = [",".join(header)]
            for row in rows:
                lines.append(",".join(f"{float(v):.17g}" for v in row))
            return "\n".join(lines) + "\n"

        special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, 0.1, 1 / 3, -2.5e-17]
        rows = np.column_stack([special, special[::-1], np.arange(len(special)) * 1e15])
        rows = np.vstack([rows, make_rng(1, 0).standard_normal((200, 3)) * 10.0 ** np.arange(-8, 10, 6)])
        assert _csv(rows, ["a", "b", "c"]) == row_csv(rows, ["a", "b", "c"])
        assert _csv(rows[:, :1], ["a"]) == row_csv(rows[:, :1], ["a"])
        assert _csv(np.empty((0, 2)), ["a", "b"]) == "a,b\n"


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

    def test_inversion_range_from_exact_moments(self, capsys):
        # a wide geo-GH law whose CF-difference moments were unstable
        code, out, _ = run(
            capsys, "sample", "--family", "geo", "--lambda", "25", "--alpha", "0.2", "--beta", "0.1",
            "--delta", "5", "--mu", "1", "--method", "inversion", "--n", "1000",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 1001


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


def test_import_leaves_integrate_and_optimize_unloaded():
    # each CLI call pays the import; scipy costs about 0.2 s of it, so no
    # scipy module (scipy.integrate and scipy.optimize included) is loaded
    # before a computation needs it
    code = "import sys, nugh, nugh.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(nugh.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
