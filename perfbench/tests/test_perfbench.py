"""Tests of the benchmark itself: determinism of the traced counts,
seed sensitivity of the request lists, tracer robustness, the recorded
environment and the oracle.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_nugh()

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MINI_TAGS = {"cf/geo/nig", "cf_closed/cheb/gh2.5", "pdf/cheb/nig/2^16", "cdf/geo/nig", "quantile/geo/nig", "tails/geo/nig/2^16"}
PINNED = ("transform.cf.points", "inversion.pdf_grid.fft_points", "inversion.quad.integrand_evals", "fitting.minimize.nfev")


def _mini_list(seed, data_dir):
    reqs = [r for r in workloads.tables_requests(seed, 1) if r.tag in MINI_TAGS]
    return reqs + workloads.fit_requests(data_dir)[1:]


def _traced(reqs, out_dir):
    out_dir.mkdir()
    tr = tracer.install(tracer.Tracer())
    try:
        records, _ = run.measure(reqs, run.Client(out_dir), workloads.Checker(), fingerprint={id(r) for r in reqs})
    finally:
        tr.uninstall()
    return tracer.layer_metrics(tr), records


def test_traced_counts_repeat_and_outputs_match_untraced(tmp_path):
    reqs = _mini_list(11, tmp_path)
    (tmp_path / "plain").mkdir()
    plain, _ = run.measure(reqs, run.Client(tmp_path / "plain"), workloads.Checker(), fingerprint={id(r) for r in reqs})
    first, traced = _traced(reqs, tmp_path / "a")
    second, _ = _traced(reqs, tmp_path / "b")
    for name in PINNED:
        assert first[name] > 0, name
    counts = {k: v for k, v in first.items() if not k.endswith("self_s")}
    assert counts == {k: v for k, v in second.items() if not k.endswith("self_s")}
    for a, b in zip(plain, traced):
        assert a["fingerprint"] == b["fingerprint"], a["req"].tag
        assert a["error"] is None, (a["req"].tag, a["error"])


def test_second_seed_changes_every_request_list(tmp_path):
    lists = {}
    for seed in (1, 2):
        data = tmp_path / str(seed)
        data.mkdir()
        lists[seed] = [
            [r.describe() for r in workloads.tables_requests(seed, 1)],
            [r.describe() for r in workloads.sample_requests(seed, data)],
        ]
    for one, two in zip(lists[1], lists[2]):
        assert one != two
    assert [r.describe() for r in workloads.tables_requests(1, 1)] == lists[1][0]


def test_every_binding_site_is_patched_and_restored():
    import nugh
    import nugh.inversion

    original = nugh.inversion.pdf_grid
    tr = tracer.install(tracer.Tracer())
    try:
        sites = set(tr.sites["inversion.pdf_grid"])
        assert {"nugh.inversion.pdf_grid", "nugh.cli.pdf_grid", "nugh.fitting.pdf_grid", "nugh.montecarlo.pdf_grid"} <= sites
        assert nugh.cli.pdf_grid is not original
        assert tr.absent == []
    finally:
        tr.uninstall()
    assert nugh.cli.pdf_grid is original and nugh.fitting.pdf_grid is original


def test_vanished_target_is_reported_absent():
    tr = tracer.Tracer()
    tr.patch_function("inversion.gone", "nugh.inversion", "no_such_function")
    tr.patch_method("fitting.gone", "nugh.fitting", "NoSuchClass", "grid_for")
    tr.patch_function("missing.module", "nugh.no_such_module", "f")
    assert tr.absent == ["inversion.gone", "fitting.gone", "missing.module"]
    assert tracer.layer_metrics(tr)["fitting.grid.useful_ratio"] == 0.0


def test_environment_is_recorded():
    env = run.environment()
    for key in ("python", "numpy", "scipy", "nproc", "cpu_model", "threads"):
        assert env[key] is not None, key
    assert env["threads"]["OMP_NUM_THREADS"] == "1"


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = set(tracer.layer_metrics(tracer.Tracer()))
    named = {m["name"] for m in spec["per_layer"]}
    assert {n for n in named if not n.startswith(("warnings.", "trace."))} == layer


def test_oracle_mixing_laws_and_mass():
    t = np.linspace(1e-4, 60.0, 600_001)
    for lam in (0.3, 1.0, 4.0):
        lt = np.trapezoid(np.exp(-lam * t) * oracle.exit_time_density(t), t)
        assert abs(lt - 1.0 / math.cosh(math.sqrt(2 * lam))) < 1e-7
    for family in ("geo", "cheb"):
        mix = oracle.MixtureNIG(family, 2.0, 0.5, 1.0, 0.1)
        lo, mid, hi = mix.cdf(np.array([-200.0, 0.0, 200.0]))
        assert lo == 0.0 and abs(hi - 1.0) < 1e-9 and 0.2 < mid < 0.5
        # density of the mixture agrees with a direct T-integral at one point
        from scipy.integrate import quad

        direct = quad(lambda s: oracle.mixing_density(family, np.array([s]))[0] * oracle.nig_pdf(2.0, 2.0, 0.5, s, 0.1 * s), 0, 60, limit=400)[0]
        assert abs(mix.pdf(np.array([2.0]))[0] / direct - 1) < 1e-9


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_known_defects_name_real_tags_and_what_they_excuse(workload, tmp_path):
    known = json.loads((HERE / "known_defects.json").read_text())[workload]
    tags = {r.tag for r in workloads.requests_for(workload, 1, tmp_path)}
    assert set(known) <= tags
    for entry in known.values():
        assert len(set(entry) & {"raises", "oracle_worst"}) == 1 and entry["note"], entry


def test_known_tag_fails_correctness_with_another_error_or_a_larger_miss():
    known = {
        "pdf/cheb/default": {"raises": "TruncationError", "note": ""},
        "pdf/geo/nig/2^16": {"oracle_worst": 0.1, "note": ""},
    }

    def record(tag, error):
        req = workloads.Request("pdf", tag, ["pdf"])
        worst = None
        if isinstance(error, workloads.Miss):
            error, worst = "oracle: " + error.reason, error.worst
        return {"req": req, "error": error, "error_type": run._error_type(error), "worst": worst}

    truncation = "exit 2: numerical error [TruncationError]: pdf_grid: grid reaches only t=214.466 < cutoff 512"
    assert run.excused(record("pdf/cheb/default", truncation), known)
    assert not run.excused(record("pdf/cheb/default", "exit 2: numerical error [AliasError]: aliased"), known)
    assert not run.excused(record("pdf/cheb/default", workloads.Miss("rows off", 0.5)), known)
    assert run.excused(record("pdf/geo/nig/2^16", workloads.Miss("rows off", 0.05)), known)
    assert not run.excused(record("pdf/geo/nig/2^16", workloads.Miss("rows off", 5.0)), known)
    assert not run.excused(record("pdf/geo/nig/2^16", workloads.Miss("not finite")), known)
    assert not run.excused(record("pdf/geo/nig/2^16", "RangeError: cutoff"), known)
    assert not run.excused(record("pdf/geo/gh-3/2^16", workloads.Miss("rows off", 0.05)), known)


def test_sorted_cdf_matches_direct_cdf_and_ks_sees_a_shift():
    rng = np.random.default_rng(5)
    for family in ("geo", "cheb"):
        mix = oracle.MixtureNIG(family, 2.0, 0.4, 1.0, 0.1)
        x = np.sort(rng.standard_normal(4000))
        x = np.concatenate([x, [-1e-9, 1e-9]])
        x.sort()
        assert np.max(np.abs(mix.cdf_sorted(x) - mix.cdf(x))) < 1e-9
    # a 0.01 location shift in a 10^6-row sample is above the level-0.001
    # limit, and the evaluated order statistics see it
    mix = oracle.MixtureNIG("cheb", 2.0, 0.0, 1.0, 0.0)
    lo, hi = mix.support()
    grid = np.linspace(lo, hi, 20001)
    u = np.sort(rng.random(1_000_000))
    draws = np.interp(u, mix.cdf(grid), grid)
    shifted = draws + 0.01
    assert workloads._ks_verdict(oracle.ks_distance(shifted, mix.cdf_sorted, workloads.KS_EVAL_POINTS), shifted.size)
