"""nugh benchmark: one seeded, closed-loop workload per run.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 45 --trace 0

One client sends the workload's requests back to back in this process,
through ``nugh.cli.main(argv)`` (writing with ``-o`` into a scratch
directory) or, for the Chebyshev random-sum identity, through
``nugh.random_sum_sample``.  BLAS/OpenMP are pinned to one thread.  After
each request, untimed, its output is checked against the independent
oracle in ``oracle.py``.  The last stdout line is the result object; the
line before it holds the per-request details, the failure ledger and the
environment, which are also written under ``.perfbench/`` with the spans
of a traced run.  ``--trace 1`` installs ``tracer.py`` and reports the
per-layer metrics instead of the end-to-end ones.

Run from the root of a nugh checkout; the library is imported from its
``src`` directory.
"""

from __future__ import annotations

import argparse
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("tables", "sample")
SETUP_SUBPROCESSES = 5
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import nugh, nugh.cli; t = time.perf_counter() - t; "
    f"sys.path.insert(0, {str(HERE)!r}); import run; print(t, run.speed_probe())"
)
# The time of one speed probe that defines the reference speed.  Timed
# metrics are scaled by PROBE_REF_S over the probe times measured next to
# them, so that a slower or faster machine, or a shared host whose speed
# drifts during a run, reads the same work as the same seconds.
PROBE_REF_S = 0.005
PROBE_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    # the request list is fixed per seed, so the run length is only recorded
    p.add_argument("--seconds", type=int, default=45)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_nugh():
    """Import nugh from the checkout's src; returns the import seconds."""
    if not (SRC / "nugh" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no nugh sources under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import nugh
    import nugh.cli  # noqa: F401

    seconds = time.perf_counter() - start
    if Path(nugh.__file__).resolve().parent != (SRC / "nugh").resolve():
        raise SystemExit(f"benchmark: imported nugh from {nugh.__file__}, not from {SRC}")
    return seconds


def speed_probe():
    """Median seconds of a fixed mix of interpreter, numpy and scipy work
    that does not touch nugh; it follows the machine's current speed."""
    import numpy as np
    from scipy.special import kve

    x = np.linspace(0.1, 10.0, 8192)
    times = []
    for _ in range(PROBE_REPEATS + 1):  # the first, untimed, warms the FFT plan cache
        start = time.perf_counter()
        s = 0
        for i in range(40_000):
            s += i * i
        for _ in range(4):
            kve(1.5, x)
            np.fft.rfft(x)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:])


def setup_samples(first):
    """(import seconds, probe seconds) of the in-process import and of
    fresh interpreters."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    samples = [(first, speed_probe())]
    for _ in range(SETUP_SUBPROCESSES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(tuple(float(v) for v in out.stdout.strip().splitlines()[-1].split()))
    return samples


def environment():
    import numpy
    import scipy

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
    }


def _warning_class(w):
    from scipy.integrate import IntegrationWarning

    if issubclass(w.category, IntegrationWarning):
        return "integration"
    text = str(w.message)
    if issubclass(w.category, RuntimeWarning) and any(
        key in text for key in ("overflow", "underflow", "divide by zero", "invalid value")
    ):
        return "floating_point"
    return "other"


class Client:
    """Runs requests back to back and keeps their outputs for checking."""

    def __init__(self, scratch):
        self.scratch = scratch
        self.count = 0

    def execute(self, req, extra_argv=(), stream_offset=0):
        """Returns (seconds, output or None, error or None, warnings)."""
        import nugh
        import nugh.cli

        self.count += 1
        stderr = io.StringIO()
        out_path = self.scratch / f"out-{self.count}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                try:
                    if req.argv is not None:
                        code = nugh.cli.main([*req.argv, *extra_argv, "-o", str(out_path)])
                        output, error = None, None
                        if code != 0:
                            error = f"exit {code}: {stderr.getvalue().strip()}"
                    else:
                        c = req.call
                        output = nugh.random_sum_sample(
                            nugh.CHEBYSHEV,
                            1.0 / c["order"] ** 2,
                            2,
                            nugh.montecarlo.sample_hsecant,
                            c["n"],
                            nugh.make_rng(c["seed"], c["stream"] + stream_offset),
                        )
                        error = None
                except Exception as exc:  # the request boundary: record and go on
                    output, error = None, f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - start
        if req.argv is not None and error is None:
            output = out_path.read_text(encoding="utf-8") if req.kind not in ("sample",) else out_path
        return seconds, output, error, caught

    def discard(self):
        for path in self.scratch.iterdir():
            path.unlink()


def run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first_import = import_nugh()
    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads

    setup = setup_samples(first_import)
    work_dir = ROOT / ".perfbench"
    scratch = work_dir / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        requests = workloads.requests_for(args.workload, args.seed, scratch)
        client = Client(scratch / "out")
        client.scratch.mkdir()
        known = json.loads((HERE / "known_defects.json").read_text())[args.workload]
        checker = workloads.Checker()

        tr = None
        untraced = {}
        if args.trace:
            for req in pair_requests(requests):
                untraced[id(req)] = _fingerprint(client.execute(req))
            client.discard()
            tr = tracing.install(tracing.Tracer())
        try:
            records, warn_counts = measure(requests, client, checker, fingerprint=untraced.keys())
        finally:
            if tr is not None:
                tr.uninstall()
        identical = None
        if args.trace:
            identical = [
                {"request": r["req"].describe(), "identical": r["fingerprint"] == untraced[id(r["req"])]}
                for r in records
                if "fingerprint" in r
            ]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = summarize(args, spec, records, setup, peak_rss_mb, warn_counts, known, tr, identical)
        details_path = work_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        details = result.pop("details")
        details_path.write_text(json.dumps(details, indent=1, default=float) + "\n")
        if tr is not None:
            spans_path = work_dir / f"{args.workload}-seed{args.seed}-spans.jsonl"
            with spans_path.open("w") as fh:
                for span in tr.spans:
                    fh.write(json.dumps(span) + "\n")
        print(json.dumps({"details": details}, default=float))
        print(json.dumps(result))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


def measure(requests, client, checker, fingerprint=()):
    """Send the requests back to back, checking each output untimed.

    Returns one record per request and the warning counts; requests whose
    id is in ``fingerprint`` also keep their output's fingerprint.
    """
    import workloads

    records = []
    warn_counts = {"integration": 0, "floating_point": 0, "other": 0}
    for req in requests:
        before = speed_probe()
        executed = client.execute(req)
        probe_s = math.sqrt(before * speed_probe())
        seconds, output, error, caught = executed
        for w in caught:
            warn_counts[_warning_class(w)] += 1
        record = {"req": req, "seconds": seconds, "ref_seconds": seconds * PROBE_REF_S / probe_s, "warnings": len(caught)}
        if id(req) in fingerprint:
            record["fingerprint"] = _fingerprint(executed)
        record["error_type"], record["worst"] = _error_type(error), None
        if error is None:
            try:
                miss = checker.check(req, output, _rerunner(client, req))
            except Exception as exc:  # a broken output must not stop the run
                miss = workloads.Miss(f"unreadable output ({type(exc).__name__}: {exc})")
            if miss is not None:
                error, record["error_type"], record["worst"] = "oracle: " + miss.reason, "oracle", miss.worst
        record["error"] = error
        record["rows"] = _rows(req, output) if error is None else 0
        records.append(record)
        client.discard()
    return records, warn_counts


def _error_type(error):
    """The exception type of a failed request: the name a raised exception
    carries, or the ``[Name]`` the CLI prints on a non-zero exit."""
    if error is None:
        return None
    match = re.match(r"exit \d+: [^\[]*\[(\w+)\]", error) or re.match(r"(\w+): ", error)
    return match.group(1) if match else error.split(":", 1)[0]


def excused(record, known):
    """Whether a failed request is a defect the seed commit already had:
    the same exception type, or an oracle miss no larger than the worst
    measured there.  Any other failure of a known tag makes ``correct``
    false."""
    entry = known.get(record["req"].tag)
    if entry is None:
        return False
    if "raises" in entry:
        return record["error_type"] == entry["raises"]
    return record["error_type"] == "oracle" and record["worst"] <= entry["oracle_worst"]


def pair_requests(requests):
    """One request per kind for the traced/untraced identity check: the
    last of each kind, a seeded instance rather than a default-flag one."""
    last = {}
    for req in requests:
        last[req.kind] = req
    return list(last.values())


def _fingerprint(executed):
    _, output, error, _ = executed
    if isinstance(output, Path):
        output = output.read_bytes()
    elif output is not None and not isinstance(output, str):
        output = output.tobytes()
    return (output, error)


def _rerunner(client, req):
    def rerun():
        if req.argv is not None:
            _, output, error, _ = client.execute(req, extra_argv=("--stream-id", "1"))
        else:
            _, output, error, _ = client.execute(req, stream_offset=1000)
        if error is not None:
            raise RuntimeError(f"repeat on a fresh stream failed: {error}")
        return output

    return rerun


def _rows(req, output):
    if req.kind == "random_sum":
        return int(output.size)
    if req.kind == "sample":
        with open(output, "rb") as fh:
            return sum(1 for _ in fh) - 1
    if req.kind in ("fit", "check", "tails"):
        return 1
    return output.count("\n") - 1


def _median(values):
    return statistics.median(values) if values else 0.0


def _geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _declared(declared, values):
    """The metrics ``BENCHMARK.json`` declares, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def summarize(args, spec, records, setup, peak_rss_mb, warn_counts, known, tr, identical):
    attempted = len(records)
    failed = [r for r in records if r["error"] is not None]
    unexpected = [r for r in failed if not excused(r, known)]
    by_kind = {}
    for r in records:
        by_kind.setdefault(r["req"].kind, []).append(r)
    kind_medians = {k: _median([r["ref_seconds"] for r in rs]) for k, rs in by_kind.items()}
    raw_kind_medians = {k: _median([r["seconds"] for r in rs]) for k, rs in by_kind.items()}
    wall_s = sum(r["seconds"] for r in records)
    end_to_end = {
        "setup_s": statistics.median(t * PROBE_REF_S / p for t, p in setup),
        "wall_s": wall_s,
        "kind_median_s": _geomean(kind_medians.values()),
        "peak_rss_mb": peak_rss_mb,
        "ok_share": (attempted - len(failed)) / attempted,
    }
    workload_metrics = _workload_metrics(args.workload, by_kind, len(failed) / attempted)
    correct = not unexpected and (identical is None or all(p["identical"] for p in identical))
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "setup_samples_s": setup,
        "end_to_end": end_to_end,
        "raw": {
            "setup_s": statistics.median(t for t, _ in setup),
            "kind_median_s": _geomean(raw_kind_medians.values()),
            "kind_median_s_by_kind": raw_kind_medians,
            "probe_s": statistics.median(r["seconds"] / r["ref_seconds"] * PROBE_REF_S for r in records),
        },
        "workload_metrics": workload_metrics,
        "kind_median_s": kind_medians,
        "warnings": {f"warnings.{k}": v for k, v in warn_counts.items()},
        "ledger": [
            {
                "request": r["req"].describe(),
                "tag": r["req"].tag,
                "error": r["error"],
                "error_type": r["error_type"],
                "worst": r["worst"],
                "known_defect": excused(r, known),
            }
            for r in failed
        ],
        "requests": [
            {
                "tag": r["req"].tag,
                "seconds": r["seconds"],
                "ref_seconds": r["ref_seconds"],
                "ok": r["error"] is None,
                "warnings": r["warnings"],
            }
            for r in records
        ],
        "environment": environment(),
    }
    if tr is None:
        metrics = _declared(spec["end_to_end"], end_to_end)
    else:
        import tracer as tracing

        layer = tracing.layer_metrics(tr)
        layer.update(details["warnings"])
        layer["trace.wall_s"] = wall_s
        layer["trace.spans"] = len(tr.spans) + tr.dropped_spans
        metrics = _declared(spec["per_layer"], layer)
        details["per_layer"] = layer
        details["absent"] = tr.absent
        details["binding_sites"] = dict(tr.sites)
        details["failures_by_type"] = {k: dict(v) for k, v in tr.failures.items()}
        details["traced_vs_untraced"] = identical
        details["dropped_spans"] = tr.dropped_spans
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
        "details": details,
    }


def _workload_metrics(workload, by_kind, failed_share):
    """Per-kind metrics of one workload (reported in the details, not gated)."""

    def med(kinds, per=lambda r: 1):
        return _median([r["seconds"] / per(r) for k in kinds for r in by_kind.get(k, [])])

    out = {"failed_share": failed_share}
    if workload == "tables":
        out["cdf_point_s"] = med(("cdf", "cdf_default"), lambda r: _argv_count(r["req"], "--points", 201))
        out["quantile_s"] = med(("quantile", "quantile_default"), _q_count_of)
        out["table_s"] = med(("cf", "cf_closed", "pdf", "tails"))
    else:
        samples = by_kind.get("sample", [])
        secs = sum(r["seconds"] for r in samples)
        out["draws_per_s"] = sum(r["rows"] for r in samples) / secs if secs else 0.0
        out["check_s"] = med(("check",))
        out["random_sum_s"] = med(("random_sum",))
        out["fit_s"] = med(("fit",))
    return out


def _argv_count(req, flag, default):
    argv = req.argv
    return int(argv[argv.index(flag) + 1]) if flag in argv else default


def _q_count_of(record):
    argv = record["req"].argv
    return len(argv) - argv.index("--q") - 1


def main(argv=None):
    args = parse_args(argv)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
