"""Run every workload untraced and traced and print all metrics by name.

    python3 perfbench/report.py --seed 1 [--workloads tables sample] [--save-baseline]

For each workload this prints the end-to-end metrics with their units,
the workload's own request metrics, the oracle verdict and failure
ledger, the warning counters, the traced run's per-layer metrics (absent
targets marked) and the tracing overhead: traced wall_s minus untraced
wall_s.  ``--save-baseline`` stores both results under
``perfbench/baseline/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )  # fmt: skip
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2])["details"]
    return result


def show(workload, plain, traced):
    d = plain["details"]
    print(f"== {workload}  seed={d['seed']}  attempted={plain['attempted']}  failed={plain['failed']}  correct={plain['correct']}")
    for name, m in plain["metrics"].items():
        print(f"  {name:<24} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'wall_s':<24} {d['end_to_end']['wall_s']:>14.6g} s  (wall clock, not gated)")
    for name, value in d["raw"].items():
        if not isinstance(value, dict):
            print(f"  raw.{name:<20} {value:>14.6g} s  (wall clock, not gated)")
    for name, value in d["workload_metrics"].items():
        print(f"  {workload}.{name:<17} {value:>14.6g}")
    for name, value in d["warnings"].items():
        print(f"  {name:<24} {value:>14d} count")
    for entry in d["ledger"]:
        mark = "known" if entry["known_defect"] else "NEW"
        print(f"  failed [{mark}] {entry['tag']}: {entry['error'][:160]}")
    t = traced["details"]
    overhead = t["per_layer"]["trace.wall_s"] - d["end_to_end"]["wall_s"]
    print(f"  trace overhead: {overhead:.3f} s ({overhead / d['end_to_end']['wall_s']:.1%} of wall_s); "
          f"traced correct={traced['correct']}")  # fmt: skip
    for pair in t["traced_vs_untraced"]:
        if not pair["identical"]:
            print(f"  traced output differs: {pair['request']}")
    absent = set(t["absent"])
    for name, m in traced["metrics"].items():
        note = "  absent" if any(name.startswith(a + ".") for a in absent) else ""
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{note}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    p.add_argument("--save-baseline", action="store_true")
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for workload in args.workloads:
        plain = run_once(workload, args.seed, seconds, 0)
        traced = run_once(workload, args.seed, seconds, 1)
        show(workload, plain, traced)
        if args.save_baseline:
            path = HERE / "baseline" / f"{workload}.json"
            path.write_text(json.dumps({"untraced": plain, "traced": traced}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
