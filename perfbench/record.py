"""Repeat the benchmark over seeds and summarize the spread of every metric.

    python3 perfbench/record.py --workloads grid,wide_m3 --seeds 1-10 --trace 0 \
        --out perfbench/BENCH_baseline.json

Runs ``run.py`` once per (workload, seed), one after another, with the
``run_seconds`` of ``BENCHMARK.json``.  For each metric it reports the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to the bound
``BENCHMARK.json`` sets.  ``--out`` merges the summary into a JSON record
keyed by trace mode and workload, keeping what other invocations wrote.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", required=True, help="comma list")
    ap.add_argument("--seeds", required=True, help="comma list of seeds or ranges, e.g. 1-10,42")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    section = record.setdefault("end_to_end" if args.trace == 0 else "per_layer", {})
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in parse_seeds(args.seeds):
            detail = ROOT / ".bench_out" / f"record-{workload}-{seed}-{args.trace}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", str(args.trace), "--out", str(detail)]
            t0 = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed = time.perf_counter() - t0
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            full = json.loads(detail.read_text())
            runs.append(
                {
                    "seed": seed,
                    "elapsed_s": elapsed,
                    "correct": result["correct"],
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "env": full["env"],
                    "samples": full["samples"],
                }
            )
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} in {elapsed:.1f} s", file=sys.stderr)
        stats = {name: summarize(v) for name, v in values.items()}
        for name, s in stats.items():
            bound = bounds.get(name)
            s["bound"] = bound
            flag = ""
            if bound is not None and s["spread"] is not None:
                flag = "ok" if s["spread"] < bound / 3 else ("within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"{workload:10s} {name:38s} median {s['median']:.6g}  spread {s['spread'] or 0:.4f}  {flag}")
        section[workload] = {"metrics": stats, "runs": runs}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
