"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads verify-suite ...]
        [--seconds S] [--trace 0|1] [--out runs.jsonl]

Runs are sequential, one workload process at a time.  For each workload
and metric the summary gives the median over runs, the quartiles, the
spread (Q3 - Q1) / median, and the highest percentile on the worse side
that has at least ten runs beyond it, with the run count.  A metric whose
spread exceeds a third of its bound is flagged as unsteady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def tail_percentile(values, better: str, beyond: int = 10):
    """(percentile, value): the worst-side percentile with `beyond` runs
    past it, or None when there are not more than `beyond` runs."""
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values, reverse=(better == "higher"))   # best first
    pct = 100.0 * (n - beyond) / n
    return pct, ordered[n - beyond - 1]


def summarize(values, better: str, bound=None) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    out = {"runs": len(values), "median": med, "q1": q1, "q3": q3, "spread": spread,
           "tail": tail_percentile(values, better)}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = spread <= bound / 3.0
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    kinds = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
            runs.append(result)
            if args.out:
                with args.out.open("a") as fh:
                    fh.write(json.dumps({"report": report, "result": result}) + "\n")
            shown = "" if args.trace else " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {shown}",
                  file=sys.stderr, flush=True)
        summary[workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {name: {"unit": m["unit"], **summarize(
                [r["metrics"][name]["value"] for r in runs], m["better"], m.get("bound"))}
                for name, m in kinds.items()},
        }
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
