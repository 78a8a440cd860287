"""pairlab benchmark: one run of one workload.

    python3 perfbench/run.py --workload {verify-suite,br-sweep,large-graph} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the directory holding src/pairlab
and BENCHMARK.json).  Load is a closed loop with one operation in flight,
from one process; BLAS keeps its default thread count.

--seconds sets the length of the timed phase, which ends on a cycle
boundary.  With --trace 1 it is not used: the run times the workload's
first cycles once untraced and once traced (see worker.py).

Each workload runs in processes of its own: SETUP_SAMPLES - 1 processes
that only set up, then one that sets up and measures.  setup_s is the
median of all set-up times; peak_rss_mb is the measuring process's peak.
Standard output ends with a report line (machine block, counts, failure
causes) and then the result line the BENCHMARK.json contract defines:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pairlab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--trace", str(args.trace)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("time budget spent before the measured run")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "pairlab" / "__init__.py").is_file():
        print(f"no pairlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        samples = [_worker(args, "setup", deadline)["setup_s"]
                   for _ in range(SETUP_SAMPLES - 1)]
        run = _worker(args, "run", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    samples.append(run["setup_s"])

    values = {
        "setup_s": statistics.median(samples),
        "ops_per_s": run["ops_per_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    if args.trace:
        values.update(run["per_layer"])
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one operation in flight, one process",
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "machine": run.pop("machine"),
        "setup_samples_s": samples,
        "ops_failed_frac": run["failed"] / run["attempted"],
        **{k: run[k] for k in ("cycles", "timed_s", "attempted", "failed", "failures",
                                    "seconds_by_op", "ops_per_s_whole_phase")},
        **({"traced": run["traced"], "per_layer_all": run["per_layer"]} if args.trace else {}),
    }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
