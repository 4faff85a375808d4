"""caputofd benchmark: one workload, closed loop, every result checked.

    python3 perfbench/run.py --workload golden --seed 1 --seconds 30 --trace 0

Runs the workload in PROCESSES fresh processes one after another (one
BLAS/OpenMP thread each, caputofd imported from ./src), splitting the
measuring time evenly between them.  Each process sets up (import,
catalogs, op list, one untimed warm-up op), then times whole passes over
the seeded op list, one op at a time.  Prints every metric with its unit,
the environment, and as the last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json; ``--trace 1`` adds one traced
pass to the last process and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PROCESSES = 3
#: Hard wall-clock limit for the whole run, children included.
DEADLINE_S = 170.0

def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def environment(seed: int) -> dict:
    """Facts a later re-check needs; versions and thread pins come from the
    workload process."""
    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "caputofd").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "processes": PROCESSES,
        "platform": platform.platform(),
    }


def run_worker(args, budget: float, trace: bool, deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", repr(budget), "--trace", str(int(trace))]
    out = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=max(1.0, deadline - time.monotonic()))
    if out.returncode != 0:
        raise RuntimeError(f"workload process exited with code {out.returncode}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no result")
    return json.loads(lines[-1])


def end_to_end(runs: list[dict]) -> dict:
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "wall_s": statistics.median(w for r in runs for w in r["walls"]),
        "err_digits": statistics.median(r["err_digits"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(trace: dict, wall_s: float) -> dict:
    """Layer counts, and layer times as shares of the traced pass.

    A share is a layer's seconds over the traced pass's seconds: steadier
    than seconds on a machine whose speed drifts, and 0 (not a constant
    time) where the layer does not run.  ``trace.wall_s`` converts back.
    """
    layers, traced = trace["layers"], trace["wall_s"]
    values = {}
    for layer, (calls, points, s, child_s) in layers.items():
        values.update({f"{layer}.calls": calls, f"{layer}.points": points,
                       f"{layer}.share": s / traced,
                       f"{layer}.self_share": (s - child_s) / traced})
    values["analysis.self_share"] = sum(
        s - child_s for layer, (_, _, s, child_s) in layers.items()
        if layer.startswith("analysis.")) / traced
    values["trace.wall_s"] = traced
    values["trace.overhead_frac"] = traced / wall_s - 1.0
    return values


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time, split evenly across the processes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "caputofd" / "__init__.py").is_file():
        return fail(f"no caputofd sources under {SRC}")
    if not spec_path.is_file():
        return fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")

    deadline = start + DEADLINE_S
    runs = []
    try:
        for i in range(PROCESSES):
            trace = bool(args.trace) and i == PROCESSES - 1
            runs.append(run_worker(args, args.seconds / PROCESSES, trace, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        return fail(f"{args.workload}: {exc}")

    env = environment(args.seed)
    env.update(runs[0]["env"])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    latencies = sorted(x for r in runs for x in r["latencies"])
    e2e = end_to_end(runs)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}: {sum(len(r['walls']) for r in runs)} passes of "
          f"{runs[0]['ops_per_pass']} ops in {PROCESSES} processes; "
          f"attempted {attempted}, failed {failed}, fail_frac {failed / attempted:.4g}, "
          f"checks sharp on {runs[0]['sharp_frac']:.0%} of ops")
    for r in runs:
        for line in r["failures"]:
            print(f"  FAILED {line}")

    # The op latency median is printed, not gated: one op's cost sits on a
    # cluster edge (golden columns take 1, 50 or 100 ms), so it drifts more
    # between runs than a whole pass does.
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    beyond = sum(x > p90 for x in latencies)
    print(f"op_p50_ms {1e3 * statistics.median(latencies):.6g} ms over {len(latencies)} ops; "
          + (f"op_p90_ms {1e3 * p90:.6g} ms ({beyond} ops beyond)" if beyond >= 10
             else f"op_p90_ms not reported: {beyond} ops beyond it, fewer than 10"))

    metrics = {}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer(runs[-1]["trace"], e2e["wall_s"]) if args.trace else e2e
    for m in spec["end_to_end"]:
        print(f"{m['name']} {e2e[m['name']]:.6g} {m['unit']}")
    for m in wanted:
        value = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if args.trace:
            print(f"{m['name']} {value:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
