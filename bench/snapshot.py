"""Write ``BENCH_<label>.json``: end-to-end timings of this checkout.

    python3 bench/snapshot.py --label "$(git rev-parse --short HEAD)"

Measures the sources under ``src/`` beside this script, in fresh processes
(one BLAS/OpenMP thread each), ``REPEATS`` times after one untimed warm-up
of each item:

* ``import``: ``import caputofd``, timed inside the process;
* ``cli_golden_table1``: one whole ``caputofd golden --table 1`` process;
* ``solve_II_Right3mAlpha_<n>``: in-process ``solve`` of problem II
  (alpha 0.5) with Right3mAlpha at n = 40960 and 2^20, one process per n
  timing every repeat, with its peak RSS;
* ``perfbench_<workload>``: ``perfbench/run.py --trace 0`` for every
  workload of ``BENCHMARK.json`` (seed ``SEED``, ``PERFBENCH_SECONDS`` of
  measuring), its last line's metrics;
* ``perfbench_<workload>_trace``: the ``TRACED`` per-layer metrics of one
  unrepeated ``perfbench/run.py --trace 1`` run of each workload, same
  settings: where a pass's time goes, not how long it takes.

Every process gets its own empty ``PYTHONPYCACHEPREFIX``, so no run reads
bytecode another left behind (a warm ``src/caputofd/__pycache__`` alone
moves perfbench's ``setup_s``); numpy and scipy compile in every process
too, so these figures are cold starts.  Each item records the median and
min of its repeats.  The settings are constants, so every BENCH file of the
trajectory is measured alike.  The file goes to the repository root.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

REPEATS = 5
PERFBENCH_SECONDS = 6.0
SEED = 1
TRACED = (
    "relaxation.forcing.share",
    "specfun.mittag_leffler_1.calls",
    "specfun.mittag_leffler_1.share",
    "caputo.exact_caputo_cos2pix.calls",
    "caputo.exact_caputo_cos2pix.share",
    "caputo.caputo_quadrature.calls",
    "caputo.caputo_quadrature.share",
)

THREAD_PINS = {
    var: "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}

IMPORT = """
import time
t = time.perf_counter()
import caputofd
print(time.perf_counter() - t)
"""

SOLVE = """
import json, resource, sys, time
from caputofd import SchemeId, equation_catalog, solve
n, repeats = int(sys.argv[1]), int(sys.argv[2])
problem = equation_catalog(0.5)[1]
solve(problem, SchemeId.Right3mAlpha, n)
times = []
for _ in range(repeats):
    t = time.perf_counter()
    solve(problem, SchemeId.Right3mAlpha, n)
    times.append(time.perf_counter() - t)
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"times": times, "peak_rss_mb": rss}))
"""


def run(cmd: list[str]) -> tuple[float, str]:
    """Run ``cmd`` from the repository root with a fresh bytecode cache; wall seconds and stdout."""
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=cache, **THREAD_PINS)
        start = time.perf_counter()
        out = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, check=True)
        return time.perf_counter() - start, out.stdout


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "runs": values}


def repeated(cmd: list[str], parse) -> list:
    """``parse(wall, stdout)`` of ``REPEATS`` runs of ``cmd`` after one warm-up."""
    run(cmd)
    return [parse(*run(cmd)) for _ in range(REPEATS)]


def environment(label: str) -> dict:
    import numpy
    import scipy
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "caputofd").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "label": label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # The SIMD targets numpy dispatches to on this CPU: they decide the
        # last bit of numpy's power and exp, and so the golden and solve hashes.
        "numpy_cpu_dispatch": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "pycache": "a fresh empty PYTHONPYCACHEPREFIX per process",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    args = parser.parse_args(argv)

    py = sys.executable
    items = {}
    imports = repeated([py, "-c", IMPORT], lambda wall, out: float(out))
    items["import"] = {"unit": "s", **summary(imports)}
    golden = repeated([py, "-m", "caputofd.cli", "golden", "--table", "1"],
                      lambda wall, out: wall)
    items["cli_golden_table1"] = {"unit": "s", **summary(golden)}
    for n in (40960, 2**20):
        _, out = run([py, "-c", SOLVE, str(n), str(REPEATS)])
        result = json.loads(out)
        items[f"solve_II_Right3mAlpha_{n}"] = {
            "unit": "s", **summary(result["times"]), "peak_rss_mb": result["peak_rss_mb"]}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        cmd = [py, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", repr(PERFBENCH_SECONDS), "--trace"]
        lasts = repeated(cmd + ["0"], lambda wall, out: json.loads(out.splitlines()[-1]))
        entry = {"seed": SEED, "seconds": PERFBENCH_SECONDS,
                 "correct": all(last["correct"] for last in lasts)}
        for name, metric in lasts[0]["metrics"].items():
            values = [last["metrics"][name]["value"] for last in lasts]
            entry[name] = {"unit": metric["unit"], **summary(values)}
        items[f"perfbench_{workload}"] = entry
        traced = json.loads(run(cmd + ["1"])[1].splitlines()[-1])
        items[f"perfbench_{workload}_trace"] = {
            "seed": SEED, "seconds": PERFBENCH_SECONDS, "correct": traced["correct"],
            **{name: traced["metrics"][name] for name in TRACED}}

    path = ROOT / f"BENCH_{args.label}.json"
    report = {"env": environment(args.label), "repeats": REPEATS, "items": items}
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
