"""Write ``BENCH_<sha>.json``: end-to-end timings of this repository's HEAD.

    python3 bench/snapshot.py
    python3 bench/snapshot.py --against HEAD~1

Measures the committed tree of HEAD, extracted with ``git archive`` into a
temporary directory and named by its short sha, in fresh processes
(one BLAS/OpenMP thread each), ``REPEATS`` times after one untimed warm-up
of each item:

* ``import``: ``import caputofd``, timed inside the process;
* ``cli_weights``: one whole ``caputofd weights --scheme l1 --alpha 0.5
  --n 2`` process, what a CLI call that solves nothing pays;
* ``cli_golden_table1``: one whole ``caputofd golden --table 1`` process;
* ``solve_II_Right3mAlpha_<n>``: in-process ``solve`` of problem II
  (alpha 0.5) with Right3mAlpha at n = 40960 and 2^20, one process per
  repeat timing one solve after an untimed one, with its peak RSS;
* ``perfbench_<workload>``: ``perfbench/run.py --trace 0`` for every
  workload of ``BENCHMARK.json`` (seed ``SEED``, ``PERFBENCH_SECONDS`` of
  measuring), its last line's metrics;
* ``perfbench_<workload>_trace``: the ``TRACED`` per-layer metrics of one
  unrepeated ``perfbench/run.py --trace 1`` run of each workload, same
  settings: where a pass's time goes, not how long it takes;
* ``tier1``: the wall time of one unrepeated run of the Tier-1 suite
  (``pytest -q --continue-on-collection-errors``) in each tree, after
  everything else, with its summary line.

Every process gets its own empty ``PYTHONPYCACHEPREFIX``, so no run reads
bytecode another left behind (a warm ``src/caputofd/__pycache__`` alone
moves perfbench's ``setup_s``); numpy and scipy compile in every process
too, so these figures are cold starts.  Each repeated item records the
median and min of its repeats.  The settings are constants, so every BENCH
file of the trajectory is measured alike.  The file goes to the repository
root.  Since HEAD is what gets measured, the script exits 1, naming the
files, when ``src/``, ``perfbench/``, ``tests/`` or ``BENCHMARK.json`` has
uncommitted changes.

``--against REV`` measures a git revision of this repository in the same
invocation, extracted the same way into a sibling directory whose path has
the same length: perfbench's peak RSS depends on the directory a tree sits
in, not only on its code.  Every item's repeats alternate between HEAD and
REV, REV first in odd pairs, so that the machine's drift falls on both
alike.  Both BENCH files are written, each named by its short sha; an A/A
run (``--against HEAD``) labels them ``<sha>-a`` (HEAD) and ``<sha>-b``.  In
both, each repeated number carries ``change_lower``: in how many of the
``REPEATS`` pairs HEAD read lower than REV.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REPEATS = 10
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
    "relaxation.stability_check.share",
)

#: What HEAD's measurements read; uncommitted changes to these stop the run.
MEASURED = ("src", "perfbench", "tests", "BENCHMARK.json")

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
n = int(sys.argv[1])
problem = equation_catalog(0.5)[1]
solve(problem, SchemeId.Right3mAlpha, n)
t = time.perf_counter()
solve(problem, SchemeId.Right3mAlpha, n)
seconds = time.perf_counter() - t
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"seconds": seconds, "peak_rss_mb": rss}))
"""


def run(root: Path, cmd: list[str], check: bool = True) -> tuple[float, str]:
    """Run ``cmd`` from the tree ``root`` on its ``src/``, with a fresh bytecode cache; wall seconds and stdout."""
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=cache, **THREAD_PINS)
        start = time.perf_counter()
        out = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, check=check)
        return time.perf_counter() - start, out.stdout


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "runs": values}


def repeated(roots: list[Path], cmd: list[str], parse) -> list[list]:
    """Per tree, ``parse(wall, stdout)`` of ``REPEATS`` runs of ``cmd`` after one warm-up.

    The trees' runs alternate, the last tree first in odd pairs.
    """
    for root in roots:
        run(root, cmd)
    results = [[] for _ in roots]
    for i in range(REPEATS):
        for j in (reversed(range(len(roots))) if i % 2 == 0 else range(len(roots))):
            results[j].append(parse(*run(roots[j], cmd)))
    return results


def count_pairs(change, against) -> None:
    """Set ``change_lower`` on every repeated number of both reports' items, in place."""
    if isinstance(change, dict) and "runs" in change:
        lower = sum(a < b for a, b in zip(change["runs"], against["runs"]))
        change["change_lower"] = against["change_lower"] = lower
    elif isinstance(change, dict):
        for key in change.keys() & against.keys():
            count_pairs(change[key], against[key])


def resolve(rev: str) -> str:
    """The full sha of revision ``rev`` of this repository."""
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True).stdout.strip()


def checkout(sha: str, into: Path) -> None:
    """Extract commit ``sha`` of this repository into ``into``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")


def environment(root: Path, label: str, sha: str) -> dict:
    import numpy
    import scipy
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    src = root / "src"
    digest = hashlib.sha256()
    for path in sorted((src / "caputofd").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
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
    parser.add_argument("--against", metavar="REV",
                        help="a git revision to measure interleaved with HEAD")
    args = parser.parse_args(argv)
    dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no",
                            "--", *MEASURED], capture_output=True, text=True, check=True).stdout
    if dirty:
        print(f"HEAD is what gets measured, but these files have uncommitted changes:\n{dirty}",
              file=sys.stderr)
        return 1

    shas = [resolve(rev) for rev in ["HEAD"] + ([args.against] if args.against else [])]
    labels = [sha[:7] for sha in shas]
    if len(set(labels)) < len(labels):  # an A/A run
        labels = [f"{label}-{side}" for label, side in zip(labels, "ab")]
    with tempfile.TemporaryDirectory(prefix="bench-trees-") as trees:
        roots = [Path(trees, label) for label in labels]
        for sha, root in zip(shas, roots):
            checkout(sha, root)
        reports = [{"env": environment(root, label, sha), "repeats": REPEATS, "items": {}}
                   for root, label, sha in zip(roots, labels, shas)]
        items = [report["items"] for report in reports]
        py = sys.executable
        for per_tree, runs in zip(items, repeated(roots, [py, "-c", IMPORT],
                                                  lambda wall, out: float(out))):
            per_tree["import"] = {"unit": "s", **summary(runs)}
        for name, argv in (("cli_weights", ["weights", "--scheme", "l1", "--alpha", "0.5", "--n", "2"]),
                           ("cli_golden_table1", ["golden", "--table", "1"])):
            walls = repeated(roots, [py, "-m", "caputofd.cli", *argv], lambda wall, out: wall)
            for per_tree, runs in zip(items, walls):
                per_tree[name] = {"unit": "s", **summary(runs)}
        for n in (40960, 2**20):
            solves = repeated(roots, [py, "-c", SOLVE, str(n)], lambda wall, out: json.loads(out))
            for per_tree, results in zip(items, solves):
                per_tree[f"solve_II_Right3mAlpha_{n}"] = {
                    "unit": "s", **summary([r["seconds"] for r in results]),
                    "peak_rss_mb": summary([r["peak_rss_mb"] for r in results])}
        spec = json.loads((roots[0] / "BENCHMARK.json").read_text())
        for workload in (w["name"] for w in spec["workloads"]):
            cmd = [py, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
                   "--seconds", repr(PERFBENCH_SECONDS), "--trace"]
            lasts_per_tree = repeated(roots, cmd + ["0"],
                                      lambda wall, out: json.loads(out.splitlines()[-1]))
            for per_tree, lasts in zip(items, lasts_per_tree):
                entry = {"seed": SEED, "seconds": PERFBENCH_SECONDS,
                         "correct": all(last["correct"] for last in lasts)}
                for name, metric in lasts[0]["metrics"].items():
                    values = [last["metrics"][name]["value"] for last in lasts]
                    entry[name] = {"unit": metric["unit"], **summary(values)}
                per_tree[f"perfbench_{workload}"] = entry
            for per_tree, root in zip(items, roots):
                traced = json.loads(run(root, cmd + ["1"])[1].splitlines()[-1])
                per_tree[f"perfbench_{workload}_trace"] = {
                    "seed": SEED, "seconds": PERFBENCH_SECONDS, "correct": traced["correct"],
                    **{name: traced["metrics"][name] for name in TRACED}}
        for per_tree, root in reversed(list(zip(items, roots))):
            wall, out = run(root, [py, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                            check=False)
            per_tree["tier1"] = {"unit": "s", "seconds": wall,
                                 "summary": (out.strip().splitlines() or [""])[-1]}

    if len(reports) == 2:
        count_pairs(*items)
        pair = {"change": labels[0], "against": labels[1],
                "order": "interleaved, the against tree first in odd pairs"}
        for report in reports:
            report["pair"] = pair
    for report in reports:
        path = ROOT / f"BENCH_{report['env']['label']}.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
