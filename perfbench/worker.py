"""One workload process: set up, warm up, time whole passes, optionally
run one traced pass, and print a JSON summary as the last stdout line.

Run by ``run.py``; by hand:

    PYTHONPATH=src python3 perfbench/worker.py --workload golden --seed 1 --budget 5
"""

import os
import time

_T0 = time.perf_counter()

# One BLAS/OpenMP thread, set before numpy loads: a multi-threaded BLAS
# makes the O(n^2) solve slower and its timing spread wider on a shared
# machine.
THREAD_PINS = {
    var: "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def import_library():
    import caputofd

    where = Path(caputofd.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"caputofd imported from {where}, not from {SRC}")


def run_pass(ops, failures, sharp=None):
    """Run every op once, checking each result; return (latencies, errors, failed).

    With ``sharp`` (a dict), also count per check kind the ops whose check
    rejects the same result with every error scaled by 1e3.
    """
    latencies, errors, failed = [], [], 0
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failing library call is a failed op, not a crash
            latencies.append(time.perf_counter() - t0)
            failed += 1
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - t0)
        ok, errs = op.check(result, 1.0)
        if not ok:
            failed += 1
            failures.append(f"{op.label}: check failed, errors {errs}")
        errors.extend(errs)
        if sharp is not None:
            sharp.setdefault(op.kind, 0)
            sharp[op.kind] += not op.check(result, 1e3)[0]
    return latencies, errors, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds of whole passes to time (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: after the timed passes, run one traced pass")
    args = parser.parse_args(argv)

    import_library()
    import numpy
    import scipy
    from workloads import WORKLOADS, err_digits
    from tracing import Tracer, library

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    build = WORKLOADS[args.workload]
    ops = build(library(), args.seed)
    ops[0].run()  # warm-up, untimed; it is run and checked again in every pass
    setup_s = time.perf_counter() - _T0

    failures: list[str] = []
    sharp: dict[str, int] = {}
    walls, latencies, failed = [], [], 0
    errors = None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.budget:
        lat, errs, bad = run_pass(ops, failures, None if walls else sharp)
        walls.append(sum(lat))
        latencies.extend(lat)
        failed += bad
        if errors is None:
            errors = errs
    attempted = len(latencies)
    # Self-test: each kind of check must reject a result whose error is
    # 1e3 times larger on at least one op, or it could pass vacuously.
    blunt = sorted(kind for kind, n in sharp.items() if n == 0)
    if blunt:
        raise SystemExit(f"self-test failed: {blunt} checks accept errors scaled by 1e3")

    trace = None
    if args.trace:
        tracer = Tracer()
        traced_ops = build(library(tracer), args.seed)
        tracer.reset()
        with tracer.rebound():
            lat, _, bad = run_pass(traced_ops, failures)
        attempted += len(lat)
        failed += bad
        trace = {"layers": tracer.layers, "wall_s": sum(lat)}

    print(json.dumps({
        "setup_s": setup_s,
        "walls": walls,
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "err_digits": err_digits(errors),
        "sharp_frac": sum(sharp.values()) / len(ops),
        "ops_per_pass": len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": trace,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "thread_pins": THREAD_PINS},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
