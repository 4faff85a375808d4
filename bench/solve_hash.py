"""Print the sha256 of the trajectories of 82 fixed solves.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/solve_hash.py

The solves are alpha {0.2, 0.5, 0.8} x problems {II, III, exp at D = -5} x
schemes {L1, Mid2, Right3mAlpha} x n {4095, 8256, 40960}, in that nesting
order, then II with Right3mAlpha at alpha 0.5 and n = 2^20.  The digest
covers the raw bytes of every ``SolveResult.u`` in turn, so it changes when
any value of any step moves by a bit: a change that claims to leave the
solver's output bit for bit must leave this hash as it was.  The grid sizes
straddle the near field (4096): 4095 is the plain march, and the longer
solves have no march: they run leaves and their far field from step 3.  D = -5 keeps exp on a
growing solution whose rounding is amplified.

The hash depends on OpenBLAS's thread count, which splits the leaves'
matrix-vector products and so their rounding: with one thread
(``OPENBLAS_NUM_THREADS=1``) it reads ``88d9ac8d…95aa``, and another count
can give another hash for the same code (``590ca28d…2f44`` with two threads).
"""

from __future__ import annotations

import hashlib

from caputofd import SchemeId, equation_catalog, solve

ALPHAS = (0.2, 0.5, 0.8)
LABELS = ("II", "III", "exp")
SCHEMES = (SchemeId.L1, SchemeId.Mid2, SchemeId.Right3mAlpha)
SIZES = (4095, 8256, 40960)


def solve_hash() -> str:
    digest = hashlib.sha256()
    for alpha in ALPHAS:
        problems = {p.label: p for p in equation_catalog(alpha, D=-5.0)}
        for label in LABELS:
            for scheme in SCHEMES:
                for n in SIZES:
                    digest.update(solve(problems[label], scheme, n).u.tobytes())
    problem = {p.label: p for p in equation_catalog(0.5)}["II"]
    digest.update(solve(problem, SchemeId.Right3mAlpha, 2**20).u.tobytes())
    return digest.hexdigest()


if __name__ == "__main__":
    print(solve_hash())
