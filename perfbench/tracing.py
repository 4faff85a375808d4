"""Outside-in layer tracing.

Spans are recorded only around callables that sit on a layer boundary:
the library calls the benchmark makes itself, the forcing and exact
solution it hands to the solver, and public names that caputofd modules
look up in their own namespace at call time (rebound for the traced pass
only, then restored).  Nothing inside caputofd is edited.

Each layer keeps four numbers: calls, points (the size of the argument
named by ``points_arg``, so a forcing evaluated on a whole grid counts
every grid point), seconds inside the call, and seconds inside wrapped
calls nested directly under it.  A layer's self time is the difference.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from types import SimpleNamespace

import numpy as np

import caputofd
from caputofd import analysis, caputo, relaxation

#: Library calls the workloads make, keyed by their public name in
#: ``caputofd``, with the layer each is traced as.
LIBRARY_CALLS = {
    "run_golden": "analysis.run_golden",
    "approximation_ladder": "analysis.approximation_ladder",
    "solve": "relaxation.solve",
    "stability_check": "relaxation.stability_check",
    "build_weights": "schemes.build_weights",
    "validate_weights": "schemes.validate_weights",
    "sample_path": "caputo.sample_path",
    "apply_stencil": "caputo.apply_stencil",
}

#: Public names rebound inside the module that calls them: (module,
#: attribute, layer).  A name a later refactor removes is skipped, and its
#: layer then reads zero.
MODULE_BINDINGS = (
    (caputo, "mittag_leffler_1", "specfun.mittag_leffler_1"),
    (relaxation, "exact_caputo_cos2pix", "caputo.exact_caputo_cos2pix"),
    (relaxation, "build_weights", "schemes.build_weights"),
    (analysis, "solve", "relaxation.solve"),
    (analysis, "build_weights", "schemes.build_weights"),
    (analysis, "sample_path", "caputo.sample_path"),
    (analysis, "apply_stencil", "caputo.apply_stencil"),
    (analysis, "fourth_order_eval", "caputo.fourth_order_eval"),
    (analysis, "caputo_quadrature", "caputo.caputo_quadrature"),
)

#: Layers of the callables inside a RelaxationProblem the benchmark passes in.
PROBLEM_LAYERS = ("relaxation.forcing", "relaxation.exact")


class Tracer:
    """Per-layer counters fed by wrapped callables; single-threaded."""

    def __init__(self) -> None:
        self.layers: dict[str, list] = {}  # name -> [calls, points, s, child_s]
        self.reset()
        self._stack: list[list[float]] = []
        self._enabled = True

    def reset(self) -> None:
        """Zero every layer; all known layers are listed, run or not."""
        names = (*LIBRARY_CALLS.values(), *(layer for _, _, layer in MODULE_BINDINGS),
                 *PROBLEM_LAYERS)
        self.layers = {name: [0, 0, 0.0, 0.0] for name in names}

    @contextlib.contextmanager
    def paused(self):
        self._enabled = False
        try:
            yield
        finally:
            self._enabled = True

    def wrap(self, layer: str, fn, points_arg: int | None = None):
        """Return ``fn`` wrapped in a span named ``layer``; array-safe."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._enabled:
                return fn(*args, **kwargs)
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats = self.layers[layer]
                stats[0] += 1
                if points_arg is not None:
                    stats[1] += int(np.size(args[points_arg]))
                stats[2] += dt
                stats[3] += children[0]

        return traced

    def wrap_problem(self, problem: relaxation.RelaxationProblem):
        """Copy of ``problem`` whose forcing and exact solution are traced."""
        changes = {"forcing": self.wrap("relaxation.forcing", problem.forcing, 0)}
        if problem.exact is not None:
            changes["exact"] = self.wrap("relaxation.exact", problem.exact, 0)
        # The copy re-runs the problem's own validation; keep it out of the counts.
        with self.paused():
            return dataclasses.replace(problem, **changes)

    @contextlib.contextmanager
    def rebound(self):
        """Rebind :data:`MODULE_BINDINGS` plus the solver catalog, then restore."""
        original_catalog = analysis.equation_catalog

        def traced_catalog(*args, **kwargs):
            return [self.wrap_problem(p) for p in original_catalog(*args, **kwargs)]

        bindings = [(m, a, self.wrap(layer, getattr(m, a)))
                    for m, a, layer in MODULE_BINDINGS if hasattr(m, a)]
        bindings.append((analysis, "equation_catalog", traced_catalog))
        saved = []
        try:
            for module, attr, replacement in bindings:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, replacement)
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
        if any(getattr(m, a) is not orig for m, a, orig in saved):
            raise RuntimeError("a rebound library name was not restored")


def library(tracer: Tracer | None = None) -> SimpleNamespace:
    """The library calls the workloads make, traced when ``tracer`` is given.

    ``problem`` adapts a RelaxationProblem the benchmark builds before it
    hands it to the solver: identity untraced, forcing/exact wrapped traced.
    """
    calls = {name: getattr(caputofd, name) for name in LIBRARY_CALLS}
    if tracer is None:
        return SimpleNamespace(problem=lambda p: p, **calls)
    calls = {name: tracer.wrap(LIBRARY_CALLS[name], fn) for name, fn in calls.items()}
    return SimpleNamespace(problem=tracer.wrap_problem, **calls)
