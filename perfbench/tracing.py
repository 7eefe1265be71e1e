"""Outside-in tracing of the minnet package for the benchmark's traced runs.

`instrument(tracer)` replaces public functions and methods of the package
modules with wrappers that time each call and count work done, and restores
them on exit.  Nothing under ``src/`` is changed.  Every span is accounted
on the fly, so memory stays flat however many calls a run makes:

* ``tracer.calls[key]``      number of calls of every function mapped to key;
* ``tracer.inclusive[key]``  seconds from entry to exit of the outermost call
                             of key (nested calls of the same key are not
                             counted twice);
* ``tracer.self_time[key]``  duration minus the time covered by child spans.

A key is ``<layer>.<name>`` and the layer is the package module.  Several
functions can share a key (``minimal.weierstrass`` covers the iso and asym
builders).  ``Isometry.compose`` and ``Isometry.distance`` run hundreds of
thousands of times per orbit, so they are counted without a span; their time
falls into the self time of the caller.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("holomorphic", "minimal", "net", "mobius", "reflection", "bvp", "cli")

# module -> {attribute (or Class.method): span key}; the functions the CLI
# reaches, so that each layer's self time excludes the layers it calls.
SPANS = {
    "holomorphic": {
        "power_function": "holomorphic.power_function",
        "read_grid": "holomorphic.read_grid",
        "write_grid": "holomorphic.write_grid",
        "validate_holomorphic": "holomorphic.validate",
        "HoloGrid.__post_init__": "holomorphic.grid_init",
    },
    "minimal": {
        "weierstrass_isothermic": "minimal.weierstrass",
        "weierstrass_asymptotic": "minimal.weierstrass",
        "gauss_map": "minimal.gauss_map",
        "tangent_normals": "minimal.tangent_normals",
        "propagate_normals": "minimal.propagate_normals",
        "is_asymptotic": "minimal.is_asymptotic",
        "mixed_area": "minimal.mixed_area",
        "quad_curvatures": "minimal.quad_curvatures",
    },
    "net": {
        "write_net": "net.write",
        "read_net": "net.read",
        "net_to_json": "net.net_to_json",
        "json_to_bundle": "net.json_to_bundle",
        "is_circular": "net.is_circular",
        "is_isothermic": "net.is_isothermic",
        "are_parallel_meshes": "net.parallel",
        "planarity_residual": "net.planarity_residual",
    },
    "mobius": {
        "fit_plane": "mobius.fit_plane",
        "fit_plane_through_origin": "mobius.fit_plane_through_origin",
        "fit_line": "mobius.fit_line",
        "stereographic_lift": "mobius.stereographic_lift",
    },
    "reflection": {
        "analyze_boundary_isothermic": "reflection.boundary",
        "analyze_boundary_asymptotic": "reflection.boundary",
        "reflect_isothermic": "reflection.extend",
        "rotate_extend_asymptotic": "reflection.extend",
        "close_group": "reflection.close_group",
        "build_orbit": "reflection.build_orbit",
        "SymmetryOrbit.closure_residual": "reflection.closure_residual",
    },
    "bvp": {
        "solve_knoid": "bvp.solve",
        "solve_platonic": "bvp.solve",
        "levenberg_marquardt": "bvp.lm",
    },
    "cli": {
        "main": "cli.main",
        "verify_pair": "cli.verify_pair",
        "verify_net_file": "cli.verify_net_file",
        "export_obj": "cli.export",
        "export_net_obj": "cli.export",
        "export_orbit_obj": "cli.export",
    },
}

# Counted without a span: (module, Class.method, counter key).
COUNTED = (
    ("mobius", "Isometry.compose", "mobius.isometry_compose"),
    ("mobius", "Isometry.distance", "mobius.isometry_distance"),
)


class Tracer:
    """Per-key call counts, inclusive and self seconds, and work counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._children: list[float] = []   # child time of each open span
        self._depth: Counter = Counter()

    def wrap(self, fn, key: str, after=None):
        """Span wrapper; after(result, args, kwargs) runs on normal return."""
        clock, children, depth = self.clock, self._children, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth[key] += 1
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self.self_time[key] += duration - children.pop()
                if children:
                    children[-1] += duration
                depth[key] -= 1
                if not depth[key]:
                    self.inclusive[key] += duration
                self.calls[key] += 1
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def count(self, fn, key: str):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def layer_self(self, layer: str) -> float:
        return sum(t for key, t in self.self_time.items()
                   if key.split(".", 1)[0] == layer)


def differs_in_one(x, reference) -> bool:
    """True when x and reference differ in exactly one coordinate."""
    if reference is None or np.shape(x) != np.shape(reference):
        return False
    return int(np.count_nonzero(np.asarray(x) != reference)) == 1


def _lm_wrapper(tracer: Tracer, lm):
    """Wrap levenberg_marquardt and the residual and convergence callbacks.

    A residual call is a finite-difference probe when its x differs in
    exactly one coordinate from the iterate last passed to the convergence
    test; every other residual call is a trial (the initial evaluation and
    each damped step).
    """
    state = {"last": None}

    def remember(_result, args, _kwargs):
        state["last"] = np.array(args[0], dtype=float)

    def record(result, _args, _kwargs):
        tracer.counts["bvp.lm_iterations"] += int(result[1])

    traced_lm = tracer.wrap(lm, "bvp.lm", after=record)

    @functools.wraps(lm)
    def levenberg_marquardt(fun, x0, converged, *args, **kwargs):
        state["last"] = None
        traced_fun = tracer.wrap(fun, "bvp.residual")

        def counted_fun(x):
            probe = differs_in_one(x, state["last"])
            tracer.counts["bvp.fd_evals" if probe else "bvp.trial_evals"] += 1
            return traced_fun(x)

        traced_conv = tracer.wrap(converged, "bvp.converged", after=remember)
        return traced_lm(counted_fun, x0, traced_conv, *args, **kwargs)

    return levenberg_marquardt


def _after_hooks(tracer: Tracer) -> dict:
    counts = tracer.counts

    def grid_init(_result, args, _kwargs):
        counts["holomorphic.vertices"] += len(args[0].values)

    def net_write(_result, args, _kwargs):
        counts["net.bytes_written"] += os.path.getsize(args[0])

    def build_orbit(orbit, args, _kwargs):
        piece = args[0]
        transformed = len(orbit.elements) * len(piece.domain.vertices)
        counts["reflection.transformed_vertices"] += transformed
        counts["reflection.welded_vertices"] += transformed - len(orbit.vertices)

    return {"holomorphic.grid_init": grid_init, "net.write": net_write,
            "reflection.build_orbit": build_orbit}


def _read_net_wrapper(tracer: Tracer, read_net):
    traced = tracer.wrap(read_net, "net.read")

    @functools.wraps(read_net)
    def wrapper(path, *args, **kwargs):
        if os.path.isfile(path):
            tracer.counts["net.bytes_read"] += os.path.getsize(path)
        return traced(path, *args, **kwargs)

    return wrapper


def _close_group_wrapper(tracer: Tracer, close_group):
    """Count compositions tried and elements kept by each closure that ends."""
    traced = tracer.wrap(close_group, "reflection.close_group")

    @functools.wraps(close_group)
    def wrapper(*args, **kwargs):
        before = tracer.calls["mobius.isometry_compose"]
        elements = traced(*args, **kwargs)
        tracer.counts["reflection.compositions_tried"] += (
            tracer.calls["mobius.isometry_compose"] - before)
        tracer.counts["reflection.orbit_elements"] += len(elements)
        tracer.counts["reflection.closures"] += 1
        return elements

    return wrapper


def _resolve(module, path: str):
    owner, _, name = path.rpartition(".")
    target = getattr(module, owner) if owner else module
    return target, name


@contextmanager
def instrument(tracer: Tracer):
    """Patch the package for the duration of the block, then restore it.

    Module-level functions are replaced in every ``minnet`` module that
    imported them by name, so calls across modules are traced too.
    """
    import minnet.cli  # noqa: F401  (imports every layer)

    modules = {name: sys.modules[f"minnet.{name}"] for name in LAYERS}
    package = [m for n, m in sys.modules.items()
               if n == "minnet" or n.startswith("minnet.")]
    hooks = _after_hooks(tracer)
    special = {"levenberg_marquardt": _lm_wrapper, "read_net": _read_net_wrapper,
               "close_group": _close_group_wrapper}
    undo = []

    def replace(owner, name, new):
        undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def patch(layer, path, make):
        target, name = _resolve(modules[layer], path)
        original = target.__dict__[name]
        wrapped = make(original)
        if target is modules[layer]:
            for module in package:
                if module.__dict__.get(name) is original:
                    replace(module, name, wrapped)
        else:
            replace(target, name, wrapped)

    try:
        for layer, table in SPANS.items():
            for path, key in table.items():
                if path in special:
                    make = functools.partial(special[path], tracer)
                else:
                    make = functools.partial(tracer.wrap, key=key, after=hooks.get(key))
                patch(layer, path, make)
        for layer, path, key in COUNTED:
            patch(layer, path, functools.partial(tracer.count, key=key))
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The benchmark's per-layer metrics (without the scaling exponents)."""
    inc, calls, counts = tracer.inclusive, tracer.calls, tracer.counts
    metrics = {
        "holomorphic.power_function_s": inc["holomorphic.power_function"],
        "holomorphic.read_grid_s": inc["holomorphic.read_grid"],
        "holomorphic.write_grid_s": inc["holomorphic.write_grid"],
        "holomorphic.validate_s": inc["holomorphic.validate"],
        "holomorphic.grid_init_s": inc["holomorphic.grid_init"],
        "holomorphic.vertices": counts["holomorphic.vertices"],
        "minimal.weierstrass_s": inc["minimal.weierstrass"],
        "minimal.gauss_map_s": inc["minimal.gauss_map"],
        "minimal.tangent_normals_s": inc["minimal.tangent_normals"],
        "minimal.tangent_normals_calls": calls["minimal.tangent_normals"],
        "minimal.quad_curvatures_s": inc["minimal.quad_curvatures"],
        "minimal.quad_curvatures_calls": calls["minimal.quad_curvatures"],
        "minimal.mixed_area_calls": calls["minimal.mixed_area"],
        "minimal.is_asymptotic_s": inc["minimal.is_asymptotic"],
        "net.write_s": inc["net.write"],
        "net.bytes_written": counts["net.bytes_written"],
        "net.read_s": inc["net.read"],
        "net.bytes_read": counts["net.bytes_read"],
        "net.is_circular_s": inc["net.is_circular"],
        "net.is_circular_calls": calls["net.is_circular"],
        "net.is_isothermic_s": inc["net.is_isothermic"],
        "net.parallel_s": inc["net.parallel"],
        "mobius.fit_plane_s": inc["mobius.fit_plane"],
        "mobius.fit_plane_calls": calls["mobius.fit_plane"],
        "mobius.isometry_distance_calls": calls["mobius.isometry_distance"],
        "reflection.boundary_s": inc["reflection.boundary"],
        "reflection.boundary_calls": calls["reflection.boundary"],
        "reflection.close_group_s": inc["reflection.close_group"],
        "reflection.closure_residual_s": inc["reflection.closure_residual"],
        "reflection.build_orbit_s": inc["reflection.build_orbit"],
        "reflection.extend_s": inc["reflection.extend"],
        "reflection.orbit_elements": counts["reflection.orbit_elements"],
        "reflection.group_yield": _ratio(
            counts["reflection.orbit_elements"] - counts["reflection.closures"],
            counts["reflection.compositions_tried"]),
        "reflection.weld_ratio": _ratio(counts["reflection.welded_vertices"],
                                        counts["reflection.transformed_vertices"]),
        "bvp.solve_s": inc["bvp.solve"],
        "bvp.lm_iterations": counts["bvp.lm_iterations"],
        "bvp.residual_evals": calls["bvp.residual"],
        "bvp.residual_s": inc["bvp.residual"],
        "bvp.fd_evals": counts["bvp.fd_evals"],
        "bvp.trial_evals": counts["bvp.trial_evals"],
        "bvp.accept_ratio": _ratio(counts["bvp.lm_iterations"], counts["bvp.trial_evals"]),
        "bvp.converged_s": inc["bvp.converged"],
        "bvp.lm_self_s": tracer.self_time["bvp.lm"],
        "cli.verify_pair_s": inc["cli.verify_pair"],
        "cli.verify_net_file_s": inc["cli.verify_net_file"],
        "cli.export_s": inc["cli.export"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = tracer.layer_self(layer)
    return metrics


def fit_exponent(sizes, seconds) -> float:
    """Least-squares slope of log(seconds) against log(size); 0 if < 2 points."""
    pts = [(math.log(n), math.log(t)) for n, t in zip(sizes, seconds) if n > 0 and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else 0.0
