"""Discrete minimal nets from holomorphic data.

Builders for discrete isothermic and asymptotic minimal nets via the
Weierstrass-type edge formulas, Schwarz-style reflection extensions,
symmetry-orbit assembly, and a boundary-value solver for cross-ratio -1
grids reproducing k-noids and Platonic-symmetric nets.

Every layer module is in ``sys.modules`` and a package attribute from
``import minnet`` on, but it is compiled and run only on its first
attribute read or import statement, so a command loads only the layers
it runs.  The names below are read from their layer on first use.
"""

import importlib.util
import sys

from .errors import MinnetError

__version__ = "0.1.0"

# layer -> the public names the package re-exports from it
_API = {
    "battery": (),
    "boundary": ("BoundaryAnalysis", "analyze_boundary_asymptotic", "analyze_boundary_isothermic"),
    "bvp": ("BoundarySpec", "PlatonicPreset", "SolveResult", "platonic_preset",
            "solve_knoid", "solve_platonic"),
    "commands": (),
    "coxeter": (),
    "dnet": (),
    "holomorphic": ("INF", "HoloGrid", "power_function", "propagate_fourth", "read_grid",
                    "validate_holomorphic", "write_grid"),
    "lattice": ("EdgeLabels", "LatticeDomain", "Net3"),
    "minimal": ("MinimalPair", "QuadCurvature", "gauss_map", "is_asymptotic", "mixed_area",
                "propagate_normals", "quad_curvatures", "tangent_normals",
                "weierstrass_asymptotic", "weierstrass_isothermic"),
    "mobius": ("CrossRatioValue", "Isometry", "LineR3", "PlaneR3", "Quaternion",
               "cross_ratio_complex", "cross_ratio_quat", "fit_line", "fit_plane",
               "stereographic_lift"),
    "net": ("NetBundle", "are_parallel_meshes", "is_circular", "is_isothermic", "read_net",
            "write_net"),
    "reflection": ("SymmetryOrbit", "build_orbit", "close_group", "corner_angles",
                   "reflect_isothermic", "rotate_extend_asymptotic"),
}
_LAYER_OF = {name: layer for layer, names in _API.items() for name in names}


def _register_lazy(layer: str):
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in _API:
    globals()[_layer] = _register_lazy(_layer)
del _layer


def __getattr__(name: str):
    if name in _LAYER_OF:
        return getattr(globals()[_LAYER_OF[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
