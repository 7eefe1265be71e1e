"""Discrete minimal nets from holomorphic data.

Builders for discrete isothermic and asymptotic minimal nets via the
Weierstrass-type edge formulas, Schwarz-style reflection extensions,
symmetry-orbit assembly, and a boundary-value solver for cross-ratio -1
grids reproducing k-noids and Platonic-symmetric nets.
"""

from .bvp import (BoundarySpec, PlatonicPreset, SolveResult, platonic_preset,
                  solve_knoid, solve_platonic)
from .errors import MinnetError
from .holomorphic import (INF, HoloGrid, MobiusInversion, MobiusSimilarity,
                          mobius_apply, power_function, propagate_fourth,
                          read_grid, validate_holomorphic, write_grid)
from .minimal import (MinimalPair, QuadCurvature, christoffel, gauss_map,
                      is_asymptotic, mixed_area, offset_net, propagate_normals,
                      quad_curvatures, tangent_normals, weierstrass_asymptotic,
                      weierstrass_isothermic)
from .mobius import (CrossRatioValue, Isometry, LineR3, PlaneR3, Quaternion,
                     cross_ratio_complex, cross_ratio_quat, fit_line, fit_plane,
                     stereographic_lift, stereographic_project)
from .net import (EdgeLabels, LatticeDomain, Net3, NetBundle,
                  are_parallel_meshes, is_circular, is_isothermic, read_net,
                  write_net)
from .reflection import (BoundaryAnalysis, SymmetryOrbit,
                         analyze_boundary_asymptotic,
                         analyze_boundary_isothermic, build_orbit,
                         close_group, corner_angles, reflect_isothermic,
                         rotate_extend_asymptotic)

__version__ = "0.1.0"
