"""Reflectable boundary lines: the one fit that decides each.

A boundary row of an isothermic minimal net is reflectable when the row
and its normal line congruence lie in one plane; equivalently the Gauss
image of the row lies in a great circle.  The conjugate asymptotic net is
extendable across a boundary row exactly when that row is a straight
line; there the extension is the 180-degree rotation about it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateFit, NotReflectable
from .lattice import LatticeDomain, Net3
from .mobius import LineR3, PlaneR3, fit_line, fit_plane


class BoundaryAnalysis(NamedTuple):
    """The one fit of a boundary lattice line; each caller decides it with holds(tol)."""

    axis: str                 # 'row' or 'col'
    index: int
    residual: float           # the congruence-plane or the line fit's residual
    scale: float              # bounding-box diagonal of the line
    plane: PlaneR3 | None = None
    line: LineR3 | None = None

    def holds(self, tol: float) -> bool:
        """The line is planar (straight) within tol of its size."""
        # false when either side is not finite: inf <= inf holds, so an overflowed
        # scale would pass a line whose fit failed
        return self.residual <= tol * self.scale < math.inf


def boundary_vertices(domain: LatticeDomain, index: int, axis: str = "row") -> np.ndarray:
    """Vertex numbers along the row n = index or the column m = index, in order."""
    if axis == "row":
        verts = domain.indices(np.arange(domain.m0, domain.m1 + 1), index)
    elif axis == "col":
        verts = domain.indices(index, np.arange(domain.n0, domain.n1 + 1))
    else:
        raise ValueError("axis must be 'row' or 'col'")
    if np.count_nonzero(verts >= 0) < 2:
        raise NotReflectable(f"boundary {axis} {index} has fewer than 2 vertices")
    return verts[verts >= 0]


def _line_scale(pts: np.ndarray) -> float:
    """The bounding-box diagonal of a line's points, at least 1e-300."""
    return max(float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))), 1e-300)


def analyze_boundary_isothermic(net: Net3, normals: Net3, index: int,
                                axis: str = "row") -> BoundaryAnalysis:
    """Planarity of a curvature line together with its normal congruence.

    A planar curvature line has F and F+N in one plane, and its Gauss image
    in a great circle, the plane's parallel through 0.  The residual is the
    larger of the fit's and the line's size times the largest |N · plane
    normal|: on a line much longer than its unit normals the fit follows F,
    and the tilt term still sees N leave the plane.
    """
    verts = boundary_vertices(net.domain, index, axis)
    f_pts, n_pts = net.points[verts], normals.points[verts]
    scale = _line_scale(f_pts)
    try:
        plane, residual = fit_plane(np.vstack([f_pts, f_pts + n_pts]))
        residual = max(residual, scale * float(np.abs(n_pts @ plane.normal).max()))
    except DegenerateFit:
        plane, residual = None, float("inf")
    return BoundaryAnalysis(axis, index, residual, scale, plane=plane)


def boundary_lines(net: Net3, normals: Net3) -> dict:
    """analyze_boundary_isothermic of the first row, first column, last row and
    last column, in that order, keyed (axis, index)."""
    dom = net.domain
    return {(axis, index): analyze_boundary_isothermic(net, normals, index, axis)
            for axis, index in (("row", dom.n0), ("col", dom.m0), ("row", dom.n1),
                                ("col", dom.m1))}


def analyze_boundary_asymptotic(net: Net3, index: int, axis: str = "row") -> BoundaryAnalysis:
    """Straightness of an asymptotic lattice line: the line fit of its points."""
    verts = boundary_vertices(net.domain, index, axis)
    pts = net.points[verts]
    line, residual = fit_line(pts)
    return BoundaryAnalysis(axis, index, residual, _line_scale(pts), line=line)
