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
    """Classification of one boundary lattice line by the one fit that decides it."""

    axis: str                 # 'row' or 'col'
    index: int
    kind: str                 # 'planar_curvature_line' | 'straight_asymptotic_line' | 'none'
    plane: PlaneR3 | None = None
    line: LineR3 | None = None
    residuals: dict = {}      # the deciding fit's 'congruence_plane' or 'line' residual;
                              # a shared default, never mutated in place
    scale: float = 1.0        # bounding-box diagonal of the line, for tol * scale

    def at(self, tol: float) -> BoundaryAnalysis:
        """This congruence-plane analysis decided at tol from the same fit:
        a planar curvature line when the residual is within tol of its size."""
        # false when either side is not finite: inf <= inf holds, so an overflowed
        # scale would pass a line whose plane fit failed
        planar = self.residuals["congruence_plane"] <= tol * self.scale < math.inf
        return self._replace(kind="planar_curvature_line" if planar else "none")


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
                                axis: str = "row", tol: float = 1e-9) -> BoundaryAnalysis:
    """Planarity of a curvature line together with its normal congruence.

    kind is 'planar_curvature_line' only when the points F and F+N along
    the line fit one plane, within tol of the line's size.  (Its Gauss
    image then lies in a great circle, the plane's parallel through 0.)
    The residual is the larger of the fit's and the line's size times the
    largest |N · plane normal|: on a line much longer than its unit normals
    the fit follows F, and the tilt term still sees N leave the plane.
    """
    verts = boundary_vertices(net.domain, index, axis)
    f_pts, n_pts = net.points[verts], normals.points[verts]
    scale = _line_scale(f_pts)
    try:
        plane, residual = fit_plane(np.vstack([f_pts, f_pts + n_pts]))
        residual = max(residual, scale * float(np.abs(n_pts @ plane.normal).max()))
    except DegenerateFit:
        plane, residual = None, float("inf")
    return BoundaryAnalysis(axis, index, "none", plane=plane,
                            residuals={"congruence_plane": residual}, scale=scale).at(tol)


def boundary_lines(net: Net3, normals: Net3, tol: float) -> dict:
    """analyze_boundary_isothermic of the first row, first column, last row and
    last column, in that order, keyed (axis, index)."""
    dom = net.domain
    return {(axis, index): analyze_boundary_isothermic(net, normals, index, axis, tol)
            for axis, index in (("row", dom.n0), ("col", dom.m0), ("row", dom.n1),
                                ("col", dom.m1))}


def analyze_boundary_asymptotic(net: Net3, index: int, axis: str = "row",
                                tol: float = 1e-9) -> BoundaryAnalysis:
    """Straight-line test of an asymptotic lattice line, within tol of its size."""
    verts = boundary_vertices(net.domain, index, axis)
    pts = net.points[verts]
    scale = _line_scale(pts)
    line, residual = fit_line(pts)
    kind = "straight_asymptotic_line" if residual <= tol * scale else "none"
    return BoundaryAnalysis(axis, index, kind, line=line, residuals={"line": residual},
                            scale=scale)
