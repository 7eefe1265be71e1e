"""Weierstrass builders, Gauss maps and curvatures.

Both builders assign a closed system of edge increments from holomorphic
data g and labels (alpha, beta):

    dF_ij  = a_ij * Re[(1 - g_i g_j, i(1 + g_i g_j), g_i + g_j) / dg_ij]
    dF~_ij = same with an extra factor i inside Re[.]

and integrate them over a spanning tree.  Quad-loop closure of the edge
increments is verified explicitly; failures abort since closure is exact
for valid data.

Curvatures come from mixed areas of parallel quads: with the wedge
identified with the cross product,

    A(F,G) = 1/4 (dFik x dGjl + dGik x dFjl),
    H = -A(F,N)·n / A(F)·n,   K = A(N)·n / A(F)·n

along the common quad normal n.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import InconsistentBundle, NotCoplanar, ZeroArea, ZeroDg
from .mobius import CNum, c_abs, c_div, c_mul, is_inf, stereographic_lift
from .lattice import Net3, Vertex, _dot, _norm, integrate_edges
from .net import (CheckReport, PlaneFit, _quad_scale, plane_fits, planarity_residual,
                  planarity_residuals, point_scales, worst_report)

if TYPE_CHECKING:
    from .holomorphic import HoloGrid


# ---------------------------------------------------------------------------
# Edge increments and tree integration
# ---------------------------------------------------------------------------

def _wei_increment(gi: CNum, gj: CNum, label: float, conjugate: bool) -> np.ndarray:
    """One Weierstrass edge increment; conjugate=True inserts the factor i."""
    if is_inf(gi) and is_inf(gj):
        raise ZeroDg("both endpoints at infinity")
    if is_inf(gj):
        vec = (-gi, 1j * gi, 1.0 + 0j)
    elif is_inf(gi):
        vec = (gj, -1j * gj, -1.0 + 0j)
    else:
        dg = gj - gi
        if abs(dg) < 1e-300:
            raise ZeroDg("zero dg on edge")
        vec = ((1.0 - gi * gj) / dg, 1j * (1.0 + gi * gj) / dg, (gi + gj) / dg)
    factor = 1j if conjugate else 1.0
    return label * np.array([(c * factor).real for c in vec])


def _weierstrass(grid: HoloGrid, conjugate: bool) -> Net3:
    dom = grid.domain
    a, b = dom.edge_index.T
    gi, gj = grid.values[a], grid.values[b]
    at_inf = grid.inf[a] | grid.inf[b]
    dg = gj - gi
    prod = c_mul(gi, gj)
    factor = 1j if conjugate else 1.0
    vec = [c_mul(c_div(c, dg), factor).real
           for c in (1.0 - prod, c_mul(1j, 1.0 + prod), gi + gj)]
    labels = grid.labels.on_edges(dom)
    increments = labels[:, None] * np.stack(vec, axis=1)
    for i in np.flatnonzero(at_inf):
        increments[i] = _wei_increment(grid[dom.vertices[a[i]]], grid[dom.vertices[b[i]]],
                                       labels[i], conjugate)
    what = "conjugate builder" if conjugate else "isothermic builder"
    return Net3(dom, integrate_edges(dom, increments, what))


def weierstrass_isothermic(grid: HoloGrid) -> Net3:
    """Discrete isothermic minimal net integrated from holomorphic data."""
    return _weierstrass(grid, conjugate=False)


def weierstrass_asymptotic(grid: HoloGrid) -> Net3:
    """Conjugate discrete asymptotic minimal net from the same data."""
    return _weierstrass(grid, conjugate=True)


def gauss_map(grid: HoloGrid) -> Net3:
    """Vertexwise unit-sphere lift of the holomorphic data.

    stereographic_lift's arithmetic on arrays; INF and values beyond 1e150
    take stereographic_lift itself.
    """
    g, size = grid.values, c_abs(grid.values)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = size * size
        den = sq + 1.0
        lift = np.stack([2.0 * g.real / den, 2.0 * g.imag / den, (sq - 1.0) / den], axis=1)
    for i in np.flatnonzero(grid.inf | (size > 1e150)):
        lift[i] = stereographic_lift(grid[grid.domain.vertices[i]])
    return Net3(grid.domain, lift, check_edges=False)


# ---------------------------------------------------------------------------
# Asymptotic nets and normals
# ---------------------------------------------------------------------------

def _vertex_stars(net: Net3, vertices: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each of the given vertex numbers with its present axis neighbors
    (3 to 5 points), from `domain.stars`.

    Stars are grouped by size as (positions in vertices, (stars, k, 3)
    points), the vertex first and then (m+1,n), (m-1,n), (m,n+1), (m,n-1).
    """
    stars = net.domain.stars[vertices]
    size = np.count_nonzero(stars >= 0, axis=1)
    groups = []
    # the sizes present, ascending; a bare np.unique would import numpy.ma
    for k in np.flatnonzero(np.bincount(size)):
        rows = np.flatnonzero(size == k)
        groups.append((rows, net.points[stars[rows][stars[rows] >= 0].reshape(-1, k)]))
    return groups


class StarPlanes:
    """The star plane of each given vertex number of a net (every vertex, in
    `domain.vertices` order, by default), one plane_fits per star size.

    normals holds the unit normals, sign arbitrary per vertex.  residual is
    the planarity residual of each full 5-point star relative to its
    diameter, scale that diameter; both are 0 and 1 at smaller stars.
    """

    def __init__(self, net: Net3, vertices=None):
        verts = np.arange(len(net.points)) if vertices is None else np.asarray(vertices)
        self.normals = np.zeros((len(verts), 3))
        self.residual, self.scale = np.zeros(len(verts)), np.ones(len(verts))
        for rows, pts in _vertex_stars(net, verts):
            fit = plane_fits(pts)
            self.normals[rows] = fit.vt[:, 2]
            if pts.shape[1] == 5:
                self.scale[rows] = np.maximum(point_scales(pts), 1e-300)
                self.residual[rows] = planarity_residuals(pts, fit) / self.scale[rows]


def is_asymptotic(net: Net3, tol: float = 1e-9, stars: StarPlanes | None = None) -> CheckReport:
    """Star coplanarity at interior vertices.

    The report is ok when every full 5-point star is coplanar; the residual
    of a star is relative to its diameter.  stars: StarPlanes(net), when
    the caller has them.
    """
    stars = StarPlanes(net) if stars is None else stars
    return worst_report(stars.residual, net.domain.vertices, tol, stars.scale)


def tangent_normals(net: Net3, vertices=None) -> np.ndarray:
    """Unit normals of the per-vertex star planes of an asymptotic net.

    One row per given vertex number (every vertex, in `domain.vertices`
    order, by default).  Sign is arbitrary per vertex; callers align
    against a reference.
    """
    return StarPlanes(net, vertices).normals


def propagate_normals(net: Net3, n0, root: Vertex | None = None,
                      tol: float = 1e-9) -> Net3:
    """Unique parallel unit-normal field from one seed normal.

    Along each edge N_b = N_a + t*dF with t = -2(N_a·dF)/|dF|^2, the only
    root keeping |N| = 1 with intersecting normal lines.  Quad loops are
    re-propagated to verify path independence.
    """
    dom, pts = net.domain, net.points
    root = min(dom.vertices) if root is None else root
    n0 = np.asarray(n0, dtype=float)

    def step(na: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d = pts[b] - pts[a]
        nb = na + (-2.0 * _dot(na, d) / _dot(d, d))[:, None] * d
        return nb / _norm(nb)[:, None]

    size = np.linalg.norm(n0)
    if not 0.0 < size < np.inf:
        raise InconsistentBundle(f"seed normal {n0.tolist()} at vertex {root} has no direction")
    normals = np.zeros_like(pts)
    normals[dom.vertex_index[root]] = n0 / size
    for child, parent, _, _ in dom.spanning_tree(root):
        normals[child] = step(normals[parent], parent, child)
    i, j, k, l = dom.quad_index.T
    gap = _norm(step(step(normals[i], i, j), j, k) - step(step(normals[i], i, l), l, k))
    if (gap > tol).any():
        raise InconsistentBundle(f"normal propagation disagrees on quad "
                                 f"{dom.quads[int(np.argmax(gap > tol))]}")
    return Net3(dom, normals, check_edges=False)


# ---------------------------------------------------------------------------
# Mixed areas and curvatures
# ---------------------------------------------------------------------------

def mixed_area(quad_f, quad_g, tol: float = 1e-9) -> np.ndarray:
    """Mixed-area vector 1/4 (dFik x dGjl + dGik x dFjl) of parallel quads."""
    f = [np.asarray(p, dtype=float) for p in quad_f]
    g = [np.asarray(p, dtype=float) for p in quad_g]
    for pts, name in ((f, "first"), (g, "second")):
        res = planarity_residual(pts)
        if res > tol * max(_quad_scale(pts), 1e-300):
            raise NotCoplanar(f"{name} quad non-planar (residual {res:.3e})")
    df_ik, df_jl = f[2] - f[0], f[3] - f[1]
    dg_ik, dg_jl = g[2] - g[0], g[3] - g[1]
    return 0.25 * (np.cross(df_ik, dg_jl) + np.cross(dg_ik, df_jl))


class QuadCurvature(NamedTuple):
    """Mean/Gaussian curvature of one quad from the mixed-area ratios."""

    H: float
    K: float
    areaF: float
    mixed: float


def quad_curvatures(quad_f, quad_n, tol: float = 1e-9) -> QuadCurvature:
    """Curvatures along the common quad normal; ZeroArea if A(F) vanishes."""
    af = mixed_area(quad_f, quad_f, tol)
    norm_af = float(np.linalg.norm(af))
    scale = max(_quad_scale(quad_f), 1e-300)
    if norm_af <= 1e-12 * scale * scale:
        raise ZeroArea("quad area vector too small")
    nhat = af / norm_af
    area_f = norm_af
    mixed = float(mixed_area(quad_f, quad_n, tol) @ nhat)
    area_n = float(mixed_area(quad_n, quad_n, tol) @ nhat)
    return QuadCurvature(H=-mixed / area_f, K=area_n / area_f,
                         areaF=area_f, mixed=mixed)


def mixed_areas(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """mixed_area of every pair of quads in two (quads, 4, 3) stacks, untested for planarity."""
    return 0.25 * (np.cross(f[:, 2] - f[:, 0], g[:, 3] - g[:, 1])
                   + np.cross(g[:, 2] - g[:, 0], f[:, 3] - f[:, 1]))


class Curvatures:
    """The mean curvature H of quad_curvatures at every quad of a net F with
    Gauss map N, in one mixed-area pass over the (quads, 4, 3) corner stacks
    f and n, given fit = plane_fits(f).

    undefined marks the quads where quad_curvatures raises (a non-planar
    quad or a vanishing area); H holds no meaningful value there.
    """

    def __init__(self, f: np.ndarray, n: np.ndarray, fit: PlaneFit, tol: float = 1e-9):
        scale = np.maximum(point_scales(f), 1e-300)
        af = mixed_areas(f, f)
        area = _norm(af)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.H = -_dot(mixed_areas(f, n), af / area[:, None]) / area
        self.undefined = ((planarity_residuals(f, fit) > tol * scale)
                          | (area <= 1e-12 * scale * scale)
                          | (planarity_residuals(n) > tol * np.maximum(point_scales(n), 1e-300)))


# ---------------------------------------------------------------------------
# Minimal pairs
# ---------------------------------------------------------------------------

class MinimalPair(NamedTuple):
    """Isothermic/asymptotic minimal nets sharing one Gauss map."""

    isothermic: Net3
    asymptotic: Net3
    gauss: Net3
    grid: HoloGrid

    @staticmethod
    def from_grid(grid: HoloGrid) -> "MinimalPair":
        return MinimalPair(weierstrass_isothermic(grid),
                           weierstrass_asymptotic(grid),
                           gauss_map(grid), grid)

