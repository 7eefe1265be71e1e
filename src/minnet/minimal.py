"""Weierstrass builders, Christoffel transform, Gauss maps and curvatures.

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

from typing import NamedTuple

import numpy as np

from .errors import (ClosureFailure, InconsistentBundle, NotCoplanar,
                     NotIsothermic, ZeroArea, ZeroDg)
from .holomorphic import HoloGrid
from .mobius import CNum, c_abs, c_div, c_mul, is_inf, stereographic_lift
from .net import (MIN_EDGE, CheckReport, EdgeLabels, LatticeDomain, Net3, Vertex,
                  _dot, _norm, _quad_scale, are_parallel_meshes,
                  circularity_residuals, edge_loops, integrate_edges, is_isothermic,
                  planarity_residual, planarity_residuals, point_scales, worst_report)

CLOSURE_TOL = 1e-9


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


def _closed(domain: LatticeDomain, increments: np.ndarray, what: str) -> None:
    """Raise ClosureFailure at the first quad whose edge increments do not
    sum to zero, relative to the largest of them."""
    scale = np.max([_norm(increments[e]) for e in domain.quad_edges.T], axis=0)
    res = _norm(edge_loops(domain, increments)) / np.maximum(scale, 1e-300)
    bad = res > CLOSURE_TOL
    if bad.any():
        i = int(np.argmax(bad))
        raise ClosureFailure(f"{what}: quad {domain.quads[i]} loop residual {res[i]:.3e}")


def _weierstrass(grid: HoloGrid, conjugate: bool) -> Net3:
    dom = grid.domain
    a, b = dom.edge_index.T
    gi, gj = grid.values[a], grid.values[b]
    at_inf = grid.inf[a] | grid.inf[b]
    dg = gj - gi
    if (c_abs(dg)[~at_inf] < 1e-300).any():
        raise ZeroDg("zero dg on edge")
    prod = c_mul(gi, gj)
    factor = 1j if conjugate else 1.0
    vec = [c_mul(c_div(c, dg), factor).real
           for c in (1.0 - prod, c_mul(1j, 1.0 + prod), gi + gj)]
    labels = grid.labels.on_edges(dom)
    increments = labels[:, None] * np.stack(vec, axis=1)
    for i in np.flatnonzero(at_inf):
        increments[i] = _wei_increment(grid[dom.vertices[a[i]]], grid[dom.vertices[b[i]]],
                                       labels[i], conjugate)
    _closed(dom, increments, "conjugate builder" if conjugate else "isothermic builder")
    return Net3(dom, integrate_edges(dom, increments))


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


def christoffel(net: Net3, labels: EdgeLabels, tol: float = 1e-9) -> Net3:
    """Christoffel transform: integrate d(F*) = a * dF / |dF|^2.

    Requires the input to be isothermic with the given labels; loop-closure
    failures above tol abort with ClosureFailure.
    """
    report = is_isothermic(net, labels, tol)
    if not report.ok:
        raise NotIsothermic(
            f"worst quad {report.worst} residual {report.max_residual:.3e}")
    a, b = net.domain.edge_index.T
    d = net.points[b] - net.points[a]
    increments = labels.on_edges(net.domain)[:, None] * d / _dot(d, d)[:, None]
    _closed(net.domain, increments, "christoffel")
    return Net3(net.domain, integrate_edges(net.domain, increments))


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


def is_asymptotic(net: Net3, tol: float = 1e-9) -> CheckReport:
    """Star coplanarity at interior vertices plus per-quad non-degeneracy.

    The report is ok when every full 5-point star is coplanar; quads that
    are themselves planar are listed as degenerate in extra.  The residual
    of a star is relative to its diameter.
    """
    verts = net.domain.vertices
    res, scale = np.zeros(len(verts)), np.ones(len(verts))
    for rows, pts in _vertex_stars(net, np.arange(len(verts))):
        if pts.shape[1] == 5:
            scale[rows] = np.maximum(point_scales(pts), 1e-300)
            res[rows] = planarity_residuals(pts) / scale[rows]
    quads = net.quad_array()
    flat = planarity_residuals(quads) <= tol * np.maximum(point_scales(quads), 1e-300)
    degenerate = [net.domain.quads[i] for i in np.flatnonzero(flat)]
    return worst_report(res, verts, tol, scale)._replace(
        extra={"degenerate_quads": degenerate, "nondegenerate_ok": not degenerate})


def tangent_normals(net: Net3, vertices=None) -> np.ndarray:
    """Unit normals of the per-vertex star planes of an asymptotic net.

    One row per given vertex number (every vertex, in `domain.vertices`
    order, by default).  Sign is arbitrary per vertex; callers align
    against a reference.
    """
    verts = np.arange(len(net.points)) if vertices is None else np.asarray(vertices)
    normals = np.zeros((len(verts), 3))
    for rows, pts in _vertex_stars(net, verts):
        vt = np.linalg.svd(pts - pts.mean(axis=1, keepdims=True), full_matrices=False)[2]
        normals[rows] = vt[:, 2] if vt.shape[1] == 3 else np.cross(vt[:, 0], vt[:, 1])
    return normals


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

    normals = np.zeros_like(pts)
    normals[dom.vertex_index[root]] = n0 / np.linalg.norm(n0)
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
    """quad_curvatures of every quad of a net F with Gauss map N, in one
    mixed-area pass over the (quads, 4, 3) corner stacks f and n.

    undefined marks the quads where quad_curvatures raises (a non-planar
    quad or a vanishing area); H, K, area = |A(F)| and normal = A(F)/|A(F)|
    hold no meaningful value there.
    """

    def __init__(self, f: np.ndarray, n: np.ndarray, tol: float = 1e-9):
        self.f, self.n = f, n
        scale = np.maximum(point_scales(f), 1e-300)
        af = mixed_areas(f, f)
        self.area = _norm(af)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.normal = af / self.area[:, None]
            self.H = -_dot(mixed_areas(f, n), self.normal) / self.area
            self.K = _dot(mixed_areas(n, n), self.normal) / self.area
        self.undefined = ((planarity_residuals(f) > tol * scale)
                          | (self.area <= 1e-12 * scale * scale)
                          | (planarity_residuals(n) > tol * np.maximum(point_scales(n), 1e-300)))

    def steiner_defects(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """|A(F + tN) - (1 - 2tH + t^2 K) A(F)| / |A(F)| along the quad normal.

        t holds one offset per quad.  Also returns where the defect is
        undefined, which includes offset quads that are not planar to 1e-6.
        """
        offset = self.f + t[:, None, None] * self.n
        predicted = (1.0 - 2.0 * t * self.H + t * t * self.K) * self.area
        with np.errstate(divide="ignore", invalid="ignore"):
            defects = (np.abs(_dot(mixed_areas(offset, offset), self.normal) - predicted)
                       / np.abs(self.area))
        bent = planarity_residuals(offset) > 1e-6 * np.maximum(point_scales(offset), 1e-300)
        return defects, self.undefined | bent


def offset_net(net: Net3, normals: Net3, t: float, tol: float = 1e-9) -> Net3:
    """Parallel offset F + t*N; validated circular and edge-parallel to F."""
    out = Net3(net.domain, net.points + t * normals.points)
    if t != 0.0:
        pts = out.quad_array()
        res = circularity_residuals(pts)
        bad = res > max(tol, 1e-8) * np.maximum(point_scales(pts), MIN_EDGE)
        if bad.any():
            i = int(np.argmax(bad))
            raise NotCoplanar(f"offset quad {out.domain.quads[i]} not circular "
                              f"(residual {res[i]:.3e})")
        ok, worst = are_parallel_meshes(net, out, max(tol, 1e-8))
        if not ok:
            raise NotCoplanar(f"offset not edge-parallel (angle {worst:.3e})")
    return out


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


def best_similarity(source: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Least-squares dilation s and translation t with s*source + t ≈ target.

    Returns (s, t, max residual).  The sign of s is free.
    """
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    sc = src - src.mean(axis=0)
    tc = tgt - tgt.mean(axis=0)
    denom = float((sc * sc).sum())
    s = float((sc * tc).sum()) / denom if denom > 0 else 0.0
    t = tgt.mean(axis=0) - s * src.mean(axis=0)
    res = float(np.linalg.norm(s * src + t - tgt, axis=1).max())
    return s, t, res
