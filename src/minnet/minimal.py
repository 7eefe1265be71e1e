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

from dataclasses import dataclass, replace

import numpy as np

from .errors import (ClosureFailure, InconsistentBundle, NotCoplanar,
                     NotIsothermic, ZeroArea, ZeroDg)
from .holomorphic import HoloGrid
from .mobius import CNum, is_inf, stereographic_lift
from .net import (MIN_EDGE, CheckReport, EdgeLabels, LatticeDomain, Net3, Vertex,
                  _dot, _norm, _quad_scale, are_parallel_meshes,
                  circularity_residuals, is_isothermic, planarity_residual,
                  planarity_residuals, point_scales, worst_report)

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


def _edge_label(labels: EdgeLabels, a: Vertex, b: Vertex) -> float:
    if a[1] == b[1]:
        return labels.alpha_at(min(a[0], b[0]))
    return labels.beta_at(min(a[1], b[1]))


def _integrate_edges(domain: LatticeDomain, increment) -> dict[Vertex, np.ndarray]:
    """Accumulate edge increments over a BFS spanning tree.

    increment(a, b) must be antisymmetric under swapping a and b; the root
    (lexicographically smallest vertex) maps to the origin.
    """
    root = min(domain.vertices)
    positions = {root: np.zeros(3)}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for w in domain.neighbors(v):
            if w not in positions:
                positions[w] = positions[v] + increment(v, w)
                queue.append(w)
    return positions


def _check_closure(domain: LatticeDomain, increment, what: str) -> float:
    worst = 0.0
    for q in domain.quads:
        i, j, k, l = domain.quad_vertices(q)
        loop = increment(i, j) + increment(j, k) - increment(l, k) - increment(i, l)
        scale = max(np.linalg.norm(increment(i, j)), np.linalg.norm(increment(i, l)),
                    np.linalg.norm(increment(j, k)), np.linalg.norm(increment(l, k)))
        res = float(np.linalg.norm(loop)) / max(scale, 1e-300)
        if res > CLOSURE_TOL:
            raise ClosureFailure(f"{what}: quad {q} loop residual {res:.3e}")
        worst = max(worst, res)
    return worst


def _weierstrass(grid: HoloGrid, conjugate: bool) -> Net3:
    def increment(a: Vertex, b: Vertex) -> np.ndarray:
        swap = a > b
        if swap:
            a, b = b, a
        inc = _wei_increment(grid.values[a], grid.values[b],
                             _edge_label(grid.labels, a, b), conjugate)
        return -inc if swap else inc

    _check_closure(grid.domain, increment,
                   "conjugate builder" if conjugate else "isothermic builder")
    return Net3(grid.domain, _integrate_edges(grid.domain, increment))


def weierstrass_isothermic(grid: HoloGrid) -> Net3:
    """Discrete isothermic minimal net integrated from holomorphic data."""
    return _weierstrass(grid, conjugate=False)


def weierstrass_asymptotic(grid: HoloGrid) -> Net3:
    """Conjugate discrete asymptotic minimal net from the same data."""
    return _weierstrass(grid, conjugate=True)


def gauss_map(grid: HoloGrid) -> Net3:
    """Vertexwise unit-sphere lift of the holomorphic data."""
    return Net3(grid.domain, {v: stereographic_lift(grid.values[v])
                              for v in grid.domain.vertices}, check_edges=False)


def christoffel(net: Net3, labels: EdgeLabels, tol: float = 1e-9) -> Net3:
    """Christoffel transform: integrate d(F*) = a * dF / |dF|^2.

    Requires the input to be isothermic with the given labels; loop-closure
    failures above tol abort with ClosureFailure.
    """
    report = is_isothermic(net, labels, tol)
    if not report.ok:
        raise NotIsothermic(
            f"worst quad {report.worst} residual {report.max_residual:.3e}")

    def increment(a: Vertex, b: Vertex) -> np.ndarray:
        d = net.positions[b] - net.positions[a]
        return _edge_label(labels, a, b) * d / float(d @ d)

    _check_closure(net.domain, increment, "christoffel")
    return Net3(net.domain, _integrate_edges(net.domain, increment))


# ---------------------------------------------------------------------------
# Asymptotic nets and normals
# ---------------------------------------------------------------------------

def _vertex_stars(net: Net3, vertices) -> list[tuple[list[int], np.ndarray]]:
    """Each vertex with its present axis neighbors (3 to 5 points).

    Stars are grouped by size as (positions in vertices, (stars, k, 3)
    points), the vertex first and then (m+1,n), (m-1,n), (m,n+1), (m,n-1).
    """
    dom = net.domain
    groups: dict[int, tuple[list[int], list[list[int]]]] = {}
    for row, (m, n) in enumerate(vertices):
        star = [dom.vertex_index[w] for w in ((m, n), (m + 1, n), (m - 1, n), (m, n + 1),
                                              (m, n - 1)) if w in dom]
        rows, index = groups.setdefault(len(star), ([], []))
        rows.append(row)
        index.append(star)
    pts = net.as_array()
    return [(rows, pts[np.array(index)]) for rows, index in groups.values()]


def is_asymptotic(net: Net3, tol: float = 1e-9) -> CheckReport:
    """Star coplanarity at interior vertices plus per-quad non-degeneracy.

    The report is ok when every full 5-point star is coplanar; quads that
    are themselves planar are listed as degenerate in extra.  The residual
    of a star is relative to its diameter.
    """
    verts = net.domain.vertices
    res, scale = np.zeros(len(verts)), np.ones(len(verts))
    for rows, pts in _vertex_stars(net, verts):
        if pts.shape[1] == 5:
            scale[rows] = np.maximum(point_scales(pts), 1e-300)
            res[rows] = planarity_residuals(pts) / scale[rows]
    quads = net.quad_array()
    flat = planarity_residuals(quads) <= tol * np.maximum(point_scales(quads), 1e-300)
    degenerate = [net.domain.quads[i] for i in np.flatnonzero(flat)]
    return replace(worst_report(res, verts, tol, scale),
                   extra={"degenerate_quads": degenerate, "nondegenerate_ok": not degenerate})


def tangent_normals(net: Net3, vertices=None) -> dict[Vertex, np.ndarray]:
    """Unit normals of the per-vertex star planes of an asymptotic net.

    Computed at the given vertices (all by default).  Sign is arbitrary per
    vertex; callers align against a reference.
    """
    verts = net.domain.vertices if vertices is None else list(vertices)
    normals: list = [None] * len(verts)
    for rows, pts in _vertex_stars(net, verts):
        vt = np.linalg.svd(pts - pts.mean(axis=1, keepdims=True), full_matrices=False)[2]
        found = vt[:, 2] if vt.shape[1] == 3 else np.cross(vt[:, 0], vt[:, 1])
        for row, normal in zip(rows, found):
            normals[row] = normal
    return dict(zip(verts, normals))


def propagate_normals(net: Net3, n0, root: Vertex | None = None,
                      tol: float = 1e-9) -> Net3:
    """Unique parallel unit-normal field from one seed normal.

    Along each edge N_b = N_a + t*dF with t = -2(N_a·dF)/|dF|^2, the only
    root keeping |N| = 1 with intersecting normal lines.  Quad loops are
    re-propagated to verify path independence.
    """
    root = min(net.domain.vertices) if root is None else root
    n0 = np.asarray(n0, dtype=float)
    n0 = n0 / np.linalg.norm(n0)

    def step(na: np.ndarray, a: Vertex, b: Vertex) -> np.ndarray:
        d = net.positions[b] - net.positions[a]
        t = -2.0 * float(na @ d) / float(d @ d)
        nb = na + t * d
        return nb / np.linalg.norm(nb)

    normals = {root: n0}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for w in net.domain.neighbors(v):
            if w not in normals:
                normals[w] = step(normals[v], v, w)
                queue.append(w)
    for q in net.domain.quads:
        i, j, k, l = net.domain.quad_vertices(q)
        via_j = step(step(normals[i], i, j), j, k)
        via_l = step(step(normals[i], i, l), l, k)
        if np.linalg.norm(via_j - via_l) > tol:
            raise InconsistentBundle(f"normal propagation disagrees on quad {q}")
    return Net3(net.domain, normals, check_edges=False)


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


@dataclass(frozen=True)
class QuadCurvature:
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
    out = Net3(net.domain, {v: net.positions[v] + t * normals.positions[v]
                            for v in net.domain.vertices})
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

@dataclass
class MinimalPair:
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
