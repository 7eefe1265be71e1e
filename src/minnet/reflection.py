"""Reflectable boundaries, Schwarz-type extensions and symmetry orbits.

A boundary row of an isothermic minimal net is reflectable when the row
and its normal line congruence lie in one plane; equivalently the Gauss
image of the row lies in a great circle.  The conjugate asymptotic net is
extendable across a boundary row exactly when that row is a straight
line; there the extension is the 180-degree rotation about it.

Orbits close the group generated by boundary isometries breadth-first and
weld the transformed copies into a single quad mesh.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateFit, InconsistentBundle, NotPlanarBoundary,
                     NotReflectable, OrbitExplosion)
from .mobius import (Isometry, LineR3, PlaneR3, fit_line, fit_plane,
                     fit_plane_through_origin)
from .minimal import propagate_normals, tangent_normals
from .net import EdgeLabels, LatticeDomain, Net3, Vertex


# ---------------------------------------------------------------------------
# Boundary analyses
# ---------------------------------------------------------------------------

class BoundaryAnalysis(NamedTuple):
    """Classification of one boundary lattice line."""

    axis: str                 # 'row' or 'col'
    index: int
    kind: str                 # 'planar_curvature_line' | 'straight_asymptotic_line' | 'none'
    plane: PlaneR3 | None = None
    line: LineR3 | None = None
    gauss_circle: str = "none"   # 'great_circle' | 'small_circle' | 'none'
    gauss_plane: PlaneR3 | None = None
    residuals: dict = {}      # shared default: never mutated in place
    scale: float = 1.0        # bounding-box diagonal of the line, for tol * scale


def boundary_vertices(domain: LatticeDomain, index: int, axis: str = "row") -> np.ndarray:
    """Vertex numbers along the row n = index or the column m = index, in order."""
    if axis == "row":
        verts = domain.indices(np.arange(domain.m0, domain.m1 + 1), index)
    elif axis == "col":
        verts = domain.indices(index, np.arange(domain.n0, domain.n1 + 1))
    else:
        raise ValueError("axis must be 'row' or 'col'")
    if np.count_nonzero(verts >= 0) < 2:
        raise ValueError(f"boundary {axis} {index} has fewer than 2 vertices")
    return verts[verts >= 0]


def analyze_boundary_isothermic(net: Net3, normals: Net3, index: int,
                                axis: str = "row", tol: float = 1e-9) -> BoundaryAnalysis:
    """Planarity of a curvature line together with its normal congruence.

    kind is 'planar_curvature_line' only when the points F and F+N along
    the line fit one plane; the independent great-circle test on N is
    cross-checked and recorded.
    """
    verts = boundary_vertices(net.domain, index, axis)
    f_pts, n_pts = net.points[verts], normals.points[verts]
    joint = np.vstack([f_pts, f_pts + n_pts])
    scale = max(float(np.linalg.norm(f_pts.max(axis=0) - f_pts.min(axis=0))), 1e-300)

    residuals: dict = {}
    plane = None
    try:
        plane_fit, r_joint = fit_plane(joint)
    except DegenerateFit:
        plane_fit, r_joint = None, float("inf")
    residuals["congruence_plane"] = r_joint
    try:
        _, r_row = fit_plane(f_pts) if len(f_pts) >= 3 else (None, 0.0)
    except DegenerateFit:
        r_row = 0.0  # collinear row is trivially planar
    residuals["row_plane"] = r_row

    # independent Gauss-image circle tests (unit vectors: absolute tolerance)
    try:
        gauss_plane, r_great = fit_plane_through_origin(n_pts)
    except DegenerateFit:
        gauss_plane, r_great = None, float("inf")
    residuals["gauss_great_circle"] = r_great
    try:
        _, r_small = fit_plane(n_pts) if len(n_pts) >= 3 else (None, float("inf"))
    except DegenerateFit:
        r_small = float("inf")
    residuals["gauss_circle"] = r_small

    planar = r_joint <= tol * scale
    great = r_great <= tol
    residuals["tests_agree"] = planar == great

    if planar:
        kind = "planar_curvature_line"
        plane = plane_fit
        gauss_circle = "great_circle"
    else:
        kind = "none"
        gauss_circle = "great_circle" if great else (
            "small_circle" if r_small <= tol else "none")
    return BoundaryAnalysis(axis, index, kind, plane=plane,
                            gauss_circle=gauss_circle, gauss_plane=gauss_plane,
                            residuals=residuals, scale=scale)


def analyze_boundary_asymptotic(net: Net3, index: int, axis: str = "row",
                                tol: float = 1e-9) -> BoundaryAnalysis:
    """Straight-line test of an asymptotic lattice line.

    Cross-checks that the tangent-plane normals along the line lie in the
    plane perpendicular to it (the great-circle condition).
    """
    verts = boundary_vertices(net.domain, index, axis)
    pts = net.points[verts]
    scale = max(float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))), 1e-300)
    line, r_line = fit_line(pts)
    residuals = {"line": r_line}

    r_perp = float(np.abs(tangent_normals(net, verts) @ line.direction).max())
    residuals["gauss_perpendicular"] = r_perp

    straight = r_line <= tol * scale
    residuals["tests_agree"] = straight == (r_perp <= max(tol, 1e3 * r_line / scale))
    if straight:
        return BoundaryAnalysis(axis, index, "straight_asymptotic_line", line=line,
                                gauss_circle="great_circle", residuals=residuals,
                                scale=scale)
    return BoundaryAnalysis(axis, index, "none", line=line, residuals=residuals, scale=scale)


# ---------------------------------------------------------------------------
# Extensions
# ---------------------------------------------------------------------------

def _check_extreme_row(domain: LatticeDomain, index: int) -> int:
    """Returns +1 when index is the top row, -1 when the bottom row."""
    if index == domain.n1:
        return 1
    if index == domain.n0:
        return -1
    raise NotReflectable(f"row {index} is not a boundary row of the domain")


def _extend_rows(domain: LatticeDomain, index: int) -> tuple[LatticeDomain, np.ndarray, ...]:
    """The domain mirrored across its boundary row index, and for each of
    its vertices the number of the same vertex in domain (-1 for the new
    ones) and of the mirrored one."""
    side = _check_extreme_row(domain, index)
    depth = (index - domain.n0) if side > 0 else (domain.n1 - index)
    if depth == 0:
        raise NotReflectable("nothing to reflect: domain is a single row")
    new_range = (domain.n0, index + depth) if side > 0 else (index - depth, domain.n1)
    mask = set(domain.mask)
    for (m, n) in domain.mask:
        mask.add((m, 2 * index - n))
    extended = LatticeDomain(domain.m_range, new_range, frozenset(mask))
    m, n = extended.coords.T
    return extended, domain.indices(m, n), domain.indices(m, 2 * index - n)


def _mirrored(pts: np.ndarray, old: np.ndarray, mirror: np.ndarray, iso: Isometry,
              direction: bool = False) -> np.ndarray:
    """Rows of the extended domain: the old ones kept, the new ones the
    iso.apply (or iso.apply_direction) images of their mirrors, with the
    same matrix-vector products."""
    images = (iso.matrix @ pts[mirror][:, :, None])[:, :, 0]
    return np.where((old >= 0)[:, None], pts[old],
                    images if direction else images + iso.translation)


def _mirror_labels(labels: EdgeLabels, domain_new: LatticeDomain,
                   index: int) -> EdgeLabels:
    beta = dict(labels.beta)
    for n in range(domain_new.n0, domain_new.n1):
        if n not in beta:
            beta[n] = labels.beta[2 * index - 1 - n]
    return EdgeLabels(labels.alpha, beta)


def reflect_isothermic(net: Net3, normals: Net3, index: int,
                       axis: str = "row", tol: float = 1e-9,
                       labels: EdgeLabels | None = None
                       ) -> tuple[Net3, Net3, EdgeLabels | None]:
    """Extend an isothermic minimal (or cmc) net by plane reflection.

    The boundary line at index must be a planar curvature line whose
    normal congruence lies in the same plane.  Returns the extended net,
    the mirrored Gauss map (cross-validated against normal propagation)
    and, when labels are given, the extended edge labels.
    """
    if axis == "col":
        f, n, lab = reflect_isothermic(net.transpose(), normals.transpose(),
                                       index, "row", tol,
                                       labels.transpose() if labels else None)
        return f.transpose(), n.transpose(), lab.transpose() if lab else None

    analysis = analyze_boundary_isothermic(net, normals, index, "row", tol)
    if analysis.kind != "planar_curvature_line":
        raise NotReflectable(
            f"row {index}: congruence-plane residual "
            f"{analysis.residuals['congruence_plane']:.3e}")
    iso = Isometry.plane_reflection(analysis.plane)

    new_domain, old, mirror = _extend_rows(net.domain, index)
    net_ext = Net3(new_domain, _mirrored(net.points, old, mirror, iso))
    normals_ext = Net3(new_domain, _mirrored(normals.points, old, mirror, iso, True),
                       check_edges=False)

    # the reflected Gauss map must agree with the uniquely propagated one
    seed = net.domain.vertices[0]
    propagated = propagate_normals(net_ext, normals[seed], root=seed, tol=max(tol, 1e-9))
    worst = float(np.max(np.linalg.norm(propagated.points - normals_ext.points, axis=1)))
    if worst > max(tol, 1e-9) * 10:
        raise InconsistentBundle(
            f"mirrored normals deviate from propagation by {worst:.3e}")

    labels_ext = (_mirror_labels(labels, new_domain, index)
                  if labels is not None else None)
    return net_ext, normals_ext, labels_ext


def rotate_extend_asymptotic(net: Net3, index: int, axis: str = "row",
                             tol: float = 1e-9,
                             labels: EdgeLabels | None = None
                             ) -> tuple[Net3, EdgeLabels | None]:
    """Extend an asymptotic minimal net by 180-degree rotation.

    The boundary line at index must be straight; the new rows are the
    rotation images of the mirrored rows.
    """
    if axis == "col":
        f, lab = rotate_extend_asymptotic(net.transpose(), index, "row", tol,
                                          labels.transpose() if labels else None)
        return f.transpose(), lab.transpose() if lab else None

    analysis = analyze_boundary_asymptotic(net, index, "row", tol)
    if analysis.kind != "straight_asymptotic_line":
        raise NotReflectable(
            f"row {index}: line residual {analysis.residuals['line']:.3e}")
    iso = Isometry.line_rotation_180(analysis.line)

    new_domain, old, mirror = _extend_rows(net.domain, index)
    labels_ext = (_mirror_labels(labels, new_domain, index)
                  if labels is not None else None)
    return Net3(new_domain, _mirrored(net.points, old, mirror, iso)), labels_ext


# ---------------------------------------------------------------------------
# Corner angles
# ---------------------------------------------------------------------------

def _wedge_angle(u1: np.ndarray, u2: np.ndarray, axis_dir: np.ndarray,
                 apex: np.ndarray, probe: np.ndarray) -> float:
    """Dihedral angle between planes with normals u1, u2 on the probe's side.

    axis_dir spans the intersection line through apex; probe selects which
    of the four wedges to measure.
    """
    e = axis_dir / np.linalg.norm(axis_dir)
    w1 = np.cross(e, u1)
    w1 /= np.linalg.norm(w1)
    w2 = np.cross(e, u2)
    w2 /= np.linalg.norm(w2)
    v = probe - apex
    v = v - (v @ e) * e
    nv = np.linalg.norm(v)
    if nv < 1e-14:
        raise NotPlanarBoundary("probe point sits on the intersection line")
    v /= nv
    # decompose v = x*w1 + y*w2 and flip signs until both coefficients >= 0
    basis = np.column_stack([w1, w2])
    coeff, *_ = np.linalg.lstsq(basis, v, rcond=None)
    if coeff[0] < 0:
        w1 = -w1
    if coeff[1] < 0:
        w2 = -w2
    return float(math.acos(max(-1.0, min(1.0, float(w1 @ w2)))))


def _nearest_quad(domain: LatticeDomain, corner: Vertex):
    if not domain.quads:
        raise NotPlanarBoundary("domain has no quads")
    return min(domain.quads,
               key=lambda q: (abs(q[0] - corner[0]) + abs(q[1] - corner[1]), q))


def corner_angles(net: Net3, normals: Net3, corner: Vertex,
                  tol: float = 1e-9) -> tuple[float, float]:
    """Angles between the two boundary planes at a domain corner.

    Returns (angleP, angleQ): the dihedral angle of the curvature-line
    planes measured on the side of the adjacent surface quad, and the
    angle of the corresponding great-circle planes on the side of the
    adjacent Gauss quad.  The two are supplementary.
    """
    m0, n0 = corner
    dom = net.domain
    if m0 not in (dom.m0, dom.m1) or n0 not in (dom.n0, dom.n1):
        raise NotPlanarBoundary(f"{corner} is not a domain corner")
    row = analyze_boundary_isothermic(net, normals, n0, "row", tol)
    col = analyze_boundary_isothermic(net, normals, m0, "col", tol)
    for a in (row, col):
        if a.kind != "planar_curvature_line":
            raise NotPlanarBoundary(
                f"{a.axis} {a.index} residual {a.residuals['congruence_plane']:.3e}")

    quad = _nearest_quad(dom, corner)
    f_probe = np.mean(net.quad_points(quad), axis=0)
    n_probe = np.mean(normals.quad_points(quad), axis=0)

    u1, u2 = row.plane.normal, col.plane.normal
    axis_dir = np.cross(u1, u2)
    if np.linalg.norm(axis_dir) < 1e-12:
        raise NotPlanarBoundary("boundary planes are parallel")

    # apex of the surface wedge: the corner vertex if present, otherwise
    # any point on the intersection line of the two fitted planes
    if corner in dom:
        apex = net[corner]
    else:
        a_mat = np.vstack([u1, u2])
        b_vec = np.array([row.plane.offset, col.plane.offset])
        apex, *_ = np.linalg.lstsq(a_mat, b_vec, rcond=None)

    angle_p = _wedge_angle(u1, u2, axis_dir, apex, f_probe)
    angle_q = _wedge_angle(row.gauss_plane.normal, col.gauss_plane.normal,
                           axis_dir, np.zeros(3), n_probe)
    return angle_p, angle_q


# ---------------------------------------------------------------------------
# Symmetry orbits
# ---------------------------------------------------------------------------

class SymmetryOrbit:
    """Closed isometry group applied to a fundamental piece, welded.

    weld_residual is the max weld distance relative to the mesh scale.
    """

    def __init__(self, fundamental: Net3, generators: list[Isometry],
                 elements: list[Isometry], vertices: np.ndarray,
                 faces: list[tuple[int, int, int, int]], weld_residual: float,
                 weld_tol: float):
        self.fundamental, self.generators, self.elements = fundamental, generators, elements
        self.vertices, self.faces = vertices, faces
        self.weld_residual, self.weld_tol = weld_residual, weld_tol

    def scale(self) -> float:
        return float(np.linalg.norm(self.vertices.max(axis=0) - self.vertices.min(axis=0)))

    def closure_residual(self) -> float:
        """Max distance from any product of two elements to the nearest element,
        with the products a∘b of one a at a time in one (b, e) distance table."""
        mats = np.stack([e.matrix for e in self.elements])
        shifts = np.stack([e.translation for e in self.elements])
        table, worst = _components(mats, shifts), 0.0
        for mat, shift in zip(mats, shifts):
            prod_m = mat @ mats                                   # (b, 3, 3)
            prod_t = (mat @ shifts[..., None])[..., 0] + shift    # (b, 3)
            dist = _distance_table(_components(prod_m, prod_t), table)
            worst = max(worst, float(dist.min(axis=1).max()))
        return worst

    def invariance_residual(self, iso: Isometry) -> float:
        """Max distance from transformed welded vertices to the vertex set."""
        moved = iso.apply_many(self.vertices)
        i, _, dist = _near_pairs(moved, self.vertices, max(self.weld_tol * self.scale(), 1e-12))
        nearest = np.full(len(moved), np.inf)
        np.minimum.at(nearest, i, dist)
        return float(nearest.max(initial=0.0))


def _components(mats: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Isometries as a (12, k) array: 9 matrix entries, then 3 translation entries."""
    return np.concatenate([mats.reshape(-1, 9), shifts], axis=1).T


def _distance_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Isometry.distance of every column of a to every column of b, per component."""
    dist = np.abs(a[0][:, None] - b[0])
    for comp_a, comp_b in zip(a[1:], b[1:]):
        np.maximum(dist, np.abs(comp_a[:, None] - comp_b), out=dist)
    return dist


def _first_representatives(n: int, later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """Items 0..n-1 in order; one is a representative unless it conflicts with an earlier
    representative (pairs later > earlier).  Each round decides the first undecided one."""
    undecided = np.bincount(later, minlength=n) > 0
    rep = ~undecided
    while undecided.any():
        taken = undecided & (np.bincount(later[rep[earlier]], minlength=n) > 0)
        free = undecided & ~taken & (np.bincount(later[undecided[earlier]], minlength=n) == 0)
        rep, undecided = rep | free, undecided & ~taken & ~free
    return rep


def _near_pairs(queries: np.ndarray, points: np.ndarray, radius: float):
    """All (i, j, |points[j] - queries[i]|) within radius, as three arrays.  Cells of
    side 2 * radius, or more where 21 bits per axis do not cover the spread, put such
    pairs in the 27 neighbouring cells, found in the sorted cell keys.  Distances take
    the BLAS dot product that np.linalg.norm takes of one vector, so their bits match."""
    both = np.concatenate([queries, points])
    low = both.min(axis=0)
    cell = max(2.0 * radius, float((both.max(axis=0) - low).max()) / (1 << 20), 1e-300)
    keys = [k[:, 0] << 42 | k[:, 1] << 21 | k[:, 2]
            for k in (np.floor((p - low) / cell).astype(np.int64) + 1 for p in (queries, points))]
    by_key, order = np.argsort(keys[0], kind="stable"), np.argsort(keys[1], kind="stable")
    targets, sorted_keys = keys[0][by_key], keys[1][order]
    pairs = []
    for offset in (np.indices((3, 3, 3)).reshape(3, -1).T - 1) @ [1 << 42, 1 << 21, 1]:
        start = np.searchsorted(sorted_keys, targets + offset)
        n = np.searchsorted(sorted_keys, targets + offset, "right") - start
        pairs.append((by_key[np.repeat(np.arange(len(n)), n)],
                      order[np.arange(n.sum()) + np.repeat(start - np.cumsum(n) + n, n)]))
    i, j = np.concatenate(pairs, axis=1)
    diff = points[j] - queries[i]
    dist = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
    return i[dist <= radius], j[dist <= radius], dist[dist <= radius]


def close_group(generators: list[Isometry], max_word: int = 16,
                max_elements: int = 10000, dedup_tol: float = 1e-9) -> list[Isometry]:
    """Breadth-first closure of the generated group.

    Each word length composes every frontier element with every generator as
    stacked arrays; a candidate is new when its Isometry.distance to every element
    found before it exceeds dedup_tol.  Raises OrbitExplosion when new elements keep
    appearing past max_word or the count exceeds max_elements (likely infinite).
    """
    gen_m = np.reshape([g.matrix for g in generators], (-1, 3, 3))
    gen_t = np.reshape([g.translation for g in generators], (-1, 3))
    elements, frontier = [Isometry.identity()], [Isometry.identity()]
    known = _components(np.eye(3)[None], np.zeros((1, 3)))
    for word in range(1, max_word + 1):
        cand_m = np.matmul(gen_m, np.array([e.matrix for e in frontier])[:, None])
        cand_t = np.matmul(gen_m, np.array([e.translation for e in frontier])[:, None, :, None])
        cand_m, cand_t = cand_m.reshape(-1, 3, 3), (cand_t[..., 0] + gen_t).reshape(-1, 3)
        cands, count, start = _components(cand_m, cand_t), len(elements), 0
        while start < len(cand_m):
            k = known.shape[1]
            block = cands[:, start:start + max(1, (1 << 18) // (k + 512))]  # tables <= 2**18
            table = _distance_table(block, np.concatenate([known, block], axis=1))
            later, earlier = np.nonzero(np.tril(~(table > dedup_tol), k - 1))  # NaN: no merge
            new = _first_representatives(k + block.shape[1], k + later, earlier)[k:]
            elements.extend(Isometry("composition", cand_m[i], cand_t[i])
                            for i in start + np.flatnonzero(new))
            if len(elements) > max_elements:
                raise OrbitExplosion(
                    f"more than {max_elements} elements at word length {word}")
            known, start = np.concatenate([known, block[:, new]], axis=1), start + len(new)
        frontier = elements[count:]
        if not frontier:
            return elements
    raise OrbitExplosion(f"group did not close within word length {max_word}")


def build_orbit(piece: Net3, generators: list[Isometry], max_word: int = 16,
                max_elements: int = 10000, dedup_tol: float = 1e-9,
                weld_tol: float = 1e-9) -> SymmetryOrbit:
    """Apply the closed group to the piece and weld coincident vertices.

    Copies are emitted in group-element discovery order; faces of copies
    with negative determinant are reversed to keep orientations usable.
    Each moved point, in that order, welds to its nearest earlier
    representative within weld_tol times the piece's size, or becomes one."""
    elements = close_group(generators, max_word, max_elements, dedup_tol)
    scale = max(piece.scale(), 1e-300)
    moved = np.concatenate([e.apply_many(piece.points) for e in elements])
    i, j, dist = _near_pairs(moved, moved, weld_tol * scale)
    rep = _first_representatives(len(moved), i[j < i], j[j < i])
    nearest = np.lexsort((j, dist, ~((j < i) & rep[j]), i))
    nearest = nearest[np.unique(i[nearest], return_index=True)[1]]
    nearest = nearest[~rep[i[nearest]]]
    number = np.cumsum(rep) - 1
    number[i[nearest]] = number[j[nearest]]
    flip = np.array([e.det() < 0 for e in elements])
    faces = number.reshape(len(elements), -1)[:, piece.domain.quad_index]
    faces = np.where(flip[:, None, None], faces[..., [0, 3, 2, 1]], faces).reshape(-1, 4)
    first = np.sort(np.unique(np.sort(faces, axis=1), axis=0, return_index=True)[1])
    return SymmetryOrbit(piece, list(generators), elements, moved[rep],
                         [tuple(f) for f in faces[first].tolist()],
                         float(dist[nearest].max(initial=0.0)) / scale, weld_tol)
