"""Schwarz-type extensions across reflectable boundary lines and symmetry
orbits, and the reflect and orbit commands that build them.

The extensions mirror the lattice across a boundary line that `boundary`
finds reflectable.  Orbits close the group generated by boundary
reflections breadth-first and weld the transformed copies into a single
quad mesh along the boundary lines the mirrors fix.
"""

from __future__ import annotations

import numpy as np

from . import coxeter, minimal
from .boundary import (BoundaryAnalysis, analyze_boundary_asymptotic,
                       analyze_boundary_isothermic, boundary_lines, boundary_vertices)
from .cli import EXIT_OK, _check_paths, export_orbit_obj
from .errors import InconsistentBundle, NotReflectable, OrbitExplosion, ParseError
from .jsonio import _fmt_float, json_list, write_text
from .lattice import EdgeLabels, LatticeDomain, Net3, _norm
from .mobius import Isometry, PlaneR3
from .net import json_rows, read_net, write_net


# ---------------------------------------------------------------------------
# Extensions
# ---------------------------------------------------------------------------

def _check_boundary_line(domain: LatticeDomain, index: int, axis: str) -> None:
    """NotReflectable, worded with the caller's axis, unless index is the first
    or last row (column) of a domain more than one line thick."""
    low, high = (domain.n0, domain.n1) if axis == "row" else (domain.m0, domain.m1)
    if index not in (low, high):
        raise NotReflectable(f"{axis} {index} is not a boundary {axis} of the domain")
    if low == high:
        raise NotReflectable(f"nothing to reflect: the domain is a single {axis}")


def _mirror_domain(domain: LatticeDomain, index: int,
                   axis: str) -> tuple[LatticeDomain, np.ndarray, np.ndarray]:
    """The domain mirrored across its first or last row n = index or column
    m = index, and for each of its vertices the number of the same vertex in
    domain (-1 for the new ones) and of the mirrored one."""
    k = 1 if axis == "row" else 0           # the mirrored coordinate: n or m
    ranges = [domain.m_range, domain.n_range]
    low, high = ranges[k]
    ranges[k] = (low, 2 * index - low) if index == high else (2 * index - high, high)
    mask = set(domain.mask)
    for v in domain.mask:
        mask.add(v[:k] + (2 * index - v[k],) + v[k + 1:])
    extended = LatticeDomain(*ranges, frozenset(mask))
    coords = extended.coords.T
    image = coords.copy()
    image[k] = 2 * index - image[k]
    return extended, domain.indices(*coords), domain.indices(*image)


def _mirrored(pts: np.ndarray, old: np.ndarray, mirror: np.ndarray, iso: Isometry,
              direction: bool = False) -> np.ndarray:
    """Rows of the extended domain: the old ones kept, the new ones the
    iso.apply (or, with direction, the linear part's) images of their
    mirrors, with the same matrix-vector products."""
    images = (iso.matrix @ pts[mirror][:, :, None])[:, :, 0]
    return np.where((old >= 0)[:, None], pts[old],
                    images if direction else images + iso.translation)


def _mirror_labels(labels: EdgeLabels, domain: LatticeDomain, index: int,
                   axis: str) -> EdgeLabels:
    """The labels of domain mirrored across its first or last row n = index:
    alpha kept, and beta(n) = beta(2 index - 1 - n) on the new rows; across a
    column m = index, beta kept and alpha mirrored likewise."""
    def mirror(values: np.ndarray, high: int) -> np.ndarray:
        return np.concatenate([values, values[::-1]] if index == high
                              else [values[::-1], values])

    if axis == "row":
        return EdgeLabels(labels.alpha, mirror(labels.beta, domain.n1))
    return EdgeLabels(mirror(labels.alpha, domain.m1), labels.beta)


def _extend(net: Net3, normals: Net3 | None, labels: EdgeLabels | None, index: int,
            axis: str, iso: Isometry) -> tuple[Net3, Net3 | None, EdgeLabels | None]:
    """The net, and its normals and labels when given, extended across the
    boundary row or column at index: the new vertices are the iso images of
    their mirror vertices, and the labels are mirrored."""
    new_domain, old, mirror = _mirror_domain(net.domain, index, axis)
    net_ext = Net3(new_domain, _mirrored(net.points, old, mirror, iso))
    if normals is not None:
        normals = Net3(new_domain, _mirrored(normals.points, old, mirror, iso, True),
                       check_edges=False)
    if labels is not None:
        labels = _mirror_labels(labels, net.domain, index, axis)
    return net_ext, normals, labels


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
    _check_boundary_line(net.domain, index, axis)
    analysis = analyze_boundary_isothermic(net, normals, index, axis)
    if not analysis.holds(tol):
        raise NotReflectable(f"{axis} {index}: congruence-plane residual "
                             f"{analysis.residual:.3e}")
    net_ext, normals_ext, labels_ext = _extend(net, normals, labels, index, axis,
                                               Isometry.plane_reflection(analysis.plane))

    # the reflected Gauss map must agree with the uniquely propagated one
    seed = net.domain.vertices[0]
    propagated = minimal.propagate_normals(net_ext, normals[seed], root=seed, tol=max(tol, 1e-9))
    worst = float(np.max(np.linalg.norm(propagated.points - normals_ext.points, axis=1)))
    if worst > max(tol, 1e-9) * 10:
        raise InconsistentBundle(
            f"mirrored normals deviate from propagation by {worst:.3e}")
    return net_ext, normals_ext, labels_ext


def rotate_extend_asymptotic(net: Net3, index: int, axis: str = "row",
                             tol: float = 1e-9,
                             labels: EdgeLabels | None = None
                             ) -> tuple[Net3, EdgeLabels | None]:
    """Extend an asymptotic minimal net by 180-degree rotation.

    The boundary line at index must be straight; the new rows are the
    rotation images of the mirrored rows.
    """
    _check_boundary_line(net.domain, index, axis)
    analysis = analyze_boundary_asymptotic(net, index, axis)
    if not analysis.holds(tol):
        raise NotReflectable(f"{axis} {index}: line residual {analysis.residual:.3e}")
    net_ext, _, labels_ext = _extend(net, None, labels, index, axis,
                                     Isometry.line_rotation_180(analysis.line))
    return net_ext, labels_ext


# ---------------------------------------------------------------------------
# Symmetry orbits
# ---------------------------------------------------------------------------

class SymmetryOrbit:
    """Closed isometry group applied to a fundamental piece, welded.

    weld_residual is the largest distance between two copies of one welded
    vertex, relative to the piece's size: a crack check, roundoff when each
    mirror fixes its boundary line.
    """

    def __init__(self, elements: list[Isometry], vertices: np.ndarray,
                 faces: list[tuple[int, int, int, int]], weld_residual: float,
                 closure: float):
        self.elements, self.vertices, self.faces = elements, vertices, faces
        self.weld_residual, self._closure = weld_residual, closure

    def scale(self) -> float:
        return float(np.linalg.norm(self.vertices.max(axis=0) - self.vertices.min(axis=0)))

    def closure_residual(self) -> float:
        """Max Isometry.distance from a product s∘f that close_group forms to its
        element in the Cayley table: roundoff when the mirrors meet at π/m_ij."""
        return self._closure


class Group(list):
    """Elements in discovery order; times[k, g] is the index of g∘s_k."""


def close_group(mirrors: list[PlaneR3], max_word: int = 16) -> Group:
    """Breadth-first closure of the group of the reflections in the mirror planes.

    Each word length composes every frontier element f with every generator s
    as stacked arrays and takes the candidates s∘f in order, f by f and s in
    generator order.  A candidate is new exactly when its coset in the Cayley
    table is (coset c s is the element s∘g_c); closure is the largest
    Isometry.distance from a candidate to its table element.  OrbitExplosion
    from coxeter._coxeter_matrix, and when new elements appear past max_word: at once
    when max_word <= some m_ij, a length some element has."""
    m = coxeter._coxeter_matrix(mirrors)
    if max(map(max, m), default=0) >= max_word:
        raise OrbitExplosion(f"group did not close within word length {max_word}")
    table = coxeter._cayley_table(m)
    gens = [Isometry.plane_reflection(p) for p in mirrors]
    gen_m = np.reshape([g.matrix for g in gens], (-1, 3, 3))
    gen_t = np.reshape([g.translation for g in gens], (-1, 3))
    group, cosets, parents, index = Group([Isometry.identity()]), [0], [], {0: 0}
    frontier, group.closure = range(1), 0.0
    for _ in range(max_word):
        cand_m = np.matmul(gen_m, np.array([group[f].matrix for f in frontier])[:, None])
        cand_t = np.matmul(gen_m, np.array([group[f].translation for f in frontier])
                           [:, None, :, None])
        cand_m, cand_t = cand_m.reshape(-1, 3, 3), (cand_t[..., 0] + gen_t).reshape(-1, 3)
        count = len(group)
        for i, (f, s) in enumerate([(f, s) for f in frontier for s in range(len(mirrors))]):
            coset, cand = table[cosets[f]][s], Isometry(cand_m[i], cand_t[i])
            if coset not in index:
                index[coset] = len(group)
                group.append(cand)
                cosets.append(coset)
                parents.append((f, s))
            group.closure = max(group.closure, group[index[coset]].distance(cand))
        frontier = range(count, len(group))
        if not frontier:
            right = [table[0]]          # g = t∘h gives g∘s = t∘(h∘s), h found before g
            for h, t in parents:
                right.append([table[c][t] for c in right[h]])
            group.times = np.array([[index[c] for c in row] for row in right]).T
            return group
    raise OrbitExplosion(f"group did not close within word length {max_word}")


def build_orbit(piece: Net3, mirrors: list[BoundaryAnalysis],
                max_word: int = 16) -> SymmetryOrbit:
    """Apply the group of the mirrors' plane reflections to the piece and weld
    the copies.

    mirrors are planar boundary analyses (analyze_boundary_isothermic), in
    generator order.  By the reflection principle the reflection s in a
    mirror's plane fixes the vertices of its lattice line, and copies g and
    g∘s share them: copy g's vertex v is that of the first copy in g<F>, F
    the generators whose lines hold v.  So a piece's own vertices never weld.
    Copies are emitted in group-element discovery order; faces of copies
    with negative determinant are reversed to keep orientations usable."""
    elements = close_group([m.plane for m in mirrors], max_word)
    scale = max(piece.scale(), 1e-300)
    fixes = np.zeros((len(mirrors), len(piece.points)), dtype=bool)
    for k, m in enumerate(mirrors):
        fixes[k, boundary_vertices(piece.domain, m.index, m.axis)] = True

    def coset_firsts(fixed: tuple[bool, ...]) -> np.ndarray:
        label, before = np.arange(len(elements)), None
        while not np.array_equal(label, before):
            before = label
            for k in np.flatnonzero(fixed):
                label = np.minimum(label, label[elements.times[k]])
        return label

    keys = [tuple(col) for col in fixes.T.tolist()]
    firsts = {key: coset_firsts(key) for key in set(keys)}
    first = np.stack([firsts[key] for key in keys], axis=1)
    moved = np.stack([e.apply_many(piece.points) for e in elements])
    rep = first == np.arange(len(elements))[:, None]
    vertex = np.arange(len(piece.points))
    number = (np.cumsum(rep) - 1).reshape(rep.shape)[first, vertex]
    flip = np.array([e.det() < 0 for e in elements])
    faces = number[:, piece.domain.quad_index]
    faces = np.where(flip[:, None, None], faces[..., [0, 3, 2, 1]], faces).reshape(-1, 4)
    return SymmetryOrbit(elements, moved[rep], [tuple(f) for f in faces.tolist()],
                         float(_norm(moved - moved[first, vertex]).max(initial=0.0)) / scale,
                         elements.closure)


# ---------------------------------------------------------------------------
# The reflect and orbit commands
# ---------------------------------------------------------------------------

def orbit_to_json(orbit: SymmetryOrbit, rows: list[str]) -> str:
    """The .orbit.json document of an orbit, with 17-significant-digit floats,
    given the JSON rows of its vertices (json_rows)."""
    elements = [f'{{"matrix": {json_list(json_rows(e.matrix))}, '
                f'"translation": {json_list(map(_fmt_float, e.translation.tolist()))}}}'
                for e in orbit.elements]
    return (f'{{"kind": "orbit", "vertices": {json_list(rows)}, '
            f'"faces": {json_list(["[%d, %d, %d, %d]" % f for f in orbit.faces])}, '
            f'"elements": {json_list(elements)}, '
            f'"weld_residual": {_fmt_float(orbit.weld_residual)}}}')


def _orbit(piece: Net3, lines: dict, tol: float, max_word: int) -> SymmetryOrbit:
    """The orbit of the piece under the group of its boundary reflections, from
    the plane fits of its boundary lines; a line counts as planar at
    max(tol, 1e-7) of its size."""
    mirrors = [line for line in lines.values() if line.holds(max(tol, 1e-7))]
    if not mirrors:
        raise NotReflectable("no reflectable boundary lines found")
    return build_orbit(piece, mirrors, max_word)


def _write_orbit(orbit: SymmetryOrbit, path: str, obj_path: str | None) -> None:
    """The orbit's .orbit.json file, and its OBJ file when obj_path is given."""
    rows = json_rows(orbit.vertices)        # each coordinate formatted once
    write_text(path, orbit_to_json(orbit, rows) + "\n")
    if obj_path:
        export_orbit_obj(orbit, obj_path, rows)


def cmd_reflect(args) -> int:
    _check_paths(args.out, inputs=(args.net,))
    bundle = read_net(args.net)
    if bundle.labels is None:
        raise ParseError("reflection requires edge labels in the net file")
    axis, index = ("row", args.row) if args.row is not None else ("col", args.col)
    if args.asymptotic:
        net_ext, labels_ext = rotate_extend_asymptotic(bundle.net, index, axis, args.tol,
                                                       bundle.labels)
        write_net(args.out, net_ext, labels_ext)
    else:
        if bundle.normals is None:
            raise ParseError("isothermic reflection requires normals in the net file")
        net_ext, normals_ext, labels_ext = reflect_isothermic(
            bundle.net, bundle.normals, index, axis, args.tol, bundle.labels)
        write_net(args.out, net_ext, labels_ext, normals_ext)
    return EXIT_OK


def cmd_orbit(args) -> int:
    _check_paths(args.out, args.obj, inputs=(args.net,))
    bundle = read_net(args.net)
    if bundle.normals is None:
        raise ParseError("orbit construction requires normals in the net file")
    lines = boundary_lines(bundle.net, bundle.normals)
    _write_orbit(_orbit(bundle.net, lines, args.tol, args.max_word), args.out, args.obj)
    return EXIT_OK
