"""The finite reflection group of a set of mirror planes, as a Coxeter
matrix and the Cayley table of its elements, and the angles between a
piece's boundary planes at its corners, which are those mirrors' angles."""

from __future__ import annotations

import math

import numpy as np

from .boundary import analyze_boundary_isothermic, boundary_vertices
from .errors import NotPlanarBoundary, OrbitExplosion
from .lattice import LatticeDomain, Net3, Vertex, _norm
from .mobius import PlaneR3, fit_plane_through_origin


# Mirrors at angle θ give (s_i s_j)^m = 1 for m = round(π/θ) when π/θ is within ANGLE_BOUND
# of m.  The families' fitted angles miss by at most 5.6e-14, and 1 rad by 0.14.
ANGLE_BOUND = 1e-6


def _coxeter_matrix(planes: list[PlaneR3]) -> list[list[int]]:
    """m_ij = round(π/θ_ij) for the angle θ_ij between mirror planes i and j.
    OrbitExplosion unless each π/θ_ij is within ANGLE_BOUND of an integer, the normals
    are independent (so the planes share a point) and the form (-cos π/m_ij) is
    positive definite by more than 1e-12 (the Euclidean groups' singular forms compute
    within 1e-15 of 0): then the mirrors bound a chamber of the finite Coxeter group
    W(m), which they generate (Humphreys 1990, ch. 5-6)."""
    normals = np.reshape([p.normal for p in planes], (-1, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.pi / np.arctan2(_norm(np.cross(normals[:, None], normals)),
                                   np.abs(normals @ normals.T))
        np.fill_diagonal(ratio, 1.0)
        off = np.argwhere(~(np.abs(ratio - np.rint(ratio)) <= ANGLE_BOUND))
    for i, j in off[:1]:
        raise OrbitExplosion(f"mirrors {i} and {j}: pi/angle = {ratio[i, j]:.9g} is not "
                             f"within {ANGLE_BOUND:g} of an integer")
    if np.linalg.matrix_rank(normals) < len(planes):
        raise OrbitExplosion("the mirror normals are linearly dependent")
    m = np.rint(ratio).astype(int)
    if np.linalg.eigvalsh(-np.cos(np.pi / m)).min(initial=1.0) <= 1e-12:
        raise OrbitExplosion(f"the mirrors bound no finite Coxeter chamber: m = {m.tolist()}")
    return m.tolist()


def _cayley_table(m: list[list[int]]) -> list[list[int]]:
    """Todd-Coxeter (HLT) enumeration of <s_i | s_i^2, (s_i s_j)^m_ij>: table[c][i]
    is the coset c s_i, coset 0 the identity, and table[c] None for a coset
    merged into another.  Each s_i is an involution, so c s_i = d links
    d s_i = c.  A coincidence merges two cosets' rows, and entries are read
    through the merges (rep)."""
    n = len(m)
    relators = [[i, j] * m[i][j] for i in range(n) for j in range(i + 1, n)]
    table, alias = [[None] * n], [0]

    def rep(c):
        while c is not None and alias[c] != c:
            c = alias[c]
        return c

    def link(c, s, d):                      # d == len(table) defines a new coset
        if d == len(table):
            table.append([None] * n)
            alias.append(d)
        table[c][s], table[d][s] = d, c

    def merge(pairs):
        while pairs:
            c, d = sorted(map(rep, pairs.pop()))
            if c != d:
                alias[d] = c
                pairs += [(e, f) for e, f in zip(table[c], table[d]) if None not in (e, f)]
                table[c] = [f if e is None else e for e, f in zip(table[c], table[d])]

    c = 0
    while c < len(table):
        for word in relators:               # scan and fill, each end as far as it goes
            f, b, i, j = c, c, 0, len(word) - 1
            while alias[c] == c:
                while i <= j and table[f][word[i]] is not None:
                    f, i = rep(table[f][word[i]]), i + 1
                while j >= i and table[b][word[j]] is not None:
                    b, j = rep(table[b][word[j]]), j - 1
                if j < i:
                    merge([(f, b)])
                    break
                link(f, word[i], b if i == j else len(table))
        for s in range(n):
            if alias[c] == c and table[c][s] is None:
                link(c, s, len(table))
        c += 1
    return [[rep(d) for d in row] if alias[c] == c else None for c, row in enumerate(table)]


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
    row = analyze_boundary_isothermic(net, normals, n0, "row")
    col = analyze_boundary_isothermic(net, normals, m0, "col")
    for a in (row, col):
        if not a.holds(tol):
            raise NotPlanarBoundary(f"{a.axis} {a.index} residual {a.residual:.3e}")

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
    gauss = [fit_plane_through_origin(normals.points[boundary_vertices(dom, a.index, a.axis)])[0]
             for a in (row, col)]
    angle_q = _wedge_angle(gauss[0].normal, gauss[1].normal, axis_dir, np.zeros(3), n_probe)
    return angle_p, angle_q
