"""Z^2-indexed nets on masked rectangular domains and their predicates.

A LatticeDomain is an inclusive integer box minus a mask of excluded
vertices.  Elementary quads are indexed by their lower-left corner (m, n)
and enumerate the vertex cycle (m,n), (m+1,n), (m+1,n+1), (m,n+1).

Edge labels are the cross-ratio factorizing functions: the label of a
horizontal edge (m,n)-(m+1,n) depends only on m (alpha), the label of a
vertical edge (m,n)-(m,n+1) only on n (beta).  Storing them as sequences
makes the opposite-edge relation structural.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DegenerateQuad, DomainMismatch, NotCircular, ParseError
from .mobius import GAP_EPS, Frozen, Quaternion

Vertex = tuple[int, int]
Quad = tuple[int, int]

MIN_EDGE = 1e-12


class LatticeDomain(Frozen):
    """Masked rectangular subset of Z^2; ranges are inclusive.

    Every table derives from `present`, a boolean array over the box, with
    whole-array numpy.  Vertices are numbered in m-major order.  Domains
    compare and hash by their ranges and mask.
    """

    def __init__(self, m_range: tuple[int, int], n_range: tuple[int, int],
                 mask: frozenset[Vertex] = frozenset()):
        self.__dict__.update(m_range=m_range, n_range=n_range, mask=mask)
        self.__post_init__()

    def __post_init__(self):
        self.__dict__["mask"] = frozenset(tuple(v) for v in self.mask)
        if self.m_range[0] > self.m_range[1] or self.n_range[0] > self.n_range[1]:
            raise ValueError("empty lattice range")
        for v in self.mask:
            if not (self.m_range[0] <= v[0] <= self.m_range[1]
                    and self.n_range[0] <= v[1] <= self.n_range[1]):
                raise ValueError(f"mask entry {v} outside range")
        # a full box is connected; a masked one when its spanning tree reaches every vertex
        count = len(self.coords)
        if not count or (self.mask and sum(len(t[0]) for t in self.spanning_tree()) < count - 1):
            raise ValueError("domain is not edge-connected")

    def _key(self) -> tuple:
        return self.m_range, self.n_range, self.mask

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def m0(self) -> int:
        return self.m_range[0]

    @property
    def m1(self) -> int:
        return self.m_range[1]

    @property
    def n0(self) -> int:
        return self.n_range[0]

    @property
    def n1(self) -> int:
        return self.n_range[1]

    def __contains__(self, v) -> bool:
        m, n = v
        return (self.m0 <= m <= self.m1 and self.n0 <= n <= self.n1
                and (m, n) not in self.mask)

    @cached_property
    def present(self) -> np.ndarray:
        """Boolean array over the box, indexed [m - m0, n - n0]."""
        present = np.ones((self.m1 - self.m0 + 1, self.n1 - self.n0 + 1), dtype=bool)
        for m, n in self.mask:
            present[m - self.m0, n - self.n0] = False
        return present

    @cached_property
    def _grid(self) -> np.ndarray:
        """Vertex number of every box point, -1 where absent, in a ring of -1."""
        grid = np.full(np.add(self.present.shape, 2), -1, dtype=np.intp)
        grid[1:-1, 1:-1][self.present] = np.arange(np.count_nonzero(self.present))
        return grid

    def indices(self, m, n) -> np.ndarray:
        """Vertex numbers of the points (m, n) of two integer arrays; -1 where absent."""
        rows, cols = self._grid.shape
        return self._grid[np.clip(np.asarray(m) - self.m0 + 1, 0, rows - 1),
                          np.clip(np.asarray(n) - self.n0 + 1, 0, cols - 1)]

    @cached_property
    def coords(self) -> np.ndarray:
        """(vertices, 2) m and n of every vertex."""
        return np.argwhere(self.present) + (self.m0, self.n0)

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(map(tuple, self.coords.tolist()))

    @cached_property
    def vertex_index(self) -> dict[Vertex, int]:
        """Position of each vertex in `vertices`."""
        return dict(zip(self.vertices, range(len(self.vertices))))

    @cached_property
    def stars(self) -> np.ndarray:
        """(vertices, 5) numbers of each vertex and of its neighbours (m+1,n),
        (m-1,n), (m,n+1), (m,n-1); -1 where absent."""
        g = self._grid
        return np.stack([g[1:-1, 1:-1], g[2:, 1:-1], g[:-2, 1:-1], g[1:-1, 2:], g[1:-1, :-2]],
                        axis=-1)[self.present]

    @cached_property
    def quad_index(self) -> np.ndarray:
        """(quads, 4) vertex numbers of the vertex cycle (m,n), (m+1,n),
        (m+1,n+1), (m,n+1) of every quad whose four vertices are present,
        in m-major order of the lower-left corner (m, n)."""
        g = self._grid[1:-1, 1:-1]
        corners = np.stack([g[:-1, :-1], g[1:, :-1], g[1:, 1:], g[:-1, 1:]], axis=-1)
        return corners[(corners >= 0).all(axis=-1)]

    @cached_property
    def quads(self) -> tuple[Quad, ...]:
        """Lower-left corners of the quads, in `quad_index` order."""
        return tuple(map(tuple, self.coords[self.quad_index[:, 0]].tolist()))

    def quad_vertices(self, q: Quad) -> tuple[Vertex, Vertex, Vertex, Vertex]:
        m, n = q
        return (m, n), (m + 1, n), (m + 1, n + 1), (m, n + 1)

    @cached_property
    def edge_index(self) -> np.ndarray:
        """(edges, 2) vertex numbers of the edges from each vertex to (m+1, n),
        then of those to (m, n+1), in vertex order."""
        return np.concatenate([self.stars[self.stars[:, k] >= 0][:, [0, k]] for k in (1, 3)])

    def edges(self) -> list[tuple[Vertex, Vertex]]:
        """All lattice edges between present vertices, in `edge_index` order."""
        verts = self.vertices
        return [(verts[a], verts[b]) for a, b in self.edge_index.tolist()]

    @cached_property
    def edge_at(self) -> np.ndarray:
        """(vertices, 2) position in `edges()` of the edge from each vertex
        to (m+1, n) and to (m, n+1); -1 where there is none."""
        has = self.stars[:, [1, 3]] >= 0
        return np.where(has, np.cumsum(has, axis=0) - 1 + [0, np.count_nonzero(has[:, 0])], -1)

    @cached_property
    def quad_edges(self) -> np.ndarray:
        """(quads, 4) positions in `edges()` of the edges ij, jk, lk, il of
        each quad's vertex cycle i, j, k, l."""
        i, j, k, l = self.quad_index.T
        return np.stack([self.edge_at[i, 0], self.edge_at[j, 1], self.edge_at[l, 0],
                         self.edge_at[i, 1]], axis=1)

    @cached_property
    def _trees(self) -> dict:
        return {}

    def spanning_tree(self, root: Vertex | None = None) -> list[tuple[np.ndarray, ...]]:
        """Breadth-first spanning tree from root (the smallest vertex by default).

        One (children, parents, edges, backward) group of arrays per depth:
        vertex numbers of each child and of the parent it was first reached
        from, in discovery order (parents in their own order, each trying
        the neighbours in `stars` order), the position of their edge in
        `edges()`, and whether the edge runs from child to parent.
        """
        root = 0 if root is None else self.vertex_index[tuple(root)]
        if root not in self._trees:
            seen = np.zeros(len(self.coords), dtype=bool)
            seen[root] = True
            level, tree = np.array([root]), []
            while True:
                # slot 4 i + j: neighbour j of the i-th parent; a vertex's first slot wins
                found = self.stars[level, 1:].ravel()
                slots = np.flatnonzero(found >= 0)
                slots = slots[~seen[found[slots]]]
                slots = slots[np.sort(np.unique(found[slots], return_index=True)[1])]
                if not len(slots):
                    break
                child, parent, vertical = found[slots], level[slots // 4], slots % 4 // 2
                seen[child] = True
                tree.append((child, parent, self.edge_at[np.minimum(child, parent), vertical],
                             child < parent))
                level = child
            self._trees[root] = tree
        return self._trees[root]

    def transpose(self) -> "LatticeDomain":
        return LatticeDomain(self.n_range, self.m_range,
                             frozenset((n, m) for m, n in self.mask))


class EdgeLabels(Frozen):
    """Cross-ratio factorizing functions stored per column (alpha) and row (beta).

    alpha[m] labels horizontal edges (m,n)-(m+1,n); beta[n] labels vertical
    edges (m,n)-(m,n+1).  The quad relation a_ij = a_lk, a_il = a_jk holds
    by construction.
    """

    def __init__(self, alpha: dict[int, float], beta: dict[int, float]):
        self.__dict__.update(alpha=alpha, beta=beta)
        self.__post_init__()

    def __post_init__(self):
        self.__dict__.update(alpha=dict(self.alpha), beta=dict(self.beta))

    @staticmethod
    def constant(domain: LatticeDomain, alpha: float = 1.0, beta: float = -1.0) -> "EdgeLabels":
        return EdgeLabels({m: float(alpha) for m in range(domain.m0, domain.m1)},
                          {n: float(beta) for n in range(domain.n0, domain.n1)})

    def _tables(self, domain: LatticeDomain) -> tuple[np.ndarray, np.ndarray]:
        """alpha at m - m0 and beta at n - n0 over the box, padded with a last 0."""
        return (np.array([self.alpha[m] for m in range(domain.m0, domain.m1)] + [0.0]),
                np.array([self.beta[n] for n in range(domain.n0, domain.n1)] + [0.0]))

    def on_edges(self, domain: LatticeDomain) -> np.ndarray:
        """The label of every edge of domain, in `edges()` order."""
        alpha, beta = self._tables(domain)
        (m, n), (mb, _) = domain.coords[domain.edge_index].transpose(1, 2, 0)
        return np.where(m == mb, beta[n - domain.n0], alpha[m - domain.m0])

    def ratio(self, q: Quad) -> float:
        """Target cross ratio alpha(m)/beta(n) of the quad at (m, n)."""
        return self.alpha[q[0]] / self.beta[q[1]]

    def quad_ratios(self, domain: LatticeDomain) -> np.ndarray:
        """ratio(q) of every quad, in `domain.quads` order."""
        alpha, beta = self._tables(domain)
        m, n = domain.coords[domain.quad_index[:, 0]].T
        return alpha[m - domain.m0] / beta[n - domain.n0]

    def check_negative(self, domain: LatticeDomain) -> None:
        bad = self.quad_ratios(domain) >= 0.0
        if bad.any():
            raise ValueError(f"cross-ratio label ratio not negative on quad "
                             f"{domain.quads[int(np.argmax(bad))]}")

    def transpose(self) -> "EdgeLabels":
        return EdgeLabels(dict(self.beta), dict(self.alpha))


class Net3:
    """Discrete net: (vertices, 3) positions in R^3 in `domain.vertices` order.

    Surface nets must be immersed (no zero edges); normal fields may set
    check_edges=False since parallel Gauss maps can have vanishing edges.
    """

    def __init__(self, domain: LatticeDomain, points: np.ndarray, check_edges: bool = True):
        self.domain, self.points, self.check_edges = domain, points, check_edges
        self.__post_init__()

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        verts = self.domain.vertices
        if self.points.shape != (len(verts), 3):
            raise ValueError(f"expected {len(verts)} points in R^3, got shape {self.points.shape}")
        bad = ~np.isfinite(self.points).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite position at vertex {verts[int(np.argmax(bad))]}")
        if self.check_edges:
            a, b = self.domain.edge_index.T
            bad = _norm(self.points[a] - self.points[b]) <= MIN_EDGE
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"degenerate edge {verts[a[i]]}-{verts[b[i]]}")

    def __getitem__(self, v: Vertex) -> np.ndarray:
        return self.points[self.domain.vertex_index[v]]

    def quad_points(self, q: Quad) -> list[np.ndarray]:
        return [self[v] for v in self.domain.quad_vertices(q)]

    def quad_array(self) -> np.ndarray:
        """(quads, 4, 3) corner positions of every quad, in `domain.quads` order."""
        return self.points[self.domain.quad_index]

    def scale(self) -> float:
        return float(np.linalg.norm(self.points.max(axis=0) - self.points.min(axis=0)))

    def transformed(self, fn) -> "Net3":
        return Net3(self.domain, [fn(p) for p in self.points])

    def transpose(self) -> "Net3":
        dom = self.domain.transpose()
        n, m = dom.coords.T
        return Net3(dom, self.points[self.domain.indices(m, n)], self.check_edges)


def integrate_edges(domain: LatticeDomain, increments: np.ndarray,
                    root: Vertex | None = None) -> np.ndarray:
    """Values at `domain.vertices` from per-edge increments (in `edges()`
    order, each from the lower to the upper vertex), summed along the
    domain's breadth-first spanning tree; root gets 0."""
    out = np.zeros((len(domain.vertices),) + increments.shape[1:], dtype=increments.dtype)
    for child, parent, edge, backward in domain.spanning_tree(root):
        step = increments[edge]
        backward = backward.reshape((-1,) + (1,) * (step.ndim - 1))
        out[child] = out[parent] + np.where(backward, -step, step)
    return out


def edge_loops(domain: LatticeDomain, increments: np.ndarray) -> np.ndarray:
    """Sum ij + jk - lk - il of per-edge increments around every quad."""
    ij, jk, lk, il = (increments[e] for e in domain.quad_edges.T)
    return ij + jk - lk - il


class CheckReport(NamedTuple):
    """Outcome of a per-quad or per-vertex verification pass.

    scale is what the residual at worst was divided by (1.0 for absolute
    residuals).
    """

    ok: bool
    max_residual: float
    worst: object = None
    scale: float = 1.0
    extra: dict = {}          # shared default: never mutated in place


def worst_report(residuals, locations, tol: float, scales=None) -> CheckReport:
    """Report on the largest residual (the first one on ties).

    locations and scales are indexed like residuals; worst is None when
    every residual is 0.
    """
    worst = float(np.max(residuals, initial=0.0))
    if not worst > 0.0:
        return CheckReport(worst <= tol, worst)
    i = int(np.argmax(residuals))
    return CheckReport(worst <= tol, worst, locations[i],
                       1.0 if scales is None else float(scales[i]))


# Whole-array versions of the per-quad predicates below.  They repeat the
# scalar arithmetic operation for operation (np.dot and np.linalg.norm of
# one vector agree bit for bit with _dot and _norm), so that residuals and
# worst locations equal those of the scalar references exactly.

def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, each equal to np.dot of the pair."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


def point_scales(pts: np.ndarray) -> np.ndarray:
    """Largest pairwise distance in every point set of a (sets, k, 3) stack."""
    k = pts.shape[1]
    return np.max([_norm(pts[:, i] - pts[:, j]) for i in range(k) for j in range(i + 1, k)],
                  axis=0, initial=0.0)


def _quad_scale(pts) -> float:
    return float(point_scales(np.asarray(pts, dtype=float)[None])[0])


def circularity_residual(pts) -> float:
    """Raw residual: max(coplanarity distance, circumradius spread)."""
    pts = np.asarray(pts, dtype=float)
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    coplanar = float(np.abs(centered @ vt[2]).max()) if s[0] > 0 else 0.0
    # circumcenter in the fitted plane: least squares for
    # 2(p_i - p_0)·c = |p_i|^2 - |p_0|^2, by the 2x2 normal equations
    uv = centered @ vt[:2].T
    a = 2.0 * (uv[1:] - uv[0])
    b = (uv[1:] ** 2).sum(axis=1) - (uv[0] ** 2).sum()
    g00, g01, g11 = ((a[:, i] * a[:, j]).sum() for i, j in ((0, 0), (0, 1), (1, 1)))
    r0, r1 = ((a[:, i] * b).sum() for i in (0, 1))
    det = g00 * g11 - g01 * g01
    if det == 0.0:
        return float("inf")
    center = np.array([(g11 * r0 - g01 * r1) / det, (g00 * r1 - g01 * r0) / det])
    radii = np.linalg.norm(uv - center, axis=1)
    spread = float(radii.max() - radii.min())
    return max(coplanar, spread)


def circularity_residuals(pts: np.ndarray) -> np.ndarray:
    """circularity_residual of every quad in a (quads, 4, 3) stack."""
    centered = pts - pts.mean(axis=1, keepdims=True)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    coplanar = np.where(s[:, 0] > 0, np.abs(centered @ vt[:, 2, :, None])[..., 0].max(axis=1),
                        0.0)
    uv = centered @ vt[:, :2].transpose(0, 2, 1)
    a = 2.0 * (uv[:, 1:] - uv[:, :1])
    b = (uv[:, 1:] ** 2).sum(axis=2) - (uv[:, 0] ** 2).sum(axis=1)[:, None]
    g00, g01, g11 = ((a[..., i] * a[..., j]).sum(axis=1) for i, j in ((0, 0), (0, 1), (1, 1)))
    r0, r1 = ((a[..., i] * b).sum(axis=1) for i in (0, 1))
    det = g00 * g11 - g01 * g01
    with np.errstate(divide="ignore", invalid="ignore"):
        center = np.stack([(g11 * r0 - g01 * r1) / det, (g00 * r1 - g01 * r0) / det], axis=1)
        radii = np.linalg.norm(uv - center[:, None], axis=2)
    spread = radii.max(axis=1) - radii.min(axis=1)
    return np.where(det == 0.0, np.inf, np.maximum(coplanar, spread))


def is_circular(net: Net3, quad: Quad, tol: float = 1e-9) -> tuple[bool, float]:
    """Concircularity of one elementary quad.

    Returns (ok, raw residual); ok compares the residual against
    tol times the quad diameter.
    """
    pts = net.quad_points(quad)
    res = circularity_residual(pts)
    return res <= tol * max(_quad_scale(pts), MIN_EDGE), res


def cross_ratio_residuals(net: Net3, labels: EdgeLabels) -> np.ndarray:
    """|Re cr(F_i,F_j,F_k,F_l) - alpha(m)/beta(n)| of every quad.

    The cross ratio is cross_ratio_quat's product, evaluated on arrays.
    """
    dom = net.domain
    pts = net.quad_array()
    sides = _norm(pts - np.roll(pts, -1, axis=1))
    if (sides <= GAP_EPS).any():
        q = dom.quads[int(np.argmax((sides <= GAP_EPS).any(axis=1)))]
        raise DegenerateQuad(f"quad {q} has coincident consecutive points")
    zero = np.zeros(len(pts))
    x = [Quaternion(zero, *pts[:, i].T) for i in range(4)]
    cr = (x[0] - x[1]) * (x[1] - x[2]).inverse() * (x[2] - x[3]) * (x[3] - x[0]).inverse()
    return np.abs(cr.w - labels.quad_ratios(dom))


def is_isothermic(net: Net3, labels: EdgeLabels, tol: float = 1e-9) -> CheckReport:
    """Check cr(F_i,F_j,F_k,F_l) = alpha(m)/beta(n) on every quad.

    Raises NotCircular if some quad fails concircularity at tol first.
    """
    pts = net.quad_array()
    res, diameter = circularity_residuals(pts), np.maximum(point_scales(pts), MIN_EDGE)
    rel = np.where(res > tol * diameter, res / diameter, 0.0)  # is_circular's test
    if rel.any():
        raise NotCircular(f"quad {net.domain.quads[int(np.argmax(rel))]} non-circular "
                          f"(relative residual {rel.max():.3e})")
    return worst_report(cross_ratio_residuals(net, labels), net.domain.quads, tol)


def edge_angles(f: Net3, g: Net3) -> np.ndarray:
    """Angle between corresponding edges of f and g, in `domain.edges()` order.

    Measured sign-free as asin of the normalized cross product; 0 on edges
    that vanish in either net.
    """
    if f.domain != g.domain:
        raise DomainMismatch("nets live on different domains")
    a, b = f.domain.edge_index.T
    fp, gp = f.points, g.points
    u, v = fp[b] - fp[a], gp[b] - gp[a]
    nu, nv = _norm(u), _norm(v)
    s = np.divide(_norm(np.cross(u, v)), nu * nv, out=np.zeros(len(u)),
                  where=(nu > MIN_EDGE) & (nv > MIN_EDGE))
    return np.arcsin(np.minimum(1.0, s))


def are_parallel_meshes(f: Net3, g: Net3, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether corresponding edges of f and g are parallel (sign-free).

    Zero edges of either net are skipped.  Returns (ok, worst angle in
    radians measured as asin of the normalized cross product).
    """
    worst = float(np.max(edge_angles(f, g), initial=0.0))
    return worst <= tol, worst


def planarity_residual(pts) -> float:
    """Max distance to the best plane; 0 if points span less than a plane."""
    pts = np.asarray(pts, dtype=float)
    return float(planarity_residuals(pts[None])[0]) if len(pts) >= 3 else 0.0


def planarity_residuals(pts: np.ndarray) -> np.ndarray:
    """planarity_residual of every point set in a (sets, k, 3) stack, k >= 3."""
    centered = pts - pts.mean(axis=1, keepdims=True)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    res = np.abs(centered @ vt[:, 2, :, None])[..., 0].max(axis=1)
    return np.where((s[:, 0] < 1e-14) | (s[:, 1] <= 1e-12 * s[:, 0]), 0.0, res)


# ---------------------------------------------------------------------------
# Serialization (.dnet.json)
# ---------------------------------------------------------------------------

class NetBundle(NamedTuple):
    """Contents of a net file: the net plus optional labels and normal field."""

    net: Net3
    labels: EdgeLabels | None = None
    normals: Net3 | None = None


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float in output")
    return format(float(x), ".17g")


def json_rows(values, fmt=_fmt_float) -> list[str]:
    """Each row of a 2-d array as a JSON list, every number written once by fmt."""
    values = np.asarray(values)
    text = list(map(fmt, values.ravel().tolist()))
    k = max(values.shape[-1], 1)
    return ["[" + ", ".join(text[i:i + k]) + "]" for i in range(0, len(text), k)]


def json_list(items) -> str:
    return "[" + ", ".join(items) + "]"


def net_to_json(net: Net3, labels: EdgeLabels | None = None, normals: Net3 | None = None,
                infinity: list[Vertex] | None = None) -> str:
    """The .dnet.json document of a net, with 17-significant-digit floats."""
    dom = net.domain
    records = [f'{{"m": {m}, "n": {n}, "p": {p}}}'
               for (m, n), p in zip(dom.vertices, json_rows(net.points))]
    doc = (f'{{"domain": {{"m0": {dom.m0}, "m1": {dom.m1}, "n0": {dom.n0}, "n1": {dom.n1}, '
           f'"mask": {json_list(json_rows(sorted(dom.mask), str))}}}, '
           f'"vertices": {json_list(records)}')
    if labels is not None:
        alpha, beta = labels._tables(dom)
        doc += "".join(f', "{name}": {json_list(map(_fmt_float, values[:-1].tolist()))}'
                       for name, values in (("alpha", alpha), ("beta", beta)))
    if normals is not None:
        doc += f', "normals": {json_list(json_rows(normals.points))}'
    if infinity is not None:
        doc += f', "infinity": {json_list(json_rows(sorted(infinity), str))}'
    return doc + "}"


def write_net(path, net: Net3, labels: EdgeLabels | None = None,
              normals: Net3 | None = None) -> None:
    """Write a net (with optional labels and Gauss map) as .dnet.json."""
    with open(path, "w") as fh:
        fh.write(net_to_json(net, labels, normals) + "\n")


def _parse_domain(doc: dict) -> LatticeDomain:
    try:
        d = doc["domain"]
        mask = frozenset((int(m), int(n)) for m, n in d.get("mask", []))
        return LatticeDomain((int(d["m0"]), int(d["m1"])),
                             (int(d["n0"]), int(d["n1"])), mask)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad domain record: {exc}") from exc


def json_to_bundle(doc: dict, check_edges: bool = True) -> NetBundle:
    """The net, labels and normals of a parsed .dnet.json document.

    Vertex records outside the domain are ignored; of several records of
    one vertex the last wins.
    """
    dom = _parse_domain(doc)
    try:
        records = doc["vertices"]
        m, n = np.array([(int(r["m"]), int(r["n"])) for r in records] or np.zeros((0, 2)),
                        dtype=np.intp).T
        p = np.array([r["p"] for r in records] or np.zeros((0, 3)), dtype=float)
        if p.shape != (len(m), 3):
            raise ValueError("a position must have 3 coordinates")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad vertex record: {exc}") from exc
    index = dom.indices(m, n)
    found, last = np.unique(index[index >= 0][::-1], return_index=True)
    if len(found) < len(dom.vertices):
        missing = np.ones(len(dom.vertices), dtype=bool)
        missing[found] = False
        raise ParseError(f"vertex {dom.vertices[int(np.argmax(missing))]} "
                         "required by domain but missing from file")
    labels = normals = None
    try:
        net = Net3(dom, p[index >= 0][::-1][last], check_edges=check_edges)
        if "alpha" in doc or "beta" in doc:
            alpha, beta = doc.get("alpha", []), doc.get("beta", [])
            if len(alpha) != dom.m1 - dom.m0 or len(beta) != dom.n1 - dom.n0:
                raise ParseError("alpha/beta length does not match domain ranges")
            labels = EdgeLabels({dom.m0 + i: float(a) for i, a in enumerate(alpha)},
                                {dom.n0 + i: float(b) for i, b in enumerate(beta)})
        if "normals" in doc:
            normals = Net3(dom, np.array(doc["normals"], dtype=float), check_edges=False)
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc
    return NetBundle(net, labels, normals)


def _parse_int(text: str):
    """A JSON integer; "-0" is the -0.0 that _fmt_float writes."""
    return -0.0 if text == "-0" else int(text)


def load_json(path):
    """The JSON document in a file; ParseError with context on failure."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def read_net(path) -> NetBundle:
    """Read a .dnet.json file; raises ParseError with context on failure."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    return json_to_bundle(doc)
