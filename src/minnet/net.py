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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateQuad, DomainMismatch, NotCircular, ParseError
from .mobius import GAP_EPS, Quaternion

Vertex = tuple[int, int]
Quad = tuple[int, int]

MIN_EDGE = 1e-12


@dataclass(frozen=True)
class LatticeDomain:
    """Masked rectangular subset of Z^2; ranges are inclusive."""

    m_range: tuple[int, int]
    n_range: tuple[int, int]
    mask: frozenset[Vertex] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "mask", frozenset(tuple(v) for v in self.mask))
        if self.m_range[0] > self.m_range[1] or self.n_range[0] > self.n_range[1]:
            raise ValueError("empty lattice range")
        for v in self.mask:
            if not (self.m_range[0] <= v[0] <= self.m_range[1]
                    and self.n_range[0] <= v[1] <= self.n_range[1]):
                raise ValueError(f"mask entry {v} outside range")
        if not self._edge_connected():
            raise ValueError("domain is not edge-connected")

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
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple((m, n)
                     for m in range(self.m0, self.m1 + 1)
                     for n in range(self.n0, self.n1 + 1)
                     if (m, n) not in self.mask)

    @cached_property
    def quads(self) -> tuple[Quad, ...]:
        """Lower-left corners of quads whose four vertices are all present."""
        out = []
        for m in range(self.m0, self.m1):
            for n in range(self.n0, self.n1):
                if all(v in self for v in ((m, n), (m + 1, n), (m + 1, n + 1), (m, n + 1))):
                    out.append((m, n))
        return tuple(out)

    def quad_vertices(self, q: Quad) -> tuple[Vertex, Vertex, Vertex, Vertex]:
        m, n = q
        return (m, n), (m + 1, n), (m + 1, n + 1), (m, n + 1)

    @cached_property
    def vertex_index(self) -> dict[Vertex, int]:
        """Position of each vertex in `vertices`."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def quad_index(self) -> np.ndarray:
        """(quads, 4) vertex indices of each quad's vertex cycle."""
        index = self.vertex_index
        return np.array([[index[v] for v in self.quad_vertices(q)] for q in self.quads],
                        dtype=np.intp).reshape(-1, 4)

    @cached_property
    def edge_index(self) -> np.ndarray:
        """(edges, 2) vertex indices of the edges, in `edges()` order."""
        index = self.vertex_index
        return np.array([(index[a], index[b]) for a, b in self.edges()],
                        dtype=np.intp).reshape(-1, 2)

    @cached_property
    def edge_at(self) -> np.ndarray:
        """(vertices, 2) position in `edges()` of the edge from each vertex
        to (m+1, n) and to (m, n+1); -1 where there is none."""
        out = np.full((len(self.vertices), 2), -1, dtype=np.intp)
        for e, (a, b) in enumerate(self.edges()):
            out[self.vertex_index[a], int(a[0] == b[0])] = e
        return out

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
        vertex indices of each child and of the parent it was first reached
        from, in discovery order, the position of their edge in `edges()`,
        and whether the edge runs from child to parent.
        """
        root = min(self.vertices) if root is None else tuple(root)
        if root not in self._trees:
            index = self.vertex_index
            seen, level, tree = {root}, [root], []
            while level:
                found = []
                for v in level:
                    for w in self.neighbors(v):
                        if w not in seen:
                            seen.add(w)
                            found.append((w, v))
                if found:
                    child, parent, vertical = np.array(
                        [(index[w], index[v], w[0] == v[0]) for w, v in found]).T
                    tree.append((child, parent, self.edge_at[np.minimum(child, parent), vertical],
                                 child < parent))
                level = [w for w, _ in found]
            self._trees[root] = tree
        return self._trees[root]

    def edges(self):
        """All lattice edges between present vertices, horizontal then vertical."""
        for m, n in self.vertices:
            if (m + 1, n) in self:
                yield ((m, n), (m + 1, n))
        for m, n in self.vertices:
            if (m, n + 1) in self:
                yield ((m, n), (m, n + 1))

    def neighbors(self, v: Vertex):
        m, n = v
        for w in ((m + 1, n), (m - 1, n), (m, n + 1), (m, n - 1)):
            if w in self:
                yield w

    def _edge_connected(self) -> bool:
        verts = [
            (m, n)
            for m in range(self.m0, self.m1 + 1)
            for n in range(self.n0, self.n1 + 1)
            if (m, n) not in self.mask
        ]
        if not verts:
            return False
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            v = stack.pop()
            for w in self.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(verts)

    def transpose(self) -> "LatticeDomain":
        return LatticeDomain(self.n_range, self.m_range,
                             frozenset((n, m) for m, n in self.mask))


@dataclass(frozen=True)
class EdgeLabels:
    """Cross-ratio factorizing functions stored per column (alpha) and row (beta).

    alpha[m] labels horizontal edges (m,n)-(m+1,n); beta[n] labels vertical
    edges (m,n)-(m,n+1).  The quad relation a_ij = a_lk, a_il = a_jk holds
    by construction.
    """

    alpha: dict[int, float]
    beta: dict[int, float]

    def __post_init__(self):
        object.__setattr__(self, "alpha", dict(self.alpha))
        object.__setattr__(self, "beta", dict(self.beta))

    @staticmethod
    def constant(domain: LatticeDomain, alpha: float = 1.0, beta: float = -1.0) -> "EdgeLabels":
        return EdgeLabels({m: float(alpha) for m in range(domain.m0, domain.m1)},
                          {n: float(beta) for n in range(domain.n0, domain.n1)})

    def alpha_at(self, m: int) -> float:
        return self.alpha[m]

    def beta_at(self, n: int) -> float:
        return self.beta[n]

    def edge(self, a: Vertex, b: Vertex) -> float:
        """Label of the lattice edge a-b."""
        if a[1] == b[1]:
            return self.alpha[min(a[0], b[0])]
        return self.beta[min(a[1], b[1])]

    def on_edges(self, domain: LatticeDomain) -> np.ndarray:
        """The label of every edge of domain, in `edges()` order."""
        return np.array([self.edge(a, b) for a, b in domain.edges()])

    def ratio(self, q: Quad) -> float:
        """Target cross ratio alpha(m)/beta(n) of the quad at (m, n)."""
        return self.alpha[q[0]] / self.beta[q[1]]

    def quad_ratios(self, domain: LatticeDomain) -> np.ndarray:
        """ratio(q) of every quad, in `domain.quads` order."""
        return np.array([self.ratio(q) for q in domain.quads])

    def check_negative(self, domain: LatticeDomain) -> None:
        for q in domain.quads:
            if self.ratio(q) >= 0.0:
                raise ValueError(f"cross-ratio label ratio not negative on quad {q}")

    def transpose(self) -> "EdgeLabels":
        return EdgeLabels(dict(self.beta), dict(self.alpha))


@dataclass
class Net3:
    """Discrete net: per-vertex positions in R^3 over a lattice domain.

    Surface nets must be immersed (no zero edges); normal fields may set
    check_edges=False since parallel Gauss maps can have vanishing edges.
    """

    domain: LatticeDomain
    positions: dict[Vertex, np.ndarray]
    check_edges: bool = True

    def __post_init__(self):
        self.positions = {tuple(v): np.asarray(p, dtype=float)
                          for v, p in self.positions.items()}
        verts = self.domain.vertices
        for v in verts:
            if v not in self.positions:
                raise ValueError(f"missing position for vertex {v}")
        pts = self.as_array()
        bad = ~np.isfinite(pts).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite position at vertex {verts[int(np.argmax(bad))]}")
        if self.check_edges:
            a, b = self.domain.edge_index.T
            bad = _norm(pts[a] - pts[b]) <= MIN_EDGE
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(f"degenerate edge {verts[a[i]]}-{verts[b[i]]}")

    def __getitem__(self, v: Vertex) -> np.ndarray:
        return self.positions[v]

    def quad_points(self, q: Quad) -> list[np.ndarray]:
        return [self.positions[v] for v in self.domain.quad_vertices(q)]

    def as_array(self) -> np.ndarray:
        return np.array([self.positions[v] for v in self.domain.vertices])

    def quad_array(self) -> np.ndarray:
        """(quads, 4, 3) corner positions of every quad, in `domain.quads` order."""
        return self.as_array()[self.domain.quad_index].reshape(-1, 4, 3)

    def scale(self) -> float:
        pts = self.as_array()
        return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))

    def transformed(self, fn) -> "Net3":
        return Net3(self.domain, {v: fn(p) for v, p in self.positions.items()})

    def transpose(self) -> "Net3":
        return Net3(self.domain.transpose(),
                    {(n, m): p for (m, n), p in self.positions.items()})


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


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a per-quad or per-vertex verification pass.

    scale is what the residual at worst was divided by (1.0 for absolute
    residuals).
    """

    ok: bool
    max_residual: float
    worst: object = None
    scale: float = 1.0
    extra: dict = field(default_factory=dict)


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
    fp, gp = f.as_array(), g.as_array()
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

@dataclass
class NetBundle:
    """Contents of a net file: positions plus optional labels and normals."""

    net: Net3
    labels: EdgeLabels | None = None
    normals: dict[Vertex, np.ndarray] | None = None


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("non-finite float in output")
    return format(float(x), ".17g")


def _dump(obj) -> str:
    """Minimal deterministic JSON writer with 17-significant-digit floats."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)}")


def net_to_json(net: Net3, labels: EdgeLabels | None = None,
                normals: dict[Vertex, np.ndarray] | None = None,
                infinity: list[Vertex] | None = None) -> dict:
    dom = net.domain
    doc = {
        "domain": {"m0": dom.m0, "m1": dom.m1, "n0": dom.n0, "n1": dom.n1,
                   "mask": [list(v) for v in sorted(dom.mask)]},
        "vertices": [{"m": m, "n": n, "p": [float(c) for c in net.positions[(m, n)]]}
                     for (m, n) in dom.vertices],
    }
    if labels is not None:
        doc["alpha"] = [labels.alpha_at(m) for m in range(dom.m0, dom.m1)]
        doc["beta"] = [labels.beta_at(n) for n in range(dom.n0, dom.n1)]
    if normals is not None:
        doc["normals"] = [[float(c) for c in normals[v]] for v in dom.vertices]
    if infinity is not None:
        doc["infinity"] = [list(v) for v in sorted(infinity)]
    return doc


def write_net(path, net: Net3, labels: EdgeLabels | None = None,
              normals: dict[Vertex, np.ndarray] | None = None) -> None:
    """Write a net (with optional labels and Gauss map) as .dnet.json."""
    doc = net_to_json(net, labels, normals)
    with open(path, "w") as fh:
        fh.write(_dump(doc))
        fh.write("\n")


def _parse_domain(doc: dict) -> LatticeDomain:
    try:
        d = doc["domain"]
        mask = frozenset(tuple(v) for v in d.get("mask", []))
        return LatticeDomain((int(d["m0"]), int(d["m1"])),
                             (int(d["n0"]), int(d["n1"])), mask)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad domain record: {exc}") from exc


def json_to_bundle(doc: dict, check_edges: bool = True) -> NetBundle:
    dom = _parse_domain(doc)
    positions = {}
    try:
        for rec in doc["vertices"]:
            positions[(int(rec["m"]), int(rec["n"]))] = np.array(rec["p"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad vertex record: {exc}") from exc
    for v in dom.vertices:
        if v not in positions:
            raise ParseError(f"vertex {v} required by domain but missing from file")
    try:
        net = Net3(dom, positions, check_edges=check_edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

    labels = None
    if "alpha" in doc or "beta" in doc:
        alpha = doc.get("alpha", [])
        beta = doc.get("beta", [])
        if len(alpha) != dom.m1 - dom.m0 or len(beta) != dom.n1 - dom.n0:
            raise ParseError("alpha/beta length does not match domain ranges")
        labels = EdgeLabels({dom.m0 + i: float(a) for i, a in enumerate(alpha)},
                            {dom.n0 + i: float(b) for i, b in enumerate(beta)})
    normals = None
    if "normals" in doc:
        rows = doc["normals"]
        if len(rows) != len(dom.vertices):
            raise ParseError("normals length does not match vertex count")
        normals = {v: np.array(rows[i], dtype=float) for i, v in enumerate(dom.vertices)}
    return NetBundle(net, labels, normals)


def load_json(path):
    """The JSON document in a file; ParseError with context on failure."""
    try:
        with open(path) as fh:
            return json.load(fh)
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
