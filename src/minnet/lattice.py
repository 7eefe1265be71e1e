"""Z^2-indexed nets on masked rectangular domains.

A LatticeDomain is an inclusive integer box minus a mask of excluded
vertices.  Elementary quads are indexed by their lower-left corner (m, n)
and enumerate the vertex cycle (m,n), (m+1,n), (m+1,n+1), (m,n+1).

Edge labels are the cross-ratio factorizing functions: the label of a
horizontal edge (m,n)-(m+1,n) depends only on m (alpha), the label of a
vertical edge (m,n)-(m,n+1) only on n (beta).  Storing them as sequences
makes the opposite-edge relation structural.

A Net3 holds a net's points in the domain's vertex order, and
integrate_edges sums per-edge increments into one.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ClosureFailure
from .jsonio import MIN_EDGE

Vertex = tuple[int, int]
Quad = tuple[int, int]

GAP_EPS = 1e-12
CLOSURE_TOL = 1e-9


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis, each equal to np.dot of the pair."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


class Frozen:
    """Base of value records whose fields __init__ sets through __dict__;
    assigning or deleting an attribute afterwards raises AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LatticeDomain(Frozen):
    """Masked rectangular subset of Z^2; ranges are inclusive.

    Every table derives from `present`, a boolean array over the box, with
    whole-array numpy.  Vertices are numbered in m-major order.  Domains
    compare and hash by their ranges and mask.
    """

    def __init__(self, m_range: tuple[int, int], n_range: tuple[int, int],
                 mask: frozenset[Vertex] = frozenset()):
        mask = frozenset(tuple(v) for v in mask)
        self.__dict__.update(m_range=m_range, n_range=n_range, mask=mask)
        if m_range[0] > m_range[1] or n_range[0] > n_range[1]:
            raise ValueError("empty lattice range")
        for v in mask:
            if not (m_range[0] <= v[0] <= m_range[1] and n_range[0] <= v[1] <= n_range[1]):
                raise ValueError(f"mask entry {v} outside range")
        # a full box is connected; a masked one when its spanning tree reaches every vertex
        count = len(self.coords)
        if not count or (mask and sum(len(t[0]) for t in self.spanning_tree()) < count - 1):
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


class EdgeLabels(Frozen):
    """Cross-ratio factorizing functions as two read-only arrays, indexed
    from the lower corner (m0, n0) of the domain they go with.

    alpha[i] labels the horizontal edges (m0+i, n)-(m0+i+1, n); beta[j] the
    vertical edges (m, n0+j)-(m, n0+j+1).  The quad relation a_ij = a_lk,
    a_il = a_jk holds by construction.
    """

    def __init__(self, alpha, beta):
        alpha, beta = np.array(alpha, dtype=float), np.array(beta, dtype=float)
        alpha.flags.writeable = beta.flags.writeable = False
        self.__dict__.update(alpha=alpha, beta=beta)

    @staticmethod
    def constant(domain: LatticeDomain, alpha: float = 1.0, beta: float = -1.0) -> "EdgeLabels":
        return EdgeLabels(np.full(domain.m1 - domain.m0, float(alpha)),
                          np.full(domain.n1 - domain.n0, float(beta)))

    def on_edges(self, domain: LatticeDomain) -> np.ndarray:
        """The label of every edge of domain, in `edges()` order."""
        has = domain.stars[:, [1, 3]] >= 0
        return np.concatenate([self.alpha[domain.coords[has[:, 0], 0] - domain.m0],
                               self.beta[domain.coords[has[:, 1], 1] - domain.n0]])

    def quad_ratios(self, domain: LatticeDomain) -> np.ndarray:
        """Target cross ratio alpha(m)/beta(n) of every quad, in `domain.quads` order."""
        m, n = domain.coords[domain.quad_index[:, 0]].T
        return self.alpha[m - domain.m0] / self.beta[n - domain.n0]


class Net3:
    """Discrete net: (vertices, 3) positions in R^3 in `domain.vertices` order.

    Surface nets must be immersed (no zero edges); normal fields may set
    check_edges=False since parallel Gauss maps can have vanishing edges.
    """

    def __init__(self, domain: LatticeDomain, points: np.ndarray, check_edges: bool = True):
        self.domain = domain
        self.points = points = np.asarray(points, dtype=float)
        verts = domain.vertices
        if points.shape != (len(verts), 3):
            raise ValueError(f"expected {len(verts)} points in R^3, got shape {points.shape}")
        bad = ~np.isfinite(points).all(axis=1)
        if bad.any():
            raise ValueError(f"non-finite position at vertex {verts[int(np.argmax(bad))]}")
        if check_edges:
            a, b = domain.edge_index.T
            bad = _norm(points[a] - points[b]) <= MIN_EDGE
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


def integrate_edges(domain: LatticeDomain, increments: np.ndarray, what: str,
                    root: Vertex | None = None) -> np.ndarray:
    """Values at `domain.vertices` from per-edge increments (in `edges()`
    order, each from the lower to the upper vertex), summed along the
    domain's breadth-first spanning tree; root gets 0.

    First every quad's loop ij + jk - lk - il must close to CLOSURE_TOL of
    the quad's largest increment, or ClosureFailure names what was being
    integrated and the first open quad; a NaN loop is open.  Complex
    increments are measured as vectors of the plane.
    """
    vectors = increments.view(float).reshape(len(increments), -1)
    ij, jk, lk, il = (vectors[e] for e in domain.quad_edges.T)
    scale = np.max([_norm(x) for x in (ij, jk, lk, il)], axis=0)
    res = _norm(ij + jk - lk - il) / np.maximum(scale, 1e-300)
    open_ = ~(res <= CLOSURE_TOL)
    if open_.any():
        i = int(np.argmax(open_))
        raise ClosureFailure(f"{what}: quad {domain.quads[i]} loop residual {res[i]:.3e}")
    out = np.zeros((len(domain.vertices),) + increments.shape[1:], dtype=increments.dtype)
    for child, parent, edge, backward in domain.spanning_tree(root):
        step = increments[edge]
        backward = backward.reshape((-1,) + (1,) * (step.ndim - 1))
        out[child] = out[parent] + np.where(backward, -step, step)
    return out
