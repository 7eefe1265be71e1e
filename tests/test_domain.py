"""LatticeDomain's array tables against per-vertex Python loop definitions."""

import numpy as np
import pytest

from minnet.lattice import LatticeDomain

from conftest import neighbors


def loop_vertices(dom):
    return tuple((m, n) for m in range(dom.m0, dom.m1 + 1) for n in range(dom.n0, dom.n1 + 1)
                 if (m, n) not in dom.mask)


def loop_quads(dom):
    return tuple((m, n) for m in range(dom.m0, dom.m1) for n in range(dom.n0, dom.n1)
                 if all(v in dom for v in ((m, n), (m + 1, n), (m + 1, n + 1), (m, n + 1))))


def loop_edges(dom):
    verts = loop_vertices(dom)
    return ([((m, n), (m + 1, n)) for m, n in verts if (m + 1, n) in dom]
            + [((m, n), (m, n + 1)) for m, n in verts if (m, n + 1) in dom])


def loop_tables(dom):
    """(quad_index, edge_index, edge_at, stars) built one vertex at a time."""
    index = {v: i for i, v in enumerate(loop_vertices(dom))}
    quad_index = [[index[v] for v in dom.quad_vertices(q)] for q in loop_quads(dom)]
    edges = loop_edges(dom)
    edge_at = np.full((len(index), 2), -1)
    for e, (a, b) in enumerate(edges):
        edge_at[index[a], int(a[0] == b[0])] = e
    stars = [[index.get(w, -1) for w in ((m, n), (m + 1, n), (m - 1, n), (m, n + 1), (m, n - 1))]
             for m, n in index]
    edge_index = np.array([(index[a], index[b]) for a, b in edges]).reshape(-1, 2)
    return np.array(quad_index).reshape(-1, 4), edge_index, edge_at, np.array(stars)


def loop_tree(dom, root):
    """Breadth-first (child, parent) pairs per depth, neighbours in stars order."""
    seen, level, tree = {root}, [root], []
    while level:
        found = []
        for v in level:
            for w in neighbors(dom, v):
                if w not in seen:
                    seen.add(w)
                    found.append((w, v))
        if found:
            tree.append(found)
        level = [w for w, _ in found]
    return tree


NOTCHED = LatticeDomain((0, 5), (0, 3), frozenset({(5, 3), (4, 3), (5, 2), (0, 0)}))
DOMAINS = {
    "full": LatticeDomain((0, 4), (0, 3)),
    "hole": LatticeDomain((0, 4), (0, 4), frozenset({(2, 2)})),
    "notched": NOTCHED,
    "transposed": LatticeDomain((0, 3), (0, 5), frozenset({(3, 5), (3, 4), (2, 5), (0, 0)})),
    "negative": LatticeDomain((-3, 2), (-2, 1), frozenset({(-3, -2), (0, 0), (2, 1)})),
    "one_row": LatticeDomain((-2, 3), (5, 5)),
}


@pytest.mark.parametrize("name", DOMAINS)
def test_tables_equal_loop_definitions(name):
    dom = DOMAINS[name]
    quad_index, edge_index, edge_at, stars = loop_tables(dom)
    assert dom.vertices == loop_vertices(dom)
    assert dom.quads == loop_quads(dom)
    assert dom.edges() == loop_edges(dom)
    assert dom.vertex_index == {v: i for i, v in enumerate(loop_vertices(dom))}
    assert dom.quad_index.tolist() == quad_index.tolist()
    assert dom.edge_index.tolist() == edge_index.tolist()
    assert dom.edge_at.tolist() == edge_at.tolist()
    assert dom.stars.tolist() == stars.tolist()


@pytest.mark.parametrize("name", DOMAINS)
def test_spanning_tree_equals_breadth_first_loop(name):
    dom = DOMAINS[name]
    verts = dom.vertices
    for root in (None, verts[len(verts) // 2], verts[-1]):
        tree = dom.spanning_tree(root)
        expected = loop_tree(dom, verts[0] if root is None else root)
        assert [[(verts[c], verts[p]) for c, p in zip(child.tolist(), parent.tolist())]
                for child, parent, _, _ in tree] == expected
        for child, parent, edge, backward in tree:
            pairs = [(verts[a], verts[b]) for a, b in dom.edge_index[edge].tolist()]
            assert pairs == [(verts[c], verts[p]) if back else (verts[p], verts[c])
                             for c, p, back in zip(child, parent, backward)]


def test_contains():
    dom = DOMAINS["negative"]
    assert (-3, -1) in dom and (2, 0) in dom and (-1, 1) in dom
    assert (0, 0) not in dom and (-3, -2) not in dom         # masked
    assert (3, 0) not in dom and (-4, 0) not in dom and (0, 2) not in dom and (0, -3) not in dom


def test_indices_of_absent_points_are_negative():
    dom = DOMAINS["negative"]
    m, n = np.array([[-3, -1], [0, 0], [9, 0], [-1, -7], [2, 0]]).T
    assert dom.indices(m, n).tolist() == [dom.vertex_index[(-3, -1)], -1, -1, -1,
                                          dom.vertex_index[(2, 0)]]


def test_split_mask_raises():
    with pytest.raises(ValueError, match="domain is not edge-connected"):
        LatticeDomain((0, 2), (0, 2), frozenset({(1, 0), (1, 1), (1, 2)}))
    with pytest.raises(ValueError, match="domain is not edge-connected"):
        LatticeDomain((0, 2), (0, 2), frozenset({(0, 1), (1, 0)}))   # (0, 0) cut off
