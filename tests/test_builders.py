"""The array grid layer against scalar references, compared bit for bit.

The references are the per-vertex and per-edge formulas, integrated along
a breadth-first spanning tree, that the array code replaces.  The array
code repeats their arithmetic operation for operation, in the same order,
so every value must be identical, down to the sign of zero.
"""

import cmath
import math

import numpy as np
import pytest

from minnet.holomorphic import HoloGrid, _axis_radii, power_function, propagate_fourth
from minnet.minimal import (_wei_increment, gauss_map, propagate_normals,
                            weierstrass_asymptotic, weierstrass_isothermic)
from minnet.mobius import INF, is_inf, stereographic_lift
from minnet.lattice import EdgeLabels, LatticeDomain

from conftest import christoffel, edge_label, neighbors


def sweep_interior(domain, values):
    """Fill unset vertices by cr=-1 propagation, sweeping m+n, ties by m."""
    todo = sorted((v for v in domain.vertices if v not in values),
                  key=lambda v: (v[0] + v[1], v[0]))
    for (m, n) in todo:
        src = ((m - 1, n - 1), (m, n - 1), (m - 1, n))
        values[(m, n)] = propagate_fourth(*(values[s] for s in src), -1.0)


def bfs_integrate(domain, increment, zero, root=None):
    """Accumulate increment(a, b) along a breadth-first spanning tree."""
    root = min(domain.vertices) if root is None else root
    out = {root: zero}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for w in neighbors(domain, v):
            if w not in out:
                out[w] = out[v] + increment(v, w)
                queue.append(w)
    return out


def scalar_power(gamma, m_extent, n_extent):
    """power_function one vertex at a time: the axis seeds and the sweep,
    or for gamma in (2, 4) the scalar dual of the inverted base grid."""
    if gamma > 2.0:
        base = scalar_power(gamma - 2.0, m_extent, n_extent)
        domain = LatticeDomain((0, m_extent), (0, n_extent), frozenset({(0, 0)}))
        inverted = {v: 1.0 / base[v].conjugate() for v in domain.vertices}
        labels = EdgeLabels.constant(domain)

        def increment(a, b):
            return edge_label(labels, domain, a, b) / (inverted[b] - inverted[a]).conjugate()

        dual = bfs_integrate(domain, increment, 0j, root=(1, 0))
        return {v: -dual[v] for v in domain.vertices}
    domain = LatticeDomain((0, m_extent), (0, n_extent))
    rho = _axis_radii(gamma, max(m_extent, n_extent))
    seed_dir = 1j if gamma == 1.0 else cmath.exp(1j * gamma * math.pi / 2)
    values = {(0, 0): 0j}
    for m in range(1, m_extent + 1):
        values[(m, 0)] = complex(rho[m])
    for n in range(1, n_extent + 1):
        values[(0, n)] = rho[n] * seed_dir
    sweep_interior(domain, values)
    return values


def scalar_weierstrass(grid, conjugate):
    def increment(a, b):
        swap = a > b
        if swap:
            a, b = b, a
        inc = _wei_increment(grid[a], grid[b], edge_label(grid.labels, grid.domain, a, b),
                             conjugate)
        return -inc if swap else inc

    return bfs_integrate(grid.domain, increment, np.zeros(3))


def scalar_christoffel(net, labels):
    def increment(a, b):
        d = net[b] - net[a]
        return edge_label(labels, net.domain, a, b) * d / float(d @ d)

    return bfs_integrate(net.domain, increment, np.zeros(3))


def scalar_normals(net, n0):
    """propagate_normals' breadth-first walk, one edge at a time."""
    def step(na, a, b):
        d = net[b] - net[a]
        t = -2.0 * float(na @ d) / float(d @ d)
        nb = na + t * d
        return nb / np.linalg.norm(nb)

    root = min(net.domain.vertices)
    normals = {root: n0 / np.linalg.norm(n0)}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for w in neighbors(net.domain, v):
            if w not in normals:
                normals[w] = step(normals[v], v, w)
                queue.append(w)
    return normals


def bits(values):
    """Bit patterns of float or complex data, so that -0.0 != 0.0."""
    return np.asarray(values).view(np.uint64).tolist()


def same_net(net, reference):
    return bits(net.points) == bits([reference[v] for v in net.domain.vertices])


POWER_CASES = [pytest.param(2 * k / (k + 1), size, id=f"enneper{k}-{size}")
               for k in (2, 3, 4) for size in (6, 20)]
POWER_CASES.append(pytest.param(3.0, 8, id="planar8"))


@pytest.fixture(scope="module")
def inverted_grid():
    """z^(3/2) under z -> 1/z: the origin goes to INF."""
    grid = power_function(1.5, 6, 6)
    return HoloGrid.from_dict(grid.domain, {v: INF if grid[v] == 0 else 1.0 / grid[v]
                                            for v in grid.domain.vertices}, grid.labels)


@pytest.mark.parametrize("gamma,size", POWER_CASES)
def test_power_function_equals_sweep(gamma, size):
    grid = power_function(gamma, size, size)
    reference = scalar_power(gamma, size, size)
    assert not grid.inf.any()
    assert bits(grid.values) == bits([reference[v] for v in grid.domain.vertices])


def check_builders(grid):
    iso = weierstrass_isothermic(grid)
    assert same_net(iso, scalar_weierstrass(grid, False))
    assert same_net(weierstrass_asymptotic(grid), scalar_weierstrass(grid, True))
    gauss = gauss_map(grid)
    assert same_net(gauss, {v: stereographic_lift(grid[v]) for v in grid.domain.vertices})
    assert same_net(christoffel(iso, grid.labels), scalar_christoffel(iso, grid.labels))
    seed = gauss[min(grid.domain.vertices)]
    assert same_net(propagate_normals(iso, seed), scalar_normals(iso, seed))


@pytest.mark.parametrize("gamma,size", POWER_CASES)
def test_builders_equal_scalar_references(gamma, size):
    check_builders(power_function(gamma, size, size))


def test_builders_on_knoid_grid(trinoid_result):
    check_builders(trinoid_result.grid)


def test_builders_with_scaled_labels():
    grid = power_function(1.5, 6, 6)
    labels = EdgeLabels.constant(grid.domain, 3.0, -3.0)
    check_builders(HoloGrid(grid.domain, grid.values, labels))


def test_builders_with_a_vertex_at_infinity(inverted_grid):
    assert inverted_grid.inf.tolist() == [v == (0, 0) for v in inverted_grid.domain.vertices]
    assert is_inf(inverted_grid[(0, 0)])
    assert gauss_map(inverted_grid)[(0, 0)].tolist() == [0.0, 0.0, 1.0]
    check_builders(inverted_grid)
