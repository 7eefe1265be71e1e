"""The array orbit assembly against the one-at-a-time oracles in conftest."""

import math
import time

import numpy as np
import pytest

from minnet.boundary import BoundaryAnalysis, boundary_lines
from minnet.bvp import BoundarySpec, solve_knoid, solve_platonic
from minnet.commands import _boundary_reflections, _orbit, _write_orbit
from minnet.coxeter import ANGLE_BOUND, _cayley_table
from minnet.errors import OrbitExplosion
from minnet.holomorphic import power_function
from minnet.lattice import LatticeDomain, Net3
from minnet.minimal import MinimalPair
from minnet.mobius import Isometry, PlaneR3
from minnet.reflection import build_orbit, close_group

from conftest import (invariance_residual, orbit_files, orbit_topology, scalar_build_orbit,
                      scalar_close_group, scalar_mirror_orbit)


@pytest.fixture(scope="module")
def platonic_pairs():
    return {name: MinimalPair.from_grid(solve_platonic(name, 3).grid)
            for name in ("tetrahedral", "octahedral", "icosahedral")}


def _case(name, request):
    """(piece, mirrors) as `generate --orbit` builds them."""
    if name == "knoid":
        pair = request.getfixturevalue("trinoid_pair")
    else:
        pair = request.getfixturevalue("platonic_pairs")[name]
    return pair.isothermic, _mirrors(pair)


def _mirrors(pair, tol=1e-7):
    """The mirrors of the pair's piece at tol, as `generate --orbit` takes them."""
    return _boundary_reflections(boundary_lines(pair.isothermic, pair.gauss, tol), tol)


@pytest.mark.parametrize("name, order", [("knoid", 12), ("tetrahedral", 24),
                                         ("octahedral", 48), ("icosahedral", 120)])
def test_array_orbit_equals_scalar_oracle(name, order, request):
    """On these manifold orbits the weld along the mirrors' lines is the
    distance weld of the oracle."""
    piece, mirrors = _case(name, request)
    generators = [Isometry.plane_reflection(m.plane) for m in mirrors]
    orbit = build_orbit(piece, mirrors, max_word=20)
    elements, vertices, faces, weld_residual = scalar_build_orbit(
        piece, generators, max_word=20, dedup_tol=1e-6)
    assert len(orbit.elements) == len(elements) == order
    for got, want in zip(orbit.elements, elements):
        assert np.array_equal(got.matrix, want.matrix)
        assert np.array_equal(got.translation, want.translation)
    assert np.array_equal(orbit.vertices, vertices)
    assert orbit.faces == faces
    assert orbit.weld_residual == weld_residual
    radius = 1e-9 * orbit.scale()
    for gen in generators:
        assert invariance_residual(orbit.vertices, gen, radius) <= radius


def _plane(angle):
    """The plane through the z axis at the given angle to y = 0."""
    return PlaneR3((math.sin(angle), math.cos(angle), 0.0), 0.0)


# three vertical mirrors through the sides of a triangle of angles pi/3
PRISM = [_plane(0.0), _plane(math.pi / 3),
         PlaneR3((math.sin(-math.pi / 3), math.cos(-math.pi / 3), 0.0), 0.5)]


@pytest.mark.parametrize("planes", [
    PRISM,
    [PlaneR3((1, 0, 0), 0.0), PlaneR3((0, 1, 0), 0.0), PlaneR3((1, 0, 0), 1.0),
     PlaneR3((0, 1, 0), 1.0)],
    [_plane(0.0), _plane(1.0)],
    [PlaneR3((0, 0, 1), 0.0), PlaneR3((0, 0, 1), 1.0)],
], ids=["prism", "square-lattice", "one-radian", "parallel"])
def test_infinite_arrangements_raise_before_any_composition(planes):
    start = time.perf_counter()
    with pytest.raises(OrbitExplosion):
        close_group(planes, max_word=200)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("planes, match", [
    ([_plane(0.0), _plane(0.0)], "pi/angle = inf"),
    ([_plane(0.0), _plane(math.pi / 5), PlaneR3((0, 0, 1), 1.0), _plane(math.pi / 5)],
     "mirrors 1 and 3"),
    ([PlaneR3((0, 0, 1), 0.0), PlaneR3((0, 0, -1), 2.0)], "pi/angle = inf"),
    (PRISM, "linearly dependent"),
    # roots e1 - e2, e1 - e3, e1 - e4 of A3: a finite group, but the mirrors
    # meet pairwise at pi/3 around no chamber of it
    ([PlaneR3((1, 0, 0), 0.0), PlaneR3((0.5, math.sqrt(3) / 2, 0), 0.0),
      PlaneR3((0.5, 0.5 / math.sqrt(3), math.sqrt(2 / 3)), 0.0)], "no finite Coxeter chamber"),
], ids=["coincident", "a-b-c-b", "parallel", "dependent", "no-chamber"])
def test_mirrors_without_a_chamber_are_a_typed_error(planes, match):
    with pytest.raises(OrbitExplosion, match=match):
        close_group(planes)


@pytest.mark.parametrize("miss, order", [(0.5 * ANGLE_BOUND, 6), (2 * ANGLE_BOUND, None)])
def test_angle_bound(miss, order):
    """Mirrors at pi / (3 + miss) close to I2(3) within ANGLE_BOUND and raise past it."""
    planes = [_plane(0.0), _plane(math.pi / (3 + miss))]
    if order is None:
        with pytest.raises(OrbitExplosion, match="is not within"):
            close_group(planes)
    else:
        assert len(close_group(planes)) == order


def test_max_word_keeps_its_meaning(platonic_pairs):
    """A group closes at one more than the length of its longest element:
    A3, B3 and H3 at 7, 10 and 16, and I2(64) at 65, where max_word = m_ij
    raises before the table is made."""
    cases = [([m.plane for m in _mirrors(platonic_pairs[name])], word)
             for name, word in (("tetrahedral", 7), ("octahedral", 10), ("icosahedral", 16))]
    cases.append(([_plane(0.0), _plane(math.pi / 64)], 65))
    for planes, word in cases:
        assert len(close_group(planes, word)) > 1
        with pytest.raises(OrbitExplosion) as got:
            close_group(planes, word - 1)
        assert str(got.value) == f"group did not close within word length {word - 1}"


@pytest.mark.parametrize("m, order", [
    ([], 1), ([[1]], 2), ([[1, 7], [7, 1]], 14), ([[1, 2, 2], [2, 1, 2], [2, 2, 1]], 8),
    ([[1, 3, 2], [3, 1, 3], [2, 3, 1]], 24), ([[1, 4, 2], [4, 1, 3], [2, 3, 1]], 48),
    ([[1, 5, 2], [5, 1, 3], [2, 3, 1]], 120),
    ([[1, 4, 2, 2], [4, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]], 384),
], ids=["trivial", "A1", "I2(7)", "A1^3", "A3", "B3", "H3", "B4"])
def test_cayley_table_is_the_coxeter_group(m, order):
    """The live cosets number the group's order, coset 0 reaches them all,
    each s_i is an involution and each (s_i s_j)^m_ij fixes every coset."""
    table = _cayley_table(m)
    live = [c for c, row in enumerate(table) if row is not None]
    assert len(live) == order
    reached, stack = {0}, [0]
    while stack:
        for d in table[stack.pop()]:
            if d not in reached:
                reached.add(d)
                stack.append(d)
    assert reached == set(live)
    for c in live:
        for i, row in enumerate(m):
            assert table[table[c][i]][i] == c
            for j, m_ij in enumerate(row):
                d = c
                for _ in range(m_ij):
                    d = table[table[d][i]][j]
                assert d == c


def test_close_group_without_generators():
    elements = close_group([])
    assert len(elements) == 1 and elements[0].distance(Isometry.identity()) == 0.0


@pytest.fixture(scope="module")
def family_pairs_at_cli_sizes(platonic_pairs):
    """The pieces of the nine families whose orbit files are pinned byte for byte."""
    pairs = {f"enneper-{k}": MinimalPair.from_grid(power_function(2 * k / (k + 1), side, side))
             for k, side in ((1, 8), (2, 8), (3, 12))}
    pairs["planar-enneper"] = MinimalPair.from_grid(power_function(3.0, 12, 12))
    for k in (3, 6):
        pairs[f"knoid-{k}"] = MinimalPair.from_grid(solve_knoid(BoundarySpec(k, 5, 15)).grid)
    pairs["tetrahedral-2"] = MinimalPair.from_grid(solve_platonic("tetrahedral", 2).grid)
    for name in ("octahedral", "icosahedral"):
        pairs[f"{name}-3"] = platonic_pairs[name]
    return pairs


MIRROR_A, MIRROR_B, PLANE_C = _plane(0.0), _plane(math.pi / 5), PlaneR3((0, 0, 1), 1.0)


@pytest.mark.parametrize("name, order", [
    ("enneper-1", 4), ("enneper-2", 6), ("enneper-3", 8), ("planar-enneper", 4),
    ("knoid-3", 12), ("knoid-6", 24), ("tetrahedral-2", 24), ("octahedral-3", 48),
    ("icosahedral-3", 120), ("a-b-c", 20), ("none", 1)])
def test_table_group_equals_scalar_oracle(name, order, request):
    """The Cayley table keeps exactly the candidates that the oracle's float
    merge keeps: the same elements, in the same order, to the bit."""
    if name == "a-b-c":
        planes = [MIRROR_A, MIRROR_B, PLANE_C]
    elif name == "none":
        planes = []
    else:
        planes = [m.plane for m in _mirrors(request.getfixturevalue(
            "family_pairs_at_cli_sizes")[name])]
    got = close_group(planes, 20)
    want = scalar_close_group([Isometry.plane_reflection(p) for p in planes], 20, 1e-6)
    assert len(got) == len(want) == order
    for g, w in zip(got, want):
        assert np.array_equal(g.matrix, w.matrix)
        assert np.array_equal(g.translation, w.translation)


def _piece(points):
    """A 2 x 2 piece with the given four vertices in m-major order."""
    return Net3(LatticeDomain((0, 1), (0, 1)), np.array(points, dtype=float),
                check_edges=False)


# the mirror y = 0 through the first row n = 0 of _piece: vertices 0 and 2
MIRROR = BoundaryAnalysis("row", 0, "planar_curvature_line", plane=PlaneR3((0, 1, 0), 0.0))


def test_copies_share_the_mirror_line():
    piece = _piece([[0, 0, 0], [0, 1, 0.3], [1, 0, 0], [1, 1, 0]])
    orbit = build_orbit(piece, [MIRROR])
    # the mirror copy adds its vertices 1 and 3 as 4 and 5, and its face is reversed
    assert orbit.vertices.tolist() == [[0, 0, 0], [0, 1, 0.3], [1, 0, 0], [1, 1, 0],
                                       [0, -1, 0.3], [1, -1, 0]]
    assert orbit.faces == [(0, 2, 3, 1), (0, 4, 5, 2)]
    assert orbit.weld_residual == 0.0


def test_vertex_near_the_mirror_counts_as_fixed():
    # vertex 2 is on the mirror's row n = 0 but d off its plane: it welds all the
    # same, and its image 2 d away is the crack weld_residual reports
    d = 0.01
    piece = _piece([[0, 0, 0], [0, 1, 0.3], [1, d, 0], [1, 1, 0]])
    orbit = build_orbit(piece, [MIRROR])
    assert len(orbit.vertices) == 6
    assert orbit.faces == [(0, 2, 3, 1), (0, 4, 5, 2)]
    assert orbit.weld_residual == pytest.approx(2 * d / piece.scale())


def test_near_vertices_off_the_mirrors_stay_apart():
    # vertices 1 and 3 lie 0.005 apart, but no mirror fixes either
    piece = _piece([[0, 0, 0], [0.5, 1, 0], [1, 0, 0], [0.505, 1, 0]])
    for mirrors, count in (([], 4), ([MIRROR], 6)):
        orbit = build_orbit(piece, mirrors)
        assert len(orbit.vertices) == count
        assert orbit.weld_residual == 0.0


def test_dihedral_orbit_equals_scalar_oracle():
    # two mirrors through the z axis at angle pi/64: 128 elements
    angle = math.pi / 64
    mirrors = [MIRROR, BoundaryAnalysis("col", 0, "planar_curvature_line", plane=PlaneR3(
        (-math.sin(angle), math.cos(angle), 0), 0.0))]
    # vertices 0 and 1 lie on the axis, 2 on the mirror y = 0, 3 inside the wedge;
    # vertex 0 is on both mirrors' lines, 1 on column 0's only, 2 on row 0's only
    piece = _piece([[0, 0, 0], [0, 0, 1], [1, 0, 0],
                    [math.cos(angle / 2), math.sin(angle / 2), 1]])
    orbit = build_orbit(piece, mirrors, max_word=130)
    _, vertices, faces, weld_residual = scalar_mirror_orbit(piece, mirrors, 130, 1e-6)
    assert len(orbit.elements) == 128
    assert len(orbit.vertices) == 1 + 64 + 64 + 128
    assert np.array_equal(orbit.vertices, vertices)
    assert orbit.faces == faces
    assert orbit.weld_residual == weld_residual


def test_icosahedral_orbit_has_no_cracks(platonic_pairs):
    """Every pair of distinct orbit vertices at resolution 3 is more than
    1e-6 times the piece's size apart: the copies that meet on a mirror's
    line share its vertices, and no two other vertices coincide."""
    pair = platonic_pairs["icosahedral"]
    piece = pair.isothermic
    orbit = build_orbit(piece, _mirrors(pair))
    v = orbit.vertices
    for start in range(0, len(v), 256):
        dist = np.linalg.norm(v[start:start + 256, None] - v[None], axis=2)
        dist[np.arange(len(dist)), start + np.arange(len(dist))] = np.inf
        assert dist.min() > 1e-6 * piece.scale()


@pytest.mark.parametrize("name", ["tetrahedral", "octahedral"])
def test_orbit_files_equal_row_by_row_formatting(name, platonic_pairs, tmp_path):
    """The orbit writer formats each vertex coordinate once for both files;
    their bytes are those of formatting each row and number on its own."""
    pair = platonic_pairs[name]
    path, obj_path = tmp_path / "o.orbit.json", tmp_path / "o.orbit.obj"
    orbit = _orbit(pair.isothermic, boundary_lines(pair.isothermic, pair.gauss, 1e-9), 1e-9, 16)
    _write_orbit(orbit, str(path), str(obj_path))
    doc, obj = orbit_files(orbit)
    assert path.read_text() == doc
    assert obj_path.read_text() == obj


@pytest.fixture(scope="module")
def topology_pairs(enneper_pair, planar_enneper_pair, trinoid_pair, platonic_pairs):
    pairs = {("enneper", k): MinimalPair.from_grid(power_function(2 * k / (k + 1), 8, 8))
             for k in (1, 2, 4)}
    pairs["enneper", 3] = enneper_pair
    pairs["planar_enneper", None] = planar_enneper_pair
    pairs["knoid", 3] = trinoid_pair
    pairs["knoid", 4] = MinimalPair.from_grid(solve_knoid(BoundarySpec(4, 3, 10)).grid)
    for name in platonic_pairs:
        pairs[name, None] = platonic_pairs[name]
    return pairs


@pytest.mark.parametrize("name, k, euler, loops", [
    ("enneper", 1, 1, 1), ("enneper", 2, 1, 1), ("enneper", 3, 1, 1), ("enneper", 4, 1, 1),
    ("planar_enneper", None, 0, 2), ("knoid", 3, -1, 3), ("knoid", 4, -2, 4),
    ("tetrahedral", None, -2, 4), ("octahedral", None, -4, 6),
    ("icosahedral", None, -10, 12)])
def test_orbit_topology(name, k, euler, loops, topology_pairs):
    """The orbit that `generate --orbit` builds is a manifold surface of the
    expected Euler characteristic and boundary: Enneper a disk, planar
    Enneper an annulus, the K-noid a sphere with K holes and each Platonic
    surface one hole per face of its solid.  The distance weld glued the
    Enneper sheets where they cross on the symmetry axis."""
    pair = topology_pairs[name, k]
    orbit = _orbit(pair.isothermic, boundary_lines(pair.isothermic, pair.gauss, 1e-9), 1e-9, 16)
    assert orbit_topology(len(orbit.vertices), orbit.faces) == (euler, loops, [], [])
