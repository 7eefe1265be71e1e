"""The array orbit assembly against the one-at-a-time oracles in conftest."""

import math

import numpy as np
import pytest

from minnet.bvp import BoundarySpec, solve_knoid, solve_platonic
from minnet.commands import _boundary_reflections, _orbit, _write_orbit
from minnet.errors import OrbitExplosion
from minnet.holomorphic import power_function
from minnet.minimal import MinimalPair
from minnet.mobius import Isometry, PlaneR3
from minnet.net import LatticeDomain, Net3
from minnet.reflection import BoundaryAnalysis, build_orbit, close_group

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
    f, n = pair.isothermic, pair.gauss
    return f, _boundary_reflections(f, n, 1e-7)


@pytest.mark.parametrize("name, order", [("knoid", 12), ("tetrahedral", 24),
                                         ("octahedral", 48), ("icosahedral", 120)])
def test_array_orbit_equals_scalar_oracle(name, order, request):
    """On these manifold orbits the weld along the mirrors' lines is the
    distance weld of the oracle."""
    piece, mirrors = _case(name, request)
    generators = [Isometry.plane_reflection(m.plane) for m in mirrors]
    orbit = build_orbit(piece, mirrors, max_word=20, dedup_tol=1e-6)
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


def test_irrational_angle_explodes_like_oracle():
    p1 = PlaneR3((0, 1, 0), 0.0)
    p2 = PlaneR3((math.sin(1.0), math.cos(1.0), 0.0), 0.0)
    gens = [Isometry.plane_reflection(p1), Isometry.plane_reflection(p2)]
    for kwargs in ({"max_word": 64, "max_elements": 64}, {"max_word": 8}):
        with pytest.raises(OrbitExplosion) as got:
            close_group(gens, **kwargs)
        with pytest.raises(OrbitExplosion) as want:
            scalar_close_group(gens, **kwargs)
        assert str(got.value) == str(want.value)


def test_close_group_without_generators():
    elements = close_group([])
    assert len(elements) == 1 and elements[0].distance(Isometry.identity()) == 0.0


# mirrors through the z axis at angle pi/5, and the plane z = 1 off the origin
MIRROR_A = Isometry.plane_reflection(PlaneR3((0, 1, 0), 0.0))
MIRROR_B = Isometry.plane_reflection(PlaneR3((math.sin(math.pi / 5), math.cos(math.pi / 5), 0),
                                             0.0))
PLANE_C = Isometry.plane_reflection(PlaneR3((0, 0, 1), 1.0))


@pytest.mark.parametrize("generators, order", [
    ([MIRROR_A, MIRROR_A, MIRROR_B], 10),
    ([MIRROR_A, Isometry.identity(), MIRROR_B], 10),
    ([MIRROR_B.compose(MIRROR_A), MIRROR_A], 10),
    ([MIRROR_A, MIRROR_B, PLANE_C, MIRROR_B], 20),
    ([], 1),
], ids=["a-a-b", "a-identity-b", "ba-a", "a-b-c-b", "none"])
def test_repeated_candidates_equal_scalar_oracle(generators, order):
    """A repeated generator, the identity or a product of two generators makes
    candidates of one word length that match each other or an earlier
    element: the first one found is kept, as in the oracle."""
    got = close_group(generators, dedup_tol=1e-6)
    want = scalar_close_group(generators, dedup_tol=1e-6)
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


def test_dihedral_orbit_in_blocks_equals_scalar_oracle():
    # two mirrors through the z axis at angle pi/64: 128 elements, so the
    # 256 products g∘s take two blocks of the nearest-element lookup
    angle = math.pi / 64
    mirrors = [MIRROR, BoundaryAnalysis("col", 0, "planar_curvature_line", plane=PlaneR3(
        (-math.sin(angle), math.cos(angle), 0), 0.0))]
    # vertices 0 and 1 lie on the axis, 2 on the mirror y = 0, 3 inside the wedge;
    # vertex 0 is on both mirrors' lines, 1 on column 0's only, 2 on row 0's only
    piece = _piece([[0, 0, 0], [0, 0, 1], [1, 0, 0],
                    [math.cos(angle / 2), math.sin(angle / 2), 1]])
    orbit = build_orbit(piece, mirrors, max_word=130, dedup_tol=1e-6)
    _, vertices, faces, weld_residual = scalar_mirror_orbit(
        piece, mirrors, max_word=130, dedup_tol=1e-6)
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
    orbit = build_orbit(piece, _boundary_reflections(piece, pair.gauss, 1e-7),
                        dedup_tol=1e-6)
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
    orbit = _orbit(pair.isothermic, pair.gauss, 1e-9, 16)
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
    orbit = _orbit(pair.isothermic, pair.gauss, 1e-9, 16)
    assert orbit_topology(len(orbit.vertices), orbit.faces) == (euler, loops, [], [])
