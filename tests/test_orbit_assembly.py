"""The array orbit assembly against the one-at-a-time oracles in conftest."""

import math

import numpy as np
import pytest

from minnet.bvp import solve_platonic
from minnet.commands import _boundary_reflections, _orbit, _write_orbit
from minnet.errors import OrbitExplosion
from minnet.minimal import MinimalPair
from minnet.mobius import Isometry, PlaneR3
from minnet.net import LatticeDomain, Net3
from minnet.reflection import SymmetryOrbit, build_orbit, close_group

from conftest import VertexGrid, orbit_files, scalar_build_orbit, scalar_close_group


@pytest.fixture(scope="module")
def platonic_pairs():
    return {name: MinimalPair.from_grid(solve_platonic(name, 3).grid)
            for name in ("tetrahedral", "octahedral", "icosahedral")}


def _case(name, request):
    """(piece, generators) as `generate --orbit` builds them."""
    if name == "enneper":
        pair = request.getfixturevalue("enneper_pair")
    elif name == "knoid":
        pair = request.getfixturevalue("trinoid_pair")
    else:
        pair = request.getfixturevalue("platonic_pairs")[name]
    f, n = pair.isothermic, pair.gauss
    return f, _boundary_reflections(f, n, 1e-7)


@pytest.mark.parametrize("name, order", [("enneper", 8), ("knoid", 12),
                                         ("tetrahedral", 24), ("octahedral", 48),
                                         ("icosahedral", 120)])
def test_array_orbit_equals_scalar_oracle(name, order, request):
    piece, generators = _case(name, request)
    orbit = build_orbit(piece, generators, max_word=20, dedup_tol=1e-6)
    elements, vertices, faces, weld_residual = scalar_build_orbit(
        piece, generators, max_word=20, dedup_tol=1e-6)
    assert len(orbit.elements) == len(elements) == order
    for got, want in zip(orbit.elements, elements):
        assert np.array_equal(got.matrix, want.matrix)
        assert np.array_equal(got.translation, want.translation)
    assert np.array_equal(orbit.vertices, vertices)
    assert orbit.faces == faces
    assert orbit.weld_residual == weld_residual
    # the invariance residual shares the weld's neighbour search
    grid = VertexGrid(orbit.vertices, max(orbit.weld_tol * orbit.scale(), 1e-12))
    for gen in generators:
        worst = 0.0
        for p in gen.apply_many(orbit.vertices):
            idx = grid.nearest(p)
            worst = max(worst, float(np.linalg.norm(orbit.vertices[idx] - p))
                        if idx is not None else math.inf)
        assert orbit.invariance_residual(gen) == worst


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


def _piece(points):
    """A 2 x 2 piece with the given four vertices in m-major order."""
    return Net3(LatticeDomain((0, 1), (0, 1)), np.array(points, dtype=float),
                check_edges=False)


# the mirror y = 0 through the first row n = 0 of _piece: vertices 0 and 2
MIRROR = Isometry.plane_reflection(PlaneR3((0, 1, 0), 0.0))


def test_copies_share_the_mirror_line():
    piece = _piece([[0, 0, 0], [0, 1, 0.3], [1, 0, 0], [1, 1, 0]])
    orbit = build_orbit(piece, [MIRROR])
    # the mirror copy adds its vertices 1 and 3 as 4 and 5, and its face is reversed
    assert orbit.vertices.tolist() == [[0, 0, 0], [0, 1, 0.3], [1, 0, 0], [1, 1, 0],
                                       [0, -1, 0.3], [1, -1, 0]]
    assert orbit.faces == [(0, 2, 3, 1), (0, 4, 5, 2)]
    assert orbit.weld_residual == 0.0


def test_vertex_near_the_mirror_counts_as_fixed():
    # vertex 2 lies 0.4 r off the mirror, r = weld_tol times the piece's size,
    # so its image is 0.8 r away: within r, and welded to it
    weld_tol = 0.01
    r = weld_tol * math.sqrt(2.09)         # the piece spans (0,0,0)-(1,1,0.3)
    piece = _piece([[0, 0, 0], [0, 1, 0.3], [1, 0.4 * r, 0], [1, 1, 0]])
    orbit = build_orbit(piece, [MIRROR], weld_tol=weld_tol)
    assert len(orbit.vertices) == 6
    assert orbit.faces == [(0, 2, 3, 1), (0, 4, 5, 2)]
    assert orbit.weld_residual == pytest.approx(0.8 * weld_tol)


def test_near_vertices_off_the_mirrors_stay_apart():
    # vertices 1 and 3 lie 0.5 r apart, but no mirror fixes either
    weld_tol = 0.01
    r = weld_tol * math.sqrt(2.0)          # the piece spans (0,0,0)-(1,1,0)
    piece = _piece([[0, 0, 0], [0.5, 1, 0], [1, 0, 0], [0.5 + 0.5 * r, 1, 0]])
    for generators, count in (([], 4), ([MIRROR], 6)):
        orbit = build_orbit(piece, generators, weld_tol=weld_tol)
        assert len(orbit.vertices) == count
        assert orbit.weld_residual == 0.0


def test_dihedral_orbit_in_blocks_equals_scalar_oracle():
    # two mirrors through the z axis at angle pi/64: 128 elements, so the
    # 256 products g∘s take two blocks of the nearest-element lookup
    angle = math.pi / 64
    generators = [MIRROR, Isometry.plane_reflection(
        PlaneR3((-math.sin(angle), math.cos(angle), 0), 0.0))]
    # vertices 0 and 1 lie on the axis, 2 on the mirror y = 0, 3 inside the wedge
    piece = _piece([[0, 0, 0], [0, 0, 1], [1, 0, 0],
                    [math.cos(angle / 2), math.sin(angle / 2), 1]])
    orbit = build_orbit(piece, generators, max_word=130, dedup_tol=1e-6)
    _, vertices, faces, weld_residual = scalar_build_orbit(
        piece, generators, max_word=130, dedup_tol=1e-6)
    assert len(orbit.elements) == 128
    assert len(orbit.vertices) == 2 + 64 + 128
    assert np.array_equal(orbit.vertices, vertices)
    assert orbit.faces == faces
    assert orbit.weld_residual == weld_residual


def test_invariance_across_cell_boundary():
    # the mirror x = 2 r sends a, at x = 1.7 r, to 2.3 r: 0.6 r from a across
    # x = 2 r, a cell boundary for cells of side r and of side 2 r from the origin
    r = 0.01
    vertices = np.array([[0, 0, 0], [4 * r, 0, 0], [1.7 * r, 0.5, 0.5], [2 * r, 1, 1]])
    scale = float(np.linalg.norm(vertices.max(axis=0) - vertices.min(axis=0)))
    orbit = SymmetryOrbit([Isometry.identity()], vertices, [], 0.0, r / scale)
    mirror = Isometry.plane_reflection(PlaneR3((1, 0, 0), 2 * r))
    grid = VertexGrid(vertices, r)
    want = max(float(np.linalg.norm(vertices[grid.nearest(p)] - p))
               for p in mirror.apply_many(vertices))
    assert orbit.invariance_residual(mirror) == want == pytest.approx(0.6 * r)


def test_icosahedral_orbit_has_no_cracks(platonic_pairs):
    """Every pair of distinct orbit vertices at resolution 3 is more than
    1e-6 times the piece's size apart.  A piece solved only to cr_max 1e-10
    left three pairs 1.02e-9 to 1.21e-9 apart, just outside the 1e-9 weld
    radius; solved to the rounding floor, the copies meet."""
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
