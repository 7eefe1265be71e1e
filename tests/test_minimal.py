import numpy as np
import pytest

from minnet.battery import circularity_residuals, planarity_residuals, point_scales
from minnet.errors import ClosureFailure, NotCoplanar, NotIsothermic, ZeroArea
from minnet.holomorphic import HoloGrid, power_function
from minnet.minimal import (gauss_map, is_asymptotic, mixed_area,
                            propagate_normals, quad_curvatures, tangent_normals,
                            weierstrass_asymptotic, weierstrass_isothermic)
from minnet.lattice import EdgeLabels, LatticeDomain, Net3
from minnet.net import are_parallel_meshes, is_isothermic

from conftest import best_similarity, christoffel, edge_label

SQUARE = [np.array(p, float) for p in [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]]


def flat_net(m=3, n=3):
    dom = LatticeDomain((0, m), (0, n))
    return Net3(dom, [[m, n, 0.0] for m, n in dom.vertices])


class TestWeierstrassEdges:
    def test_isothermic_first_edge(self):
        # direct formula evaluation: g_i=0, g_j=1, dg=1, label 1 gives
        # Re(1 - 0, i(1 + 0), 0 + 1) = (1, 0, 1)
        grid = power_function(1.0, 4, 4)
        f = weierstrass_isothermic(grid)
        assert np.allclose(f[(1, 0)] - f[(0, 0)], [1.0, 0.0, 1.0], atol=1e-14)

    def test_asymptotic_first_edge(self):
        # same vector times i: Re(i, i*i, i) = (0, -1, 0)
        grid = power_function(1.0, 4, 4)
        ft = weierstrass_asymptotic(grid)
        assert np.allclose(ft[(1, 0)] - ft[(0, 0)], [0.0, -1.0, 0.0], atol=1e-14)

    def test_edge_oracle_random_values(self):
        # recompute a few edge increments straight from the formula
        grid = power_function(1.5, 5, 5)
        f = weierstrass_isothermic(grid)
        for (a, b) in [((1, 1), (2, 1)), ((2, 2), (2, 3))]:
            gi, gj = grid[a], grid[b]
            label = 1.0 if a[1] == b[1] else -1.0
            vec = np.array([(c / (gj - gi)).real for c in
                            (1 - gi * gj, 1j * (1 + gi * gj), gi + gj)])
            assert np.allclose(f[b] - f[a], label * vec, atol=1e-12)

    def test_zero_dg_raises(self):
        """A grid's arrays are read-only, so no edge collapses after the
        coincident-value check; a collapsed edge is refused at construction."""
        dom = LatticeDomain((0, 2), (0, 2))
        values = {v: complex(v[0], v[1]) for v in dom.vertices}
        grid = HoloGrid.from_dict(dom, values, EdgeLabels.constant(dom))
        index = dom.vertex_index
        with pytest.raises(ValueError, match="read-only"):
            grid.values[index[2, 2]] = grid.values[index[1, 2]]  # collapse one edge
        with pytest.raises(ValueError, match="read-only"):
            grid.inf[index[2, 2]] = True
        with pytest.raises(ValueError, match=r"coincident neighboring values on edge "
                                             r"\(1, 2\)-\(2, 2\)"):
            HoloGrid.from_dict(dom, {**values, (2, 2): values[(1, 2)]},
                               EdgeLabels.constant(dom))


class TestMinimality:
    @pytest.mark.parametrize("gamma", [1.0, 1.5, 4 / 3, 3.0])
    def test_h_vanishes(self, gamma):
        grid = power_function(gamma, 6, 6)
        f = weierstrass_isothermic(grid)
        n = gauss_map(grid)
        worst = max(abs(quad_curvatures(f.quad_points(q), n.quad_points(q)).H)
                    for q in f.domain.quads)
        assert worst <= 1e-9

    def test_output_is_isothermic(self, enneper_pair):
        report = is_isothermic(enneper_pair.isothermic, enneper_pair.grid.labels,
                               1e-9)
        assert report.ok

    def test_similarity_of_data_scales_net(self):
        grid = power_function(1.5, 5, 5)
        f = weierstrass_isothermic(grid)
        moved = HoloGrid.from_dict(grid.domain, {v: grid[v] + (0.4 - 0.2j)
                                                 for v in grid.domain.vertices}, grid.labels)
        f2 = weierstrass_isothermic(moved)
        n2 = gauss_map(moved)
        worst = max(abs(quad_curvatures(f2.quad_points(q), n2.quad_points(q)).H)
                    for q in f2.domain.quads)
        assert worst <= 1e-9


class TestChristoffel:
    def test_flat_lattice(self):
        net = flat_net()
        dual = christoffel(net, EdgeLabels.constant(net.domain))
        for (m, n) in net.domain.vertices:
            assert np.allclose(dual[(m, n)], [m, -n, 0.0], atol=1e-13)

    def test_not_isothermic_raises(self):
        net = flat_net()
        with pytest.raises(NotIsothermic):
            christoffel(net, EdgeLabels.constant(net.domain, 1.0, -2.0))

    def test_involution(self, enneper_pair):
        labels = enneper_pair.grid.labels
        dual = christoffel(enneper_pair.isothermic, labels)
        back = christoffel(dual, labels)
        s, t, res = best_similarity(back.points,
                                    enneper_pair.isothermic.points)
        assert res <= 1e-8 * enneper_pair.isothermic.scale()

    def test_dual_of_minimal_is_gauss_map(self, enneper_pair):
        dual = christoffel(enneper_pair.isothermic, enneper_pair.grid.labels)
        s, t, res = best_similarity(dual.points, enneper_pair.gauss.points)
        assert res <= 1e-9


def flat_quads(net: Net3) -> np.ndarray:
    """Whether each quad of the net is planar to 1e-9 of its diameter."""
    quads = net.quad_array()
    return planarity_residuals(quads) <= 1e-9 * point_scales(quads)


class TestAsymptotic:
    def test_weierstrass_output_passes(self, enneper_pair):
        """Every star of the conjugate net is planar and no quad is: its
        quads are skew, as an asymptotic net's are."""
        assert is_asymptotic(enneper_pair.asymptotic, 1e-9).ok
        assert not flat_quads(enneper_pair.asymptotic).any()

    def test_planar_net_passes_with_flat_quads(self):
        """The star test alone passes a flat net, every quad of which is planar."""
        assert is_asymptotic(flat_net(), 1e-9).ok  # stars trivially coplanar
        assert flat_quads(flat_net()).all()

    def test_circular_net_fails_star_test(self, enneper_pair):
        report = is_asymptotic(enneper_pair.isothermic, 1e-9)
        assert not report.ok

    def test_shared_normals(self, enneper_pair):
        normals, lift = tangent_normals(enneper_pair.asymptotic), enneper_pair.gauss.points
        worst = np.minimum(np.linalg.norm(normals - lift, axis=1),
                           np.linalg.norm(normals + lift, axis=1)).max()
        assert worst <= 1e-9


class TestPropagateNormals:
    def test_flat_lattice_constant_field(self):
        net = flat_net()
        normals = propagate_normals(net, (0, 0, 1))
        assert all(np.allclose(normals[v], [0, 0, 1]) for v in net.domain.vertices)

    def test_recovers_lift(self, enneper_pair):
        f, lift = enneper_pair.isothermic, enneper_pair.gauss
        root = min(f.domain.vertices)
        normals = propagate_normals(f, lift[root], root=root)
        worst = max(np.linalg.norm(normals[v] - lift[v])
                    for v in f.domain.vertices)
        assert worst <= 1e-9

    def test_antipodal_seed(self, enneper_pair):
        f, lift = enneper_pair.isothermic, enneper_pair.gauss
        root = min(f.domain.vertices)
        normals = propagate_normals(f, -lift[root], root=root)
        worst = max(np.linalg.norm(normals[v] + lift[v])
                    for v in f.domain.vertices)
        assert worst <= 1e-9


class TestMixedArea:
    def test_square_with_itself(self):
        assert np.allclose(mixed_area(SQUARE, SQUARE), [0, 0, 1])

    def test_bilinearity(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            s = rng.uniform(0.1, 3.0)
            scaled = [s * p for p in SQUARE]
            assert np.allclose(mixed_area(SQUARE, scaled), [0, 0, s], atol=1e-12)
            g1 = [p + rng.normal(size=3) * 0 for p in SQUARE]
            a = mixed_area(SQUARE, g1) + mixed_area(SQUARE, scaled)
            b = mixed_area(SQUARE, [p + q for p, q in zip(g1, scaled)])
            assert np.allclose(a, b, atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(32)
        plane_pts = [np.array([x, y, 0.0]) for x, y in rng.normal(size=(4, 2))]
        assert np.allclose(mixed_area(SQUARE, plane_pts),
                           mixed_area(plane_pts, SQUARE), atol=1e-13)

    def test_degenerate_partner(self):
        point = [np.zeros(3)] * 4
        assert np.allclose(mixed_area(SQUARE, point), 0.0)

    def test_non_coplanar_raises(self):
        bad = [p.copy() for p in SQUARE]
        bad[2][2] = 0.5
        with pytest.raises(NotCoplanar):
            mixed_area(bad, SQUARE)


class TestQuadCurvatures:
    def test_self_pair(self):
        qc = quad_curvatures(SQUARE, SQUARE)
        assert abs(qc.H + 1.0) < 1e-12
        assert abs(qc.K - 1.0) < 1e-12
        assert abs(qc.areaF - 1.0) < 1e-12

    def test_scaled_partner(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            s = rng.uniform(0.1, 2.0)
            qc = quad_curvatures(SQUARE, [s * p for p in SQUARE])
            assert abs(qc.H + s) < 1e-12
            assert abs(qc.K - s * s) < 1e-12

    def test_zero_area(self):
        line = [np.array([t, 0.0, 0.0]) for t in (0.0, 1.0, 2.0, 3.0)]
        with pytest.raises(ZeroArea):
            quad_curvatures(line, SQUARE)


class TestOffsetAndSteiner:
    def test_offset_stays_circular_and_parallel(self, enneper_pair):
        f, n = enneper_pair.isothermic, enneper_pair.gauss
        off = Net3(f.domain, f.points + 0.37 * n.points)
        pts = off.quad_array()
        assert (circularity_residuals(pts) <= 1e-8 * point_scales(pts)).all()
        ok, worst = are_parallel_meshes(f, off, 1e-8)
        assert ok, worst

    def test_steiner_identity(self, enneper_pair):
        rng = np.random.default_rng(34)
        f, n = enneper_pair.isothermic, enneper_pair.gauss
        for q in f.domain.quads:
            t = float(rng.uniform(-1, 1))
            qf, qn = f.quad_points(q), n.quad_points(q)
            qc = quad_curvatures(qf, qn)
            shifted = [p + t * v for p, v in zip(qf, qn)]
            af = mixed_area(qf, qf)
            nhat = af / np.linalg.norm(af)
            offset_area = float(mixed_area(shifted, shifted, 1e-6) @ nhat)
            both = mixed_area(qf, qf) + 2 * t * mixed_area(qf, qn) \
                + t * t * mixed_area(qn, qn)
            assert abs(offset_area - float(both @ nhat)) <= 1e-9 * abs(qc.areaF)
            predicted = (1 - 2 * t * qc.H + t * t * qc.K) * qc.areaF
            assert abs(offset_area - predicted) <= 1e-9 * abs(qc.areaF)


class TestClosure:
    def test_quad_loop_closure_of_builders(self):
        # summing the signed edge increments around every quad gives zero
        from minnet.minimal import _wei_increment
        grid = power_function(1.5, 6, 6)
        for conj in (False, True):
            worst = 0.0
            for quad in grid.domain.quads:
                i, j, k, l = grid.domain.quad_vertices(quad)
                inc = lambda a, b: _wei_increment(grid[a], grid[b],
                                                  edge_label(grid.labels, grid.domain, a, b),
                                                  conj)
                loop = inc(i, j) + inc(j, k) - inc(l, k) - inc(i, l)
                scale = max(np.linalg.norm(inc(i, j)), np.linalg.norm(inc(i, l)))
                worst = max(worst, np.linalg.norm(loop) / scale)
            assert worst <= 1e-9

    def test_closure_failure_on_bad_grid(self):
        dom = LatticeDomain((0, 2), (0, 2))
        rng = np.random.default_rng(35)
        values = {v: complex(*rng.normal(size=2)) for v in dom.vertices}
        grid = HoloGrid.from_dict(dom, values, EdgeLabels.constant(dom))
        with pytest.raises(ClosureFailure):
            weierstrass_isothermic(grid)


class TestMinimalPair:
    def test_invariants(self, enneper_pair):
        pair = enneper_pair
        for v in pair.gauss.domain.vertices:
            assert abs(np.linalg.norm(pair.gauss[v]) - 1.0) < 1e-12
        ok, worst = are_parallel_meshes(pair.isothermic, pair.gauss, 1e-9)
        assert ok, worst
