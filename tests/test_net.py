import numpy as np
import pytest

from minnet.errors import ClosureFailure, DomainMismatch, NotCircular, ParseError
from minnet.lattice import EdgeLabels, LatticeDomain, Net3, integrate_edges
from minnet.net import are_parallel_meshes, is_circular, is_isothermic, read_net, write_net

from conftest import christoffel, random_similarity


def flat_net(m=3, n=3, mask=()):
    dom = LatticeDomain((0, m), (0, n), frozenset(mask))
    return Net3(dom, [[m, n, 0.0] for m, n in dom.vertices])


class TestLatticeDomain:
    def test_vertices_and_quads(self):
        dom = LatticeDomain((0, 2), (0, 2), frozenset({(0, 0)}))
        assert (0, 0) not in dom
        assert len(dom.vertices) == 8
        assert set(dom.quads) == {(0, 1), (1, 0), (1, 1)}
        for q in dom.quads:
            assert all(v in dom for v in dom.quad_vertices(q))

    def test_disconnected_masked_domain_rejected(self):
        with pytest.raises(ValueError):
            LatticeDomain((0, 2), (0, 0), frozenset({(1, 0)}))

    def test_mask_outside_range_rejected(self):
        with pytest.raises(ValueError):
            LatticeDomain((0, 2), (0, 2), frozenset({(5, 5)}))


class TestEdgeLabels:
    def test_quad_relation_is_structural(self):
        # labels on opposite edges of any quad agree by construction
        rng = np.random.default_rng(11)
        dom = LatticeDomain((0, 5), (0, 4))
        labels = EdgeLabels(rng.uniform(0.5, 2.0, 5), -rng.uniform(0.5, 2.0, 4))
        edge = dict(zip(dom.edges(), labels.on_edges(dom)))
        for q in dom.quads:
            i, j, k, l = dom.quad_vertices(q)
            assert edge[(i, j)] == edge[(l, k)] and edge[(i, l)] == edge[(j, k)]
        assert (labels.quad_ratios(dom) < 0).all()


class TestNet3:
    def test_missing_vertex_rejected(self):
        dom = LatticeDomain((0, 1), (0, 1))
        with pytest.raises(ValueError):
            Net3(dom, [[0, 0, 0], [0, 1, 0], [1, 0, 0]])

    def test_degenerate_edge_rejected(self):
        dom = LatticeDomain((0, 1), (0, 0))
        with pytest.raises(ValueError):
            Net3(dom, [[0, 0, 0], [0, 0, 0]])

    def test_zero_edges_allowed_for_normal_fields(self):
        dom = LatticeDomain((0, 1), (0, 0))
        net = Net3(dom, [[0, 0, 1], [0, 0, 1]], check_edges=False)
        assert np.allclose(net[(0, 0)], net[(1, 0)])


class TestIntegrateEdges:
    """The one integrator: closure of every quad first, then the tree sum."""

    @pytest.mark.parametrize("complex_values", [False, True])
    def test_exact_differences_integrate_back(self, complex_values):
        dom = LatticeDomain((0, 3), (0, 2), frozenset({(1, 1)}))
        m, n = dom.coords.T.astype(float)
        values = (np.exp(0.3 * m) + 1j * n * n if complex_values
                  else np.stack([m, n, m * n], axis=1))
        a, b = dom.edge_index.T
        got = integrate_edges(dom, values[b] - values[a], "test", root=(2, 1))
        assert np.allclose(got, values - values[dom.vertex_index[2, 1]], atol=1e-14)

    @pytest.mark.parametrize("bad", [1e-6, np.nan])
    def test_open_loop_names_the_first_open_quad(self, bad):
        """A loop open by 1e-6 of its largest increment, or by NaN, fails."""
        dom = LatticeDomain((0, 2), (0, 1))
        m, n = dom.coords.T.astype(float)
        a, b = dom.edge_index.T
        inc = (m + 1j * n)[b] - (m + 1j * n)[a]
        inc[dom.quad_edges[1, 1]] += bad
        with pytest.raises(ClosureFailure, match=r"planar dual: quad \(1, 0\) loop residual"):
            integrate_edges(dom, inc, "planar dual")


class TestIsCircular:
    def test_unit_square(self):
        ok, res = is_circular(flat_net(), (0, 0))
        assert ok and res < 1e-14

    def test_lifted_vertex(self):
        # circumcenter oracle: 3 base points fix the circle; the lifted
        # vertex is off that circle by more than 0.01
        net = flat_net()
        net.points[net.domain.vertex_index[(1, 1)]] = np.array([1.0, 1.0, 0.1])
        ok, res = is_circular(net, (0, 0))
        assert not ok
        assert res >= 0.01

    def test_rectangle_is_cyclic(self):
        dom = LatticeDomain((0, 1), (0, 1))
        net = Net3(dom, [[0, 0, 0], [0, 1, 0], [2, 0, 0], [2, 1, 0]])
        ok, res = is_circular(net, (0, 0))
        assert ok and res < 1e-12

    def test_similarity_invariance(self):
        rng = np.random.default_rng(12)
        net = flat_net()
        net.points[net.domain.vertex_index[(1, 1)]] = np.array([1.0, 1.0, 0.05])
        ok0, res0 = is_circular(net, (0, 0))
        for _ in range(10):
            move, scale = random_similarity(rng)
            moved = Net3(net.domain, [move(p) for p in net.points])
            ok1, res1 = is_circular(moved, (0, 0))
            assert ok1 == ok0
            assert abs(res1 - scale * res0) < 1e-6 * scale


class TestIsIsothermic:
    def test_flat_lattice_passes(self):
        net = flat_net()
        report = is_isothermic(net, EdgeLabels.constant(net.domain))
        assert report.ok and report.max_residual < 1e-12

    def test_wrong_labels_fail(self):
        net = flat_net()
        report = is_isothermic(net, EdgeLabels.constant(net.domain, 1.0, -2.0))
        assert not report.ok
        assert abs(report.max_residual - 0.5) < 1e-12

    def test_noncircular_raises(self):
        net = flat_net()
        net.points[net.domain.vertex_index[(1, 1)]] = np.array([1.0, 1.0, 0.3])
        with pytest.raises(NotCircular):
            is_isothermic(net, EdgeLabels.constant(net.domain))

    def test_enneper_pipeline(self, enneper_pair):
        report = is_isothermic(enneper_pair.isothermic, enneper_pair.grid.labels,
                               1e-9)
        assert report.ok


class TestParallelMeshes:
    def test_homothety(self):
        net = flat_net()
        other = Net3(net.domain, 2 * net.points + np.array([3.0, -1.0, 2.0]))
        ok, worst = are_parallel_meshes(net, other)
        assert ok and worst < 1e-12

    def test_random_net_fails(self):
        rng = np.random.default_rng(13)
        net = flat_net()
        other = Net3(net.domain, rng.normal(size=(len(net.domain.vertices), 3)) * 2)
        ok, worst = are_parallel_meshes(net, other)
        assert not ok and worst > 1e-3

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            are_parallel_meshes(flat_net(3, 3), flat_net(2, 2))

    def test_christoffel_dual_is_parallel(self, enneper_pair):
        dual = christoffel(enneper_pair.isothermic, enneper_pair.grid.labels)
        ok, worst = are_parallel_meshes(enneper_pair.isothermic, dual, 1e-9)
        assert ok, worst


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(14)
        dom = LatticeDomain((0, 3), (0, 2), frozenset({(0, 0)}))
        net = Net3(dom, rng.normal(size=(len(dom.vertices), 3)) * 7)
        labels = EdgeLabels(rng.uniform(0.5, 2, 3), -rng.uniform(0.5, 2, 2))
        normals = Net3(dom, rng.normal(size=(len(dom.vertices), 3)), check_edges=False)
        path = tmp_path / "net.dnet.json"
        write_net(path, net, labels, normals)
        bundle = read_net(path)
        assert bundle.net.domain == dom
        assert np.array_equal(bundle.net.points, net.points)
        assert np.array_equal(bundle.normals.points, normals.points)
        assert np.array_equal(bundle.labels.alpha, labels.alpha)
        assert np.array_equal(bundle.labels.beta, labels.beta)

    def test_write_is_deterministic(self, tmp_path):
        net = flat_net()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_net(p1, net)
        write_net(p2, net)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_vertex_is_parse_error(self, tmp_path):
        net = flat_net(1, 1)
        path = tmp_path / "bad.dnet.json"
        write_net(path, net)
        doc = path.read_text().replace('{"m": 1, "n": 1, "p": [1, 1, 0]}', "")
        doc = doc.replace("]}, ]", "]}]").replace("]}, ],", "]}],")
        # remove trailing comma artifacts robustly
        import re
        doc = re.sub(r",\s*]", "]", doc)
        path.write_text(doc)
        with pytest.raises(ParseError):
            read_net(path)

    def test_last_record_wins_and_off_domain_records_are_ignored(self, tmp_path):
        import json
        net = flat_net(1, 1)
        path = tmp_path / "net.dnet.json"
        write_net(path, net)
        doc = json.loads(path.read_text())
        doc["vertices"] += [{"m": 1, "n": 1, "p": [1, 1, 0.5]}, {"m": 5, "n": 0, "p": [0, 0, 0]}]
        path.write_text(json.dumps(doc))
        bundle = read_net(path)
        assert bundle.net[(1, 1)].tolist() == [1.0, 1.0, 0.5]
        assert bundle.net.points[:3].tolist() == net.points[:3].tolist()

    def test_invalid_json_is_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_net(path)

    def test_label_length_mismatch(self, tmp_path):
        net = flat_net(2, 2)
        path = tmp_path / "net.json"
        write_net(path, net, EdgeLabels.constant(net.domain))
        import json
        doc = json.loads(path.read_text())
        doc["alpha"] = doc["alpha"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            read_net(path)
