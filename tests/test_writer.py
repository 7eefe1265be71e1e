"""The direct .dnet.json and .orbit.json writer against a recursive JSON
writer of the same documents, compared byte for byte."""

import json

import numpy as np
import pytest

from minnet.cli import main
from minnet.commands import orbit_to_json
from minnet.errors import ParseError
from minnet.holomorphic import HoloGrid, power_function, write_grid
from minnet.minimal import MinimalPair
from minnet.mobius import INF
from minnet.boundary import analyze_boundary_isothermic
from minnet.lattice import EdgeLabels, LatticeDomain, Net3
from minnet.net import json_rows, load_json, read_net, write_net
from minnet.reflection import _mirror_domain, _mirror_labels, build_orbit

from conftest import edge_label


def dump(obj) -> str:
    """Recursive deterministic JSON writer with 17-significant-digit floats."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dump(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        assert np.isfinite(obj)
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def net_doc(net, labels=None, normals=None, infinity=None) -> dict:
    dom = net.domain
    doc = {"domain": {"m0": dom.m0, "m1": dom.m1, "n0": dom.n0, "n1": dom.n1,
                      "mask": [list(v) for v in sorted(dom.mask)]},
           "vertices": [{"m": m, "n": n, "p": [float(c) for c in net[(m, n)]]}
                        for (m, n) in dom.vertices]}
    if labels is not None:
        doc["alpha"] = [edge_label(labels, dom, (m, 0), (m + 1, 0)) for m in range(dom.m0, dom.m1)]
        doc["beta"] = [edge_label(labels, dom, (0, n), (0, n + 1)) for n in range(dom.n0, dom.n1)]
    if normals is not None:
        doc["normals"] = [[float(c) for c in normals[v]] for v in dom.vertices]
    if infinity is not None:
        doc["infinity"] = [list(v) for v in sorted(infinity)]
    return doc


def orbit_doc(orbit) -> dict:
    return {"kind": "orbit",
            "vertices": [[float(c) for c in p] for p in orbit.vertices],
            "faces": [list(f) for f in orbit.faces],
            "elements": [{"matrix": [[float(c) for c in row] for row in e.matrix],
                          "translation": [float(c) for c in e.translation]}
                         for e in orbit.elements],
            "weld_residual": float(orbit.weld_residual)}


@pytest.fixture(scope="module")
def masked_net():
    """A net with labels and normals on a masked domain with negative m0 and n0."""
    rng = np.random.default_rng(41)
    dom = LatticeDomain((-2, 3), (-1, 2), frozenset({(-2, -1), (1, 0), (3, 2)}))
    net = Net3(dom, rng.normal(size=(len(dom.vertices), 3)) * [1.0, 1e-7, 3e5])
    labels = EdgeLabels(rng.uniform(0.5, 2, 5), -rng.uniform(0.5, 2, 3))
    normals = Net3(dom, rng.normal(size=(len(dom.vertices), 3)), check_edges=False)
    normals.points[0] = [-0.0, 0.0, 1.0]
    return net, labels, normals


@pytest.mark.parametrize("parts", [(), ("labels",), ("normals",), ("labels", "normals")])
def test_net_file_equals_recursive_writer(tmp_path, masked_net, parts):
    net, labels, normals = masked_net
    labels = labels if "labels" in parts else None
    normals = normals if "normals" in parts else None
    path = tmp_path / "net.dnet.json"
    write_net(path, net, labels, normals)
    assert path.read_text() == dump(net_doc(net, labels, normals)) + "\n"

    bundle = read_net(path)
    again = tmp_path / "again.dnet.json"
    write_net(again, bundle.net, bundle.labels, bundle.normals)
    assert again.read_bytes() == path.read_bytes()


def test_labels_equal_per_edge_lookup(masked_net):
    net, labels, _ = masked_net
    dom = net.domain
    assert labels.on_edges(dom).tolist() == [edge_label(labels, dom, a, b)
                                             for a, b in dom.edges()]
    assert labels.quad_ratios(dom).tolist() == [
        edge_label(labels, dom, (m, n), (m + 1, n)) / edge_label(labels, dom, (m, n), (m, n + 1))
        for m, n in dom.quads]


@pytest.mark.parametrize("row", ["n0", "n1", "m0", "m1"])
def test_mirrored_labels_repeat_beta_across_the_row(masked_net, row):
    """beta is mirrored across the row n0 or n1 and alpha kept; across the
    column m0 or m1 alpha is mirrored and beta kept."""
    net, labels, _ = masked_net
    dom = net.domain
    index, axis = getattr(dom, row), "row" if row[0] == "n" else "col"
    extended = _mirror_domain(dom, index, axis)[0]
    mirrored = _mirror_labels(labels, dom, index, axis)
    alpha = {m: edge_label(labels, dom, (m, 0), (m + 1, 0)) for m in range(dom.m0, dom.m1)}
    beta = {n: edge_label(labels, dom, (0, n), (0, n + 1)) for n in range(dom.n0, dom.n1)}

    def repeated(values: dict, low: int, high: int) -> list:
        return [values[i] if i in values else values[2 * index - 1 - i] for i in range(low, high)]

    if axis == "row":
        assert mirrored.alpha.tolist() == labels.alpha.tolist()
        assert mirrored.beta.tolist() == repeated(beta, extended.n0, extended.n1)
    else:
        assert mirrored.beta.tolist() == labels.beta.tolist()
        assert mirrored.alpha.tolist() == repeated(alpha, extended.m0, extended.m1)


def test_labels_of_another_domain_are_not_written(tmp_path, masked_net):
    net, labels, _ = masked_net
    with pytest.raises(ValueError, match="domain's ranges"):
        write_net(tmp_path / "net.dnet.json", net, EdgeLabels(labels.beta, labels.alpha))


def test_label_arrays_are_read_only(masked_net):
    _, labels, _ = masked_net
    for values in (labels.alpha, labels.beta, EdgeLabels(labels.beta, labels.alpha).alpha):
        with pytest.raises(ValueError):
            values[0] = 0.0


def test_extreme_floats_equal_recursive_writer(tmp_path, masked_net):
    net, labels, normals = masked_net
    points = normals.points.copy()
    points[:4] = [[-0.0, 5e-324, 1e300], [-1e300, -5e-324, 2.2250738585072014e-308],
                  [0.1, -0.0, 1.0], [1e-300, 123456789.123456789, -1e300]]
    extreme = Net3(net.domain, points, check_edges=False)
    path = tmp_path / "net.dnet.json"
    write_net(path, net, labels, extreme)
    assert path.read_text() == dump(net_doc(net, labels, extreme)) + "\n"
    assert json_rows(points[:4]) == [dump([float(c) for c in p]) for p in points[:4]]


def test_integer_rows_print_as_integers():
    """Mask, infinity and face rows go through the float format too."""
    assert json_rows([(-2, -1), (0, 2 ** 53)]) == ["[-2, -1]", "[0, 9007199254740992]"]
    assert json_rows([]) == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_float_is_not_written(value):
    with pytest.raises(ValueError, match="non-finite"):
        json_rows(np.array([[0.0, 1.0, 2.0], [3.0, value, 5.0]]))


def test_unwritable_documents_leave_no_file(tmp_path, masked_net):
    net, labels, _ = masked_net
    bad = EdgeLabels(np.where(np.arange(len(labels.alpha)) == 1, np.nan, labels.alpha),
                     labels.beta)
    with pytest.raises(ValueError, match="non-finite"):
        write_net(tmp_path / "net.dnet.json", net, bad)
    grid = power_function(1.5, 4, 4)
    grid = HoloGrid(grid.domain, grid.values, EdgeLabels(grid.labels.alpha,
                                                         grid.labels.beta * np.inf))
    with pytest.raises(ValueError, match="non-finite"):
        write_grid(tmp_path / "grid.dnet.json", grid)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("entry", [None, "x", float("nan"), float("inf")])
def test_non_numeric_label_is_parse_error(tmp_path, masked_net, entry):
    net, labels, _ = masked_net
    path = tmp_path / "net.dnet.json"
    write_net(path, net, labels)
    doc = json.loads(path.read_text())
    doc["alpha"][1] = entry
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        read_net(path)
    assert main(["verify", str(path)]) == 3


def test_reflect_of_a_non_finite_label_writes_nothing(tmp_path, enneper_pair):
    pair = enneper_pair
    path, out = tmp_path / "iso.dnet.json", tmp_path / "ext.dnet.json"
    write_net(path, pair.isothermic, pair.grid.labels, pair.gauss)
    doc = json.loads(path.read_text())
    doc["alpha"][0] = float("nan")
    path.write_text(json.dumps(doc))
    assert main(["reflect", str(path), "--row", "0", "--out", str(out)]) == 3
    assert not out.exists()


def test_grid_file_with_infinity_equals_recursive_writer(tmp_path):
    grid = power_function(1.5, 6, 6)
    grid = HoloGrid.from_dict(grid.domain, {v: INF if grid[v] == 0 else 1.0 / grid[v]
                                            for v in grid.domain.vertices}, grid.labels)
    assert grid.inf.any()
    path = tmp_path / "grid.dnet.json"
    write_grid(path, grid)
    carrier = Net3(grid.domain, np.stack([grid.values.real, grid.values.imag,
                                          np.zeros(len(grid.values))], axis=1),
                   check_edges=False)
    assert path.read_text() == dump(net_doc(carrier, grid.labels,
                                            infinity=grid.infinity_vertices())) + "\n"


def test_orbit_document_equals_recursive_writer():
    pair = MinimalPair.from_grid(power_function(1.5, 5, 5))
    mirrors = [analyze_boundary_isothermic(pair.isothermic, pair.gauss, 0, axis)
               for axis in ("row", "col")]
    orbit = build_orbit(pair.isothermic, mirrors)
    assert len(orbit.elements) > 1
    assert orbit_to_json(orbit, json_rows(orbit.vertices)) == dump(orbit_doc(orbit))


@pytest.mark.parametrize("text, value", [("-0", -0.0), ("[-0]", [-0.0]),
                                         ('{"m":-0, "p": [1e-05, -0.5, 0]}',
                                          {"m": -0.0, "p": [1e-05, -0.5, 0]})])
def test_negative_zero_reads_as_negative_zero(tmp_path, text, value):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert dump(load_json(path)) == dump(value)


def test_planar_enneper_files_round_trip(tmp_path, planar_enneper_pair):
    """The planar Enneper net has -0.0 coordinates, written as "-0"."""
    pair = planar_enneper_pair
    path, again = tmp_path / "iso.dnet.json", tmp_path / "again.dnet.json"
    write_net(path, pair.isothermic, pair.grid.labels, pair.gauss)
    assert '"normals": [[-0, ' in path.read_text()
    bundle = read_net(path)
    write_net(again, bundle.net, bundle.labels, bundle.normals)
    assert again.read_bytes() == path.read_bytes()
