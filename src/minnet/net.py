"""Predicates of nets and their `.dnet.json` files.

The predicates of one quad or one net (circularity, cross ratio, parallel
edges, planarity) measure with the battery's whole-array kernels.

`.dnet.json` files are written here and read by `dnet.read_doc`, which
parses and checks them as lists; `json_to_bundle` turns its result into
the arrays of `lattice`.  LatticeDomain and Net3 keep their own checks for
nets built in memory.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

from . import battery, dnet
from .errors import NotCircular
from .jsonio import MIN_EDGE, _fmt_float, json_list, load_json, write_text
from .lattice import EdgeLabels, LatticeDomain, Net3, Quad, Vertex


def is_circular(net: Net3, quad: Quad, tol: float = 1e-9) -> tuple[bool, float]:
    """Concircularity of one elementary quad.

    Returns (ok, raw residual); ok compares the residual against
    tol times the quad diameter.
    """
    pts = net.quad_points(quad)
    res = battery.circularity_residual(pts)
    return res <= tol * max(battery._quad_scale(pts), MIN_EDGE), res


def is_isothermic(net: Net3, labels: EdgeLabels, tol: float = 1e-9) -> battery.CheckReport:
    """Check cr(F_i,F_j,F_k,F_l) = alpha(m)/beta(n) on every quad.

    Raises NotCircular if some quad fails concircularity at tol first.
    """
    pts = net.quad_array()
    res = battery.circularity_residuals(pts)
    diameter = np.maximum(battery.point_scales(pts), MIN_EDGE)
    rel = np.where(res > tol * diameter, res / diameter, 0.0)  # is_circular's test
    if rel.any():
        raise NotCircular(f"quad {net.domain.quads[int(np.argmax(rel))]} non-circular "
                          f"(relative residual {rel.max():.3e})")
    return battery.worst_report(battery.cross_ratio_residuals(net, labels), net.domain.quads,
                                tol)


def are_parallel_meshes(f: Net3, g: Net3, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether corresponding edges of f and g are parallel (sign-free).

    Zero edges of either net are skipped.  Returns (ok, worst angle in
    radians measured as asin of the normalized cross product).
    """
    worst = float(np.max(battery.edge_angles(f, g), initial=0.0))
    return worst <= tol, worst


def planarity_residual(pts) -> float:
    """Max distance to the best plane; 0 if points span less than a plane."""
    pts = np.asarray(pts, dtype=float)
    return float(battery.planarity_residuals(pts[None])[0]) if len(pts) >= 3 else 0.0


# ---------------------------------------------------------------------------
# Serialization (.dnet.json)
# ---------------------------------------------------------------------------

class NetBundle(NamedTuple):
    """Contents of a net file: the net plus optional labels and normal field."""

    net: Net3
    labels: EdgeLabels | None = None
    normals: Net3 | None = None


def json_rows(values) -> list[str]:
    """Each row of a 2-d array as a JSON list: one finiteness check for the
    array, then one %.17g format per row, the text of _fmt_float per number
    (integers below 2**53 print as themselves)."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("non-finite float in output")
    row = "[" + ", ".join(["%.17g"] * values.shape[-1]) + "]"
    return [row % r for r in map(tuple, values.tolist())]


def net_to_json(net: Net3, labels: EdgeLabels | None = None, normals: Net3 | None = None,
                infinity: list[Vertex] | None = None, rows=json_rows) -> str:
    """The .dnet.json document of a net, with 17-significant-digit floats;
    rows formats the points of the net and of its normals (json_rows, or
    rows the caller has formatted before)."""
    dom = net.domain
    records = [f'{{"m": {m}, "n": {n}, "p": {p}}}'
               for (m, n), p in zip(dom.vertices, rows(net.points))]
    doc = (f'{{"domain": {{"m0": {dom.m0}, "m1": {dom.m1}, "n0": {dom.n0}, "n1": {dom.n1}, '
           f'"mask": {json_list(json_rows(sorted(dom.mask)))}}}, '
           f'"vertices": {json_list(records)}')
    if labels is not None:
        if (len(labels.alpha), len(labels.beta)) != (dom.m1 - dom.m0, dom.n1 - dom.n0):
            raise ValueError("labels do not match the domain's ranges")
        doc += "".join(f', "{name}": {json_list(map(_fmt_float, values.tolist()))}'
                       for name, values in (("alpha", labels.alpha), ("beta", labels.beta)))
    if normals is not None:
        doc += f', "normals": {json_list(rows(normals.points))}'
    if infinity is not None:
        doc += f', "infinity": {json_list(json_rows(sorted(infinity)))}'
    return doc + "}"


def write_net(path, net: Net3, labels: EdgeLabels | None = None,
              normals: Net3 | None = None, rows=json_rows) -> None:
    """Write a net (with optional labels and Gauss map) as .dnet.json;
    rows as for net_to_json.

    The document is formatted before the file is opened, so a net that
    cannot be written leaves no file behind.
    """
    write_text(path, net_to_json(net, labels, normals, rows=rows) + "\n")


def json_to_bundle(doc, check_edges: bool = True) -> NetBundle:
    """The net, labels and normals of a parsed .dnet.json document, as
    `dnet.read_doc` reads and checks them (check_edges: the net's edges,
    for surface nets).  Net3 does not test the edges again: it rounds the
    lengths differently, and could disagree with the reader at MIN_EDGE."""
    nd = dnet.read_doc(doc, check_edges)
    dom = LatticeDomain(nd.m_range, nd.n_range, nd.mask)
    labels = None if nd.alpha is None else EdgeLabels(nd.alpha, nd.beta)
    normals = None if nd.normals is None else Net3(dom, _array(nd.normals), check_edges=False)
    return NetBundle(Net3(dom, _array(nd.points), check_edges=False), labels, normals)


def _array(rows: list[list[float]]) -> np.ndarray:
    """(rows, 3) array of [x, y, z] lists; np.fromiter takes half the time
    of np.asarray, which must find the nesting first."""
    return np.fromiter(chain.from_iterable(rows), float, 3 * len(rows)).reshape(-1, 3)


def read_net(path) -> NetBundle:
    """Read a .dnet.json file; raises ParseError with context on failure."""
    return json_to_bundle(load_json(path))
