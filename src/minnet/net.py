"""Residuals of nets and their `.dnet.json` files.

The per-quad predicates (circularity, cross ratio, parallel edges,
planarity) are measured on whole arrays of quads, and each check reports
its worst residual as a CheckReport.

`.dnet.json` files are written here and read by `dnet.read_doc`, which
parses and checks them as lists; `json_to_bundle` turns its result into
the arrays of `lattice`.  LatticeDomain and Net3 keep their own checks for
nets built in memory.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

from . import dnet, mobius
from .errors import DegenerateQuad, DomainMismatch, NotCircular
from .jsonio import MIN_EDGE, _fmt_float, json_list, load_json, write_text
from .lattice import GAP_EPS, EdgeLabels, LatticeDomain, Net3, Quad, Vertex, _norm


class CheckReport(NamedTuple):
    """Outcome of a per-quad or per-vertex verification pass.

    scale is what the residual at worst was divided by (1.0 for absolute
    residuals).
    """

    ok: bool
    max_residual: float
    worst: object = None
    scale: float = 1.0
    extra: dict = {}          # shared default: never mutated in place


def worst_report(residuals, locations, tol: float, scales=None) -> CheckReport:
    """Report on the largest residual (the first one on ties).

    locations and scales are indexed like residuals; worst is None when
    every residual is 0.
    """
    worst = float(np.max(residuals, initial=0.0))
    if not worst > 0.0:
        return CheckReport(worst <= tol, worst)
    i = int(np.argmax(residuals))
    return CheckReport(worst <= tol, worst, locations[i],
                       1.0 if scales is None else float(scales[i]))


# Whole-array versions of the per-quad predicates below.  They repeat the
# scalar arithmetic operation for operation (np.dot and np.linalg.norm of
# one vector agree bit for bit with _dot and _norm), so that residuals and
# worst locations equal those of the scalar references exactly.

def point_scales(pts: np.ndarray) -> np.ndarray:
    """Largest pairwise distance in every point set of a (sets, k, 3) stack."""
    k = pts.shape[1]
    return np.max([_norm(pts[:, i] - pts[:, j]) for i in range(k) for j in range(i + 1, k)],
                  axis=0, initial=0.0)


def _quad_scale(pts) -> float:
    return float(point_scales(np.asarray(pts, dtype=float)[None])[0])


class PlaneFit(NamedTuple):
    """Least-squares planes of a (sets, k, 3) stack of point sets.

    s holds the (sets, 3) singular values of the centred sets in descending
    order, and vt the (sets, 3, 3) frames whose rows are the principal
    directions, the plane normal last: for k >= 3 what the thin SVD of the
    centred sets gives, up to the signs of the rows.
    """

    s: np.ndarray
    vt: np.ndarray


def plane_fits(pts: np.ndarray) -> PlaneFit:
    """The planes of every set in a (sets, k, 3) stack, from one batched
    eigh of the 3x3 scatter matrices.

    Forming the scatter matrix squares the conditioning, so a planarity or
    circularity residual differs from the SVD's by up to
    48 eps s0^2 / (s1^2 - s2^2) max|c_i| (see README, "Plane fits").
    """
    centered = pts - pts.mean(axis=1, keepdims=True)
    w, v = np.linalg.eigh(centered.transpose(0, 2, 1) @ centered)
    return PlaneFit(np.sqrt(np.maximum(w[:, ::-1], 0.0)), v[..., ::-1].transpose(0, 2, 1))


def _frame_coordinates(pts: np.ndarray, fit: PlaneFit) -> np.ndarray:
    """(sets, k, 3) coordinates of the centred points along each frame's rows."""
    return (pts - pts.mean(axis=1, keepdims=True)) @ fit.vt.transpose(0, 2, 1)


def _collinear(coords: np.ndarray, fit: PlaneFit) -> np.ndarray:
    """Sets whose points lie within 1e-12 s0 of their principal line.

    The distances are measured directly, not read off s1: through the
    scatter matrix, float64 resolves s1 only down to about 1e-8 s0.
    """
    return np.hypot(coords[..., 1], coords[..., 2]).max(axis=1) <= 1e-12 * fit.s[:, 0]


def circularity_residual(pts) -> float:
    """Raw residual: max(coplanarity distance, circumradius spread)."""
    pts = np.asarray(pts, dtype=float)
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    coplanar = float(np.abs(centered @ vt[2]).max()) if s[0] > 0 else 0.0
    # circumcenter in the fitted plane: least squares for
    # 2(p_i - p_0)·c = |p_i|^2 - |p_0|^2, by the 2x2 normal equations
    uv = centered @ vt[:2].T
    a = 2.0 * (uv[1:] - uv[0])
    b = (uv[1:] ** 2).sum(axis=1) - (uv[0] ** 2).sum()
    g00, g01, g11 = ((a[:, i] * a[:, j]).sum() for i, j in ((0, 0), (0, 1), (1, 1)))
    r0, r1 = ((a[:, i] * b).sum() for i in (0, 1))
    det = g00 * g11 - g01 * g01
    if det == 0.0:
        return float("inf")
    center = np.array([(g11 * r0 - g01 * r1) / det, (g00 * r1 - g01 * r0) / det])
    radii = np.linalg.norm(uv - center, axis=1)
    spread = float(radii.max() - radii.min())
    return max(coplanar, spread)


def circularity_residuals(pts: np.ndarray, fit: PlaneFit | None = None) -> np.ndarray:
    """circularity_residual of every quad in a (quads, 4, 3) stack; inf where
    a quad's points lie on a line.  fit: plane_fits(pts), when the caller has it."""
    fit = plane_fits(pts) if fit is None else fit
    coords = _frame_coordinates(pts, fit)
    coplanar = np.abs(coords[..., 2]).max(axis=1)
    uv = coords[..., :2]
    a = 2.0 * (uv[:, 1:] - uv[:, :1])
    b = (uv[:, 1:] ** 2).sum(axis=2) - (uv[:, 0] ** 2).sum(axis=1)[:, None]
    g00, g01, g11 = ((a[..., i] * a[..., j]).sum(axis=1) for i, j in ((0, 0), (0, 1), (1, 1)))
    r0, r1 = ((a[..., i] * b).sum(axis=1) for i in (0, 1))
    det = g00 * g11 - g01 * g01
    with np.errstate(divide="ignore", invalid="ignore"):
        center = np.stack([(g11 * r0 - g01 * r1) / det, (g00 * r1 - g01 * r0) / det], axis=1)
        radii = np.linalg.norm(uv - center[:, None], axis=2)
    spread = radii.max(axis=1) - radii.min(axis=1)
    return np.where(_collinear(coords, fit) | (det == 0.0), np.inf,
                    np.maximum(coplanar, spread))


def is_circular(net: Net3, quad: Quad, tol: float = 1e-9) -> tuple[bool, float]:
    """Concircularity of one elementary quad.

    Returns (ok, raw residual); ok compares the residual against
    tol times the quad diameter.
    """
    pts = net.quad_points(quad)
    res = circularity_residual(pts)
    return res <= tol * max(_quad_scale(pts), MIN_EDGE), res


def cross_ratio_residuals(net: Net3, labels: EdgeLabels) -> np.ndarray:
    """|Re cr(F_i,F_j,F_k,F_l) - alpha(m)/beta(n)| of every quad.

    The cross ratio is cross_ratio_quat's product, evaluated on arrays.
    """
    dom = net.domain
    pts = net.quad_array()
    sides = _norm(pts - np.roll(pts, -1, axis=1))
    if (sides <= GAP_EPS).any():
        q = dom.quads[int(np.argmax((sides <= GAP_EPS).any(axis=1)))]
        raise DegenerateQuad(f"quad {q} has coincident consecutive points")
    zero = np.zeros(len(pts))
    x = [mobius.Quaternion(zero, *pts[:, i].T) for i in range(4)]
    cr = (x[0] - x[1]) * (x[1] - x[2]).inverse() * (x[2] - x[3]) * (x[3] - x[0]).inverse()
    return np.abs(cr.w - labels.quad_ratios(dom))


def is_isothermic(net: Net3, labels: EdgeLabels, tol: float = 1e-9) -> CheckReport:
    """Check cr(F_i,F_j,F_k,F_l) = alpha(m)/beta(n) on every quad.

    Raises NotCircular if some quad fails concircularity at tol first.
    """
    pts = net.quad_array()
    res, diameter = circularity_residuals(pts), np.maximum(point_scales(pts), MIN_EDGE)
    rel = np.where(res > tol * diameter, res / diameter, 0.0)  # is_circular's test
    if rel.any():
        raise NotCircular(f"quad {net.domain.quads[int(np.argmax(rel))]} non-circular "
                          f"(relative residual {rel.max():.3e})")
    return worst_report(cross_ratio_residuals(net, labels), net.domain.quads, tol)


def edge_angles(f: Net3, g: Net3) -> np.ndarray:
    """Angle between corresponding edges of f and g, in `domain.edges()` order.

    Measured sign-free as asin of the normalized cross product; 0 on edges
    that vanish in either net.
    """
    if f.domain != g.domain:
        raise DomainMismatch("nets live on different domains")
    a, b = f.domain.edge_index.T
    fp, gp = f.points, g.points
    u, v = fp[b] - fp[a], gp[b] - gp[a]
    nu, nv = _norm(u), _norm(v)
    s = np.divide(_norm(np.cross(u, v)), nu * nv, out=np.zeros(len(u)),
                  where=(nu > MIN_EDGE) & (nv > MIN_EDGE))
    return np.arcsin(np.minimum(1.0, s))


def are_parallel_meshes(f: Net3, g: Net3, tol: float = 1e-9) -> tuple[bool, float]:
    """Whether corresponding edges of f and g are parallel (sign-free).

    Zero edges of either net are skipped.  Returns (ok, worst angle in
    radians measured as asin of the normalized cross product).
    """
    worst = float(np.max(edge_angles(f, g), initial=0.0))
    return worst <= tol, worst


def planarity_residual(pts) -> float:
    """Max distance to the best plane; 0 if points span less than a plane."""
    pts = np.asarray(pts, dtype=float)
    return float(planarity_residuals(pts[None])[0]) if len(pts) >= 3 else 0.0


def planarity_residuals(pts: np.ndarray, fit: PlaneFit | None = None) -> np.ndarray:
    """planarity_residual of every point set in a (sets, k, 3) stack, k >= 3.
    fit: plane_fits(pts), when the caller has it."""
    fit = plane_fits(pts) if fit is None else fit
    coords = _frame_coordinates(pts, fit)
    res = np.abs(coords[..., 2]).max(axis=1)
    return np.where((fit.s[:, 0] < 1e-14) | _collinear(coords, fit), 0.0, res)


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
