"""The .dnet.json reader: a net, grid or normal-field document, parsed and
checked once, as plain lists.

numpy-free, so that `export` of a net file never imports numpy.  It is
the one parser of the domain, vertex, label and normal fields:
`net.json_to_bundle` (and through it `net.read_net` and
`holomorphic.read_grid`) turns what `read_doc` returns into arrays, and
`export` writes it as OBJ.  So every command that reads a net file rejects
the same files, with the same ParseError messages; read as a grid, a file
skips only the edge test.

Every position, normal and label must be finite and at most MAX_MAGNITUDE
= B in absolute value, so that no product or sum formed from them can
overflow.  The highest-degree products are of fifth degree: the
circumcentre numerators of `net.circularity_residuals`, below 1e6 B^5.
Cross ratios are below 12 B^2 / GAP_EPS^2, since no side is shorter than
GAP_EPS; plane-fit scatter entries are below 4 B^2 per point; and the
Weierstrass increments of a grid (`conjugate`) are below 3e14 B^2
(neighbouring grid values are more than 1e-14 of the grid's size apart),
summed along at most one path per vertex.  With B = 1e50 every one of these
stays below 1e260, against the float64 maximum of 1.8e308.
"""

from __future__ import annotations

import math
from itertools import chain

from .errors import ParseError
from .jsonio import MAX_MAGNITUDE, MIN_EDGE, json_float, json_int

# Lattice indices, of the domain and of every vertex record, stay in the range
# of numpy's 64-bit index integers.
MAX_INDEX = 2 ** 63
_INDEX_RANGE = "lattice indices must be below 2**63 in magnitude"
_NAN3 = [math.nan] * 3


class NetDoc:
    """A checked .dnet.json document, as lists.

    m_range, n_range and mask are the domain's.  box holds the vertex
    number of every point of the box, m-major, and -1 where it is masked;
    vertices are numbered in m-major order.  points and normals hold one
    [x, y, z] list per vertex, in vertex order; normals, alpha and beta are
    None when the document has none.
    """

    __slots__ = ("m_range", "n_range", "mask", "box", "points", "alpha", "beta", "normals")

    @property
    def cols(self) -> int:
        return self.n_range[1] - self.n_range[0] + 1

    def point(self, k: int) -> tuple[int, int]:
        """The lattice point (m, n) of box index k."""
        return self.m_range[0] + k // self.cols, self.n_range[0] + k % self.cols

    def vertex(self, i: int) -> tuple[int, int]:
        """The lattice point (m, n) of vertex number i."""
        return self.point(self.box.index(i))

    def quads(self) -> list[list[int]]:
        """Vertex numbers of the cycle (m,n), (m+1,n), (m+1,n+1), (m,n+1) of
        every quad whose four vertices are present, m-major:
        `LatticeDomain.quad_index`."""
        box, cols = self.box, self.cols
        rows = [box[k:k + cols] for k in range(0, len(box), cols)]
        return [[i, j, k, l] for lo, hi in zip(rows, rows[1:])
                for i, j, k, l in zip(lo, hi, hi[1:], lo[1:])
                if i >= 0 and j >= 0 and k >= 0 and l >= 0]


def _connected(box: list[int], cols: int, count: int) -> bool:
    """Whether the lattice edges between present box points reach all count of them."""
    start = next(k for k, i in enumerate(box) if i >= 0)
    seen, stack = {start}, [start]
    while stack:
        k = stack.pop()
        for j, inside in ((k + cols, True), (k - cols, True), (k + 1, (k + 1) % cols),
                          (k - 1, k % cols)):
            if inside and 0 <= j < len(box) and box[j] >= 0 and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == count


def _read_domain(doc: dict, nd: NetDoc) -> None:
    """Ranges, mask and box.  A domain with more points than the document
    has vertex records cannot be complete; its box is left None, so that
    _read_points names its first missing vertex without building it."""
    try:
        d = doc["domain"]
        if not isinstance(d, dict):
            raise TypeError(f"domain must be an object, got {type(d).__name__}")
        mask = frozenset((json_int(m), json_int(n)) for m, n in d.get("mask", []))
        m0, m1, n0, n1 = (json_int(d[key]) for key in ("m0", "m1", "n0", "n1"))
        if m0 > m1 or n0 > n1:
            raise ValueError("empty lattice range")
        for v in mask:
            if not (m0 <= v[0] <= m1 and n0 <= v[1] <= n1):
                raise ValueError(f"mask entry {v} outside range")
        if max(map(abs, (m0, m1, n0, n1))) >= MAX_INDEX:
            raise ValueError(_INDEX_RANGE)
        nd.m_range, nd.n_range, nd.mask, nd.box = (m0, m1), (n0, n1), mask, None
        cols, count = n1 - n0 + 1, (m1 - m0 + 1) * (n1 - n0 + 1) - len(mask)
        if not count:
            raise ValueError("domain is not edge-connected")
        records = doc.get("vertices")
        if not isinstance(records, list) or count > len(records):
            return
        numbers = iter(range(count))
        nd.box = [-1 if (m0 + k // cols, n0 + k % cols) in mask else next(numbers)
                  for k in range(count + len(mask))] if mask else list(range(count))
        if mask and not _connected(nd.box, cols, count):
            raise ValueError("domain is not edge-connected")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad domain record: {exc}") from exc


def _first_missing(nd: NetDoc, keys: list[tuple[int, int]]) -> tuple[int, int]:
    """The first domain point, m-major, that no key names; the domain has
    more points than there are keys, so it is among the first len(keys) +
    len(mask) + 1 points of the box."""
    (m0, _), (n0, _), cols, keys = nd.m_range, nd.n_range, nd.cols, set(keys)
    for k in range(len(keys) + len(nd.mask) + 1):
        v = (m0 + k // cols, n0 + k % cols)
        if v not in nd.mask and v not in keys:
            return v


def _ints(records) -> list[tuple[int, int]]:
    """The (m, n) of every vertex record, each read by json_int.  Records
    of plain integers, the usual case, are checked at C speed; any other
    goes through json_int, which raises at the first fault."""
    try:
        keys = [(r["m"], r["n"]) for r in records]
        if {int}.issuperset(map(type, chain.from_iterable(keys))):
            return keys
    except (KeyError, TypeError):
        pass
    return [(json_int(r["m"]), json_int(r["n"])) for r in records]


def _floats(rows) -> list[list[float]]:
    """json_float of every entry of every row.  Rows of three plain numbers,
    the usual case, are converted at C speed; any other goes through
    json_float, which raises at the first fault."""
    try:
        if {float, int}.issuperset(map(type, chain.from_iterable(rows))):
            return [[float(x), float(y), float(z)] for x, y, z in rows]
    except (TypeError, ValueError):
        pass
    return [[json_float(x) for x in row] for row in rows]


def _check_values(rows: list[list[float]], nd: NetDoc, what: str) -> None:
    """ParseError at the first vertex with a non-finite entry, else at the
    first one with an entry past MAX_MAGNITUDE.  When the magnitudes sum
    to at most MAX_MAGNITUDE, which a NaN fails, every entry passes."""
    if sum(map(abs, chain.from_iterable(rows))) <= MAX_MAGNITUDE:
        return
    for i, row in enumerate(rows):
        if not all(map(math.isfinite, row)):      # "position" for normals too
            raise ParseError(f"non-finite position at vertex {nd.vertex(i)}")
    for i, row in enumerate(rows):
        if max(map(abs, row)) > MAX_MAGNITUDE:
            raise ParseError(f"{what} {row} at vertex {nd.vertex(i)} exceeds the magnitude "
                             f"bound {MAX_MAGNITUDE:g}")


def _read_points(doc: dict, nd: NetDoc) -> None:
    """Positions by vertex number: records outside the domain are ignored,
    and of several records of one vertex the last wins."""
    try:
        records = doc["vertices"]
        keys = _ints(records)
        positions = _floats([r["p"] for r in records])
        if not {3}.issuperset(map(len, positions)):
            raise ValueError("a position must have 3 coordinates")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad vertex record: {exc}") from exc
    missing = "vertex {} required by domain but missing from file"
    if nd.box is None:
        raise ParseError(missing.format(_first_missing(nd, keys)))
    (m0, m1), (n0, n1), box, cols = nd.m_range, nd.n_range, nd.box, nd.cols
    points = [None] * (len(box) - len(nd.mask))
    for (m, n), p in zip(keys, positions):
        if m0 <= m <= m1 and n0 <= n <= n1:
            i = box[(m - m0) * cols + n - n0]
            if i >= 0:
                points[i] = p
        elif max(abs(m), abs(n)) >= MAX_INDEX:
            raise ParseError(f"bad vertex record: {_INDEX_RANGE}")
    if None in points:
        raise ParseError(missing.format(nd.vertex(points.index(None))))
    _check_values(points, nd, "position")
    nd.points = points


def _check_edges(nd: NetDoc) -> None:
    """ParseError at the first edge no longer than MIN_EDGE, in the order of
    `LatticeDomain.edge_index`: the edges to (m+1, n), then those to
    (m, n+1).  The test is Net3's, |p_a - p_b| <= MIN_EDGE; math.dist rounds
    the length correctly, where `lattice._norm` may differ in the last bit."""
    cols, pts = nd.cols, nd.points
    # the points in box order; a masked one is NaN, whose distances fail the test
    box = [pts[i] if i >= 0 else _NAN3 for i in nd.box] if nd.mask else pts
    pairs = [(0, cols, box, box[cols:])]
    pairs += [(k, 1, box[k:k + cols], box[k + 1:k + cols]) for k in range(0, len(box), cols)]
    for start, step, a, b in pairs:
        for k, length in enumerate(map(math.dist, a, b), start):
            if length <= MIN_EDGE:
                raise ParseError(f"degenerate edge {nd.point(k)}-{nd.point(k + step)}")


def _read_labels(doc: dict, nd: NetDoc) -> None:
    nd.alpha = nd.beta = None
    if "alpha" not in doc and "beta" not in doc:
        return
    alpha, beta = doc.get("alpha", []), doc.get("beta", [])
    try:
        if len(alpha) != nd.m_range[1] - nd.m_range[0] or len(beta) != nd.cols - 1:
            raise ParseError("alpha/beta length does not match domain ranges")
        labels = {"alpha": [json_float(a) for a in alpha], "beta": [json_float(b) for b in beta]}
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(str(exc)) from exc
    for name, values in labels.items():
        for i, value in enumerate(values):
            if not math.isfinite(value):
                raise ParseError(f"non-finite label {name}[{i}] = {value}")
    for name, values in labels.items():
        for i, value in enumerate(values):
            if abs(value) > MAX_MAGNITUDE:
                raise ParseError(f"label {name}[{i}] = {value} exceeds the magnitude bound "
                                 f"{MAX_MAGNITUDE:g}")
    nd.alpha, nd.beta = labels["alpha"], labels["beta"]


def _read_normals(doc: dict, nd: NetDoc) -> None:
    nd.normals = None
    if "normals" not in doc:
        return
    try:
        normals = _floats(doc["normals"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(str(exc)) from exc
    lengths = set(map(len, normals))
    if len(normals) != len(nd.points) or lengths != {3}:
        got = (f"rows of {sorted(lengths)} entries" if len(lengths) > 1
               else f"shape {(len(normals), *lengths)}")
        raise ParseError(f"expected {len(nd.points)} points in R^3, got {got}")
    _check_values(normals, nd, "normal")
    nd.normals = normals


def read_doc(doc, check_edges: bool = True) -> NetDoc:
    """The checked contents of a parsed .dnet.json document; ParseError at
    the first fault, in the order domain, vertex records, missing vertices,
    positions, edges (check_edges: surface nets, not grids), labels, normals."""
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value must be an object")
    nd = NetDoc()
    _read_domain(doc, nd)
    _read_points(doc, nd)
    if check_edges:
        _check_edges(nd)
    _read_labels(doc, nd)
    _read_normals(doc, nd)
    return nd
