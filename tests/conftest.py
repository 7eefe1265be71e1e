import argparse
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import minnet
from minnet.bvp import BoundarySpec, solve_knoid
from minnet.errors import DegenerateQuad, NotIsothermic
from minnet.holomorphic import power_function
from minnet.minimal import MinimalPair
from minnet.mobius import INF
from minnet.lattice import Net3, _dot, integrate_edges
from minnet.net import PlaneFit, is_isothermic

# The constant of the written bound on plane fits through the scatter matrix
# (README, "Plane fits"): residuals measured with net.plane_fits lie within
# FIT_BOUND eps s0^2 / (s1^2 - s2^2) max|c_i| of those measured with the SVD.
FIT_BOUND = 48.0


@pytest.fixture(scope="session")
def enneper_pair():
    """k=3 higher-order Enneper pair (gamma = 3/2) on an 8x8 grid."""
    return MinimalPair.from_grid(power_function(1.5, 8, 8))


@pytest.fixture(scope="session")
def enneper_pairs():
    """Higher-order Enneper pairs for k = 2, 3, 4."""
    return {k: MinimalPair.from_grid(power_function(2 * k / (k + 1), 6, 6))
            for k in (2, 3, 4)}


@pytest.fixture(scope="session")
def planar_enneper_pair():
    """gamma = 3 planar Enneper pair, origin masked."""
    return MinimalPair.from_grid(power_function(3.0, 8, 8))


@pytest.fixture(scope="session")
def trinoid_result():
    return solve_knoid(BoundarySpec(3, 3, 10))


@pytest.fixture(scope="session")
def trinoid_pair(trinoid_result):
    return MinimalPair.from_grid(trinoid_result.grid)


# four points whose centroid overflows: LAPACK's SVD of the non-finite
# centred set did not return
OVERFLOWING = [(0, 0, 0), (1.5e308, 1.5e308, 0), (0, 0, 1), (1.5e308, 1.5e308, 1)]


def run_bounded(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this minnet; raises
    subprocess.TimeoutExpired, and kills it, after 30 s."""
    path = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(minnet.__file__)),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=30)


def orbit_files(orbit) -> tuple[str, str]:
    """The .orbit.json and .orbit.obj texts of an orbit, formatted one row and
    one number at a time: 17 significant digits per float, faces 1-based in
    the OBJ."""
    def row(values) -> str:
        return "[" + ", ".join(format(float(x), ".17g") for x in values) + "]"

    elements = ", ".join('{"matrix": [%s], "translation": %s}'
                         % (", ".join(map(row, e.matrix)), row(e.translation))
                         for e in orbit.elements)
    doc = ('{"kind": "orbit", "vertices": [%s], "faces": [%s], "elements": [%s], '
           '"weld_residual": %s}\n' % (", ".join(map(row, orbit.vertices)),
                                       ", ".join(map(row, orbit.faces)), elements,
                                       format(orbit.weld_residual, ".17g")))
    obj = "".join("v " + " ".join(format(float(x), ".17g") for x in v) + "\n"
                  for v in orbit.vertices)
    obj += "".join("f " + " ".join(str(i + 1) for i in f) + "\n" for f in orbit.faces)
    return doc, obj


def svd_plane_fits(pts: np.ndarray) -> PlaneFit:
    """net.plane_fits by the thin SVD of the centred sets: the oracle, k >= 3."""
    centered = pts - pts.mean(axis=1, keepdims=True)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    return PlaneFit(s, vt)


def fit_error_bound(pts: np.ndarray) -> np.ndarray:
    """The written bound on |residual by plane_fits - residual by the SVD| of
    every set in a (sets, k, 3) stack; inf where s1 = s2."""
    s0, s1, s2 = svd_plane_fits(pts).s.T
    reach = np.linalg.norm(pts - pts.mean(axis=1, keepdims=True), axis=2).max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s1 > s2, FIT_BOUND * np.finfo(float).eps * s0 * s0 / (s1 * s1 - s2 * s2)
                        * reach, np.inf)


def edge_label(labels, domain, a, b) -> float:
    """Label of the lattice edge a-b of domain: alpha for horizontal edges, beta
    for vertical ones.  A Python float, so that scalar references divide by it
    with Python's complex arithmetic."""
    if a[1] == b[1]:
        return float(labels.alpha[min(a[0], b[0]) - domain.m0])
    return float(labels.beta[min(a[1], b[1]) - domain.n0])


def neighbors(domain, v):
    """The present vertices among (m+1,n), (m-1,n), (m,n+1), (m,n-1), in that order."""
    m, n = v
    return [w for w in ((m + 1, n), (m - 1, n), (m, n + 1), (m, n - 1)) if w in domain]


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis through the origin."""
    a = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    c, s = math.cos(angle), math.sin(angle)
    cross = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return c * np.eye(3) + s * cross + (1 - c) * np.outer(a, a)


def sphere_inversion(p, center, radius: float) -> np.ndarray:
    """Inversion in the sphere of given center and radius."""
    d = np.asarray(p, dtype=float) - np.asarray(center, dtype=float)
    n2 = float(np.dot(d, d))
    if n2 < 1e-28:
        raise DegenerateQuad("inversion center hit")
    return np.asarray(center, dtype=float) + (radius * radius / n2) * d


def best_similarity(source: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Least-squares dilation s and translation t with s*source + t ≈ target.

    Returns (s, t, max residual).  The sign of s is free.
    """
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    sc = src - src.mean(axis=0)
    tc = tgt - tgt.mean(axis=0)
    denom = float((sc * sc).sum())
    s = float((sc * tc).sum()) / denom if denom > 0 else 0.0
    t = tgt.mean(axis=0) - s * src.mean(axis=0)
    res = float(np.linalg.norm(s * src + t - tgt, axis=1).max())
    return s, t, res


def christoffel(net, labels, tol: float = 1e-9):
    """Christoffel transform: integrate d(F*) = a * dF / |dF|^2.

    Requires the input to be isothermic to tol with the given labels; loops
    that do not close abort with integrate_edges' ClosureFailure.
    """
    report = is_isothermic(net, labels, tol)
    if not report.ok:
        raise NotIsothermic(
            f"worst quad {report.worst} residual {report.max_residual:.3e}")
    a, b = net.domain.edge_index.T
    d = net.points[b] - net.points[a]
    increments = labels.on_edges(net.domain)[:, None] * d / _dot(d, d)[:, None]
    return Net3(net.domain, integrate_edges(net.domain, increments, "christoffel"))


def stereographic_project(v):
    """Inverse of mobius.stereographic_lift; the north pole maps to INF."""
    v = np.asarray(v, dtype=float)
    d = 1.0 - v[2]
    if abs(d) < 1e-15:
        return INF
    return complex(v[0] / d, v[1] / d)


def random_similarity(rng):
    """Random rotation + translation + positive scale as (fn, scale)."""
    axis = rng.normal(size=3)
    angle = rng.uniform(0, 2 * math.pi)
    rot = rotation_matrix(axis, angle)
    shift = rng.normal(size=3) * 5.0
    scale = rng.uniform(0.2, 5.0)

    def apply(p):
        return scale * (rot @ np.asarray(p, dtype=float)) + shift

    return apply, scale


def random_circle_points(rng, count=4):
    """Points on a random circle in R^3, in increasing angular order."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    u = np.cross(axis, [1.0, 0.3, -0.2])
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    center = rng.normal(size=3) * 3.0
    radius = rng.uniform(0.5, 4.0)
    angles = np.sort(rng.uniform(0, 2 * math.pi, size=count))
    while np.min(np.diff(angles)) < 1e-2:
        angles = np.sort(rng.uniform(0, 2 * math.pi, size=count))
    pts = [center + radius * (math.cos(a) * u + math.sin(a) * v) for a in angles]
    basis = (center, u, v)
    return pts, angles, basis


class VertexGrid:
    """Uniform hash grid for near-duplicate vertex lookup, one point at a time."""

    def __init__(self, points, cell: float):
        self.cell = max(cell, 1e-300)
        self.table = {}
        self.points = []
        for p in points:
            self.add(np.asarray(p, dtype=float))

    def _key(self, p):
        return tuple(int(math.floor(c / self.cell)) for c in p)

    def add(self, p) -> int:
        idx = len(self.points)
        self.points.append(p)
        self.table.setdefault(self._key(p), []).append(idx)
        return idx

    def nearest(self, p, within=None):
        """The last-scanned point at the smallest distance <= within, in the 27 cells around p."""
        within = self.cell if within is None else within
        kx, ky, kz = self._key(p)
        best, best_d = None, within
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    for idx in self.table.get((kx + dx, ky + dy, kz + dz), ()):
                        d = float(np.linalg.norm(self.points[idx] - p))
                        if d <= best_d:
                            best, best_d = idx, d
        return best


def scalar_close_group(generators, max_word=16, dedup_tol=1e-9):
    """Breadth-first group closure, one candidate and one known element at a
    time: a candidate is new when it lies more than dedup_tol from every known
    element."""
    from minnet.errors import OrbitExplosion
    from minnet.mobius import Isometry
    elements = [Isometry.identity()]
    frontier = [Isometry.identity()]
    for _ in range(max_word):
        new_frontier = []
        for e in frontier:
            for gen in generators:
                cand = gen.compose(e)
                if all(cand.distance(known) > dedup_tol for known in elements):
                    elements.append(cand)
                    new_frontier.append(cand)
        if not new_frontier:
            return elements
        frontier = new_frontier
    raise OrbitExplosion(f"group did not close within word length {max_word}")


def scalar_build_orbit(piece, generators, max_word=16, dedup_tol=1e-9, weld_tol=1e-9):
    """(elements, vertices, faces, weld_residual) of the orbit, welded one
    vertex at a time: each point joins its nearest earlier representative
    within weld_tol times the piece's size, or becomes one."""
    elements = scalar_close_group(generators, max_word, dedup_tol)
    scale = max(piece.scale(), 1e-300)
    grid = VertexGrid([], weld_tol * scale)
    faces, face_set = [], set()
    weld_residual = 0.0
    for element in elements:
        local = []
        for p in element.apply_many(piece.points):
            found = grid.nearest(p, within=weld_tol * scale)
            if found is None:
                local.append(grid.add(p))
            else:
                weld_residual = max(weld_residual,
                                    float(np.linalg.norm(grid.points[found] - p)))
                local.append(found)
        flip = element.det() < 0
        for i, j, k, l in np.array(local)[piece.domain.quad_index].tolist():
            face = (i, l, k, j) if flip else (i, j, k, l)
            key = tuple(sorted(face))
            if key not in face_set:
                face_set.add(key)
                faces.append(face)
    return elements, np.array(grid.points), faces, weld_residual / scale


def scalar_mirror_orbit(piece, mirrors, max_word=16, dedup_tol=1e-9):
    """(elements, vertices, faces, weld_residual) of the orbit welded one pair at a
    time: copies g and g∘s share the vertices on the lattice line of the mirror
    whose reflection is s (g∘s the element nearest it), and a welded vertex is
    its first copy's point."""
    from minnet.mobius import Isometry
    from minnet.boundary import boundary_vertices
    generators = [Isometry.plane_reflection(m.plane) for m in mirrors]
    elements = scalar_close_group(generators, max_word, dedup_tol)
    n = len(piece.points)
    root = list(range(len(elements) * n))          # copy g's vertex v is item g n + v

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for g, element in enumerate(elements):
        for gen, mirror in zip(generators, mirrors):
            product = element.compose(gen)
            h = min(range(len(elements)), key=lambda j: product.distance(elements[j]))
            for v in boundary_vertices(piece.domain, mirror.index, mirror.axis).tolist():
                a, b = find(g * n + v), find(h * n + v)
                root[max(a, b)] = min(a, b)
    points, number, faces, weld_residual = [], {}, [], 0.0
    for g, element in enumerate(elements):
        local = []
        for v, p in enumerate(element.apply_many(piece.points)):
            first = find(g * n + v)
            if first == g * n + v:
                number[first] = len(points)
                points.append(p)
            weld_residual = max(weld_residual,
                                float(np.linalg.norm(points[number[first]] - p)))
            local.append(number[first])
        flip = element.det() < 0
        for i, j, k, l in np.array(local)[piece.domain.quad_index].tolist():
            faces.append((i, l, k, j) if flip else (i, j, k, l))
    return elements, np.array(points), faces, weld_residual / max(piece.scale(), 1e-300)


def invariance_residual(vertices, iso, radius):
    """Max distance from the iso image of each vertex to its nearest vertex,
    inf when one has none within radius; one point at a time."""
    grid = VertexGrid(vertices, radius)
    worst = 0.0
    for p in iso.apply_many(vertices):
        idx = grid.nearest(p)
        worst = max(worst, math.inf if idx is None
                    else float(np.linalg.norm(grid.points[idx] - p)))
    return worst


def orbit_topology(vertex_count, faces):
    """(V - E + F, boundary loops, edges in more than two faces, vertices with
    more than one face fan) of a quad mesh.  E counts distinct undirected
    edges; a loop is a connected set of edges in one face; two faces at a
    vertex are in one fan when a chain of faces through edges at that vertex
    joins them."""
    edge_faces = {}
    for f, face in enumerate(faces):
        for a, b in zip(face, face[1:] + face[:1]):
            edge_faces.setdefault((min(a, b), max(a, b)), []).append(f)
    root = {}

    def find(x):
        root.setdefault(x, x)
        while root[x] != x:
            x = root[x]
        return x

    def union(x, y):
        x, y = find(x), find(y)
        root[max(x, y)] = min(x, y)

    for (a, b), around in edge_faces.items():
        if len(around) == 1:
            union(("loop", a), ("loop", b))
        for f in around[1:]:
            union(("fan", a, around[0]), ("fan", a, f))
            union(("fan", b, around[0]), ("fan", b, f))
    loops = {find(x) for x in list(root) if x[0] == "loop"}
    fans = {}
    for f, face in enumerate(faces):
        for v in face:
            fans.setdefault(v, set()).add(find(("fan", v, f)))
    return (vertex_count - len(edge_faces) + len(faces), len(loops),
            sorted(e for e, around in edge_faces.items() if len(around) > 2),
            sorted(v for v, roots in fans.items() if len(roots) > 1))


def full_parser() -> argparse.ArgumentParser:
    """The minnet parser with every option of every command and family, each
    added on its own: the oracle of cli.build_parser, which adds only the
    options of the command that its argv names."""
    parser = argparse.ArgumentParser(
        prog="minnet",
        description="Discrete minimal nets: generation, reflection, verification")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="build a fundamental piece (and orbit)")
    gen_sub = gen.add_subparsers(dest="family", required=True)

    p_enn = gen_sub.add_parser("enneper")
    p_enn.add_argument("--k", type=int, required=True)
    p_enn.add_argument("--size", type=int, default=8)
    p_plan = gen_sub.add_parser("planar-enneper")
    p_plan.add_argument("--size", type=int, default=8)
    p_kno = gen_sub.add_parser("knoid")
    p_kno.add_argument("--k", type=int, required=True)
    p_kno.add_argument("--nmax", type=int, default=3)
    p_kno.add_argument("--mmax", type=int, default=10)
    p_kno.add_argument("--solver-tol", type=float, default=1e-10)
    p_kno.add_argument("--max-iter", type=int, default=500)
    p_kno.add_argument("--seed-file", type=str, default=None)
    p_pla = gen_sub.add_parser("platonic")
    # literal, so that parsing does not load bvp; a test pins them to its presets
    p_pla.add_argument("--preset", choices=("icosahedral", "octahedral", "tetrahedral"),
                       required=True)
    p_pla.add_argument("--resolution", type=int, default=3)
    p_pla.add_argument("--solver-tol", type=float, default=1e-10)
    p_pla.add_argument("--max-iter", type=int, default=500)
    for p in (p_enn, p_plan, p_kno, p_pla):
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--report", type=str, default=None)
        p.add_argument("--orbit", action="store_true")
        p.add_argument("--max-word", type=int, default=16)

    con = sub.add_parser("conjugate", help="asymptotic net from a grid file")
    con.add_argument("grid")
    con.add_argument("--out", required=True)

    ref = sub.add_parser("reflect", help="extend a net across a boundary line")
    ref.add_argument("net")
    line = ref.add_mutually_exclusive_group(required=True)
    line.add_argument("--row", type=int)
    line.add_argument("--col", type=int)
    ref.add_argument("--asymptotic", action="store_true",
                     help="use the 180-degree line rotation extension")
    ref.add_argument("--tol", type=float, default=1e-9)
    ref.add_argument("--out", required=True)

    orb = sub.add_parser("orbit", help="symmetry orbit of a net file")
    orb.add_argument("net")
    orb.add_argument("--out", required=True)
    orb.add_argument("--obj", default=None)
    orb.add_argument("--tol", type=float, default=1e-9)
    orb.add_argument("--max-word", type=int, default=16)

    ver = sub.add_parser("verify", help="run all applicable invariant checks")
    ver.add_argument("net")
    ver.add_argument("--tol", type=float, default=1e-9)
    ver.add_argument("--as-isothermic", action="store_true")
    ver.add_argument("--conjugate", default=None)
    ver.add_argument("--grid", default=None)
    ver.add_argument("--report", default=None)

    exp = sub.add_parser("export", help="export a net or orbit file to OBJ")
    exp.add_argument("path_in")
    exp.add_argument("path_out")
    return parser
