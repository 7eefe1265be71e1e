"""Discrete holomorphic functions with cross-ratio type conformality.

A grid g : domain -> C ∪ {∞} is discrete holomorphic for edge labels
(alpha, beta) when every elementary quad satisfies
cr(g_i, g_j, g_k, g_l) = alpha(m)/beta(n).

The discrete power function z^gamma is built here for gamma in (0,2) from
the axis recurrence

    gamma * g_m = 2m * (g_{m+1}-g_m)(g_m-g_{m-1}) / (g_{m+1}-g_{m-1})

with seeds g_{0,0}=0, g_{1,0}=1, g_{0,1}=exp(i*gamma*pi/2), the interior
filled by cross-ratio -1 propagation.  For gamma in (2,4) the grid is the
scalar Christoffel dual of the inverted conjugate power grid of exponent
gamma-2, which lives on the quadrant minus the origin.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DegenerateQuad, ParseError, UnsupportedGamma, ZeroDg
from .jsonio import json_int, load_json, write_text
from .mobius import (CNum, INF, c_abs, c_div, c_join, c_mul, cross_ratio_complex, is_inf,
                     sphere_distinct)
from .lattice import GAP_EPS, EdgeLabels, LatticeDomain, Net3, Vertex, integrate_edges
from .net import CheckReport, json_to_bundle, net_to_json, worst_report

# Largest extent of a power_function grid: about 1.6 GB for a side-1000
# generate (README, "Command line").
MAX_EXTENT = 1000


class HoloGrid:
    """Discrete holomorphic function candidate with its edge labels.

    values holds g at `domain.vertices`, in order, as a complex array;
    where the boolean array inf is set, g is ∞ (and values holds 0).  Both
    arrays are read-only, so the coincident-value check made at
    construction holds for the grid's life.
    """

    def __init__(self, domain: LatticeDomain, values: np.ndarray, labels: EdgeLabels,
                 inf: np.ndarray | None = None):
        self.domain, self.values, self.labels, self.inf = domain, values, labels, inf
        self.__post_init__()

    def __post_init__(self):
        count = len(self.domain.vertices)
        self.inf = np.zeros(count, bool) if self.inf is None else np.array(self.inf, bool)
        self.values = np.where(self.inf, 0j, np.asarray(self.values, dtype=complex))
        self.inf.flags.writeable = self.values.flags.writeable = False
        if self.values.shape != (count,):
            raise ValueError(f"expected {count} values, got shape {self.values.shape}")
        a, b = self.domain.edge_index.T
        finite = ~(self.inf[a] | self.inf[b])
        apart = c_abs(self.values[a] - self.values[b]) > 1e-14 * self.scale()
        coincide = np.where(finite, ~apart, self.inf[a] & self.inf[b])
        if coincide.any():
            i = int(np.argmax(coincide))
            verts = self.domain.vertices
            raise ValueError(f"coincident neighboring values on edge {verts[a[i]]}-{verts[b[i]]}")

    @classmethod
    def from_dict(cls, domain: LatticeDomain, values: dict[Vertex, CNum],
                  labels: EdgeLabels) -> "HoloGrid":
        """Grid from a finite value or INF at every vertex of domain."""
        for v in domain.vertices:
            if v not in values:
                raise ValueError(f"missing value at vertex {v}")
        vals = [values[v] for v in domain.vertices]
        inf = np.array([is_inf(z) for z in vals], dtype=bool)
        return cls(domain, [0j if is_inf(z) else z for z in vals], labels, inf)

    def __getitem__(self, v: Vertex) -> CNum:
        i = self.domain.vertex_index[v]
        return INF if self.inf[i] else complex(self.values[i])

    def scale(self) -> float:
        return float(np.max(c_abs(self.values[~self.inf]), initial=1.0))

    def infinity_vertices(self) -> list[Vertex]:
        return [self.domain.vertices[i] for i in np.flatnonzero(self.inf)]


def validate_holomorphic(grid: HoloGrid, tol: float = 1e-9) -> CheckReport:
    """Per-quad residual |cr - alpha/beta| relative to max(1, |alpha/beta|).

    Quads with a vertex at INF take cross_ratio_complex; the others repeat
    its arithmetic on arrays.
    """
    dom, target = grid.domain, grid.labels.quad_ratios(grid.domain)
    # shift by a finite value for conditioning; cr is translation invariant
    vals = grid.values[dom.quad_index]
    vals = vals - vals[:, :1]
    d01, d23, d12, d30 = (vals[:, a] - vals[:, b] for a, b in ((0, 1), (2, 3), (1, 2), (3, 0)))
    num = c_mul(c_mul(1.0, d01), d23)
    den = c_mul(c_mul(1.0, d12), d30)
    cr = c_div(c_mul(1.0, num), den)
    res = c_abs(cr - target) / np.maximum(1.0, np.abs(target))
    degenerate = (np.min([c_abs(d) for d in (d01, d12, d23, d30)], axis=0) <= GAP_EPS) | (den == 0)
    res[degenerate] = np.inf
    for i in np.flatnonzero(grid.inf[dom.quad_index].any(axis=1)):
        vals = [grid[v] for v in dom.quad_vertices(dom.quads[i])]
        shift = next((v for v in vals if not is_inf(v)), 0j)
        try:
            cr = cross_ratio_complex(*(v if is_inf(v) else v - shift for v in vals))
        except DegenerateQuad:
            cr = INF
        res[i] = float("inf") if is_inf(cr) else abs(cr - target[i]) / max(1.0, abs(target[i]))
    return worst_report(res, dom.quads, tol)


def propagate_fourth(g1: CNum, g2: CNum, g4: CNum, q: float) -> CNum:
    """Solve cr(g1, g2, g3, g4) = q for g3.

    For finite inputs g3 = (q*B*g2 + A*g4) / (A + q*B) with A = g1-g2,
    B = g4-g1.  A vanishing denominator puts g3 at infinity: INF.
    """
    if q == 0:
        raise DegenerateQuad("cross ratio target must be nonzero")
    for a, b in ((g1, g2), (g1, g4), (g2, g4)):
        if not sphere_distinct(a, b):
            raise DegenerateQuad("propagation inputs coincide")

    if is_inf(g1):
        # cr -> -(g2-g3)^-1 (g3-g4) = q
        return INF if q == 1.0 else (g4 - q * g2) / (1.0 - q)
    if is_inf(g2):
        # cr -> -(g3-g4)(g4-g1)^-1 = q
        return g4 - q * (g4 - g1)
    if is_inf(g4):
        # cr -> -(g1-g2)(g2-g3)^-1 = q
        return g2 + (g1 - g2) / q
    a = g1 - g2
    b = g4 - g1
    den = a + q * b
    if abs(den) <= 1e-15 * max(abs(a), abs(q * b), 1e-300):
        return INF
    return (q * b * g2 + a * g4) / den


# ---------------------------------------------------------------------------
# Discrete power function
# ---------------------------------------------------------------------------

def _axis_radii(gamma: float, count: int) -> list[float]:
    """Radii 0=rho_0 < rho_1=1 < ... from the power-function axis recurrence."""
    rho = [0.0, 1.0]
    for m in range(1, count):
        num = gamma * rho[m - 1] - 2 * m * (rho[m] - rho[m - 1])
        den = gamma * rho[m] - 2 * m * (rho[m] - rho[m - 1])
        if abs(den) < 1e-300:
            raise UnsupportedGamma(f"axis recurrence degenerate at m={m}")
        rho.append(rho[m] * num / den)
    return rho


def _propagate_diagonals(g: np.ndarray, inf: np.ndarray) -> None:
    """Fill g[m, n] for m, n >= 1 by cr = -1 propagation, one anti-diagonal
    m + n at a time; g[m, 0] and g[0, n] are given.

    Each step repeats propagate_fourth's arithmetic on arrays; a vertex
    that has an input at INF or may land at INF goes through
    propagate_fourth itself.
    """
    rows, cols = g.shape
    for diag in range(2, rows + cols - 1):
        m = np.arange(max(1, diag - cols + 1), min(rows - 1, diag - 1) + 1)
        n = diag - m
        g1, g2, g4 = g[m - 1, n - 1], g[m, n - 1], g[m - 1, n]
        a, b = g1 - g2, g4 - g1
        qb = c_mul(-1.0, b)
        den = a + qb
        scalar = (inf[m - 1, n - 1] | inf[m, n - 1] | inf[m - 1, n]
                  | (np.min([c_abs(a), c_abs(b), c_abs(g2 - g4)], axis=0) <= GAP_EPS)
                  | (c_abs(den) <= 1e-15 * np.maximum(np.maximum(c_abs(a), c_abs(qb)), 1e-300)))
        g[m, n] = c_div(c_mul(qb, g2) + c_mul(a, g4), den)
        for i in np.flatnonzero(scalar):
            src = [INF if inf[v] else complex(g[v]) for v in
                   ((m[i] - 1, n[i] - 1), (m[i], n[i] - 1), (m[i] - 1, n[i]))]
            z = propagate_fourth(*src, -1.0)
            inf[m[i], n[i]] = is_inf(z)
            g[m[i], n[i]] = 0j if is_inf(z) else z


def _power_small(gamma: float, m_extent: int, n_extent: int) -> HoloGrid:
    domain = LatticeDomain((0, m_extent), (0, n_extent))
    rho = _axis_radii(gamma, max(m_extent, n_extent))
    # exact quarter turn keeps z^1 the integer lattice
    seed_dir = 1j if gamma == 1.0 else cmath.exp(1j * gamma * math.pi / 2)
    g = np.zeros((m_extent + 1, n_extent + 1), dtype=complex)
    inf = np.zeros(g.shape, dtype=bool)
    for m in range(1, m_extent + 1):
        g[m, 0] = complex(rho[m])
    for n in range(1, n_extent + 1):
        g[0, n] = rho[n] * seed_dir
    _propagate_diagonals(g, inf)
    return HoloGrid(domain, g.ravel(), EdgeLabels.constant(domain), inf.ravel())


def _scalar_dual(domain: LatticeDomain, values: np.ndarray, labels: EdgeLabels,
                 root: Vertex) -> np.ndarray:
    """Planar Christoffel dual of finite values (in `domain.vertices` order):
    integrate d(g*) = label / conj(dg) from root."""
    a, b = domain.edge_index.T
    dg = values[b] - values[a]
    zero = c_abs(dg) < 1e-300
    if zero.any():
        i = int(np.argmax(zero))
        raise ZeroDg(f"zero difference on edge {domain.vertices[a[i]]}-{domain.vertices[b[i]]}")
    return integrate_edges(domain, c_div(labels.on_edges(domain), dg.conj()), "planar dual", root)


def _power_large(gamma: float, m_extent: int, n_extent: int) -> HoloGrid:
    """z^gamma for gamma in (2,4): dual of 1/conj(z^(gamma-2)), origin masked."""
    base = _power_small(gamma - 2.0, m_extent, n_extent)
    domain = LatticeDomain((0, m_extent), (0, n_extent), frozenset({(0, 0)}))
    # the origin is the first vertex of the unmasked base grid
    inverted = c_div(1.0, base.values[1:].conj())
    labels = EdgeLabels.constant(domain)
    return HoloGrid(domain, -_scalar_dual(domain, inverted, labels, root=(1, 0)), labels)


def power_function(gamma: float, m_extent: int, n_extent: int) -> HoloGrid:
    """Discrete z^gamma on [0,m_extent] x [0,n_extent] with cr = -1 quads.

    Boundary rows satisfy g_{m,0} real nonnegative increasing and g_{0,n}
    on the ray arg = gamma*pi/2.  For gamma in (2,4) the origin vertex is
    masked and the grid starts immersed at (1,0)/(0,1).
    """
    if m_extent < 2 or n_extent < 2:
        raise ValueError("grid extents must be at least 2")
    if m_extent > MAX_EXTENT or n_extent > MAX_EXTENT:
        raise ValueError(f"grid extents must be at most {MAX_EXTENT}")
    if gamma <= 0.0 or gamma == 2.0 or gamma >= 4.0:
        raise UnsupportedGamma(f"gamma={gamma} outside (0,2) ∪ (2,4)")
    if gamma < 2.0:
        return _power_small(gamma, m_extent, n_extent)
    return _power_large(gamma, m_extent, n_extent)


# ---------------------------------------------------------------------------
# Serialization (values as planar points plus an infinity tag list)
# ---------------------------------------------------------------------------

def write_grid(path, grid: HoloGrid) -> None:
    points = np.stack([grid.values.real, grid.values.imag, np.zeros(len(grid.values))], axis=1)
    carrier = Net3(grid.domain, points, check_edges=False)
    write_text(path, net_to_json(carrier, grid.labels, infinity=grid.infinity_vertices()) + "\n")


def read_grid(path) -> HoloGrid:
    doc = load_json(path)
    bundle = json_to_bundle(doc, check_edges=False)
    if bundle.labels is None:
        raise ParseError("grid file must carry alpha/beta labels")
    dom, points = bundle.net.domain, bundle.net.points
    try:
        m, n = np.array([[json_int(i) for i in tag] for tag in doc.get("infinity", [])]
                        or np.zeros((0, 2)), dtype=np.intp).T
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad infinity record: {exc}") from exc
    inf, index = np.zeros(len(dom.vertices), dtype=bool), dom.indices(m, n)
    inf[index[index >= 0]] = True
    try:
        return HoloGrid(dom, c_join(points[:, 0], points[:, 1]), bundle.labels, inf)
    except ValueError as exc:
        raise ParseError(f"bad grid values: {exc}") from exc
