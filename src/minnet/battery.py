"""The invariant battery that `generate` and `verify` run.

`_run_checks` runs every check of CHECKS whose inputs a `_Nets` carries
and returns the report's `ok` and `checks` entries.  The checks share
the plane fits through `_Nets`' cached properties, so one run fits each
point set once.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import boundary, holomorphic, minimal
from .errors import DegenerateQuad, DomainMismatch
from .jsonio import MIN_EDGE
from .lattice import GAP_EPS, EdgeLabels, Net3, _norm
from .mobius import Quaternion


# ---------------------------------------------------------------------------
# Residuals
# ---------------------------------------------------------------------------

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


# Whole-array versions of the per-quad predicates of `net`.  They repeat the
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


def planarity_residuals(pts: np.ndarray, fit: PlaneFit | None = None) -> np.ndarray:
    """planarity_residual of every point set in a (sets, k, 3) stack, k >= 3.
    fit: plane_fits(pts), when the caller has it."""
    fit = plane_fits(pts) if fit is None else fit
    coords = _frame_coordinates(pts, fit)
    res = np.abs(coords[..., 2]).max(axis=1)
    return np.where((fit.s[:, 0] < 1e-14) | _collinear(coords, fit), 0.0, res)


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
    x = [Quaternion(zero, *pts[:, i].T) for i in range(4)]
    cr = (x[0] - x[1]) * (x[1] - x[2]).inverse() * (x[2] - x[3]) * (x[3] - x[0]).inverse()
    return np.abs(cr.w - labels.quad_ratios(dom))


# ---------------------------------------------------------------------------
# The battery
# ---------------------------------------------------------------------------

class _Nets:
    """Inputs of one battery run, its checks, and the arrays they share."""

    def __init__(self, tol: float, iso: Net3 | None = None, normals: Net3 | None = None,
                 labels: EdgeLabels | None = None, asym: Net3 | None = None,
                 grid: holomorphic.HoloGrid | None = None):
        self.tol, self.iso, self.normals, self.labels = tol, iso, normals, labels
        self.asym, self.grid = asym, grid

    @cached_property
    def quads(self) -> tuple:
        return self.iso.domain.quads

    @cached_property
    def iso_planes(self) -> PlaneFit:
        """The quad planes that circularity and minimality share."""
        return plane_fits(self.iso.quad_array())

    @cached_property
    def asym_stars(self) -> minimal.StarPlanes:
        """The star planes that asymptotic_stars and conjugate_normals share."""
        return minimal.StarPlanes(self.asym)

    def circularity(self) -> CheckReport:
        pts = self.iso.quad_array()
        diagonal = np.maximum(_norm(np.ptp(pts, axis=1)), 1e-300)
        return worst_report(circularity_residuals(pts, self.iso_planes) / diagonal, self.quads,
                            self.tol, diagonal)

    def isothermic(self) -> CheckReport:
        return worst_report(cross_ratio_residuals(self.iso, self.labels), self.quads, self.tol)

    def minimality(self) -> CheckReport:
        curvature = minimal.Curvatures(self.iso.quad_array(), self.normals.quad_array(),
                                       self.iso_planes, self.tol)
        if curvature.undefined.any():
            return CheckReport(False, float("inf"),
                               self.quads[int(np.argmax(curvature.undefined))],
                               extra={"error": "non-planar quad or vanishing area"})
        return worst_report(np.abs(curvature.H), self.quads, self.tol)

    def gauss_parallel(self) -> CheckReport:
        """N is the Gauss map of F: each edge of N parallel to F's, and |N| = 1
        at both of its ends."""
        a, b = self.iso.domain.edge_index.T
        unit = np.abs(_norm(self.normals.points) - 1.0)
        return worst_report(np.maximum(edge_angles(self.iso, self.normals),
                                       np.maximum(unit[a], unit[b])),
                            self.iso.domain.edges(), max(self.tol, 1e-9))

    def gauss_matches_grid(self) -> CheckReport:
        lift = minimal.gauss_map(self.grid).points
        return worst_report(_norm(self.normals.points - lift), self.grid.domain.vertices,
                            self.tol)

    @cached_property
    def asym_report(self) -> CheckReport:
        """is_asymptotic of the asymptotic net, which the role test of a net
        file without normals shares with asymptotic_stars."""
        return minimal.is_asymptotic(self.asym, self.tol, self.asym_stars)

    def asymptotic_stars(self) -> CheckReport:
        return self.asym_report

    def conjugate_normals(self) -> CheckReport:
        star, gauss = self.asym_stars.normals, self.normals.points
        return worst_report(np.minimum(_norm(star - gauss), _norm(star + gauss)),
                            self.asym.domain.vertices, self.tol)

    @cached_property
    def iso_lines(self) -> dict:
        """The congruence-plane analysis of each boundary line (boundary.boundary_lines)."""
        return boundary.boundary_lines(self.iso, self.normals)

    def boundaries(self) -> dict:
        """Each boundary line is a planar curvature line of the isothermic net
        exactly when it is a straight asymptotic line of the conjugate net."""
        dom, checks = self.iso.domain, {}
        for axis, index in (("row", dom.n0), ("row", dom.n1),
                            ("col", dom.m0), ("col", dom.m1)):
            iso = self.iso_lines[axis, index]
            planar = iso.holds(self.tol)
            straight = boundary.analyze_boundary_asymptotic(self.asym, index, axis).holds(self.tol)
            checks[f"boundary_{axis}_{index}"] = {
                "ok": planar == straight, "max_residual": iso.residual, "scale": iso.scale,
                "worst": [axis, index],
                "isothermic_kind": "planar_curvature_line" if planar else "none",
                "asymptotic_kind": "straight_asymptotic_line" if straight else "none"}
        return checks


# The battery in report order: each check with the inputs it needs.
CHECKS = (
    (_Nets.circularity, {"iso"}),
    (_Nets.isothermic, {"iso", "labels"}),
    (_Nets.minimality, {"iso", "normals"}),
    (_Nets.gauss_parallel, {"iso", "normals"}),
    (_Nets.gauss_matches_grid, {"normals", "grid"}),
    (_Nets.asymptotic_stars, {"asym"}),
    (_Nets.conjugate_normals, {"asym", "normals"}),
    (_Nets.boundaries, {"iso", "normals", "asym"}),
)


def _entry(report: CheckReport) -> dict:
    entry = {"ok": bool(report.ok), "max_residual": float(report.max_residual),
             "scale": float(report.scale),
             "worst": list(report.worst) if report.worst is not None else None}
    if "error" in report.extra:
        entry["error"] = report.extra["error"]
    return entry


def _run_checks(nets: _Nets) -> dict:
    present = {name for name in ("iso", "normals", "labels", "asym", "grid")
               if getattr(nets, name) is not None}
    if len({getattr(nets, name).domain for name in present - {"labels"}}) > 1:
        raise DomainMismatch("the nets and the grid live on different domains")
    checks: dict[str, dict] = {}
    for check, needs in CHECKS:
        if needs <= present:
            found = check(nets)
            checks.update(found if isinstance(found, dict) else {check.__name__: _entry(found)})
    return {"ok": all(c["ok"] for c in checks.values()), "checks": checks}
