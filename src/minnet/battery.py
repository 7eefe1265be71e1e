"""The invariant battery that `generate` and `verify` run.

`_run_checks` runs every check of CHECKS whose inputs a `_Nets` carries
and returns the report's `ok` and `checks` entries.  The checks share
the plane fits through `_Nets`' cached properties, so one run fits each
point set once.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import boundary, holomorphic, minimal
from .errors import DomainMismatch
from .lattice import EdgeLabels, Net3, _norm
from .net import (CheckReport, PlaneFit, circularity_residuals, cross_ratio_residuals,
                  edge_angles, plane_fits, worst_report)


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
