"""Quaternionic cross ratios and rigid isometries.

Conventions used throughout the toolkit:

- A point (x, y, z) of R^3 embeds as the pure-imaginary quaternion
  x*i + y*j + z*k.  Products of differences of such quaternions give the
  cross ratio; its eigenvalue pair is {q0 + i|qv|, q0 - i|qv|} where q0 is
  the scalar part and qv the imaginary vector.
- The unit-sphere lift sends 0 to the south pole (0,0,-1) and INF
  (`holomorphic`) to the north pole (0,0,1).
- Planes are stored as {x : normal·x = offset} with |normal| = 1; lines as
  base + span(direction) with |direction| = 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import holomorphic
from .errors import DegenerateFit, DegenerateQuad
from .lattice import GAP_EPS, Frozen


# ---------------------------------------------------------------------------
# Quaternions
# ---------------------------------------------------------------------------

class Quaternion(Frozen):
    """Hamilton quaternion w + x*i + y*j + z*k.

    Components are floats, or equal-shape arrays for many quaternions at once.
    """

    def __init__(self, w: float, x: float, y: float, z: float):
        self.__dict__.update(w=w, x=x, y=y, z=z)

    @staticmethod
    def from_point(p) -> "Quaternion":
        """Embed an R^3 point as a pure-imaginary quaternion."""
        return Quaternion(0.0, float(p[0]), float(p[1]), float(p[2]))

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a, b, c, d = self.w, self.x, self.y, self.z
        e, f, g, h = other.w, other.x, other.y, other.z
        return Quaternion(
            a * e - b * f - c * g - d * h,
            a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f,
            a * h + b * g - c * f + d * e,
        )

    def norm2(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def vector_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def inverse(self) -> "Quaternion":
        n2 = self.norm2()
        if np.any(n2 <= GAP_EPS * GAP_EPS):
            raise DegenerateQuad("quaternion too small to invert")
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)


class CrossRatioValue(NamedTuple):
    """Eigenvalue pair {re ± i·im_mag} of a quaternionic cross ratio."""

    re: float
    im_mag: float


def cross_ratio_quat(x1, x2, x3, x4) -> CrossRatioValue:
    """Cross ratio of four R^3 points as (X1-X2)(X2-X3)^-1(X3-X4)(X4-X1)^-1.

    Returns the eigenvalue pair of the resulting quaternion.  Raises
    DegenerateQuad when a consecutive pair is closer than GAP_EPS.
    """
    pts = [np.asarray(x, dtype=float) for x in (x1, x2, x3, x4)]
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        if np.linalg.norm(pts[a] - pts[b]) <= GAP_EPS:
            raise DegenerateQuad(f"points {a+1} and {b+1} coincide")
    q = [Quaternion.from_point(p) for p in pts]
    out = (q[0] - q[1]) * (q[1] - q[2]).inverse() * (q[2] - q[3]) * (q[3] - q[0]).inverse()
    return CrossRatioValue(out.w, out.vector_norm())


# ---------------------------------------------------------------------------
# Stereographic projection
# ---------------------------------------------------------------------------

def stereographic_lift(g: holomorphic.CNum) -> np.ndarray:
    """Lift a Riemann-sphere value to the unit sphere in R^3.

    g maps to (2 Re g, 2 Im g, |g|^2 - 1) / (|g|^2 + 1); INF to (0,0,1).
    """
    if holomorphic.is_inf(g):
        return np.array([0.0, 0.0, 1.0])
    g = complex(g)
    m = abs(g)
    if m > 1e150:
        # avoid overflow of |g|^2; expand around the north pole
        u = g / m
        return np.array([2.0 * u.real / m, 2.0 * u.imag / m, 1.0 - 2.0 / (m * m)])
    n = m * m
    d = n + 1.0
    return np.array([2.0 * g.real / d, 2.0 * g.imag / d, (n - 1.0) / d])


# ---------------------------------------------------------------------------
# Planes, lines, isometries
# ---------------------------------------------------------------------------

def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-14:
        raise ValueError("cannot normalize near-zero vector")
    return v / n


class PlaneR3(Frozen):
    """Plane {x in R^3 : normal·x = offset} with unit normal."""

    def __init__(self, normal: np.ndarray, offset: float):
        n = np.asarray(normal, dtype=float)
        scale = np.linalg.norm(n)
        if scale < 1e-14:
            raise ValueError("plane normal must be nonzero")
        self.__dict__.update(normal=n / scale, offset=float(offset) / scale)


class LineR3(Frozen):
    """Line base + R·direction with unit direction."""

    def __init__(self, base: np.ndarray, direction: np.ndarray):
        self.__dict__.update(base=np.asarray(base, dtype=float), direction=_unit(direction))


class Isometry(Frozen):
    """Rigid motion p ↦ matrix @ p + translation, with an orthogonal matrix."""

    def __init__(self, matrix: np.ndarray, translation: np.ndarray):
        self.__dict__.update(matrix=matrix, translation=translation)

    @staticmethod
    def identity() -> "Isometry":
        return Isometry(np.eye(3), np.zeros(3))

    @staticmethod
    def plane_reflection(plane: PlaneR3) -> "Isometry":
        n = plane.normal
        mat = np.eye(3) - 2.0 * np.outer(n, n)
        return Isometry(mat, 2.0 * plane.offset * n)

    @staticmethod
    def line_rotation_180(line: LineR3) -> "Isometry":
        d = line.direction
        mat = 2.0 * np.outer(d, d) - np.eye(3)
        return Isometry(mat, line.base - mat @ line.base)

    def compose(self, other: "Isometry") -> "Isometry":
        """self ∘ other (apply other first)."""
        return Isometry(self.matrix @ other.matrix,
                        self.matrix @ other.translation + self.translation)

    def apply(self, p) -> np.ndarray:
        return self.matrix @ np.asarray(p, dtype=float) + self.translation

    def apply_many(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self.matrix.T + self.translation

    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    def distance(self, other: "Isometry") -> float:
        return max(float(np.abs(self.matrix - other.matrix).max()),
                   float(np.abs(self.translation - other.translation).max()))


# ---------------------------------------------------------------------------
# Least-squares fits
# ---------------------------------------------------------------------------

def _centred_svd(points, least: int, centre: bool):
    """The centroid of at least `least` points (0.0 unless centre), the
    points less it, and the singular values and right singular vectors of
    those.  DegenerateFit on fewer points, or on a centred set that is not
    finite, as when the centroid overflows: LAPACK may not return on one."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < least:
        raise DegenerateFit(f"need at least {least} points")
    centroid = pts.mean(axis=0) if centre else 0.0
    centered = pts - centroid
    if not np.isfinite(centered).all():
        raise DegenerateFit("centred points are not finite")
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    return centroid, centered, s, vt


def fit_plane(points) -> tuple[PlaneR3, float]:
    """Least-squares plane through >= 3 points; returns (plane, max distance).

    Raises DegenerateFit when the points are collinear or coincident.
    """
    centroid, centered, s, vt = _centred_svd(points, 3, True)
    if s[0] < 1e-14 or s[1] <= 1e-12 * s[0]:
        raise DegenerateFit("points are collinear or coincident")
    return PlaneR3(vt[2], float(np.dot(vt[2], centroid))), float(np.abs(centered @ vt[2]).max())


def fit_plane_through_origin(points) -> tuple[PlaneR3, float]:
    """Best plane containing the origin; used for great-circle tests."""
    _, pts, s, vt = _centred_svd(points, 2, False)
    if s[0] < 1e-14 or (pts.shape[0] > 2 and s[1] <= 1e-12 * s[0]):
        # all points on one ray through the origin: plane not unique
        raise DegenerateFit("points do not span a plane through the origin")
    normal = vt[-1] if vt.shape[0] == 3 else np.cross(vt[0], vt[1])
    return PlaneR3(normal, 0.0), float(np.abs(pts @ normal).max())


def fit_line(points) -> tuple[LineR3, float]:
    """Least-squares line through points; returns (line, max distance)."""
    centroid, centered, s, vt = _centred_svd(points, 2, True)
    if s[0] < 1e-14:
        raise DegenerateFit("points coincide")
    proj = centered - np.outer(centered @ vt[0], vt[0])
    return LineR3(centroid, vt[0]), float(np.linalg.norm(proj, axis=1).max())
