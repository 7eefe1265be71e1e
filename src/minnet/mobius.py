"""Quaternionic cross ratios, Riemann-sphere values and rigid isometries.

Conventions used throughout the toolkit:

- A point (x, y, z) of R^3 embeds as the pure-imaginary quaternion
  x*i + y*j + z*k.  Products of differences of such quaternions give the
  cross ratio; its eigenvalue pair is {q0 + i|qv|, q0 - i|qv|} where q0 is
  the scalar part and qv the imaginary vector.
- Values on the Riemann sphere are python complex numbers plus the module
  sentinel INF.  The unit-sphere lift sends 0 to the south pole (0,0,-1)
  and INF to the north pole (0,0,1).
- Planes are stored as {x : normal·x = offset} with |normal| = 1; lines as
  base + span(direction) with |direction| = 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateFit, DegenerateQuad

GAP_EPS = 1e-12


class Frozen:
    """Base of value records whose fields __init__ sets through __dict__;
    assigning or deleting an attribute afterwards raises AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Riemann sphere values
# ---------------------------------------------------------------------------

class _Infinity:
    """Tagged point at infinity of C ∪ {∞}."""

    __slots__ = ()

    def __repr__(self):
        return "INF"


INF = _Infinity()

#: A value on the Riemann sphere: a finite complex number or INF.
CNum = complex | _Infinity


def is_inf(v) -> bool:
    return isinstance(v, _Infinity)


def sphere_distinct(a: CNum, b: CNum, eps: float = GAP_EPS) -> bool:
    """Whether two Riemann-sphere values are separated (chordal sense)."""
    if is_inf(a) and is_inf(b):
        return False
    if is_inf(a) or is_inf(b):
        return True
    return abs(a - b) > eps


# numpy's complex *, / and abs differ from Python's in the last bit for many
# inputs.  These repeat CPython's formulas on complex arrays (a real operand
# counts as complex(x, 0.0)), so array code gives the bits of scalar code.

def c_join(re, im) -> np.ndarray:
    out = np.empty(np.broadcast_shapes(np.shape(re), np.shape(im)), dtype=complex)
    out.real, out.imag = re, im
    return out


def c_mul(a, b) -> np.ndarray:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return c_join(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def c_div(a, b) -> np.ndarray:
    """a / b by Smith's scaled division; NaN where b is 0."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    big = np.abs(b.real) >= np.abs(b.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(big, b.imag / b.real, b.real / b.imag)
        den = np.where(big, b.real + b.imag * ratio, b.real * ratio + b.imag)
        return c_join(np.where(big, a.real + a.imag * ratio, a.real * ratio + a.imag) / den,
                      np.where(big, a.imag - a.real * ratio, a.imag * ratio - a.real) / den)


def c_abs(z) -> np.ndarray:
    return np.hypot(np.real(z), np.imag(z))


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

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

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

    def scaled(self, s: float) -> "Quaternion":
        return Quaternion(s * self.w, s * self.x, s * self.y, s * self.z)


class CrossRatioValue(NamedTuple):
    """Eigenvalue pair {re ± i·im_mag} of a quaternionic cross ratio."""

    re: float
    im_mag: float

    def is_real(self, tol: float) -> bool:
        """Concircularity test: imaginary magnitude below tol."""
        return self.im_mag <= tol

    def as_complex(self) -> complex:
        return complex(self.re, self.im_mag)


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


def cross_ratio_complex(g1: CNum, g2: CNum, g3: CNum, g4: CNum) -> CNum:
    """Cross ratio (g1-g2)(g2-g3)^-1(g3-g4)(g4-g1)^-1 on C ∪ {∞}.

    Each argument equal to INF cancels between its numerator and
    denominator factor, contributing a factor -1 (the standard limit).
    """
    vals = (g1, g2, g3, g4)
    for a, b in ((0, 1), (1, 2), (2, 3), (3, 0)):
        if not sphere_distinct(vals[a], vals[b]):
            raise DegenerateQuad(f"values {a+1} and {b+1} coincide on the sphere")
    n_inf = sum(1 for v in vals if is_inf(v))
    if n_inf >= 2:
        # Only the diagonal patterns {1,3} or {2,4} can occur.  If the two
        # finite values are both 0, inversion loops; the limit there is 1.
        finite = [v for v in vals if not is_inf(v)]
        if all(abs(v) <= GAP_EPS for v in finite):
            return complex(1.0, 0.0)
        return cross_ratio_complex(*(_invert(v) for v in vals))

    num = complex(1.0, 0.0)
    den = complex(1.0, 0.0)
    sign = 1.0
    # numerator factors (g1-g2), (g3-g4); denominator (g2-g3), (g4-g1)
    for a, b, is_num in ((0, 1, True), (2, 3, True), (1, 2, False), (3, 0, False)):
        va, vb = vals[a], vals[b]
        if is_inf(va) or is_inf(vb):
            continue  # handled by the -1 factor below
        if is_num:
            num *= va - vb
        else:
            den *= va - vb
    for idx in range(4):
        if is_inf(vals[idx]):
            sign = -sign
    if den == 0:
        return INF
    return sign * num / den


def _invert(v: CNum) -> CNum:
    if is_inf(v):
        return complex(0.0, 0.0)
    if v == 0:
        return INF
    return 1.0 / v


# ---------------------------------------------------------------------------
# Stereographic projection
# ---------------------------------------------------------------------------

def stereographic_lift(g: CNum) -> np.ndarray:
    """Lift a Riemann-sphere value to the unit sphere in R^3.

    g maps to (2 Re g, 2 Im g, |g|^2 - 1) / (|g|^2 + 1); INF to (0,0,1).
    """
    if is_inf(g):
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


def stereographic_project(v) -> CNum:
    """Inverse of stereographic_lift; the north pole maps to INF."""
    v = np.asarray(v, dtype=float)
    d = 1.0 - v[2]
    if abs(d) < 1e-15:
        return INF
    return complex(v[0] / d, v[1] / d)


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
        self.__dict__.update(normal=normal, offset=offset)
        self.__post_init__()

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        scale = np.linalg.norm(n)
        if scale < 1e-14:
            raise ValueError("plane normal must be nonzero")
        self.__dict__.update(normal=n / scale, offset=float(self.offset) / scale)

    @staticmethod
    def from_point_normal(point, normal) -> "PlaneR3":
        n = _unit(normal)
        return PlaneR3(n, float(np.dot(n, np.asarray(point, dtype=float))))

    def signed_distance(self, p) -> float:
        return float(np.dot(self.normal, np.asarray(p, dtype=float)) - self.offset)

    def contains(self, p, tol: float = 1e-9) -> bool:
        return abs(self.signed_distance(p)) <= tol


class LineR3(Frozen):
    """Line base + R·direction with unit direction."""

    def __init__(self, base: np.ndarray, direction: np.ndarray):
        self.__dict__.update(base=base, direction=direction)
        self.__post_init__()

    def __post_init__(self):
        self.__dict__.update(base=np.asarray(self.base, dtype=float),
                             direction=_unit(self.direction))

    def distance(self, p) -> float:
        d = np.asarray(p, dtype=float) - self.base
        return float(np.linalg.norm(d - np.dot(d, self.direction) * self.direction))


class Isometry(Frozen):
    """Rigid motion p ↦ matrix @ p + translation.

    kind is one of 'plane_reflection', 'line_rotation_180', 'identity' or
    'composition'; the matrix is orthogonal in all cases.
    """

    def __init__(self, kind: str, matrix: np.ndarray, translation: np.ndarray,
                 source: object = None):
        self.__dict__.update(kind=kind, matrix=matrix, translation=translation, source=source)

    @staticmethod
    def identity() -> "Isometry":
        return Isometry("identity", np.eye(3), np.zeros(3))

    @staticmethod
    def plane_reflection(plane: PlaneR3) -> "Isometry":
        n = plane.normal
        mat = np.eye(3) - 2.0 * np.outer(n, n)
        return Isometry("plane_reflection", mat, 2.0 * plane.offset * n, source=plane)

    @staticmethod
    def line_rotation_180(line: LineR3) -> "Isometry":
        d = line.direction
        mat = 2.0 * np.outer(d, d) - np.eye(3)
        return Isometry("line_rotation_180", mat,
                        line.base - mat @ line.base, source=line)

    def compose(self, other: "Isometry") -> "Isometry":
        """self ∘ other (apply other first)."""
        return Isometry("composition",
                        self.matrix @ other.matrix,
                        self.matrix @ other.translation + self.translation)

    def inverse(self) -> "Isometry":
        mt = self.matrix.T
        return Isometry("composition" if self.kind == "composition" else self.kind,
                        mt, -(mt @ self.translation), source=self.source)

    def apply(self, p) -> np.ndarray:
        return self.matrix @ np.asarray(p, dtype=float) + self.translation

    def apply_many(self, pts: np.ndarray) -> np.ndarray:
        return pts @ self.matrix.T + self.translation

    def apply_direction(self, v) -> np.ndarray:
        """Linear part only; for mirroring unit normals."""
        return self.matrix @ np.asarray(v, dtype=float)

    def det(self) -> float:
        return float(np.linalg.det(self.matrix))

    def distance(self, other: "Isometry") -> float:
        return max(float(np.abs(self.matrix - other.matrix).max()),
                   float(np.abs(self.translation - other.translation).max()))

    def is_identity(self, tol: float = 1e-9) -> bool:
        return self.distance(Isometry.identity()) <= tol


def apply_isometry(iso: Isometry, p) -> np.ndarray:
    """Apply a rigid motion to a point."""
    return iso.apply(p)


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis through the origin."""
    a = _unit(axis)
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


# ---------------------------------------------------------------------------
# Least-squares fits
# ---------------------------------------------------------------------------

def fit_plane(points) -> tuple[PlaneR3, float]:
    """Least-squares plane through >= 3 points; returns (plane, max distance).

    Raises DegenerateFit when the points are collinear or coincident.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        raise DegenerateFit("need at least 3 points")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    scale = s[0]
    if scale < 1e-14 or s[1] <= 1e-12 * scale:
        raise DegenerateFit("points are collinear or coincident")
    normal = vt[2]
    plane = PlaneR3(normal, float(np.dot(normal, centroid)))
    residual = float(np.abs(centered @ normal).max())
    return plane, residual


def fit_plane_through_origin(points) -> tuple[PlaneR3, float]:
    """Best plane containing the origin; used for great-circle tests."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        raise DegenerateFit("need at least 2 points")
    _, s, vt = np.linalg.svd(pts, full_matrices=False)
    if s[0] < 1e-14 or (pts.shape[0] > 2 and s[1] <= 1e-12 * s[0]):
        # all points on one ray through the origin: plane not unique
        raise DegenerateFit("points do not span a plane through the origin")
    normal = vt[-1] if vt.shape[0] == 3 else np.cross(vt[0], vt[1])
    residual = float(np.abs(pts @ normal).max())
    return PlaneR3(normal, 0.0), residual


def fit_line(points) -> tuple[LineR3, float]:
    """Least-squares line through points; returns (line, max distance)."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        raise DegenerateFit("need at least 2 points")
    centroid = pts.mean(axis=0)
    centered = pts - centroid
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[0] < 1e-14:
        raise DegenerateFit("points coincide")
    line = LineR3(centroid, vt[0])
    proj = centered - np.outer(centered @ vt[0], vt[0])
    return line, float(np.linalg.norm(proj, axis=1).max())
