"""Boundary-value solver for cross-ratio -1 holomorphic grids.

The k-noid problem prescribes, on [0,m_max] x [0,n_max]:

  - g_{0,0} = 0 and g_{0,n_max} = exp(i(k-1)pi/k),
  - g_{m,0} in [0,1) strictly increasing,
  - g_{0,n} = r_n exp(i(k-1)pi/k) with r_n in [0,1] strictly increasing,
  - g_{m,n_max} = exp(i theta_m) with theta_m strictly decreasing,
  - cross ratio -1 on every quad, and g inside the pie wedge D_k.

The target region is a circular-arc triangle: two straight sides through
the origin meeting at (k-1)pi/k, closed by the unit circle, with the
puncture 1 (the catenoidal end) excluded.  Monotone boundary sequences are
encoded through cumulative exponentials so that every unconstrained
parameter vector is feasible.

solve_knoid minimizes a collocation system: all interior vertices are
unknowns and every quad contributes its cross-ratio deviation directly.
The collocation residual is evaluated on one complex vertex array, and
Levenberg-Marquardt gets its Jacobian in closed form (the sparse-structured
Jacobian of Nocedal & Wright, Numerical Optimization, ch. 10): each quad's
holomorphic cross-ratio slopes chained through dV/dx, and the gradient of
the active branch of the containment penalty.  Their indices depend on the
grid shape alone and are built once per shape.

Platonic presets replace the wedge/circle data by the Möbius-triangle data
of the rotation group: sides meeting at (pi/2, pi/3, pi/3) for the
tetrahedral group and (pi/2, pi/3, pi/4) for the octahedral group, again
with one corner serving as the catenoidal-end puncture on the real axis.
They are solved by continuation in the corner angles starting from the
(pi/2, pi/2, pi/2) catenoid triangle, re-seeding each stage through the
Möbius map that matches the corner points (which preserves cross ratios).
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import BadParameter, InfeasibleSpec, NoConvergence, ZeroDg
from .holomorphic import HoloGrid, validate_holomorphic
from .mobius import c_abs
from .lattice import EdgeLabels, Frozen, LatticeDomain

EXP_CLIP = 300.0
LAM_CAP = 1e14
# Most vertices of a BVP grid: admits (48, 144), 7,105 vertices (README,
# "Command line").
MAX_VERTICES = 10_000


# ---------------------------------------------------------------------------
# Specs and results
# ---------------------------------------------------------------------------

class BoundarySpec(Frozen):
    """k-noid boundary data: symmetry order k and grid truncation."""

    def __init__(self, k: int, n_max: int, m_max: int):
        if k < 3:
            raise InfeasibleSpec("k must be at least 3")
        if n_max < 2:
            raise InfeasibleSpec("n_max must be at least 2 so that an interior vertex exists")
        if m_max < n_max:
            raise InfeasibleSpec("m_max must be at least n_max")
        if (n_max + 1) * (m_max + 1) > MAX_VERTICES:
            raise InfeasibleSpec(f"a ({n_max}, {m_max}) grid has more than "
                                 f"{MAX_VERTICES} vertices")
        self.__dict__.update(k=k, n_max=n_max, m_max=m_max)

    @property
    def ray_angle(self) -> float:
        return (self.k - 1) * math.pi / self.k

    @property
    def corner_value(self) -> complex:
        return cmath.exp(1j * self.ray_angle)


class SolveResult:
    """Solved grid with residual maxima and total iteration count.

    params is the collocation vector of the solve, accepted back as
    seed_params.  trace holds one entry per LM iteration: the cost, the
    damping lambda the solve goes on with, max|cr+1| and whether the step
    was accepted.
    """

    def __init__(self, grid: HoloGrid, residuals: dict[str, float], iterations: int,
                 params: np.ndarray, trace: list[dict]):
        self.grid, self.residuals, self.iterations = grid, residuals, iterations
        self.params, self.trace = params, trace


# ---------------------------------------------------------------------------
# Monotone encodings (total: every real vector decodes to a valid sequence)
# ---------------------------------------------------------------------------

def _increasing_inverse(r: np.ndarray, upper: float) -> np.ndarray:
    """The u with _cumexp(u, upper)[0] == r, for r strictly increasing in
    (0, upper), possibly empty."""
    if len(r) == 0:
        return np.empty(0)
    r = np.minimum(np.asarray(r, dtype=float), upper * (1.0 - 1e-12))
    s = r / upper * (1.0 / (1.0 - r[-1] / upper))
    return np.log(np.maximum(np.diff(np.concatenate(([0.0], s))), 1e-300))


def _monotone_floor(r) -> np.ndarray:
    """Nudge a nearly-monotone sequence to be strictly increasing."""
    out = np.maximum.accumulate(np.asarray(r, dtype=float))
    for i in range(1, len(out)):
        if out[i] <= out[i - 1]:
            out[i] = out[i - 1] * (1 + 1e-9) + 1e-12
    return out


# ---------------------------------------------------------------------------
# Damped least squares
# ---------------------------------------------------------------------------

def _jacobian(fun, x: np.ndarray, r0: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian, for callers without a closed form."""
    jac = np.empty((len(r0), len(x)))
    for i in range(len(x)):
        step = 1e-6 * max(1.0, abs(x[i]))
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        jac[:, i] = (fun(xp) - fun(xm)) / (2.0 * step)
    return jac


def levenberg_marquardt(fun, x0: np.ndarray, converged, max_iter: int = 500,
                        lam0: float = 1e-3, jac=None, on_iteration=None, settled=None):
    """Damped Gauss-Newton with Nielsen's gain-ratio damping (Madsen, Nielsen
    & Tingleff, Methods for Non-Linear Least Squares Problems, 2004, §3.2).

    A trial step d is accepted when it lowers |fun|^2.  With rho its actual
    over its predicted cost drop, |r|^2 - |r + J d|^2, an accepted step
    scales lambda by max(1/3, 1 - (2 rho - 1)^3) and a rejected one by nu,
    which starts at 2 and doubles.  An iteration whose lambda passes LAM_CAP
    ends the solve; so does a rejected first trial where settled(x) holds,
    and that iteration is not counted.  jac(x) gives the Jacobian, else a
    central difference is taken (_jacobian, for the benchmark's toy problem).
    on_iteration(x, cost, lam, accepted) follows every iteration; lam is the
    damping the next one starts from.  converged and on_iteration only see
    iterates fun has evaluated, and jac(x) follows converged(x) at the same
    x, so a memoizing caller computes nothing twice.
    Returns (x, iterations, success).
    """
    x = np.asarray(x0, dtype=float).copy()
    r = fun(x)
    cost = float(r @ r)
    lam = lam0
    for it in range(1, max_iter + 1):
        if converged(x):
            return x, it - 1, True
        j = jac(x) if jac is not None else _jacobian(fun, x, r)
        a = j.T @ j
        g = -(j.T @ r)
        damping = np.diag(a) + 1e-12
        stepped, tried, nu = False, lam, 2.0
        while lam <= LAM_CAP:
            tried = lam
            m = a.copy()
            m.ravel()[::len(x) + 1] += lam * damping
            try:
                delta = np.linalg.solve(m, g)
            except np.linalg.LinAlgError:
                lam, nu = lam * nu, 2.0 * nu
                continue
            r_new = fun(x + delta)
            c_new = float(r_new @ r_new)
            if c_new < cost:
                model = r + j @ delta
                predicted = cost - float(model @ model)
                # clipped at 1, which scales by 1/3 as any larger ratio does
                rho = min((cost - c_new) / predicted, 1.0) if predicted > 0.0 else 1.0
                x = x + delta
                r, cost = r_new, c_new
                lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-14)
                stepped = True
                break
            if settled is not None and nu == 2.0 and settled(x):    # the first trial
                return x, it - 1, True
            lam, nu = lam * nu, 2.0 * nu
        if on_iteration is not None:
            on_iteration(x, cost, lam if stepped else tried, stepped)
        if not stepped:
            return x, it, converged(x)
    return x, max_iter, converged(x)


# ---------------------------------------------------------------------------
# Collocation solve for circular-arc triangles with an end puncture
# ---------------------------------------------------------------------------

class _Triangle(NamedTuple):
    """Circular-arc triangle: real-axis side, ray side at angle `wedge`,
    and the circle closing them.  corner = apex on the ray, puncture = the
    excluded end corner on the real axis."""

    wedge: float
    corner: complex
    puncture: float
    center: complex
    radius: float
    arc_start: float      # circle angle of corner
    arc_span: float       # signed angle from corner to puncture

    def region_penalty(self, z: np.ndarray):
        """How far each entry of z lies outside the triangle, the larger of
        its angular and radial overshoots, and its gradient d/dRe + i d/dIm:
        that of the active branch, zero where the penalty is zero."""
        r = np.abs(z)
        ang = np.arctan2(z.imag, z.real)
        over = np.maximum(np.maximum(0.0, -ang), ang - self.wedge)
        rho = np.maximum(r, 1e-12)
        angular = over * rho
        off = z - self.center
        dist = np.abs(off)
        radial = np.maximum(0.0, dist - self.radius)
        penalty = np.maximum(angular, radial)
        grad = np.zeros_like(z)
        rad = radial > angular
        grad[rad] = off[rad] / dist[rad]
        act = ~rad & (angular > 0.0)
        if act.any():
            za, ra = z[act], r[act]
            # over is -ang below the real axis and ang - wedge beyond the ray;
            # grad(ang) = i z / r^2 and grad(rho) = z / r while r > 1e-12
            sign = np.where(ang[act] < 0.0, -1.0, 1.0)
            grad[act] = (sign * rho[act] * 1j * za / ra ** 2
                         + over[act] * np.where(ra > 1e-12, za / ra, 0.0))
        return penalty, grad


def _spherical_triangle(theta0: float, theta1: float, theta_end: float) -> _Triangle:
    """Stereographic circular-arc triangle with prescribed corner angles.

    theta0 sits at the origin between the real axis and the ray; theta1 at
    the ray corner; theta_end at the puncture on the real axis.
    """
    cos_c = (math.cos(theta_end) + math.cos(theta0) * math.cos(theta1)) / (
        math.sin(theta0) * math.sin(theta1))
    cos_b = (math.cos(theta1) + math.cos(theta0) * math.cos(theta_end)) / (
        math.sin(theta0) * math.sin(theta_end))
    side_c = math.acos(max(-1.0, min(1.0, cos_c)))   # origin -> ray corner
    side_b = math.acos(max(-1.0, min(1.0, cos_b)))   # origin -> puncture
    corner = cmath.exp(1j * theta0) * math.tan(side_c / 2.0)
    puncture = math.tan(side_b / 2.0)
    p_corner = np.array([math.sin(side_c) * math.cos(theta0),
                         math.sin(side_c) * math.sin(theta0), -math.cos(side_c)])
    p_end = np.array([math.sin(side_b), 0.0, -math.cos(side_b)])
    normal = np.cross(p_end, p_corner)
    if abs(normal[2]) < 1e-14:
        raise InfeasibleSpec("arc side degenerates to a straight line")
    center = complex(-normal[0] / normal[2], -normal[1] / normal[2])
    radius = math.sqrt((normal[0] ** 2 + normal[1] ** 2) / normal[2] ** 2 + 1.0)
    arc_start = cmath.phase(corner - center)
    span = cmath.phase(puncture - center) - arc_start
    if span > math.pi:
        span -= 2.0 * math.pi
    if span < -math.pi:
        span += 2.0 * math.pi
    return _Triangle(theta0, corner, puncture, center, radius, arc_start, span)


def _cumexp(u: np.ndarray, upper: float, tri=None):
    """upper * s / (s[-1] + 1) with s = cumsum(exp(u)), a strictly
    increasing sequence in (0, upper), and its derivative D[j, i] =
    d out_j / d u_i = upper * e_i * ([i <= j] / (s[-1] + 1) - s_j / (s[-1] + 1)^2);
    tri = np.tri(len(u))."""
    if len(u) == 0:
        return np.empty(0), np.empty((0, 0))
    if np.abs(u).max() <= EXP_CLIP:         # nothing clipped, as nearly always
        e = slope = np.exp(u)
    else:
        e = np.exp(np.clip(u, -EXP_CLIP, EXP_CLIP))
        slope = np.where(np.abs(u) <= EXP_CLIP, e, 0.0)   # the clip is flat beyond
    s = e.cumsum()
    total = s[-1] + 1.0
    tri = np.tri(len(u)) if tri is None else tri
    deriv = upper * slope * (tri / total - s[:, None] / total ** 2)
    return upper * s / total, deriv


@functools.lru_cache(maxsize=8)
def _shape_tables(m_max: int, n_max: int):
    """Read-only tables of a grid shape: the corners a, b, c, d = (m, n),
    (m+1, n), (m+1, n+1), (m, n+1) of each quad, n-major; the slopes and
    vertices with unknowns and their Jacobian places; np.tri."""
    nb, n_quads = 2 * m_max + n_max - 1, m_max * n_max
    width = nb + 2 * m_max * (n_max - 1)
    flat = np.arange((m_max + 1) * (n_max + 1)).reshape(m_max + 1, n_max + 1)
    corners = np.array([flat[:-1, :-1], flat[1:, :-1], flat[1:, 1:], flat[:-1, 1:]])
    corners = corners.swapaxes(1, 2).reshape(4, n_quads)
    column = np.full(flat.size, -1)          # of each vertex's real part, -1 on the boundary
    column[flat[1:, 1:n_max].T.ravel()] = nb + 2 * np.arange(m_max * (n_max - 1))
    slot, inner = np.flatnonzero(column[corners] >= 0), np.flatnonzero(column >= 0)
    at = 2 * (slot % n_quads) * width + column[corners].ravel()[slot]
    pen = (2 * n_quads + inner) * width + column[inner]
    at = np.concatenate([at, at + width, at + 1, at + width + 1, pen, pen + 1])
    tables = (corners, slot, inner, at, np.tri(m_max), np.tri(n_max - 1))
    for a in tables:
        a.flags.writeable = False
    return tables


class _Evaluation(NamedTuple):
    """Everything the collocation system reads at one parameter vector:
    the flat vertex array V, the left-column radii, dV/dx over the boundary
    columns, d(left)/dx over its block, cr + 1 per quad with its four
    corner slopes, and the containment penalty of every vertex with its
    gradient; and the largest |cr + 1| and penalty."""

    v: np.ndarray
    left: np.ndarray
    dv: np.ndarray
    d_left: np.ndarray
    q1: np.ndarray
    slopes: np.ndarray
    penalty: np.ndarray
    grad: np.ndarray
    cr_max: float
    containment_max: float


class _TriangleCollocation:
    """Least-squares system on the vertex array V[m, n] of the
    (m_max + 1) x (n_max + 1) grid, with per-quad cross-ratio -1 residuals.

    Unknowns x: the cumulative-exp encodings of the bottom row (m_max), the
    left column (n_max - 1) and the arc row (m_max, as fractions of the
    arc), then the (Re, Im) pairs of the interior vertices in n-major
    order.  Residual rows: (Re, Im) of cr+1 per quad in n-major order, the
    containment penalty of every vertex in (m, n) order, then the
    regularization of the left-column radii.

    The residual, Jacobian, cr_max and containment_max all read one
    evaluation per distinct x (see _evaluate), so Levenberg-Marquardt's
    trial step, Jacobian, convergence test and trace share it.
    """

    def __init__(self, tri: _Triangle, m_max: int, n_max: int):
        self.tri = tri
        self.m_max = m_max
        self.n_max = n_max
        self.n_boundary = 2 * m_max + n_max - 1
        self.n_params = self.n_boundary + 2 * m_max * (n_max - 1)
        self._corners, self._slot, self._inner, self._at, *self._tri = _shape_tables(
            m_max, n_max)
        self._memo: tuple[bytes | None, _Evaluation | None] = (None, None)

    def _vertices(self, x: np.ndarray):
        """Flat vertex array V, left-column radii, dV/dx over the boundary
        columns and d(left)/dx over its block."""
        tri, m_max, n_max, nb = self.tri, self.m_max, self.n_max, self.n_boundary
        tri_m, tri_n = self._tri
        bottom, d_bottom = _cumexp(x[:m_max], tri.puncture, tri_m)
        left, d_left = _cumexp(x[m_max:m_max + n_max - 1], abs(tri.corner), tri_n)
        arc, d_arc = _cumexp(x[m_max + n_max - 1:nb], 1.0, tri_m)
        ray = cmath.exp(1j * tri.wedge)
        v = np.empty((m_max + 1, n_max + 1), dtype=complex)
        v[0, 0] = 0j
        v[0, n_max] = tri.corner
        v[1:, 0] = bottom
        v[0, 1:n_max] = left * ray
        v[1:, n_max] = tri.center + tri.radius * np.exp(
            1j * (tri.arc_start + tri.arc_span * arc))
        v[1:, 1:n_max] = (x[nb::2] + 1j * x[nb + 1::2]).reshape(n_max - 1, m_max).T
        dv = np.zeros((m_max + 1, n_max + 1, nb), dtype=complex)
        dv[1:, 0, :m_max] = d_bottom
        dv[0, 1:n_max, m_max:m_max + n_max - 1] = ray * d_left
        dv[1:, n_max, m_max + n_max - 1:] = (
            1j * tri.arc_span * (v[1:, n_max] - tri.center))[:, None] * d_arc
        return v.ravel(), left, dv.reshape(-1, nb), d_left

    def vertices(self, x: np.ndarray) -> np.ndarray:
        """V[m, n] as an (m_max + 1, n_max + 1) complex array (read-only)."""
        return self._evaluate(x).v.reshape(self.m_max + 1, self.n_max + 1)

    def _evaluate(self, x: np.ndarray) -> _Evaluation:
        """The evaluation at x, built once per distinct x.  The memo holds
        one entry keyed on the exact bytes of x, so an x changed in place
        is evaluated afresh; its arrays are read-only because callers share
        them."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} collocation parameters, "
                             f"got an array of shape {x.shape}")
        key = x.tobytes()
        if self._memo[0] != key:
            v, left, dv, d_left = self._vertices(x)
            q, slopes = self._cross_ratios(v)
            penalty, grad = self.tri.region_penalty(v)
            q += 1.0
            for a in (v, left, dv, d_left, q, slopes, penalty, grad):
                a.flags.writeable = False
            self._memo = (key, _Evaluation(v, left, dv, d_left, q, slopes, penalty, grad,
                                           float(np.abs(q).max()), float(penalty.max())))
        return self._memo[1]

    def _cross_ratios(self, v: np.ndarray):
        """cr(a, b, c, d) per quad, 1e9 where den = (b-c)(d-a) vanishes, and
        its slopes dq/da, dq/db, dq/dc, dq/dd stacked (zero there), e.g.
        dq/da = q (1/(a-b) + 1/(d-a)) = (c-d)/den + q/(d-a)."""
        a, b, c, d = v[self._corners]
        bc, da = b - c, d - a
        den = bc * da
        zero = den == 0
        if zero.any():
            bc, da = np.where(zero, 1.0, bc), np.where(zero, 1.0, da)
            den = bc * da
        ab_den, cd_den = (a - b) / den, (c - d) / den
        q = ((a - b) * (c - d)) / den
        q_da, q_bc = q / da, q / bc
        slopes = np.array([cd_den + q_da, -cd_den - q_bc, ab_den + q_bc, -ab_den - q_da])
        if zero.any():
            return np.where(zero, 1e9, q), np.where(zero, 0.0, slopes)
        return q, slopes

    def residual(self, x: np.ndarray, reg_weight: float,
                 left_ref: np.ndarray) -> np.ndarray:
        e = self._evaluate(x)
        # (Re, Im) of each cr + 1 are adjacent in its float view
        return np.concatenate([e.q1.view(float), e.penalty, reg_weight * (e.left - left_ref)])

    def jacobian(self, x: np.ndarray, reg_weight: float) -> np.ndarray:
        """Closed-form d(residual)/dx.  Complex derivatives of the vertex
        values are chained through dV/dx; an interior vertex has dV/dRe = 1
        and dV/dIm = i, which gives the Cauchy-Riemann 2x2 block of each
        holomorphic quad derivative."""
        e = self._evaluate(x)
        dv, grad = e.dv, e.grad
        m_max, n_max, nb = self.m_max, self.n_max, self.n_boundary
        n_quads, n_vertices = m_max * n_max, len(e.v)
        jac = np.zeros((2 * n_quads + n_vertices + n_max - 1, self.n_params))
        boundary = np.zeros((n_quads, nb), dtype=complex)
        for term in e.slopes[:, :, None] * dv[self._corners]:
            boundary += term
        jac[0:2 * n_quads:2, :nb] = boundary.real
        jac[1:2 * n_quads:2, :nb] = boundary.imag
        s, g = e.slopes.ravel()[self._slot], grad[self._inner]
        jac.put(self._at, np.concatenate([s.real, s.imag, -s.imag, s.real, g.real, g.imag]))
        jac[2 * n_quads:2 * n_quads + n_vertices, :nb] = (grad.conj()[:, None] * dv).real
        jac[2 * n_quads + n_vertices:, m_max:m_max + n_max - 1] = reg_weight * e.d_left
        return jac

    def encode(self, bottom, left, arc, interior) -> np.ndarray:
        """Parameter vector of boundary sequences and the complex interior
        values interior[m - 1, n - 1]."""
        z = np.asarray(interior, dtype=complex).T.ravel()
        return np.concatenate([
            _increasing_inverse(bottom, self.tri.puncture),
            _increasing_inverse(left, abs(self.tri.corner)),
            _increasing_inverse(arc, 1.0),
            np.stack([z.real, z.imag], axis=1).ravel()])

    def cr_max(self, x: np.ndarray) -> float:
        return self._evaluate(x).cr_max

    def containment_max(self, x: np.ndarray) -> float:
        return self._evaluate(x).containment_max

    def solve(self, x0: np.ndarray, tol: float, max_iter: int, trace: list,
              to_floor: bool = True):
        """Two LM stages: regularized to pin the free left-column directions,
        then released, from the first stage's last damping.  With to_floor,
        once cr_max <= tol the second stage steps on while each step at least
        halves cr_max, so it ends at the rounding floor; an iterate that meets
        tol on entry takes no step.  One trace entry per LM iteration."""
        left_ref, iterations, lam = self._evaluate(x0).left, 0, 1e-3
        x = x0

        def log(xx, cost, lam, accepted):
            trace.append({"cost": cost, "lambda": lam,
                          "cr_max": self.cr_max(xx), "accepted": accepted})

        for reg, target, floor in ((1e-3, max(1e-7, tol * 10.0), False),
                                   (1e-9, tol, to_floor)):
            def met(xx, target=target):
                return (self.cr_max(xx) <= target
                        and self.containment_max(xx) <= max(target, 1e-9))

            seen: list[float] = []      # cr_max of each iterate asked about

            def halted(xx, met=met, seen=seen):
                # the same iterate asked again (the final test) is no halving
                cr = self.cr_max(xx)
                halved = bool(seen) and cr <= 0.5 * seen[-1]
                seen.append(cr)
                return met(xx) and not halved

            x, it, _ = levenberg_marquardt(
                lambda xx, reg=reg: self.residual(xx, reg, left_ref), x,
                halted if floor else met, max_iter - iterations, lam0=lam,
                jac=lambda xx, reg=reg: self.jacobian(xx, reg), on_iteration=log,
                settled=met if floor else None)
            iterations, ok = iterations + it, met(x)
            if it:                      # each counted iteration logged an entry
                lam = trace[-1]["lambda"]
            if iterations >= max_iter:
                break
        return x, iterations, ok


# ---------------------------------------------------------------------------
# k-noid solve
# ---------------------------------------------------------------------------

def _knoid_triangle(spec: BoundarySpec) -> _Triangle:
    """D_k as a circular-arc triangle: angles ((k-1)pi/k, pi/2, pi/2)."""
    return _Triangle(wedge=spec.ray_angle, corner=spec.corner_value,
                     puncture=1.0, center=0j, radius=1.0,
                     arc_start=spec.ray_angle, arc_span=-spec.ray_angle)


def _collocation_seed(system: _TriangleCollocation, power: float) -> np.ndarray:
    """g(w) = (tanh w)^power sampled on a uniform square w-grid of the
    system's size; power (2k-2)/k gives the k-noid seed and 1 the catenoid
    seed, whose wedges are (k-1)pi/k and pi/2."""
    def g(w: complex) -> complex:
        t = cmath.tanh(w)
        return 0j if t == 0 else cmath.exp(power * cmath.log(t))

    m_max, n_max, wedge = system.m_max, system.n_max, system.tri.wedge
    h = (math.pi / 4.0) / n_max
    bottom = np.array([g(m * h).real for m in range(1, m_max + 1)])
    left = np.array([abs(g(1j * n * h)) for n in range(1, n_max)])
    arc = np.array([1.0 - cmath.phase(g(m * h + 1j * math.pi / 4.0)) / wedge
                    for m in range(1, m_max + 1)])
    interior = [[g(m * h + 1j * n * h) for n in range(1, n_max)] for m in range(1, m_max + 1)]
    return system.encode(bottom, left, arc, interior)


def solve_knoid(spec: BoundarySpec, tol: float = 1e-10, max_iter: int = 500,
                seed_params: np.ndarray | None = None) -> SolveResult:
    """Solve the k-noid boundary-value problem by damped least squares.

    The result grid satisfies the straight-side and arc conditions exactly
    by construction; the reported cross-ratio residual is the max |cr+1|
    over quads.  A NoConvergence carrying the result is raised when the
    tolerance is not met.
    """
    if max_iter < 0:
        raise BadParameter(f"max_iter must be at least 0, got {max_iter}")
    system = _TriangleCollocation(_knoid_triangle(spec), spec.m_max, spec.n_max)
    if seed_params is None:
        x0 = _collocation_seed(system, (2.0 * spec.k - 2.0) / spec.k)
    else:
        x0 = np.asarray(seed_params, dtype=float)
        if len(x0) != system.n_params:
            raise InfeasibleSpec(
                f"seed has {len(x0)} parameters, expected {system.n_params}")
    trace: list[dict] = []
    x, iterations, ok = system.solve(x0, tol, max_iter, trace)
    return _finish_solve(system, x, iterations, ok, tol, trace)


def _solve_result(system: _TriangleCollocation, x, iterations, trace,
                  tri: _Triangle) -> SolveResult:
    """The grid of x and its residuals, the boundary measured against tri."""
    domain = LatticeDomain((0, system.m_max), (0, system.n_max))
    try:
        grid = HoloGrid(domain, system.vertices(x).ravel(), EdgeLabels.constant(domain))
    except ValueError as exc:       # a degenerate seed can collapse an edge
        raise ZeroDg(f"solved grid has {exc}") from exc
    metrics = {
        "cross_ratio": validate_holomorphic(grid).max_residual,
        "boundary": _bullet_deviation(grid, tri),
        "containment": system.containment_max(x),
    }
    return SolveResult(grid, metrics, iterations, x, trace)


def _finish_solve(system: _TriangleCollocation, x, iterations, ok,
                  tol, trace) -> SolveResult:
    result = _solve_result(system, x, iterations, trace, system.tri)
    if not (ok and result.residuals["cross_ratio"] <= max(tol, 1e-9)):
        raise NoConvergence(f"residuals {result.residuals} after {iterations} iterations",
                            result)
    return result


def _bullet_deviation(grid: HoloGrid, tri: _Triangle) -> float:
    """Max deviation of the grid boundary from the three triangle sides."""
    dom = grid.domain
    v = grid.values.reshape(dom.m1 - dom.m0 + 1, dom.n1 - dom.n0 + 1)
    ray = cmath.exp(1j * tri.wedge)
    bottom = np.abs(v[:, 0].imag)
    top = np.abs(c_abs(v[:, -1] - tri.center) - tri.radius)
    # Im(z * conj(ray)) along the left column
    left = np.abs(v[0].real * -ray.imag + v[0].imag * ray.real)
    return float(max(bottom.max(), top.max(), left.max()))


# ---------------------------------------------------------------------------
# Platonic presets
# ---------------------------------------------------------------------------

class PlatonicPreset(NamedTuple):
    """Möbius-triangle angles of a Platonic rotation group, with the
    catenoidal-end puncture placed at the last corner."""

    name: str
    angles: tuple[float, float, float]
    rotation_order: int


PLATONIC_PRESETS = {
    "tetrahedral": PlatonicPreset("tetrahedral",
                                  (math.pi / 2, math.pi / 3, math.pi / 3), 12),
    "octahedral": PlatonicPreset("octahedral",
                                 (math.pi / 2, math.pi / 3, math.pi / 4), 24),
    "icosahedral": PlatonicPreset("icosahedral", (math.pi / 2, math.pi / 3, math.pi / 5), 60),
}


# Seeding solves (the catenoid start and every continuation step but the
# last) stop at this cr_max.  LM iterations of the tetrahedral, octahedral
# and icosahedral presets at resolutions 2/3/5, with them at 1e-7: 24/27/29,
# 32/38/40, 35/43/46; at 1e-3: 20/23/22, 25/28/31, 29/30/35.
CONTINUATION_TOL = 1e-3


def platonic_preset(name: str) -> PlatonicPreset:
    if name not in PLATONIC_PRESETS:
        raise InfeasibleSpec(f"unknown preset {name!r}; "
                             f"choose from {sorted(PLATONIC_PRESETS)}")
    return PLATONIC_PRESETS[name]


def _reencode_between(system_old: _TriangleCollocation,
                      system_new: _TriangleCollocation,
                      x: np.ndarray) -> np.ndarray:
    """Transfer a solution between triangles by the corner-matching Möbius
    map z -> z/(az+b); cross ratios are preserved exactly, so only the
    projections of boundary values onto the new sides perturb the seed."""
    tri_o, tri_n = system_old.tri, system_new.tri
    a = (tri_o.corner / tri_n.corner - tri_o.puncture / tri_n.puncture) / (
        tri_o.corner - tri_o.puncture)
    b = tri_o.corner / tri_n.corner - a * tri_o.corner
    v = system_old.vertices(x)
    v = v / (a * v + b)
    n_max = system_new.n_max
    bottom = _monotone_floor(np.abs(v[1:, 0]))
    left = _monotone_floor(np.abs(v[0, 1:n_max]))
    arc = _monotone_floor(np.clip(
        (np.angle(v[1:, n_max] - tri_n.center) - tri_n.arc_start) / tri_n.arc_span,
        1e-9, 1 - 1e-9))
    return system_new.encode(bottom, left, arc, v[1:, 1:n_max])


def solve_platonic(preset: str, resolution: int,
                   tol: float = 1e-10, max_iter: int = 500) -> SolveResult:
    """Solve the Platonic-symmetry boundary problem at the given resolution.

    resolution is the number of rows n_max (the grid is
    (2*resolution+2) x resolution); at least 2 so interior vertices exist.
    Continuation starts from the (pi/2, pi/2, pi/2) catenoid triangle and
    deforms the corner angles to the preset in a few stages.  A
    NoConvergence carrying the result is raised when the tolerance is not
    met.
    """
    preset = platonic_preset(preset)
    if max_iter < 0:
        raise BadParameter(f"max_iter must be at least 0, got {max_iter}")
    if resolution < 2:
        raise InfeasibleSpec("resolution must give at least one interior vertex")
    if (resolution + 1) * (2 * resolution + 3) > MAX_VERTICES:
        raise InfeasibleSpec(f"resolution {resolution} gives more than "
                             f"{MAX_VERTICES} vertices")
    n_max = resolution
    m_max = 2 * resolution + 2

    start = (math.pi / 2, math.pi / 2, math.pi / 2)
    system = _TriangleCollocation(_spherical_triangle(*start), m_max, n_max)
    x = _collocation_seed(system, 1.0)
    trace: list[dict] = []
    loose = max(tol, CONTINUATION_TOL)
    x, it, ok = system.solve(x, loose, min(max_iter, 100), trace, to_floor=False)
    iterations = it

    steps = max(2, int(math.ceil(
        max(abs(a - b) for a, b in zip(start, preset.angles)) / 0.15)))
    for s in range(1, steps + 1):
        t = s / steps
        angles = tuple(a + (b - a) * t for a, b in zip(start, preset.angles))
        system_new = _TriangleCollocation(_spherical_triangle(*angles), m_max, n_max)
        x = _reencode_between(system, system_new, x)
        system = system_new
        last = s == steps
        x, it, ok = system.solve(x, tol if last else loose, max_iter - iterations,
                                 trace, to_floor=last)
        iterations += it
        if iterations >= max_iter and not last:
            # the grid solves an intermediate triangle: measure it against the preset's
            result = _solve_result(system, x, iterations, trace,
                                   _spherical_triangle(*preset.angles))
            raise NoConvergence(f"continuation stopped at step {s} of {steps}: residuals "
                                f"{result.residuals} after {iterations} iterations", result)
    return _finish_solve(system, x, iterations, ok, tol, trace)

