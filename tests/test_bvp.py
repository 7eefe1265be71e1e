import cmath
import json
import math

import numpy as np
import pytest

from minnet import bvp
from minnet.bvp import (EXP_CLIP, BoundarySpec, _collocation_seed, _cumexp,
                        _increasing_inverse, _knoid_triangle, levenberg_marquardt,
                        _reencode_between, _spherical_triangle,
                        _TriangleCollocation, platonic_preset, solve_knoid,
                        solve_platonic)
from minnet.errors import BadParameter, InfeasibleSpec, NoConvergence
from minnet.holomorphic import validate_holomorphic

from conftest import run_bounded


def region_distance(tri, z: complex) -> float:
    """How far z lies outside the triangle tri: the scalar oracle of
    _Triangle.region_penalty."""
    ang = math.atan2(z.imag, z.real)
    angular = max(0.0, -ang, ang - tri.wedge) * max(abs(z), 1e-12)
    radial = max(0.0, abs(z - tri.center) - tri.radius)
    return max(angular, radial)


def arc_point(tri, frac: float) -> complex:
    """The point of tri's arc at fraction frac from its corner to its puncture."""
    return tri.center + tri.radius * cmath.exp(1j * (tri.arc_start + tri.arc_span * frac))


class TestBoundarySpec:
    def test_validation(self):
        with pytest.raises(InfeasibleSpec):
            BoundarySpec(2, 3, 10)
        with pytest.raises(InfeasibleSpec):
            BoundarySpec(3, 0, 10)
        with pytest.raises(InfeasibleSpec):
            BoundarySpec(3, 3, 1)

    def test_region(self):
        spec = BoundarySpec(3, 3, 10)
        tri = _knoid_triangle(spec)
        assert region_distance(tri, 0.5 + 0.2j) == 0.0
        assert region_distance(tri, 1.5 + 0j) > 0.4
        assert region_distance(tri, 0.5 - 0.5j) > 0.0  # below the wedge
        assert abs(spec.corner_value - cmath.exp(2j * math.pi / 3)) < 1e-15


def _knoid_system(spec):
    return _TriangleCollocation(_knoid_triangle(spec), spec.m_max, spec.n_max)


class TestEncodings:
    """The cumulative-exp encodings of the collocation system's bottom row,
    left column and arc row: every real vector decodes to monotone
    sequences inside the triangle's sides."""

    def test_monotone_for_random_vectors(self):
        rng = np.random.default_rng(41)
        spec = BoundarySpec(4, 3, 8)
        system = _knoid_system(spec)
        tri, m_max, n_max, nb = system.tri, spec.m_max, spec.n_max, system.n_boundary
        for _ in range(50):
            x = rng.normal(size=system.n_params) * 3
            row = _cumexp(x[:m_max], tri.puncture)[0]
            col = _cumexp(x[m_max:m_max + n_max - 1], abs(tri.corner))[0]
            frac = _cumexp(x[m_max + n_max - 1:nb], 1.0)[0]
            for seq in (row, col, frac):
                assert np.all(np.diff(seq) > 0)
                assert np.all(seq > 0) and np.all(seq < 1)
            v = system.vertices(x)
            assert np.array_equal(v[1:, 0], row)
            assert np.array_equal(v[0, 1:n_max], col * cmath.exp(1j * tri.wedge))
            thetas = np.angle(v[1:, n_max])
            assert np.all(np.diff(thetas) < 0)
            assert np.all(thetas > 0) and np.all(thetas < spec.ray_angle)

    def test_round_trip(self):
        spec = BoundarySpec(3, 3, 6)
        system = _knoid_system(spec)
        row = np.array([0.1, 0.25, 0.4, 0.6, 0.8, 0.95])
        col = np.array([0.3, 0.7])
        thetas = np.array([1.8, 1.2, 0.7, 0.4, 0.2, 0.1])
        frac = 1.0 - thetas / spec.ray_angle
        for seq, upper in ((row, 1.0), (frac, 1.0), (0.5 * row, 0.5), (col, 1.0)):
            assert np.allclose(_cumexp(_increasing_inverse(seq, upper), upper)[0],
                               seq, atol=1e-12)
        assert _increasing_inverse(np.empty(0), 1.0).shape == (0,)
        interior = np.arange(12).reshape(6, 2) * (0.01 + 0.02j) + 0.1
        v = system.vertices(system.encode(row, col, frac, interior))
        assert np.allclose(v[1:, 0], row, atol=1e-12)
        assert np.allclose(v[0, 1:3], col * spec.corner_value, atol=1e-12)
        assert np.allclose(np.angle(v[1:, 3]), thetas, atol=1e-12)
        assert np.array_equal(v[1:, 1:3], interior)

    def test_extreme_vectors_do_not_overflow(self):
        spec = BoundarySpec(3, 2, 4)
        system = _knoid_system(spec)
        for value in (1e4, -1e4):
            x = np.full(system.n_params, value)
            assert np.all(np.isfinite(_cumexp(x[:4], 1.0)[0]))
            assert np.all(np.isfinite(_cumexp(x[4:5], 1.0)[0]))
            assert np.all(np.isfinite(system.vertices(x)))


class TestKnoidResidual:
    def test_wrong_length_rejected(self):
        spec = BoundarySpec(3, 3, 10)
        system = _knoid_system(spec)
        left_ref = np.ones(spec.n_max - 1)
        # a short vector, one parameter too few or too many, and the
        # 2 m_max + n_max - 1 entries of a boundary-only vector
        for length in (5, system.n_params - 1, system.n_params + 1,
                       system.n_boundary):
            with pytest.raises(ValueError, match="collocation parameters"):
                system.residual(np.zeros(length), 1e-3, left_ref)
            with pytest.raises(ValueError, match="collocation parameters"):
                system.jacobian(np.zeros(length), 1e-3)

    def test_oracle_optimizer_decreases_residual(self):
        # independent generic least-squares run on the collocation system
        from scipy.optimize import least_squares

        spec = BoundarySpec(3, 3, 10)
        system = _knoid_system(spec)
        x0 = _collocation_seed(system, 4.0 / 3.0)
        left_ref = np.abs(system.vertices(x0)[0, 1:spec.n_max])
        r0 = np.linalg.norm(system.residual(x0, 1e-3, left_ref))
        sol = least_squares(lambda x: system.residual(x, 1e-3, left_ref), x0,
                            jac=lambda x: system.jacobian(x, 1e-3), method="lm",
                            max_nfev=2000)
        assert np.linalg.norm(sol.fun) < 0.5 * r0
        assert system.cr_max(sol.x) <= 1e-6

    def test_converged_solution_top_row_on_circle(self, trinoid_result):
        spec = BoundarySpec(3, 3, 10)
        grid = trinoid_result.grid
        boundary = max(abs(abs(grid[(m, spec.n_max)]) - 1.0)
                       for m in range(1, spec.m_max + 1))
        containment = max(region_distance(_knoid_triangle(spec), grid[v])
                          for v in grid.domain.vertices)
        assert boundary <= 1e-6
        assert containment <= 1e-6


def _perturbed_system(case, perturb=True):
    """A collocation system, a non-converged point and a left reference.

    Random noise (relative to the triangle's size for the interior values)
    plus three interior vertices placed below the real axis, beyond the ray
    and outside the circle, so every branch of the penalty is active; or,
    with perturb False, the system's seed."""
    if case == "knoid":
        spec = BoundarySpec(3, 3, 10)
        system = _TriangleCollocation(_knoid_triangle(spec), spec.m_max, spec.n_max)
        x = _collocation_seed(system, 4.0 / 3.0)
    else:
        catenoid = _TriangleCollocation(
            _spherical_triangle(math.pi / 2, math.pi / 2, math.pi / 2), 8, 3)
        system = _TriangleCollocation(
            _spherical_triangle(math.pi / 2, math.pi / 3, math.pi / 4), 8, 3)
        x = _reencode_between(catenoid, system,
                              _collocation_seed(catenoid, 1.0))
    tri, m_max, nb = system.tri, system.m_max, system.n_boundary
    noise = np.random.default_rng(1).normal(scale=0.3, size=len(x))
    noise[nb:] *= tri.puncture
    x = x + noise if perturb else x

    def put(m, n, z):
        i = nb + 2 * ((n - 1) * m_max + m - 1)
        x[i], x[i + 1] = z.real, z.imag

    size = abs(tri.corner)
    if perturb:
        put(m_max // 2, 1, complex(0.5 * tri.puncture, -0.2 * size))
        put(1, 1, 0.5 * size * cmath.exp(1j * (tri.wedge + 0.3)))
        edge = arc_point(tri, 0.5) - tri.center
        put(m_max - 1, system.n_max - 1, tri.center + 1.1 * edge)
    left_ref = _cumexp(x[m_max:m_max + system.n_max - 1], size)[0] + 0.01
    return system, x, left_ref


def _cr4(a: complex, b: complex, c: complex, d: complex) -> complex:
    """Scalar cross ratio, 1e9 where (b-c)(d-a) vanishes."""
    den = (b - c) * (d - a)
    if den == 0:
        return complex(1e9, 0.0)
    return ((a - b) * (c - d)) / den


def _loop_residual(system, x, reg_weight, left_ref):
    """The collocation residual vertex by vertex and quad by quad."""
    tri, m_max, n_max = system.tri, system.m_max, system.n_max
    bottom = _cumexp(x[:m_max], tri.puncture)[0]
    left = _cumexp(x[m_max:m_max + n_max - 1], abs(tri.corner))[0]
    arc = _cumexp(x[m_max + n_max - 1:2 * m_max + n_max - 1], 1.0)[0]
    vals = {(0, 0): 0j, (0, n_max): tri.corner}
    for m in range(1, m_max + 1):
        vals[(m, 0)] = complex(bottom[m - 1])
        vals[(m, n_max)] = arc_point(tri, arc[m - 1])
    for n in range(1, n_max):
        vals[(0, n)] = left[n - 1] * cmath.exp(1j * tri.wedge)
    i = 2 * m_max + n_max - 1
    for n in range(1, n_max):
        for m in range(1, m_max + 1):
            vals[(m, n)] = complex(x[i], x[i + 1])
            i += 2
    out = []
    for n in range(n_max):
        for m in range(m_max):
            q = _cr4(vals[(m, n)], vals[(m + 1, n)],
                     vals[(m + 1, n + 1)], vals[(m, n + 1)]) + 1.0
            out.extend((q.real, q.imag))
    out.extend(region_distance(tri, vals[v]) for v in sorted(vals))
    out.extend(reg_weight * (left - left_ref))
    return np.array(out), vals


class TestCollocation:
    @pytest.mark.parametrize("case", ["knoid", "octahedral"])
    def test_residual_equals_loop(self, case):
        system, x, left_ref = _perturbed_system(case)
        expected, vals = _loop_residual(system, x, 1e-3, left_ref)
        z = np.array([vals[v] for v in sorted(vals)])
        tri = system.tri
        assert (z.imag < -1e-3).any()
        assert (np.angle(z) > tri.wedge + 1e-3).any()
        assert (np.abs(z - tri.center) > tri.radius + 1e-3).any()
        got = system.residual(x, 1e-3, left_ref)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-14
        quads = expected[:2 * system.m_max * system.n_max]
        assert system.cr_max(x) == pytest.approx(
            np.max(np.hypot(quads[0::2], quads[1::2])), rel=1e-14)
        assert system.containment_max(x) == pytest.approx(
            max(region_distance(system.tri, v) for v in z), rel=1e-14)

    @pytest.mark.parametrize("case", ["knoid", "octahedral"])
    def test_jacobian_matches_central_difference(self, case):
        system, x, left_ref = _perturbed_system(case)
        jac = system.jacobian(x, 1e-3)
        fd = np.empty_like(jac)
        for i in range(len(x)):
            step = 1e-6 * max(1.0, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += step
            xm[i] -= step
            fd[:, i] = (system.residual(xp, 1e-3, left_ref)
                        - system.residual(xm, 1e-3, left_ref)) / (2.0 * step)
        assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))


def _reference_cumexp(u, upper):
    """_cumexp with the clip, its flat slope and np.tri taken on every call."""
    if len(u) == 0:
        return np.empty(0), np.empty((0, 0))
    e = np.exp(np.clip(u, -EXP_CLIP, EXP_CLIP))
    s = np.cumsum(e)
    total = s[-1] + 1.0
    slope = np.where(np.abs(u) <= EXP_CLIP, e, 0.0)
    return upper * s / total, upper * slope * (np.tri(len(u)) / total - s[:, None] / total ** 2)


def _reference_system(system, x, reg_weight, left_ref):
    """(residual, Jacobian, cr_max, containment_max) of a collocation system,
    and whether a vertex is on the penalty's angular branch, by the same
    formulas, each taken whole: every branch of the cumulative
    exponentials, of the cross ratios' zero denominators and of the
    penalty's gradient runs on every call, and the Jacobian is written one
    corner at a time from per-call index arrays.  So it must equal the
    system's tables and fast paths bit for bit."""
    tri, m_max, n_max, nb = system.tri, system.m_max, system.n_max, system.n_boundary
    bottom, d_bottom = _reference_cumexp(x[:m_max], tri.puncture)
    left, d_left = _reference_cumexp(x[m_max:m_max + n_max - 1], abs(tri.corner))
    arc, d_arc = _reference_cumexp(x[m_max + n_max - 1:nb], 1.0)
    ray = cmath.exp(1j * tri.wedge)
    v = np.empty((m_max + 1, n_max + 1), dtype=complex)
    v[0, 0] = 0j
    v[0, n_max] = tri.corner
    v[1:, 0] = bottom
    v[0, 1:n_max] = left * ray
    v[1:, n_max] = tri.center + tri.radius * np.exp(1j * (tri.arc_start + tri.arc_span * arc))
    v[1:, 1:n_max] = (x[nb::2] + 1j * x[nb + 1::2]).reshape(n_max - 1, m_max).T
    dv = np.zeros((m_max + 1, n_max + 1, nb), dtype=complex)
    dv[1:, 0, :m_max] = d_bottom
    dv[0, 1:n_max, m_max:m_max + n_max - 1] = ray * d_left
    dv[1:, n_max, m_max + n_max - 1:] = (
        1j * tri.arc_span * (v[1:, n_max] - tri.center))[:, None] * d_arc
    v, dv = v.ravel(), dv.reshape(-1, nb)

    flat = np.arange((m_max + 1) * (n_max + 1)).reshape(m_max + 1, n_max + 1)
    corners = [flat[:-1, :-1].T.ravel(), flat[1:, :-1].T.ravel(),
               flat[1:, 1:].T.ravel(), flat[:-1, 1:].T.ravel()]
    a, b, c, d = (v[i] for i in corners)
    zero = (b - c) * (d - a) == 0
    bc, da = np.where(zero, 1.0, b - c), np.where(zero, 1.0, d - a)
    den = bc * da
    q = np.where(zero, 1e9, ((a - b) * (c - d)) / den)
    ab_den, cd_den = (a - b) / den, (c - d) / den
    slopes = [np.where(zero, 0.0, s) for s in
              (cd_den + q / da, -cd_den - q / bc, ab_den + q / bc, -ab_den - q / da)]

    r = np.abs(v)
    ang = np.arctan2(v.imag, v.real)
    over = np.maximum(np.maximum(0.0, -ang), ang - tri.wedge)
    rho = np.maximum(r, 1e-12)
    angular = over * rho
    off = v - tri.center
    dist = np.abs(off)
    radial = np.maximum(0.0, dist - tri.radius)
    penalty = np.maximum(angular, radial)
    grad = np.zeros_like(v)
    rad = radial > angular
    grad[rad] = off[rad] / dist[rad]
    act = ~rad & (angular > 0.0)
    za, ra = v[act], r[act]
    sign = np.where(ang[act] < 0.0, -1.0, 1.0)
    grad[act] = (sign * rho[act] * 1j * za / ra ** 2
                 + over[act] * np.where(ra > 1e-12, za / ra, 0.0))

    q1 = q + 1.0
    residual = np.concatenate([np.stack([q1.real, q1.imag], axis=1).ravel(), penalty,
                               reg_weight * (left - left_ref)])
    column = np.full((m_max + 1, n_max + 1), -1)
    column[1:, 1:n_max] = (nb + 2 * np.arange(m_max * (n_max - 1))).reshape(n_max - 1, m_max).T
    column = column.ravel()
    n_quads, n_vertices = m_max * n_max, len(v)
    jac = np.zeros((2 * n_quads + n_vertices + n_max - 1, system.n_params))
    quad_rows = 2 * np.arange(n_quads)
    boundary = np.zeros((n_quads, nb), dtype=complex)
    for corner, slope in zip(corners, slopes):
        boundary += slope[:, None] * dv[corner]
        col = column[corner]
        inner = col >= 0
        rows, col, s = quad_rows[inner], col[inner], slope[inner]
        jac[rows, col], jac[rows + 1, col] = s.real, s.imag
        jac[rows, col + 1], jac[rows + 1, col + 1] = -s.imag, s.real
    jac[0:2 * n_quads:2, :nb] = boundary.real
    jac[1:2 * n_quads:2, :nb] = boundary.imag
    inner = column >= 0
    rows, col = 2 * n_quads + np.flatnonzero(inner), column[inner]
    jac[rows, col], jac[rows, col + 1] = grad.real[inner], grad.imag[inner]
    jac[2 * n_quads:2 * n_quads + n_vertices, :nb] = (grad.conj()[:, None] * dv).real
    jac[2 * n_quads + n_vertices:, m_max:m_max + n_max - 1] = reg_weight * d_left
    return residual, jac, float(np.max(np.abs(q1))), float(np.max(penalty)), act.any()


def _branch_point(case, branch):
    """A system, a point and a left reference that take one branch: "seed"
    the usual one of every fast path, "angular" the penalty's angular
    gradient (the _perturbed_system point), "clipped" boundary parameters
    past EXP_CLIP, "coincident" a quad with (b-c)(d-a) == 0."""
    system, x, left_ref = _perturbed_system(case, perturb=branch != "seed")
    m_max, nb = system.m_max, system.n_boundary
    if branch == "clipped":
        x[0], x[m_max], x[nb - 1] = 2 * EXP_CLIP, -EXP_CLIP - 1.0, EXP_CLIP + 1e-9
    elif branch == "coincident":
        # interior vertex (3, 2) on (3, 1): quad (2, 1) has b == c
        i = nb + 4
        x[i + 2 * m_max:i + 2 * m_max + 2] = x[i:i + 2]
    return system, x, left_ref


class TestFastPaths:
    """The shape tables and the fast paths of the collocation system change
    no bit: at a point on each branch, the residual, Jacobian, cr_max and
    containment_max equal _reference_system's byte for byte."""

    @pytest.mark.parametrize("branch", ["seed", "angular", "clipped", "coincident"])
    @pytest.mark.parametrize("case", ["knoid", "octahedral"])
    def test_equal_to_reference(self, case, branch):
        system, x, left_ref = _branch_point(case, branch)
        residual, jac, cr_max, containment_max, angular = _reference_system(
            system, x, 1e-3, left_ref)
        nb = system.n_boundary
        clipped = np.abs(x[:nb]).max() > EXP_CLIP
        v = system.vertices(x)
        quads = [v[:-1, :-1], v[1:, :-1], v[1:, 1:], v[:-1, 1:]]
        coincident = ((quads[1] - quads[2]) * (quads[3] - quads[0]) == 0).any()
        assert (angular, clipped, coincident) == (
            branch != "seed", branch == "clipped", branch == "coincident")
        assert system.residual(x, 1e-3, left_ref).tobytes() == residual.tobytes()
        assert system.jacobian(x, 1e-3).tobytes() == jac.tobytes()
        assert (system.cr_max(x), system.containment_max(x)) == (cr_max, containment_max)

    def test_shapes_do_not_mix(self):
        """A system or solve made after others of other shapes, or of the
        same shape, gives the bytes it gives with its tables built afresh."""
        points = [_branch_point(case, "angular") for case in ("knoid", "octahedral")]
        spec = BoundarySpec(3, 2, 6)        # the tetrahedral shape at resolution 2
        small = _knoid_system(spec)
        points.append((small, _collocation_seed(small, 4.0 / 3.0), np.full(1, 0.5)))

        def evaluate(system, x, left_ref):
            fresh = _TriangleCollocation(system.tri, system.m_max, system.n_max)
            return (fresh.residual(x, 1e-3, left_ref).tobytes(),
                    fresh.jacobian(x, 1e-3).tobytes())

        solves = [lambda: solve_knoid(spec), lambda: solve_platonic("tetrahedral", 2),
                  lambda: solve_knoid(BoundarySpec(3, 3, 10))]

        def solve(run):
            result = run()
            return result.params.tobytes() + result.grid.values.tobytes()

        alone = []
        for point in points:
            bvp._shape_tables.cache_clear()
            alone.append(evaluate(*point))
        assert [evaluate(*p) for p in points + points[::-1]] == alone + alone[::-1]
        alone = []
        for run in solves:
            bvp._shape_tables.cache_clear()
            alone.append(solve(run))
        assert [solve(run) for run in solves + solves[::-1]] == alone + alone[::-1]


class TestEvaluationMemo:
    """The collocation system evaluates each distinct x once and shares it
    between the residual, Jacobian, convergence test and trace."""

    SOLVES = {"octahedral-3": lambda: solve_platonic("octahedral", 3),
              "knoid-3-5-15": lambda: solve_knoid(BoundarySpec(3, 5, 15))}

    @staticmethod
    def _count_builds(monkeypatch):
        builds = []
        build = _TriangleCollocation._vertices

        def counted(self, x):
            builds.append((self, x.tobytes()))
            return build(self, x)

        monkeypatch.setattr(_TriangleCollocation, "_vertices", counted)
        return builds

    @pytest.mark.parametrize("case", list(SOLVES))
    def test_one_build_per_distinct_iterate(self, case, monkeypatch):
        builds = self._count_builds(monkeypatch)
        reached = set()
        lm = bvp.levenberg_marquardt

        def seen(f):
            def g(x, *args):
                reached.add(x.tobytes())
                return f(x, *args)
            return g

        def recording_lm(fun, x0, converged, *args, jac, **kwargs):
            return lm(seen(fun), x0, seen(converged), *args, jac=seen(jac), **kwargs)

        monkeypatch.setattr(bvp, "levenberg_marquardt", recording_lm)
        self.SOLVES[case]()                 # returns: a miss raises NoConvergence
        assert len(builds) == len(set(builds))
        assert {x for _, x in builds} == reached

    def test_in_place_change_is_evaluated_afresh(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        system, x, left_ref = _perturbed_system("knoid")
        before = system.residual(x, 1e-3, left_ref)
        system.jacobian(x, 1e-3)
        system.cr_max(x)
        system.containment_max(x)
        assert len(builds) == 1
        x[system.n_boundary + 4] += 0.05
        x[0] -= 0.1
        after = system.residual(x, 1e-3, left_ref)
        assert len(builds) == 2
        fresh = _TriangleCollocation(system.tri, system.m_max, system.n_max)
        assert not np.array_equal(after, before)
        assert after.tobytes() == fresh.residual(x.copy(), 1e-3, left_ref).tobytes()
        assert system.jacobian(x, 1e-3).tobytes() == fresh.jacobian(x.copy(), 1e-3).tobytes()
        assert system.cr_max(x) == fresh.cr_max(x.copy())
        assert system.containment_max(x) == fresh.containment_max(x.copy())
        assert len(builds) == 3

    @pytest.mark.parametrize("case", list(SOLVES))
    def test_solve_equals_uncached_reference(self, case, monkeypatch):
        cached = self.SOLVES[case]()
        evaluations = []

        class Uncached(_TriangleCollocation):
            def _evaluate(self, x):
                self._memo = (None, None)
                evaluations.append(x)
                return super()._evaluate(x)

        monkeypatch.setattr(bvp, "_TriangleCollocation", Uncached)
        reference = self.SOLVES[case]()
        assert evaluations
        assert cached.params.tobytes() == reference.params.tobytes()
        assert cached.iterations == reference.iterations
        assert cached.trace == reference.trace
        assert cached.residuals == reference.residuals
        assert cached.grid.values.tobytes() == reference.grid.values.tobytes()


# LM iterations of solve_knoid with one OpenBLAS thread
KNOID_ITERATIONS = {(3, 3, 10): 8, (4, 3, 10): 8, (5, 3, 10): 9, (3, 8, 24): 9}


@pytest.fixture(scope="module")
def one_thread_solves():
    """(iterations, residuals) of each KNOID_ITERATIONS case, solved
    in a fresh process with one OpenBLAS thread.  The final stage ends at the
    rounding floor, whose last bits follow the BLAS's summation order: with
    2 to 4 threads (3, 8, 24) takes 8 iterations, not 9."""
    done = run_bounded(
        "import json, os\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
        "from minnet.bvp import BoundarySpec, solve_knoid\n"
        f"results = [solve_knoid(BoundarySpec(*c)) for c in {list(KNOID_ITERATIONS)}]\n"
        "print(json.dumps([[r.iterations, r.residuals] for r in results]))")
    assert done.returncode == 0, done.stderr
    return dict(zip(KNOID_ITERATIONS, json.loads(done.stdout)))


class TestSolveKnoid:
    @pytest.mark.parametrize("k, n_max, m_max", list(KNOID_ITERATIONS),
                             ids=["3", "4", "5", "3-8-24"])
    def test_converges(self, k, n_max, m_max, one_thread_solves):
        iterations, residuals = one_thread_solves[k, n_max, m_max]
        assert iterations == KNOID_ITERATIONS[k, n_max, m_max]
        assert residuals["cross_ratio"] <= 1e-8
        assert residuals["boundary"] <= 1e-6
        assert residuals["containment"] <= 1e-6

    def test_grid_revalidates(self, trinoid_result):
        report = validate_holomorphic(trinoid_result.grid, 1e-8)
        assert report.ok
        spec = BoundarySpec(3, 3, 10)
        grid = trinoid_result.grid
        # six bullet conditions on the values
        assert grid[(0, 0)] == 0j
        assert abs(grid[(0, 3)] - spec.corner_value) < 1e-14
        row = [grid[(m, 0)].real for m in range(11)]
        assert all(abs(grid[(m, 0)].imag) < 1e-14 for m in range(1, 11))
        assert all(a < b for a, b in zip(row, row[1:]))
        assert row[-1] < 1.0
        col = [abs(grid[(0, n)]) for n in range(4)]
        assert all(a < b for a, b in zip(col, col[1:]))
        args = [cmath.phase(grid[(m, 3)]) for m in range(11)]
        assert all(a > b for a, b in zip(args, args[1:]))
        assert all(abs(abs(grid[(m, 3)]) - 1.0) < 1e-9 for m in range(11))
        assert all(region_distance(_knoid_triangle(spec), grid[v]) <= 1e-9
                   for v in grid.domain.vertices)

    def test_deterministic(self):
        spec = BoundarySpec(3, 2, 6)
        r1 = solve_knoid(spec)
        r2 = solve_knoid(spec)
        assert np.array_equal(r1.grid.values, r2.grid.values)
        assert np.array_equal(r1.grid.inf, r2.grid.inf)
        assert r1.iterations == r2.iterations

    def test_strict_raises_when_starved(self):
        spec = BoundarySpec(3, 3, 10)
        with pytest.raises(NoConvergence) as err:
            solve_knoid(spec, tol=1e-14, max_iter=1)
        assert err.value.result is not None

    def test_negative_cap_is_bad_parameter(self):
        with pytest.raises(BadParameter, match="max_iter must be at least 0, got -1"):
            solve_knoid(BoundarySpec(3, 2, 6), max_iter=-1)

    def test_seed_length_check(self):
        # 3 parameters, and the 2 m_max + n_max - 1 = 13 of a boundary-only vector
        for length in (3, 13):
            with pytest.raises(InfeasibleSpec):
                solve_knoid(BoundarySpec(3, 2, 6), seed_params=np.zeros(length))


class TestStopRule:
    """The final stage ends at the rounding floor: once cr_max <= tol it keeps
    stepping while each accepted step at least halves cr_max, and stops at the
    first that does not, or at a rejected first trial.  The cases were checked
    with 1 to 4 OpenBLAS threads."""

    def test_stops_at_the_first_step_that_does_not_halve(self, trinoid_result):
        trace = trinoid_result.trace
        assert all(e["accepted"] for e in trace)
        below = [e["cr_max"] for e in trace if e["cr_max"] <= 1e-10]
        assert len(below) >= 2 and below[-1] == trace[-1]["cr_max"]
        assert all(b <= 0.5 * a for a, b in zip(below, below[1:-1]))
        assert trace[-1]["cr_max"] > 0.5 * trace[-2]["cr_max"]

    def test_stops_at_a_rejected_first_trial(self):
        # at the floor of this small grid the step after the last one here is
        # rejected, which ends the solve without escalating the damping
        result = solve_knoid(BoundarySpec(3, 2, 6))
        assert result.iterations == len(result.trace) == 7
        assert all(e["accepted"] for e in result.trace)
        assert result.trace[-1]["cr_max"] <= 0.5 * result.trace[-2]["cr_max"]
        assert result.trace[-1]["cr_max"] <= 1e-10

    def test_cut_while_halving_counts_as_converged(self):
        # the sixth iterate meets tol and halved cr_max, so the rule would step on
        result = solve_knoid(BoundarySpec(3, 3, 10), max_iter=6)    # a miss raises
        assert result.iterations == 6
        assert result.trace[-1]["cr_max"] <= 0.5 * result.trace[-2]["cr_max"]

    def test_solved_seed_takes_no_step(self, trinoid_result):
        again = solve_knoid(BoundarySpec(3, 3, 10), seed_params=trinoid_result.params)
        assert (again.iterations, again.trace) == (0, [])
        assert again.params.tobytes() == trinoid_result.params.tobytes()

    def test_settled_ends_at_a_rejected_first_trial(self):
        """A cost that no step can lower: settled ends the solve after one
        trial; without it the damping climbs to LAM_CAP."""
        calls = []

        def fun(x):
            calls.append(x)
            return np.array([x[0] - 1.0, 1e-3])

        def jac(_x):
            return np.array([[1.0], [0.0]])

        x0 = np.ones(1)
        assert levenberg_marquardt(fun, x0, lambda x: False, jac=jac,
                                   settled=lambda x: True)[1:] == (0, True)
        assert len(calls) == 2                 # the start and one trial
        calls.clear()
        assert levenberg_marquardt(fun, x0, lambda x: False, jac=jac)[1:] == (1, False)
        assert len(calls) > 10


# LM iterations of solve_platonic(name, resolution), the same with one and two
# OpenBLAS threads.  The continuation's LM steps follow every bit of the
# collocation kernels, so an edit that moves one can move these counts.
PLATONIC_ITERATIONS = {("tetrahedral", 2): 20, ("tetrahedral", 3): 23,
                       ("octahedral", 2): 25, ("octahedral", 3): 28,
                       ("icosahedral", 2): 29, ("icosahedral", 3): 30}


@pytest.fixture(scope="module")
def one_thread_platonic():
    """The iterations of each PLATONIC_ITERATIONS case, solved in a fresh
    process with one OpenBLAS thread."""
    done = run_bounded(
        "import json, os\n"
        "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
        "from minnet.bvp import solve_platonic\n"
        f"print(json.dumps([solve_platonic(*c).iterations for c in {list(PLATONIC_ITERATIONS)}]))")
    assert done.returncode == 0, done.stderr
    return dict(zip(PLATONIC_ITERATIONS, json.loads(done.stdout)))


class TestSolvePlatonic:
    def test_presets(self):
        tet = platonic_preset("tetrahedral")
        octa = platonic_preset("octahedral")
        ico = platonic_preset("icosahedral")
        assert tet.rotation_order == 12
        assert octa.rotation_order == 24
        assert ico.rotation_order == 60
        assert tet.angles == (math.pi / 2, math.pi / 3, math.pi / 3)
        assert octa.angles == (math.pi / 2, math.pi / 3, math.pi / 4)
        assert ico.angles == (math.pi / 2, math.pi / 3, math.pi / 5)
        with pytest.raises(InfeasibleSpec):
            platonic_preset("dodecahedral")

    @pytest.mark.parametrize("name", ["tetrahedral", "octahedral", "icosahedral"])
    def test_converges(self, name):
        result = solve_platonic(name, 3)    # a miss raises NoConvergence
        assert result.residuals["cross_ratio"] <= 1e-8
        assert result.residuals["boundary"] <= 1e-9
        assert result.iterations <= 500

    @pytest.mark.parametrize("name, resolution", list(PLATONIC_ITERATIONS))
    def test_iteration_count(self, name, resolution, one_thread_platonic):
        assert one_thread_platonic[name, resolution] == PLATONIC_ITERATIONS[name, resolution]

    def test_resolution_too_small(self):
        with pytest.raises(InfeasibleSpec):
            solve_platonic("tetrahedral", 1)

    def test_negative_cap_is_bad_parameter(self):
        with pytest.raises(BadParameter, match="max_iter must be at least 0, got -1"):
            solve_platonic("tetrahedral", 2, max_iter=-1)

    @pytest.mark.parametrize("max_iter", [0, 2])
    def test_iterations_stay_within_the_cap(self, max_iter):
        # caps that the catenoid start (4 iterations here) uses up: the first
        # continuation step used to take one more iteration all the same
        with pytest.raises(NoConvergence) as err:
            solve_platonic("tetrahedral", 2, max_iter=max_iter)
        result = err.value.result
        assert result.iterations == len(result.trace) == max_iter

    @pytest.mark.parametrize("name, resolution, max_iter, step", [
        ("tetrahedral", 2, 0, "1 of 4"), ("octahedral", 3, 10, "3 of 6")])
    def test_cut_short_continuation_is_measured_against_the_preset(
            self, name, resolution, max_iter, step):
        # the grid solves an intermediate triangle, so it misses the preset's
        # boundary by O(1); it used to be measured against its own triangle
        with pytest.raises(NoConvergence, match=f"^continuation stopped at step {step}: "
                           f"residuals .* after {max_iter} iterations$") as err:
            solve_platonic(name, resolution, max_iter=max_iter)
        result = err.value.result
        preset = _spherical_triangle(*platonic_preset(name).angles)
        assert result.residuals["boundary"] == bvp._bullet_deviation(result.grid, preset) > 0.3

    def test_wedge_and_circle_membership(self):
        result = solve_platonic("tetrahedral", 2)
        grid = result.grid
        dom = grid.domain
        # left column on the imaginary axis, bottom row real
        for n in range(dom.n0, dom.n1 + 1):
            z = grid[(0, n)]
            assert abs(z.real) < 1e-9
        for m in range(dom.m0, dom.m1 + 1):
            assert abs(grid[(m, dom.n0)].imag) < 1e-9
