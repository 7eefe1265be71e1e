import math

import numpy as np
import pytest

from minnet.errors import DegenerateFit, DegenerateQuad
from minnet.mobius import (INF, Isometry, LineR3, PlaneR3,
                           Quaternion, cross_ratio_complex, cross_ratio_quat,
                           fit_line, fit_plane, fit_plane_through_origin,
                           stereographic_lift)

from conftest import (OVERFLOWING, random_circle_points, random_similarity, rotation_matrix,
                      run_bounded, sphere_inversion, stereographic_project)


def quat_close(a, b, tol=1e-12):
    return all(abs(x - y) <= tol for x, y in
               ((a.w, b.w), (a.x, b.x), (a.y, b.y), (a.z, b.z)))


class TestQuaternion:
    def test_associativity_and_distributivity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b, c = (Quaternion(*rng.normal(size=4)) for _ in range(3))
            scale = max(q.norm() for q in (a, b, c)) ** 3
            lhs = (a * b) * c
            rhs = a * (b * c)
            assert quat_close(lhs, rhs, 1e-12 * max(scale, 1.0))
            lhs = a * (b + c)
            rhs = a * b + a * c
            assert quat_close(lhs, rhs, 1e-12 * max(scale, 1.0))

    def test_inverse(self):
        rng = np.random.default_rng(2)
        one = Quaternion(1.0, 0.0, 0.0, 0.0)
        for _ in range(50):
            q = Quaternion(*rng.normal(size=4))
            if q.norm() <= 1e-9:
                continue
            assert quat_close(q * q.inverse(), one, 1e-12)

    def test_inverse_rejects_tiny(self):
        with pytest.raises(DegenerateQuad):
            Quaternion(0.0, 1e-13, 0.0, 0.0).inverse()

    def test_point_embedding_is_pure_imaginary(self):
        q = Quaternion.from_point([1.0, 2.0, 3.0])
        assert q.w == 0.0 and (q.x, q.y, q.z) == (1.0, 2.0, 3.0)


class TestCrossRatioQuat:
    def test_unit_square(self):
        cr = cross_ratio_quat((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))
        assert abs(cr.re + 1.0) < 1e-14
        assert cr.im_mag < 1e-14

    def test_collinear_points(self):
        # direct quaternion arithmetic oracle: for collinear points the
        # cross ratio reduces to the real formula (a-b)(b-c)^-1(c-d)(d-a)^-1
        a, b, c, d = 0.0, 1.0, 2.0, 3.0
        expected = (a - b) / (b - c) * (c - d) / (d - a)
        cr = cross_ratio_quat((0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0))
        assert abs(cr.re - expected) < 1e-14
        assert abs(expected + 1.0 / 3.0) < 1e-15
        assert cr.im_mag < 1e-14

    def test_mobius_invariance_under_sphere_inversion(self):
        square = [np.array(p, float) for p in
                  [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]]
        image = [sphere_inversion(p, (5, 5, 5), 1.0) for p in square]
        cr = cross_ratio_quat(*image)
        assert abs(cr.re + 1.0) < 1e-9
        assert cr.im_mag <= 1e-9

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateQuad):
            cross_ratio_quat((0, 0, 0), (0, 0, 0), (1, 1, 0), (0, 1, 0))

    def test_similarity_invariance_on_random_concircular_quads(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            pts, _, _ = random_circle_points(rng)
            base = cross_ratio_quat(*pts)
            move, _ = random_similarity(rng)
            moved = cross_ratio_quat(*[move(p) for p in pts])
            assert abs(base.re - moved.re) < 1e-9 * max(1.0, abs(base.re))
            assert moved.im_mag < 1e-9 * max(1.0, abs(base.re))


class TestCrossRatioComplex:
    def test_square(self):
        assert abs(cross_ratio_complex(0j, 1 + 0j, 1 + 1j, 1j) + 1.0) < 1e-14

    def test_collinear(self):
        assert abs(cross_ratio_complex(0j, 1 + 0j, 2 + 0j, 3 + 0j) + 1 / 3) < 1e-14

    def test_infinity_cancellation(self):
        # (g2-g3)^-1 (g3-g4) -> -1 leaves (0-1) * -1 / (i-0) = -i
        value = cross_ratio_complex(0j, 1 + 0j, INF, 1j)
        assert abs(value - (-1j)) < 1e-14

    def test_infinity_every_slot(self):
        finite = cross_ratio_complex(0j, 1 + 0j, 3 + 1j, 1j)
        for slot in range(4):
            vals = [0j, 1 + 0j, 3 + 1j, 1j]
            vals[slot] = INF
            out = cross_ratio_complex(*vals)
            assert out is not INF and np.isfinite(abs(out))

    def test_agrees_with_quaternionic_on_planar_quads(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            z = rng.normal(size=4) + 1j * rng.normal(size=4)
            if min(abs(z[i] - z[(i + 1) % 4]) for i in range(4)) < 1e-3:
                continue
            cc = cross_ratio_complex(*z)
            cq = cross_ratio_quat(*[(v.real, v.imag, 0.0) for v in z])
            assert abs(cc.real - cq.re) < 1e-10 * max(1.0, abs(cc))
            assert abs(abs(cc.imag) - cq.im_mag) < 1e-10 * max(1.0, abs(cc))


class TestStereographic:
    def test_poles_and_equator(self):
        assert np.allclose(stereographic_lift(0j), [0, 0, -1])
        assert np.allclose(stereographic_lift(1 + 0j), [1, 0, 0])
        assert np.allclose(stereographic_lift(INF), [0, 0, 1])

    def test_unit_norm_and_injectivity(self):
        rng = np.random.default_rng(5)
        seen = []
        for _ in range(200):
            g = complex(rng.normal(), rng.normal()) * rng.uniform(0.1, 50)
            v = stereographic_lift(g)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            seen.append((g, v))
        for i in range(0, len(seen) - 1, 2):
            g1, v1 = seen[i]
            g2, v2 = seen[i + 1]
            if abs(g1 - g2) > 1e-6:
                assert np.linalg.norm(v1 - v2) > 0

    def test_projection_inverts_lift(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            g = complex(rng.normal(), rng.normal())
            back = stereographic_project(stereographic_lift(g))
            assert abs(back - g) < 1e-9 * max(1.0, abs(g)) ** 2
        assert stereographic_project([0.0, 0.0, 1.0]) is INF

    def test_huge_modulus(self):
        v = stereographic_lift(1e200 + 0j)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert v[2] > 1 - 1e-12


class TestIsometry:
    def test_plane_reflection_example(self):
        iso = Isometry.plane_reflection(PlaneR3((0, 0, 1), 0.0))
        assert np.allclose(iso.apply((1, 2, 3)), [1, 2, -3])
        assert iso.det() < 0

    def test_line_rotation_example(self):
        iso = Isometry.line_rotation_180(LineR3((0, 0, 0), (0, 0, 1)))
        assert np.allclose(iso.apply((1, 0, 0)), [-1, 0, 0])
        assert iso.det() > 0

    def test_involution_and_orthogonality(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            plane = PlaneR3(rng.normal(size=3), rng.normal())
            line = LineR3(rng.normal(size=3), rng.normal(size=3))
            for iso in (Isometry.plane_reflection(plane),
                        Isometry.line_rotation_180(line)):
                assert np.abs(iso.matrix.T @ iso.matrix - np.eye(3)).max() < 1e-12
                p = rng.normal(size=3) * 4
                assert np.linalg.norm(iso.apply(iso.apply(p)) - p) < 1e-12

    def test_distance_preservation_and_fixed_set(self):
        rng = np.random.default_rng(8)
        plane = PlaneR3((0.0, 1.0, 1.0), 0.5)
        iso = Isometry.plane_reflection(plane)
        p, q = rng.normal(size=3), rng.normal(size=3)
        assert abs(np.linalg.norm(iso.apply(p) - iso.apply(q))
                   - np.linalg.norm(p - q)) < 1e-12
        on_plane = plane.offset * plane.normal
        assert np.linalg.norm(iso.apply(on_plane) - on_plane) < 1e-12

    def test_compose_inverse(self):
        # both are involutions, so (a∘b)⁻¹ = b∘a
        a = Isometry.plane_reflection(PlaneR3((1, 0, 0), 1.0))
        b = Isometry.line_rotation_180(LineR3((0, 1, 0), (1, 1, 0)))
        c = a.compose(b)
        assert c.compose(b.compose(a)).distance(Isometry.identity()) <= 1e-12

    def test_rotation_matrix(self):
        rot = rotation_matrix((0, 0, 1), math.pi / 2)
        assert np.allclose(rot @ [1, 0, 0], [0, 1, 0])


class TestFits:
    def test_plane_exact_square(self):
        plane, res = fit_plane([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
        assert res < 1e-14
        assert abs(abs(plane.normal[2]) - 1.0) < 1e-12

    def test_plane_perturbed_square_matches_ls_oracle(self):
        # independent oracle: minimize the sum of squared distances over
        # plane orientation angles with a generic optimizer
        from scipy.optimize import minimize

        pts = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 1e-3)], float)

        def sumsq(angles):
            th, ph = angles
            n = np.array([math.sin(th) * math.cos(ph),
                          math.sin(th) * math.sin(ph), math.cos(th)])
            d = pts @ n
            return np.sum((d - d.mean()) ** 2)

        best = min((minimize(sumsq, x0, method="Nelder-Mead")
                    for x0 in ([0.1, 0.1], [0.4, 2.0], [0.05, 4.0])),
                   key=lambda r: r.fun)
        plane, res = fit_plane(pts)
        d = pts @ plane.normal
        assert abs(np.sum((d - d.mean()) ** 2) - best.fun) < 1e-12
        assert 1e-4 <= res <= 1e-3

    def test_three_generic_points_exact(self):
        _, res = fit_plane([(0, 0, 0), (1, 0.2, 0.5), (-0.3, 1, 2)])
        assert res < 1e-13

    def test_collinear_raises(self):
        with pytest.raises(DegenerateFit):
            fit_plane([(0, 0, 0), (1, 1, 1), (2, 2, 2), (3, 3, 3)])

    def test_plane_through_origin(self):
        pts = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0.6, 0.8, 0)]
        plane, res = fit_plane_through_origin(pts)
        assert res < 1e-12
        assert plane.offset == 0.0
        assert abs(abs(plane.normal[2]) - 1.0) < 1e-12

    def test_line_fit(self):
        line, res = fit_line([(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0)])
        assert res < 1e-13
        assert abs(abs(line.direction @ np.array([1, 1, 0]) / math.sqrt(2)) - 1) < 1e-12
        with pytest.raises(DegenerateFit):
            fit_line([(1, 1, 1), (1, 1, 1)])

    @pytest.mark.parametrize("fit", ["fit_plane", "fit_line"])
    def test_overflowing_centroid_raises(self, fit):
        """In a subprocess, since LAPACK's SVD of the non-finite centred
        points did not return."""
        done = run_bounded(f"from minnet.errors import DegenerateFit\n"
                           f"from minnet.mobius import {fit}\n"
                           f"try:\n    {fit}({OVERFLOWING})\n"
                           f"except DegenerateFit as exc:\n    print(exc)\n")
        assert done.stdout == "centred points are not finite\n", done.stderr

