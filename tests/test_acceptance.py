"""Acceptance suite: one test per top-level criterion, each printing a
pass/fail line with the measured figure against its pinned tolerance."""

import math
import time

import numpy as np
import pytest

from minnet.boundary import analyze_boundary_asymptotic, analyze_boundary_isothermic
from minnet.bvp import BoundarySpec, platonic_preset, solve_knoid, solve_platonic
from minnet.holomorphic import power_function
from minnet.minimal import (MinimalPair, gauss_map, is_asymptotic, mixed_area,
                            quad_curvatures, tangent_normals,
                            weierstrass_isothermic)
from minnet.mobius import Isometry, cross_ratio_complex, cross_ratio_quat
from minnet.net import is_circular, is_isothermic
from minnet.reflection import (build_orbit, corner_angles, reflect_isothermic,
                               rotate_extend_asymptotic)

from conftest import edge_label, invariance_residual, random_circle_points, rotation_matrix


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def knoid_results():
    return {k: solve_knoid(BoundarySpec(k, 3, 10), max_iter=500)
            for k in (3, 4, 5)}


def test_criterion_1_weierstrass_validity():
    gammas = [1.0, 1.5, 4 / 3, 3.0]
    worst_h = worst_circ = worst_closure = 0.0
    elapsed = 0.0
    for gamma in gammas:
        t0 = time.perf_counter()
        grid = power_function(gamma, 20, 20)
        f = weierstrass_isothermic(grid)
        elapsed = max(elapsed, time.perf_counter() - t0)
        n = gauss_map(grid)
        from minnet.minimal import _wei_increment
        for q in f.domain.quads:
            ok, res = is_circular(f, q, 1e-9)
            pts = f.quad_points(q)
            scale = max(np.linalg.norm(pts[2] - pts[0]), 1e-300)
            worst_circ = max(worst_circ, res / scale)
            worst_h = max(worst_h, abs(quad_curvatures(pts, n.quad_points(q)).H))
            i, j, k, l = grid.domain.quad_vertices(q)
            inc = lambda a, b: _wei_increment(
                grid[a], grid[b], edge_label(grid.labels, grid.domain, a, b), False)
            loop = inc(i, j) + inc(j, k) - inc(l, k) - inc(i, l)
            inc_scale = max(np.linalg.norm(inc(i, j)), np.linalg.norm(inc(i, l)))
            worst_closure = max(worst_closure, np.linalg.norm(loop) / inc_scale)
    ok = worst_h <= 1e-9 and worst_circ <= 1e-9 and worst_closure <= 1e-9 \
        and elapsed < 1.0
    _report("1 (Weierstrass validity)", ok,
            f"max|H|={worst_h:.2e}, circularity={worst_circ:.2e}, "
            f"closure={worst_closure:.2e}, build time at 20x20={elapsed:.3f}s")


def test_criterion_2_conjugacy(enneper_pairs, planar_enneper_pair):
    worst_star = worst_normal = 0.0
    pairs = list(enneper_pairs.values()) + [planar_enneper_pair]
    for pair in pairs:
        report = is_asymptotic(pair.asymptotic, 1e-9)
        worst_star = max(worst_star, report.max_residual)
        normals, lift = tangent_normals(pair.asymptotic), pair.gauss.points
        worst_normal = max(worst_normal,
                           np.minimum(np.linalg.norm(normals - lift, axis=1),
                                      np.linalg.norm(normals + lift, axis=1)).max())
    ok = worst_star <= 1e-9 and worst_normal <= 1e-9
    _report("2 (conjugacy)", ok,
            f"star coplanarity={worst_star:.2e}, normals vs lift={worst_normal:.2e}")


def test_criterion_3_steiner(enneper_pairs, planar_enneper_pair):
    rng = np.random.default_rng(777)
    pairs = list(enneper_pairs.values()) + [planar_enneper_pair]
    quads = [(pair, q) for pair in pairs
             for q in pair.isothermic.domain.quads]
    picks = rng.choice(len(quads), size=100, replace=False)
    worst = 0.0
    for idx in picks:
        pair, q = quads[int(idx)]
        t = float(rng.uniform(-1.0, 1.0))
        qf = pair.isothermic.quad_points(q)
        qn = pair.gauss.quad_points(q)
        qc = quad_curvatures(qf, qn)
        shifted = [p + t * v for p, v in zip(qf, qn)]
        af = mixed_area(qf, qf)
        nhat = af / np.linalg.norm(af)
        offset_area = float(mixed_area(shifted, shifted, 1e-6) @ nhat)
        predicted = (1.0 - 2.0 * t * qc.H + t * t * qc.K) * qc.areaF
        worst = max(worst, abs(offset_area - predicted) / abs(qc.areaF))
    ok = worst <= 1e-9
    _report("3 (Steiner identity)", ok, f"worst relative deviation={worst:.2e} "
            f"over 100 random quads")


def test_criterion_4_angle_anchors(enneper_pairs, planar_enneper_pair,
                                   knoid_results):
    entries = []
    for k, pair in enneper_pairs.items():
        ap, aq = corner_angles(pair.isothermic, pair.gauss, (0, 0))
        entries.append((f"enneper k={k}", ap, math.pi / (k + 1), ap + aq))
    ap, aq = corner_angles(planar_enneper_pair.isothermic,
                           planar_enneper_pair.gauss, (0, 0))
    entries.append(("planar enneper", ap, math.pi / 2, ap + aq))
    for k, result in knoid_results.items():
        pair = MinimalPair.from_grid(result.grid)
        ap, aq = corner_angles(pair.isothermic, pair.gauss, (0, 0))
        entries.append((f"{k}-noid", ap, math.pi / k, ap + aq))
    worst_angle = max(abs(ap - target) for _, ap, target, _ in entries)
    worst_supp = max(abs(s - math.pi) for _, _, _, s in entries)
    ok = worst_angle <= 1e-6 and worst_supp <= 1e-9
    _report("4 (angle anchors)", ok,
            f"worst anchor error={worst_angle:.2e}, "
            f"supplementary defect={worst_supp:.2e} "
            f"({', '.join(name for name, *_ in entries)})")


def test_criterion_5_reflection_theorems(enneper_pairs, planar_enneper_pair):
    worst_h = worst_star = 0.0
    duality_ok = True
    pairs = list(enneper_pairs.values()) + [planar_enneper_pair]
    for pair in pairs:
        f, ft, n = pair.isothermic, pair.asymptotic, pair.gauss
        labels = pair.grid.labels
        f_ext, n_ext, lab_ext = reflect_isothermic(f, n, 0, labels=labels)
        rep = is_isothermic(f_ext, lab_ext, 1e-9)
        assert rep.ok
        for q in f_ext.domain.quads:
            worst_h = max(worst_h, abs(quad_curvatures(
                f_ext.quad_points(q), n_ext.quad_points(q)).H))
        ft_ext, _ = rotate_extend_asymptotic(ft, 0, labels=labels)
        worst_star = max(worst_star, is_asymptotic(ft_ext, 1e-9).max_residual)
        dom = f.domain
        for axis, idx in (("row", dom.n0), ("row", dom.n1),
                          ("col", dom.m0), ("col", dom.m1)):
            iso = analyze_boundary_isothermic(f, n, idx, axis)
            asym = analyze_boundary_asymptotic(ft, idx, axis)
            planar = iso.holds(1e-9)
            straight = asym.holds(1e-9)
            duality_ok = duality_ok and (planar == straight)
            if planar:
                duality_ok = duality_ok and \
                    iso.residual <= 1e-9 * f.scale() and \
                    asym.residual <= 1e-9 * ft.scale()
    ok = worst_h <= 1e-9 and worst_star <= 1e-9 and duality_ok
    _report("5 (reflection theorems)", ok,
            f"seam max|H|={worst_h:.2e}, extended star residual={worst_star:.2e}, "
            f"line<->plane duality agreement={duality_ok}")


def test_criterion_6_global_closure(enneper_pair):
    f, n = enneper_pair.isothermic, enneper_pair.gauss
    row = analyze_boundary_isothermic(f, n, 0, "row")
    col = analyze_boundary_isothermic(f, n, 0, "col")
    angle = math.acos(abs(float(row.plane.normal @ col.plane.normal)))
    r1, r2 = (Isometry.plane_reflection(a.plane) for a in (row, col))
    orbit = build_orbit(f, [row, col], max_word=12)
    radius = 1e-9 * orbit.scale()
    inv = max(invariance_residual(orbit.vertices, r, radius) for r in (r1, r2))
    ok = (len(orbit.elements) == 8 and orbit.weld_residual <= 1e-9
          and inv <= 1e-9 * orbit.scale()
          and abs(angle - math.pi / 4) < 1e-9)
    _report("6 (global closure)", ok,
            f"plane angle={angle:.9f} (pi/4), group order={len(orbit.elements)}, "
            f"weld={orbit.weld_residual:.2e}, generator invariance={inv:.2e}")


def test_criterion_7_knoid_and_platonic(knoid_results):
    details = []
    ok = True
    for k, result in knoid_results.items():
        t0 = time.perf_counter()
        pair = MinimalPair.from_grid(result.grid)
        f, n = pair.isothermic, pair.gauss
        row = analyze_boundary_isothermic(f, n, 0, "row")
        col = analyze_boundary_isothermic(f, n, 0, "col")
        orbit = build_orbit(f, [row, col], max_word=12)
        axis = np.cross(row.plane.normal, col.plane.normal)
        axis /= np.linalg.norm(axis)
        mats = np.vstack([row.plane.normal, col.plane.normal])
        offs = np.array([row.plane.offset, col.plane.offset])
        point, *_ = np.linalg.lstsq(mats, offs, rcond=None)
        rot_mat = rotation_matrix(axis, 2.0 * math.pi / k)
        rotation = Isometry(rot_mat, point - rot_mat @ point)
        invariance = invariance_residual(orbit.vertices, rotation, 1e-6 * orbit.scale())
        elapsed = time.perf_counter() - t0
        good = (result.iterations <= 500
                and result.residuals["cross_ratio"] <= 1e-8
                and result.residuals["boundary"] <= 1e-6
                and len(orbit.elements) == 2 * k
                and invariance <= 1e-5)
        ok = ok and good
        details.append(f"k={k}: cr={result.residuals['cross_ratio']:.1e} "
                       f"iters={result.iterations} ring={len(orbit.elements)} "
                       f"rot(2pi/{k}) residual={invariance:.1e}")
        assert elapsed < 60.0
    for name in ("tetrahedral", "octahedral", "icosahedral"):
        t0 = time.perf_counter()
        result = solve_platonic(name, 3, max_iter=500)
        pair = MinimalPair.from_grid(result.grid)
        f, n = pair.isothermic, pair.gauss
        dom = f.domain
        mirrors = [analyze_boundary_isothermic(f, n, idx, axis)
                   for axis, idx in (("row", dom.n0), ("col", dom.m0),
                                     ("row", dom.n1))]
        order = platonic_preset(name).rotation_order
        full = build_orbit(f, mirrors, max_word=20)
        rotations = [e for e in full.elements if e.det() > 0]
        elapsed = time.perf_counter() - t0
        good = (len(rotations) == order
                and len(full.elements) == 2 * order
                and full.closure_residual() <= 1e-6)
        ok = ok and good
        details.append(f"{name}: cr={result.residuals['cross_ratio']:.1e} "
                       f"rotations={len(rotations)}/{order} "
                       f"full={len(full.elements)}")
        assert elapsed < 60.0
    _report("7 (k-noid and Platonic reproduction)", ok, "; ".join(details))


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(4242)
    worst_cr = 0.0
    count = 0
    while count < 1000:
        pts, angles, (center, u, v) = random_circle_points(rng)
        # independent oracle: complex cross ratio of the in-plane coordinates
        zs = [complex(float((p - center) @ u), float((p - center) @ v))
              for p in pts]
        try:
            oracle = cross_ratio_complex(*zs)
            quat = cross_ratio_quat(*pts)
        except Exception:
            continue
        count += 1
        worst_cr = max(worst_cr, abs(quat.re - oracle.real),
                       abs(quat.im_mag - abs(oracle.imag)))
    from minnet.holomorphic import propagate_fourth
    worst_rt = 0.0
    for _ in range(1000):
        g1, g2, g4 = (complex(a, b) for a, b in rng.normal(size=(3, 2)))
        if min(abs(g1 - g2), abs(g1 - g4), abs(g2 - g4)) < 1e-2:
            continue
        q = rng.uniform(-3.0, -0.3)
        g3 = propagate_fourth(g1, g2, g4, q)
        from minnet.mobius import is_inf
        if is_inf(g3):
            continue
        worst_rt = max(worst_rt,
                       abs(cross_ratio_complex(g1, g2, g3, g4) - q))
    ok = worst_cr <= 1e-10 and worst_rt <= 1e-12
    _report("8 (oracle equivalence)", ok,
            f"quat vs complex oracle={worst_cr:.2e} on 1000 concircular quads, "
            f"propagation round-trip={worst_rt:.2e}")
