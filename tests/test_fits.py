"""net.plane_fits, the batched scatter-matrix plane fit, against the SVD
oracle in conftest and the written bound, and the battery's fit count."""

import numpy as np
import pytest

import minnet.battery
import minnet.boundary
import minnet.minimal
import minnet.net
from minnet.battery import circularity_residuals, plane_fits, planarity_residuals
from minnet.cli import main
from minnet.holomorphic import power_function
from minnet.minimal import MinimalPair

from conftest import FIT_BOUND, fit_error_bound, svd_plane_fits

EPS = np.finfo(float).eps


def assert_residuals_within_bound(pts):
    """Planarity (and, for quads, circularity) by plane_fits and by the SVD
    differ by at most the written bound on every set."""
    fit, oracle, bound = plane_fits(pts), svd_plane_fits(pts), fit_error_bound(pts)
    checks = [planarity_residuals] + ([circularity_residuals] if pts.shape[1] == 4 else [])
    for residuals in checks:
        got, want = residuals(pts, fit), residuals(pts, oracle)
        assert (np.isinf(got) == np.isinf(want)).all(), residuals.__name__
        finite = np.isfinite(want)
        assert (np.abs(got - want)[finite] <= bound[finite]).all(), residuals.__name__


def thin_quads(rng, count: int, thinness: float) -> np.ndarray:
    """Concircular quads on arcs that span `thinness` radians, moved off their
    plane by 1e-3 of their sagitta, rotated and shifted at random: s0/s1 is
    about 1/thinness."""
    angle = np.sort(rng.uniform(0.0, thinness, size=(count, 4)), axis=1)
    radius = rng.uniform(0.1, 10.0, size=(count, 1))
    lift = rng.normal(size=(count, 4)) * radius * thinness ** 2 * 1e-3
    flat = np.stack([radius * np.cos(angle), radius * np.sin(angle), lift], axis=2)
    turn = np.linalg.qr(rng.normal(size=(count, 3, 3)))[0]
    return flat @ turn + rng.normal(size=(count, 1, 3)) * radius[..., None]


@pytest.mark.parametrize("k", [3, 4, 5])
def test_fits_equal_the_svd_on_random_sets(k):
    rng = np.random.default_rng(100 + k)
    pts = (rng.normal(size=(4000, k, 3)) * rng.uniform(1e-3, 1e3, size=(4000, 1, 1))
           + rng.normal(size=(4000, 1, 3)))
    fit, oracle = plane_fits(pts), svd_plane_fits(pts)
    assert np.abs(fit.vt @ fit.vt.transpose(0, 2, 1) - np.eye(3)).max() < 1e-14
    assert (np.diff(fit.s, axis=1) <= 0).all()
    s0 = oracle.s[:, :1]
    assert (np.abs(fit.s ** 2 - oracle.s ** 2) <= FIT_BOUND * EPS * s0 * s0).all()
    assert_residuals_within_bound(pts)


@pytest.mark.parametrize("thinness", [1e-1, 1e-3, 1e-5])
def test_fits_on_thin_quads(thinness):
    pts = thin_quads(np.random.default_rng(7), 2000, thinness)
    s = svd_plane_fits(pts).s
    assert np.median(s[:, 0] / s[:, 1]) > 0.1 / thinness
    assert_residuals_within_bound(pts)


@pytest.mark.parametrize("gamma, size", [(1.5, 24), (3.0, 16), (4 / 3, 80)],
                         ids=["enneper3-24", "planar16", "enneper2-80"])
def test_fits_on_enneper_pieces(gamma, size):
    pair = MinimalPair.from_grid(power_function(gamma, size, size))
    for net in (pair.isothermic, pair.gauss, pair.asymptotic):
        assert_residuals_within_bound(net.quad_array())
    every = np.arange(len(pair.asymptotic.points))
    for _, pts in minnet.minimal._vertex_stars(pair.asymptotic, every):
        assert_residuals_within_bound(pts)


def line_sets(offset: float) -> np.ndarray:
    """Quads on a line, axis-parallel and skew, with the points of the skew one
    moved up to offset * s0 off the line within a plane."""
    t = np.array([0.0, 1.0, 2.5, 4.0])
    skew = np.array([0.3, -0.7, 0.2]) / np.linalg.norm([0.3, -0.7, 0.2])
    across = np.cross(skew, [1.0, 0.0, 0.0]) / np.linalg.norm(np.cross(skew, [1.0, 0.0, 0.0]))
    along = np.stack([t, 0.0 * t, 0.0 * t], axis=1)
    moved = (t[:, None] * skew + [1.0, 2.0, 3.0]
             + offset * 4.0 * np.array([0.0, 1.0, -1.0, 0.5])[:, None] * across)
    return np.stack([along, moved])


@pytest.mark.parametrize("offset", [0.0, 1e-14, 1e-13])
def test_collinear_sets(offset):
    """Points within 1e-12 s0 of a line span no plane: planarity 0 and
    circularity inf.  Through the scatter matrix s1 is resolved only down to
    about 1e-8 s0, so the distances to the line decide."""
    pts = line_sets(offset)
    assert planarity_residuals(pts).tolist() == [0.0, 0.0]
    assert circularity_residuals(pts).tolist() == [np.inf, np.inf]


def test_sets_just_off_a_line_are_not_collinear():
    pts = line_sets(1e-10)[1:]
    assert np.isfinite(circularity_residuals(pts)).all()
    assert planarity_residuals(pts) <= fit_error_bound(pts)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_coincident_points(k):
    pts = np.tile([[0.1, -2.0, 7.0]], (2, k, 1))
    pts[1] = 1e300
    assert planarity_residuals(pts).tolist() == [0.0, 0.0]
    if k == 4:
        assert circularity_residuals(pts).tolist() == [np.inf, np.inf]


def test_verify_fits_each_point_set_once(tmp_path, monkeypatch):
    """One verify of the grid piece (Enneper K=3, side 24) fits two whole-net
    stacks: the iso quads and the asymptotic 5-point stars.  Circularity and
    minimality share the iso fit; asymptotic_stars and conjugate_normals the
    star fit.  No check fits the Gauss or the asymptotic quads."""
    base = str(tmp_path / "enn")
    assert main(["generate", "enneper", "--k", "3", "--size", "24", "--out", base]) == 0
    shapes, svd_shapes = [], []

    def counted(pts):
        shapes.append(pts.shape)
        return plane_fits(pts)

    def counted_svd(a, *args, **kwargs):
        svd_shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    svd = np.linalg.svd
    for module in (minnet.net, minnet.minimal, minnet.battery):
        if hasattr(module, "plane_fits"):
            monkeypatch.setattr(module, "plane_fits", counted)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    stars, quads = (23 * 23, 5, 3), (24 * 24, 4, 3)
    for net, companions, whole in (
            ("iso", ("grid", "asym"), [stars, quads]),
            # a file without normals is the asymptotic net when it passes
            # is_asymptotic; the battery reuses that test's star fits
            ("asym", ("grid", "iso"), [stars, quads]),
            ("asym", (), [stars])):
        shapes.clear()
        argv = ["verify", f"{base}.{net}.dnet.json"]
        for flag, companion in zip(("--grid", "--conjugate"), companions):
            argv += [flag, f"{base}.{companion}.dnet.json"]
        assert main(argv) == 0
        assert sorted(shape for shape in shapes if shape[0] >= 23 * 23) == whole, argv
        # the boundary stars (4 corners of 3 points, 92 of 4) are fitted once
        # too, with the 5-point stars, for their normals
        assert sorted(shapes) == [(4, 3, 3), (92, 4, 3)] + whole, argv
    assert all(shape[0] < 23 * 23 for shape in svd_shapes)


def test_generate_orbit_fits_each_boundary_line_once(tmp_path, monkeypatch):
    """The battery's boundary checks and the orbit's mirrors share one plane
    fit of F and F + N per boundary line, each deciding it at its own tolerance."""
    fits = []

    def counted(points):
        fits.append(len(points))
        return fit_plane(points)

    fit_plane = minnet.boundary.fit_plane
    monkeypatch.setattr(minnet.boundary, "fit_plane", counted)
    assert main(["generate", "enneper", "--k", "3", "--size", "8", "--orbit",
                 "--out", str(tmp_path / "enn")]) == 0
    assert fits == [18] * 4
