import math

import numpy as np
import pytest

from minnet.boundary import (BoundaryAnalysis, analyze_boundary_asymptotic,
                             analyze_boundary_isothermic, boundary_vertices)
from minnet.bvp import BoundarySpec, solve_knoid, solve_platonic
from minnet.errors import NotPlanarBoundary, NotReflectable, OrbitExplosion
from minnet.holomorphic import HoloGrid, power_function
from minnet.lattice import EdgeLabels, LatticeDomain, Net3
from minnet.minimal import (MinimalPair, is_asymptotic, quad_curvatures, tangent_normals,
                            weierstrass_asymptotic, weierstrass_isothermic)
from minnet.mobius import Isometry, PlaneR3, fit_plane, fit_plane_through_origin
from minnet.net import is_isothermic
from minnet.reflection import (_mirror_domain, _mirror_labels, build_orbit, close_group,
                               corner_angles, reflect_isothermic, rotate_extend_asymptotic)

from conftest import invariance_residual, run_bounded, stereographic_project


def sphere_band(radius=2.0, rows=2, cols=6, dphi=0.25, dtheta=0.2):
    """Lat-long band on a sphere below the equator; top row is the equator."""
    dom = LatticeDomain((0, cols), (-rows, 0))
    positions = {}
    for (m, n) in dom.vertices:
        phi = m * dphi
        theta = n * dtheta
        positions[(m, n)] = radius * np.array(
            [math.cos(phi) * math.cos(theta),
             math.sin(phi) * math.cos(theta), math.sin(theta)])
    net = Net3(dom, [positions[v] for v in dom.vertices])
    normals = Net3(dom, [positions[v] / radius for v in dom.vertices], check_edges=False)
    return net, normals, radius


def gauss_image(pair, index, axis):
    """The Gauss normals along the boundary row (column) at index."""
    return pair.gauss.points[boundary_vertices(pair.gauss.domain, index, axis)]


class TestAnalyzeIsothermic:
    def test_enneper_boundaries(self, enneper_pair):
        """Row 0 and column 0 are planar curvature lines, and the Gauss image
        of each lies on the great circle parallel to its plane."""
        f, n = enneper_pair.isothermic, enneper_pair.gauss
        for axis, idx in (("row", 0), ("col", 0)):
            a = analyze_boundary_isothermic(f, n, idx, axis)
            assert a.kind == "planar_curvature_line"
            circle, residual = fit_plane_through_origin(gauss_image(enneper_pair, idx, axis))
            assert residual <= 1e-9
            assert np.linalg.norm(np.cross(circle.normal, a.plane.normal)) <= 1e-9

    def test_generic_row_is_none(self, enneper_pair):
        f, n = enneper_pair.isothermic, enneper_pair.gauss
        a = analyze_boundary_isothermic(f, n, f.domain.n1, "row")
        assert a.kind == "none"
        assert a.residuals["congruence_plane"] > 1e-3

    def test_far_line_of_a_large_net_reads_its_tilt(self):
        """On the side-12 Enneper piece, about 7,000 across, the fit of F and
        F + N with unit N follows F: the far row fits within 1.3e-4 of its
        size, but its normals leave the plane by O(1), so the residual reads
        O(1) of the size even at tol 1e-3.  Row 0 reads roundoff."""
        pair = MinimalPair.from_grid(power_function(1.5, 12, 12))
        f, n = pair.isothermic, pair.gauss
        far = analyze_boundary_isothermic(f, n, 12, "row", 1e-3)
        assert far.kind == "none"
        assert far.residuals["congruence_plane"] > 0.5 * far.scale
        near = analyze_boundary_isothermic(f, n, 0, "row", 1e-3)
        assert near.kind == "planar_curvature_line"
        assert near.residuals["congruence_plane"] <= 1e-13 * near.scale

    def test_cone_normals_small_circle(self):
        # planar row whose tilted normals sit on a small circle: the row
        # itself is planar but the congruence leaves the plane
        dom = LatticeDomain((0, 5), (0, 1))
        tilt = 0.5
        positions, normals = {}, {}
        for (m, n) in dom.vertices:
            phi = 0.3 * m
            r = 2.0 + 0.8 * n
            positions[(m, n)] = np.array([r * math.cos(phi), r * math.sin(phi),
                                          1.2 * n])
            normals[(m, n)] = np.array([math.cos(tilt) * math.cos(phi),
                                        math.cos(tilt) * math.sin(phi),
                                        math.sin(tilt)])
        net = Net3(dom, [positions[v] for v in dom.vertices])
        nrm = Net3(dom, [normals[v] for v in dom.vertices], check_edges=False)
        a = analyze_boundary_isothermic(net, nrm, 0, "row")
        assert a.kind == "none"
        ring = nrm.points[boundary_vertices(dom, 0, "row")]
        assert fit_plane(ring)[1] <= 1e-9                   # a circle,
        assert fit_plane_through_origin(ring)[1] > 1e-3     # but not a great one

    def test_overflowed_scale_is_not_planar(self):
        """A row from -1e308 to 1e308 has an infinite extent, and with zero
        normals its points and F + N lie on one line, so the plane fit fails
        with an infinite residual: inf <= tol * inf must not make it planar."""
        dom = LatticeDomain((0, 1), (0, 1))
        nrm = Net3(dom, np.zeros((4, 3)), check_edges=False)
        with np.errstate(over="ignore"):
            net = Net3(dom, [[-1e308, 0, 0], [-1e308, 1, 0], [1e308, 0, 0], [1e308, 1, 0]])
            a = analyze_boundary_isothermic(net, nrm, 0, "row")
        assert a.scale == math.inf and a.residuals["congruence_plane"] == math.inf
        assert a.kind == "none" and a.plane is None

    def test_overflowing_centroid_is_not_planar(self):
        """Row 0 and its F + N are the points OVERFLOWING, whose centroid
        overflows: the plane fit used to hang in LAPACK's SVD, so this runs
        in a subprocess."""
        done = run_bounded(
            "from minnet.boundary import analyze_boundary_isothermic\n"
            "from minnet.lattice import LatticeDomain, Net3\n"
            "dom = LatticeDomain((0, 1), (0, 1))\n"
            "net = Net3(dom, [[0, 0, 0], [0, 0, 1], [1.5e308, 1.5e308, 0], [1.5e308, 1.5e308, 1]])\n"
            "nrm = Net3(dom, [[0, 0, 1]] * 4, check_edges=False)\n"
            "print(analyze_boundary_isothermic(net, nrm, 0, 'row').kind)\n")
        assert done.stdout == "none\n", done.stderr


class TestAnalyzeAsymptotic:
    def test_conjugate_enneper_boundary(self, enneper_pair):
        """Row 0 of the conjugate net is straight, and the tangent-plane
        normals along it lie in the plane perpendicular to it."""
        ft = enneper_pair.asymptotic
        a = analyze_boundary_asymptotic(ft, 0, "row")
        assert a.kind == "straight_asymptotic_line"
        normals = tangent_normals(ft, boundary_vertices(ft.domain, 0, "row"))
        assert np.abs(normals @ a.line.direction).max() < 1e-9

    def test_generic_row_is_none(self, enneper_pair):
        ft = enneper_pair.asymptotic
        a = analyze_boundary_asymptotic(ft, ft.domain.n1, "row")
        assert a.kind == "none"

    def test_line_direction_is_gauss_plane_normal(self, enneper_pair):
        # along a straight asymptotic line the edges are parallel to the
        # normal of the plane of the Gauss image
        ft, lift = enneper_pair.asymptotic, enneper_pair.gauss
        a = analyze_boundary_asymptotic(ft, 0, "row")
        npts = np.array([lift[(m, 0)] for m in range(ft.domain.m0,
                                                     ft.domain.m1 + 1)])
        plane, res = fit_plane_through_origin(npts)
        assert res < 1e-9
        cross = np.linalg.norm(np.cross(plane.normal, a.line.direction))
        assert cross < 1e-9


class TestReflectIsothermic:
    def test_full_enneper(self, enneper_pair):
        f, n = enneper_pair.isothermic, enneper_pair.gauss
        labels = enneper_pair.grid.labels
        f_ext, n_ext, lab_ext = reflect_isothermic(f, n, 0, labels=labels)
        assert f_ext.domain.n_range == (-f.domain.n1, f.domain.n1)
        report = is_isothermic(f_ext, lab_ext, 1e-9)
        assert report.ok
        worst = max(abs(quad_curvatures(f_ext.quad_points(q),
                                        n_ext.quad_points(q)).H)
                    for q in f_ext.domain.quads)
        assert worst <= 1e-9

    def test_extension_is_symmetric(self, enneper_pair):
        f, n = enneper_pair.isothermic, enneper_pair.gauss
        analysis = analyze_boundary_isothermic(f, n, 0, "row")
        iso = Isometry.plane_reflection(analysis.plane)
        f_ext, n_ext, _ = reflect_isothermic(f, n, 0, labels=enneper_pair.grid.labels)
        worst = max(np.linalg.norm(iso.apply(f_ext[(m, k)]) - f_ext[(m, -k)])
                    for (m, k) in f_ext.domain.vertices)
        assert worst <= 1e-12 * f_ext.scale()

    def test_column_reflection(self, enneper_pair):
        f, n = enneper_pair.isothermic, enneper_pair.gauss
        f_ext, n_ext, lab = reflect_isothermic(f, n, 0, axis="col",
                                               labels=enneper_pair.grid.labels)
        assert f_ext.domain.m_range == (-f.domain.m1, f.domain.m1)
        assert is_isothermic(f_ext, lab, 1e-9).ok

    def test_not_reflectable(self, enneper_pair):
        f, n = enneper_pair.isothermic, enneper_pair.gauss
        with pytest.raises(NotReflectable):
            reflect_isothermic(f, n, f.domain.n1)

    def test_cmc_sphere_band_preserved(self):
        # spherical band: every quad has H = -1/R exactly; reflecting
        # across the equator plane must preserve that constant
        net, normals, radius = sphere_band()
        h0 = [quad_curvatures(net.quad_points(q), normals.quad_points(q)).H
              for q in net.domain.quads]
        assert max(abs(h + 1.0 / radius) for h in h0) < 1e-12
        f_ext, n_ext, _ = reflect_isothermic(net, normals, 0)
        hs = [quad_curvatures(f_ext.quad_points(q), n_ext.quad_points(q)).H
              for q in f_ext.domain.quads]
        assert max(abs(h + 1.0 / radius) for h in hs) < 1e-12

    def test_masked_domain_reflects(self, planar_enneper_pair):
        f, n = planar_enneper_pair.isothermic, planar_enneper_pair.gauss
        f_ext, n_ext, lab = reflect_isothermic(
            f, n, 0, labels=planar_enneper_pair.grid.labels)
        assert (0, 0) not in f_ext.domain
        assert is_isothermic(f_ext, lab, 1e-9).ok


class TestRotateExtendAsymptotic:
    def test_conjugate_enneper(self, enneper_pair):
        ft = enneper_pair.asymptotic
        ft_ext, _ = rotate_extend_asymptotic(ft, 0,
                                             labels=enneper_pair.grid.labels)
        report = is_asymptotic(ft_ext, 1e-9)
        assert report.ok

    def test_extension_is_symmetric(self, enneper_pair):
        ft = enneper_pair.asymptotic
        analysis = analyze_boundary_asymptotic(ft, 0, "row")
        iso = Isometry.line_rotation_180(analysis.line)
        ft_ext, _ = rotate_extend_asymptotic(ft, 0)
        worst = max(np.linalg.norm(iso.apply(ft_ext[(m, k)]) - ft_ext[(m, -k)])
                    for (m, k) in ft_ext.domain.vertices)
        assert worst <= 1e-12 * ft_ext.scale()

    def test_matches_conjugate_of_extended_isothermic(self, enneper_pair):
        # the rotation extension equals the conjugate net built from the
        # mirrored Gauss data, up to translation
        f, n = enneper_pair.isothermic, enneper_pair.gauss
        labels = enneper_pair.grid.labels
        f_ext, n_ext, lab_ext = reflect_isothermic(f, n, 0, labels=labels)
        from minnet.holomorphic import HoloGrid
        g_ext = HoloGrid.from_dict(n_ext.domain,
                                   {v: stereographic_project(n_ext[v])
                                    for v in n_ext.domain.vertices}, lab_ext)
        conj = weierstrass_asymptotic(g_ext)
        ft_ext, _ = rotate_extend_asymptotic(enneper_pair.asymptotic, 0,
                                             labels=labels)
        shift = ft_ext[(0, 0)] - conj[(0, 0)]
        worst = max(np.linalg.norm(conj[v] + shift - ft_ext[v])
                    for v in conj.domain.vertices)
        assert worst <= 1e-8 * ft_ext.scale()

    def test_not_reflectable(self, enneper_pair):
        with pytest.raises(NotReflectable):
            rotate_extend_asymptotic(enneper_pair.asymptotic,
                                     enneper_pair.asymptotic.domain.n1)

    def test_one_vertex_line_not_reflectable(self):
        net = Net3(LatticeDomain((0, 3), (0, 0)),
                   np.random.default_rng(0).normal(size=(4, 3)))
        with pytest.raises(NotReflectable, match="row"):
            rotate_extend_asymptotic(net, 0, "row")    # the domain is one row
        with pytest.raises(NotReflectable, match="col 3 has fewer than 2"):
            rotate_extend_asymptotic(net, 3, "col")


@pytest.fixture(scope="module")
def tetrahedral_pair():
    return MinimalPair.from_grid(solve_platonic("tetrahedral", 2).grid)


def mirror_gap(net_ext, iso, index):
    """Max distance of a vertex on the rows past index from the iso image
    of its mirror vertex."""
    return max(np.linalg.norm(net_ext[(m, k)] - iso.apply(net_ext[(m, 2 * index - k)]))
               for (m, k) in net_ext.domain.vertices if k > index)


class TestExtendAcrossLastRow:
    """Both extensions across the last row n1, where the new rows go above
    the piece."""

    def test_reflect_isothermic(self, tetrahedral_pair):
        f, n = tetrahedral_pair.isothermic, tetrahedral_pair.gauss
        top = f.domain.n1
        iso = Isometry.plane_reflection(analyze_boundary_isothermic(f, n, top, "row").plane)
        f_ext, n_ext, lab_ext = reflect_isothermic(f, n, top, labels=tetrahedral_pair.grid.labels)
        assert f_ext.domain.n_range == (f.domain.n0, 2 * top - f.domain.n0)
        assert mirror_gap(f_ext, iso, top) <= 1e-12 * f_ext.scale()
        assert is_isothermic(f_ext, lab_ext, 1e-9).ok

    def test_rotate_extend_asymptotic(self, tetrahedral_pair):
        ft, top = tetrahedral_pair.asymptotic, tetrahedral_pair.asymptotic.domain.n1
        iso = Isometry.line_rotation_180(analyze_boundary_asymptotic(ft, top, "row").line)
        ft_ext, lab_ext = rotate_extend_asymptotic(ft, top, labels=tetrahedral_pair.grid.labels)
        assert ft_ext.domain.n_range == (ft.domain.n0, 2 * top - ft.domain.n0)
        assert mirror_gap(ft_ext, iso, top) <= 1e-12 * ft_ext.scale()
        assert is_asymptotic(ft_ext, 1e-9).ok
        assert lab_ext.beta.tolist() == [*tetrahedral_pair.grid.labels.beta,
                                         *tetrahedral_pair.grid.labels.beta[::-1]]


def transposed(net: Net3) -> Net3:
    """The net on the transposed domain, (m, n) -> (n, m)."""
    dom = net.domain
    flipped = LatticeDomain(dom.n_range, dom.m_range, frozenset((n, m) for m, n in dom.mask))
    n, m = flipped.coords.T
    return Net3(flipped, net.points[dom.indices(m, n)], check_edges=False)


@pytest.mark.parametrize("piece, kind, axis, line", [
    ("enneper_pair", "iso", "row", "n0"), ("enneper_pair", "iso", "col", "m0"),
    ("enneper_pair", "asym", "row", "n0"), ("enneper_pair", "asym", "col", "m0"),
    ("planar_enneper_pair", "iso", "col", "m0"), ("planar_enneper_pair", "asym", "col", "m0"),
    ("tetrahedral_pair", "iso", "row", "n1"), ("tetrahedral_pair", "asym", "row", "n1")])
def test_extension_equals_extension_of_the_transpose(request, piece, kind, axis, line):
    """Extending across a row (column) gives, bit for bit, the points, normals
    and labels of extending the transposed net across the column (row) and
    transposing back."""
    pair = request.getfixturevalue(piece)
    other = "col" if axis == "row" else "row"
    labels = pair.grid.labels
    flipped = EdgeLabels(labels.beta, labels.alpha)
    if kind == "iso":
        f, n = pair.isothermic, pair.gauss
        index = getattr(f.domain, line)
        direct = reflect_isothermic(f, n, index, axis, labels=labels)
        f_t, n_t, lab_t = reflect_isothermic(transposed(f), transposed(n), index, other,
                                             labels=flipped)
        nets = [(direct[0], transposed(f_t)), (direct[1], transposed(n_t))]
    else:
        f = pair.asymptotic
        index = getattr(f.domain, line)
        direct = rotate_extend_asymptotic(f, index, axis, labels=labels)
        f_t, lab_t = rotate_extend_asymptotic(transposed(f), index, other, labels=flipped)
        nets = [(direct[0], transposed(f_t))]
    for a, b in nets:
        assert a.domain == b.domain
        assert np.array_equal(a.points, b.points)
    assert np.array_equal(direct[-1].alpha, lab_t.beta)
    assert np.array_equal(direct[-1].beta, lab_t.alpha)


@pytest.fixture(scope="module")
def family_pairs(enneper_pairs, planar_enneper_pair, tetrahedral_pair):
    """A piece of every family: Enneper K = 2-4, planar Enneper, the K = 3
    and K = 4 k-noids at (5, 15) and the three presets at resolution 2."""
    pairs = {f"enneper k={k}": pair for k, pair in enneper_pairs.items()}
    pairs["planar enneper"] = planar_enneper_pair
    for k in (3, 4):
        pairs[f"{k}-noid"] = MinimalPair.from_grid(solve_knoid(BoundarySpec(k, 5, 15)).grid)
    pairs["tetrahedral"] = tetrahedral_pair
    for preset in ("octahedral", "icosahedral"):
        pairs[preset] = MinimalPair.from_grid(solve_platonic(preset, 2).grid)
    return pairs


class TestConjugateDuality:
    def test_equivalence_on_all_boundaries(self, family_pairs):
        """The reflection principle on each boundary line of every family's
        piece: the line is a planar curvature line exactly when its Gauss
        image lies on a great circle, and exactly when the conjugate line is
        straight.  Every piece has lines of both kinds."""
        for name, pair in family_pairs.items():
            f, ft, n = pair.isothermic, pair.asymptotic, pair.gauss
            dom = f.domain
            seen = set()
            for axis, idx in (("row", dom.n0), ("row", dom.n1),
                              ("col", dom.m0), ("col", dom.m1)):
                iso = analyze_boundary_isothermic(f, n, idx, axis)
                asym = analyze_boundary_asymptotic(ft, idx, axis)
                _, great = fit_plane_through_origin(gauss_image(pair, idx, axis))
                planar = iso.kind == "planar_curvature_line"
                together = {planar, great <= 1e-9, asym.kind == "straight_asymptotic_line"}
                assert len(together) == 1, (name, axis, idx, iso.residuals, great,
                                            asym.residuals)
                if planar:
                    assert iso.residuals["congruence_plane"] <= 1e-9 * f.scale()
                    assert asym.residuals["line"] <= 1e-9 * ft.scale()
                seen.add(planar)
            assert seen == {True, False}, name


def reflected_data(grid: HoloGrid, index: int, axis: str) -> HoloGrid:
    """The grid extended across its boundary row (column) at index by the
    inversion of g in the circle C that the line's g values lie on:
    A|z|^2 + 2 Re(conj(B) z) + C = 0, the least-squares null vector of the
    rows (|z|^2, x, y, 1), so that C may be a line.  A value at C's centre
    becomes INF; the labels are mirrored as the extensions mirror them."""
    assert not grid.inf.any()
    dom = grid.domain
    line = grid.values[boundary_vertices(dom, index, axis)]
    rows = np.column_stack([np.abs(line) ** 2, line.real, line.imag, np.ones(len(line))])
    a, bx, by, c = np.linalg.svd(rows)[2][-1]
    b = complex(bx, by) / 2
    extended, old, mirror = _mirror_domain(dom, index, axis)
    z = np.conj(grid.values[mirror])
    den = a * z + np.conj(b)            # 0 at C's centre
    at_centre = (old < 0) & (np.abs(den) <= 1e-12 * (abs(a) * np.abs(line).max() + abs(b)))
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(old >= 0, grid.values[old], -(b * z + c) / den)
    return HoloGrid(extended, np.where(at_centre, 0j, values),
                    _mirror_labels(grid.labels, dom, index, axis), at_centre)


# Both sides integrate cross-ratio -1 data along the spanning trees of
# different domains, and C is a least-squares fit.  The largest error
# measured on these cases is 1.0e-14 of the net's size (the K=3 k-noid
# across row 5, through its INF vertex); 1e-13 leaves a tenfold margin.
REFLECTED_DATA_TOL = 1e-13


@pytest.fixture(scope="module")
def octahedral_pair():
    return MinimalPair.from_grid(solve_platonic("octahedral", 3).grid)


@pytest.mark.parametrize("piece, axis, index, infinite", [
    ("enneper k=2", "row", 0, 0), ("enneper k=3", "row", 0, 0), ("enneper k=4", "row", 0, 0),
    ("3-noid", "row", 0, 0), ("3-noid", "row", 5, 1), ("3-noid", "col", 0, 0),
    ("octahedral", "row", 0, 0), ("octahedral", "row", 3, 0), ("octahedral", "col", 0, 0)])
def test_extensions_are_the_nets_of_the_reflected_data(request, piece, axis, index, infinite):
    """The reflection principle on the holomorphic side: reflect_isothermic's
    net is, up to one translation, the Weierstrass net of the data inverted
    in the circle of the boundary line's g values, and rotate_extend_asymptotic's
    net is its conjugate.  The k-noid and Enneper pieces are the (5, 15) and
    side-6 ones of family_pairs; the octahedral piece is at resolution 3."""
    pair = (request.getfixturevalue("octahedral_pair") if piece == "octahedral"
            else request.getfixturevalue("family_pairs")[piece])
    grid = reflected_data(pair.grid, index, axis)
    assert np.count_nonzero(grid.inf) == infinite
    labels = pair.grid.labels
    extensions = [
        (weierstrass_isothermic(grid),
         reflect_isothermic(pair.isothermic, pair.gauss, index, axis, labels=labels)[0]),
        (weierstrass_asymptotic(grid),
         rotate_extend_asymptotic(pair.asymptotic, index, axis, labels=labels)[0])]
    for built, extended in extensions:
        assert built.domain == extended.domain
        shift = extended.points[0] - built.points[0]
        error = np.abs(built.points + shift - extended.points).max()
        assert error <= REFLECTED_DATA_TOL * extended.scale(), error / extended.scale()


class TestCornerAngles:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_enneper_angle(self, enneper_pairs, k):
        pair = enneper_pairs[k]
        ap, aq = corner_angles(pair.isothermic, pair.gauss, (0, 0))
        assert abs(ap - math.pi / (k + 1)) < 1e-6
        assert abs(ap + aq - math.pi) < 1e-9

    def test_planar_enneper_angle(self, planar_enneper_pair):
        ap, aq = corner_angles(planar_enneper_pair.isothermic,
                               planar_enneper_pair.gauss, (0, 0))
        assert abs(ap - math.pi / 2) < 1e-6
        assert abs(ap + aq - math.pi) < 1e-9

    def test_non_corner_rejected(self, enneper_pair):
        with pytest.raises(NotPlanarBoundary):
            corner_angles(enneper_pair.isothermic, enneper_pair.gauss, (1, 1))


class TestOrbit:
    def test_enneper_dihedral_eight(self, enneper_pair):
        f, n = enneper_pair.isothermic, enneper_pair.gauss
        mirrors = [analyze_boundary_isothermic(f, n, 0, axis) for axis in ("row", "col")]
        orbit = build_orbit(f, mirrors, max_word=12)
        assert len(orbit.elements) == 8
        assert orbit.weld_residual <= 1e-9
        assert orbit.closure_residual() <= 1e-9
        assert len(orbit.vertices) < 8 * len(f.domain.vertices)

    def test_closure_residual_equals_double_loop(self, family_pairs):
        """The largest distance from a product s∘f to its element, which is
        the nearest one: distinct elements lie O(1) apart."""
        f, n = family_pairs["octahedral"].isothermic, family_pairs["octahedral"].gauss
        dom = f.domain
        mirrors = [analyze_boundary_isothermic(f, n, idx, axis, 1e-7)
                   for axis, idx in (("row", dom.n0), ("col", dom.m0), ("row", dom.n1))]
        orbit = build_orbit(f, mirrors, max_word=20)
        assert len(orbit.elements) == 48
        worst = 0.0
        for a in orbit.elements:
            for m in mirrors:
                prod = Isometry.plane_reflection(m.plane).compose(a)
                worst = max(worst, min(prod.distance(e) for e in orbit.elements))
        assert worst > 0.0
        assert orbit.closure_residual() == worst

    def test_generators_permute_welded_mesh(self, enneper_pair):
        f, n = enneper_pair.isothermic, enneper_pair.gauss
        mirrors = [analyze_boundary_isothermic(f, n, 0, axis) for axis in ("row", "col")]
        orbit = build_orbit(f, mirrors, max_word=12)
        radius = 1e-9 * orbit.scale()
        for mirror in mirrors:
            reflection = Isometry.plane_reflection(mirror.plane)
            assert invariance_residual(orbit.vertices, reflection, radius) <= radius

    def test_irrational_angle_explodes(self, enneper_pair):
        p1 = PlaneR3((0, 1, 0), 0.0)
        p2 = PlaneR3((math.sin(1.0), math.cos(1.0), 0.0), 0.0)
        with pytest.raises(OrbitExplosion):
            build_orbit(enneper_pair.isothermic,
                        [BoundaryAnalysis("row", 0, "planar_curvature_line", plane=p1),
                         BoundaryAnalysis("col", 0, "planar_curvature_line", plane=p2)],
                        max_word=64)

    def test_close_group_of_one_mirror(self):
        elements = close_group([PlaneR3((0, 0, 1), 1.0)])
        assert len(elements) == 2 and elements[1].det() < 0


class TestPlanarityLemma:
    def test_row_planar_iff_gauss_image_concircular(self, enneper_pair,
                                                    planar_enneper_pair):
        # both directions of the curvature-line planarity characterization:
        # a lattice row of F is planar exactly when the Gauss image of the
        # row is concircular (coplanar on the unit sphere)
        from minnet.net import planarity_residual
        for pair in (enneper_pair, planar_enneper_pair):
            f, lift = pair.isothermic, pair.gauss
            dom = f.domain
            seen_true = seen_false = False
            for idx in range(dom.n0, dom.n1 + 1):
                verts = [(m, idx) for m in range(dom.m0, dom.m1 + 1)
                         if (m, idx) in dom]
                if len(verts) < 4:
                    continue
                fr = np.array([f[v] for v in verts])
                nr = np.array([lift[v] for v in verts])
                scale = np.linalg.norm(fr.max(axis=0) - fr.min(axis=0))
                row_planar = planarity_residual(fr) <= 1e-9 * scale
                gauss_circ = planarity_residual(nr) <= 1e-9
                assert row_planar == gauss_circ, (idx, row_planar, gauss_circ)
                seen_true = seen_true or row_planar
                seen_false = seen_false or not row_planar
            assert seen_true and seen_false
