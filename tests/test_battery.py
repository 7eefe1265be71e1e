"""The battery's whole-array checks against the scalar per-quad references,
and what each check catches."""

import numpy as np
import pytest

from minnet import battery
from minnet.cli import verify_pair
from minnet.holomorphic import HoloGrid, power_function
from minnet.minimal import MinimalPair, propagate_normals, quad_curvatures
from minnet.mobius import cross_ratio_quat
from minnet.boundary import boundary_vertices
from minnet.lattice import EdgeLabels, Net3
from minnet.net import is_circular

from conftest import edge_label, fit_error_bound


def scalar_battery(pair):
    """(max residual, worst quad) of three checks, computed one quad at a time."""
    f, n, labels = pair.isothermic, pair.gauss, pair.grid.labels
    dom = f.domain
    found = dict.fromkeys(("circularity", "isothermic", "minimality"), (0.0, None))
    for q in dom.quads:
        i, j, _, l = dom.quad_vertices(q)
        ratio = edge_label(labels, dom, i, j) / edge_label(labels, dom, i, l)
        qf, qn = f.quad_points(q), n.quad_points(q)
        residuals = {
            "circularity": is_circular(f, q)[1] / np.linalg.norm(np.ptp(np.asarray(qf), axis=0)),
            "isothermic": abs(cross_ratio_quat(*qf).re - ratio),
            "minimality": abs(quad_curvatures(qf, qn).H),
        }
        for name, res in residuals.items():
            if res > found[name][0]:
                found[name] = (res, q)
    return found


@pytest.mark.parametrize("fixture", ["enneper_pair", "planar_enneper_pair", "trinoid_pair"])
def test_array_checks_equal_scalar_references(fixture, request):
    pair = request.getfixturevalue(fixture)
    checks = verify_pair(pair)["checks"]
    for name, (residual, quad) in scalar_battery(pair).items():
        if name == "circularity":
            assert_within_fit_bound(checks[name], pair.isothermic)
            continue
        assert checks[name]["max_residual"] == pytest.approx(residual, rel=1e-12, abs=0), name
        assert checks[name]["worst"] == list(quad), name


def assert_within_fit_bound(entry, net):
    """The battery fits quad planes through the scatter matrix and the scalar
    reference by the SVD, so their circularity agrees to the written bound:
    the maxima differ by at most the largest bound, and the worst quad is
    one whose scalar residual lies within its bound and the maximum's bound
    of the maximum."""
    pts, quads = net.quad_array(), net.domain.quads
    diagonal = np.linalg.norm(np.ptp(pts, axis=1), axis=1)
    scalar = np.array([is_circular(net, q)[1] for q in quads]) / diagonal
    bound = fit_error_bound(pts) / diagonal
    assert np.isfinite(bound).all()
    top, worst = int(np.argmax(scalar)), quads.index(tuple(entry["worst"]))
    assert abs(entry["max_residual"] - scalar[top]) <= bound.max()
    assert scalar[worst] >= scalar[top] - bound[worst] - bound[top]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_valid_data_passes_at_size_160():
    """Data meant as the discrete z^(4/3) fails at size 160 with isothermic
    2.0e-9 and gauss_parallel 2.2e-9, over tol 1e-9.  The cross-ratio
    propagation in holomorphic._propagate_diagonals grows roundoff about
    2.3-fold per anti-diagonal, so the side-160 grid is no longer the
    discrete z^γ."""
    report = verify_pair(MinimalPair.from_grid(power_function(4 / 3, 160, 160)))
    assert report["ok"], {k: c["max_residual"] for k, c in report["checks"].items()
                          if not c["ok"]}


def test_planar_enneper_at_side_96_fails_gauss_parallel_only():
    """Far out in the planar Enneper piece N nears the pole, and its quads
    shrink to about 1e-7 at side 96.  Minimality tests only the quads of F,
    so the rounding of unit normals no longer reads as non-planar normal
    quads (minimality was inf there).  It still reads as gauss_parallel's
    edge angle, 1.45e-9 over tol, until that check gets a floor derived from
    the rounding (ROADMAP item 19)."""
    checks = verify_pair(MinimalPair.from_grid(power_function(3.0, 96, 96)))["checks"]
    assert checks["minimality"]["ok"] and checks["minimality"]["max_residual"] < 1e-15
    assert [name for name, check in checks.items() if not check["ok"]] == ["gauss_parallel"]



# ---------------------------------------------------------------------------
# Sensitivity: one change per row, and the exact set of checks it fails
# ---------------------------------------------------------------------------

SIDE = 12
TILT = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])


@pytest.fixture(scope="module")
def piece():
    """The battery's inputs for Enneper K=3 (gamma = 3/2) at side 12."""
    pair = MinimalPair.from_grid(power_function(1.5, SIDE, SIDE))
    return {"iso": pair.isothermic, "normals": pair.gauss, "labels": pair.grid.labels,
            "asym": pair.asymptotic, "grid": pair.grid}


def _points(net: Net3, points: np.ndarray) -> Net3:
    return Net3(net.domain, points, check_edges=False)


def _moved(net: Net3, vertex, delta) -> Net3:
    pts = net.points.copy()
    pts[net.domain.vertex_index[vertex]] += delta
    return _points(net, pts)


def _corner_quad(net: Net3) -> np.ndarray:
    """The points of quad (0, 0), corner (0, 0) first."""
    return net.points[[net.domain.vertex_index[v] for v in net.domain.quad_vertices((0, 0))]]


def iso_vertex_moved(p):
    return {**p, "iso": _moved(p["iso"], (5, 6), 1e-6 * p["iso"].scale() * TILT)}


def normal_tilted(p):
    pts = p["normals"].points.copy()
    k = p["normals"].domain.vertex_index[(5, 6)]
    pts[k] += 1e-6 * TILT
    pts[k] /= np.linalg.norm(pts[k])
    return {**p, "normals": _points(p["normals"], pts)}


def asym_vertex_moved(p):
    return {**p, "asym": _moved(p["asym"], (5, 6), 1e-6 * p["asym"].scale() * TILT)}


def asym_vertex_moved_alone(p):
    return {"asym": asym_vertex_moved(p)["asym"]}


def alpha_scaled(p):
    alpha = p["labels"].alpha.copy()
    alpha[4] *= 1.0 + 1e-6
    return {**p, "labels": EdgeLabels(alpha, p["labels"].beta)}


def grid_value_moved(p):
    grid = p["grid"]
    values = grid.values.copy()
    values[grid.domain.vertex_index[(5, 6)]] += 1e-6
    return {**p, "grid": HoloGrid(grid.domain, values, grid.labels, grid.inf)}


def normals_negated(p):
    return {**p, "normals": _points(p["normals"], -p["normals"].points)}


def iso_scaled(p):
    return {**p, "iso": _points(p["iso"], 2.0 * p["iso"].points)}


def iso_moebius(p):
    """The iso net under the inversion in a sphere 1e6 times its size away,
    composed with the reflection that undoes its orientation: about the
    centroid, e -> (e + s|e|^2 a) / (1 + 2s a.e + s^2|e|^2) with s|e| <= 1e-6.
    Circles and cross ratios are kept; the normals are not moved."""
    pts = p["iso"].points
    centre = pts.mean(axis=0)
    e = pts - centre
    ee, s = (e * e).sum(axis=1), 1e-6 / p["iso"].scale()
    moved = centre + (e + s * ee[:, None] * TILT) / (1 + 2 * s * (e @ TILT) + s * s * ee)[:, None]
    return {**p, "iso": _points(p["iso"], moved)}


def asym_far_lines_straightened(p):
    """The interior vertices of the asymptotic row and column 12 projected onto
    the chord between their ends."""
    pts = p["asym"].points.copy()
    for axis in ("row", "col"):
        verts = boundary_vertices(p["asym"].domain, SIDE, axis)
        base, chord = pts[verts[0]], pts[verts[-1]] - pts[verts[0]]
        pts[verts] = base + np.outer((pts[verts] - base) @ chord / (chord @ chord), chord)
    return {**p, "asym": _points(p["asym"], pts)}


def asym_of_other_exponent(p):
    """The gamma = 4/3 asymptotic net beside the gamma = 3/2 piece: both have
    straight lines at row and column 0, but other tangent planes."""
    return {**p, "asym": MinimalPair.from_grid(power_function(4 / 3, SIDE, SIDE)).asymptotic}


def normals_are_positions(p):
    """N = F / size, without the asymptotic net and the grid: edges of N stay
    parallel to those of F, and H = -1 / size."""
    return {"iso": p["iso"], "labels": p["labels"],
            "normals": _points(p["normals"], p["iso"].points / p["iso"].scale())}


def normals_doubled(p):
    """2N, with the iso net and the labels: edges of 2N stay parallel to those
    of F, and H = 0 still, but |N| = 2."""
    return {"iso": p["iso"], "labels": p["labels"],
            "normals": _points(p["normals"], 2.0 * p["normals"].points)}


def normals_propagated_from_tilted_seed(p):
    """The unit parallel field that propagation gives from the normal at (0, 0)
    tilted by 1e-6, with the iso net and the labels: a Gauss map of F, but
    not the one of a minimal net."""
    seed = p["normals"][(0, 0)] + 1e-6 * TILT
    return {"iso": p["iso"], "labels": p["labels"],
            "normals": propagate_normals(p["iso"], seed / np.linalg.norm(seed), root=(0, 0))}


def corner_off_its_plane(p):
    """Iso corner (0, 0) moved off its quad's plane by 1e-6 of the quad's
    diagonal, with the labels only: Re cr is even in the move."""
    quad = _corner_quad(p["iso"])
    normal = np.cross(quad[2] - quad[0], quad[3] - quad[1])
    diagonal = np.linalg.norm(np.ptp(quad, axis=0))
    return {"iso": _moved(p["iso"], (0, 0), 1e-6 * diagonal * normal / np.linalg.norm(normal)),
            "labels": p["labels"]}


def corner_normal_along_diagonal(p):
    """The normal at corner (0, 0) moved by 1e-6 along its quad's other
    diagonal, with the iso net only: the normal quad stays planar and
    A(F, N) keeps its normal component, but two edges of N turn."""
    quad = _corner_quad(p["iso"])
    diagonal = quad[3] - quad[1]
    return {"iso": p["iso"],
            "normals": _moved(p["normals"], (0, 0), 1e-6 * diagonal / np.linalg.norm(diagonal))}


SENSITIVITY = [
    (iso_vertex_moved, {"circularity", "isothermic", "minimality", "gauss_parallel"}),
    (normal_tilted, {"minimality", "gauss_parallel", "gauss_matches_grid", "conjugate_normals"}),
    (asym_vertex_moved, {"asymptotic_stars", "conjugate_normals"}),
    (asym_vertex_moved_alone, {"asymptotic_stars"}),
    (alpha_scaled, {"isothermic"}),
    (grid_value_moved, {"gauss_matches_grid"}),
    (normals_negated, {"gauss_matches_grid"}),
    (iso_scaled, set()),
    (iso_moebius, {"gauss_parallel", "boundary_row_0", "boundary_col_0"}),
    (asym_far_lines_straightened, {"asymptotic_stars", "conjugate_normals",
                                   "boundary_row_12", "boundary_col_12"}),
    (asym_of_other_exponent, {"conjugate_normals"}),
    (normals_are_positions, {"minimality", "gauss_parallel"}),
    (normals_doubled, {"gauss_parallel"}),
    (normals_propagated_from_tilted_seed, {"minimality"}),
    (corner_off_its_plane, {"circularity"}),
    (corner_normal_along_diagonal, {"gauss_parallel"}),
]


def failing(nets: dict, tol: float = 1e-9) -> set[str]:
    report = battery._run_checks(battery._Nets(tol, **nets))
    return {name for name, entry in report["checks"].items() if not entry["ok"]}


def test_the_unchanged_piece_passes(piece):
    assert failing(piece) == set()


@pytest.mark.parametrize("change, expected", SENSITIVITY,
                         ids=[change.__name__ for change, _ in SENSITIVITY])
def test_each_change_fails_its_checks(piece, change, expected):
    assert failing(change(piece)) == expected


def test_every_check_fails_in_some_row(piece):
    checks = set(battery._run_checks(battery._Nets(1e-9, **piece))["checks"])
    assert set().union(*(expected for _, expected in SENSITIVITY)) == checks
