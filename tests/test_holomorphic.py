import cmath
import math

import numpy as np
import pytest

from minnet.errors import DegenerateQuad, UnsupportedGamma
from minnet.holomorphic import (INF, HoloGrid, cross_ratio_complex, is_inf, power_function,
                                propagate_fourth, read_grid, validate_holomorphic, write_grid)
from minnet.lattice import EdgeLabels, LatticeDomain


def identity_grid(m=4, n=4):
    dom = LatticeDomain((0, m), (0, n))
    return HoloGrid.from_dict(dom, {(a, b): complex(a, b) for (a, b) in dom.vertices},
                              EdgeLabels.constant(dom))


class TestValidate:
    def test_identity_passes(self):
        report = validate_holomorphic(identity_grid())
        assert report.ok and report.max_residual < 1e-14

    def test_pointwise_square_fails(self):
        # naive squaring of the lattice is not discrete holomorphic: the
        # complex-arithmetic oracle on the first quad gives (-3+4i)/5
        dom = LatticeDomain((0, 3), (0, 3), frozenset({(0, 0)}))
        grid = HoloGrid.from_dict(dom, {v: complex(v[0], v[1]) ** 2 for v in dom.vertices},
                                  EdgeLabels.constant(dom))
        oracle = cross_ratio_complex(1 + 0j, 4 + 0j, (2 + 1j) ** 2, (1 + 1j) ** 2)
        report = validate_holomorphic(grid)
        assert not report.ok
        assert report.max_residual >= abs(oracle + 1.0) / 2

    def test_power_gamma_one_is_identity(self):
        grid = power_function(1.0, 5, 5)
        ident = identity_grid(5, 5)
        assert all(grid[v] == ident[v] for v in grid.domain.vertices)


class TestConstruction:
    def test_coincident_neighbors_rejected(self):
        dom = LatticeDomain((0, 3), (0, 2))
        values = {v: complex(v[0], v[1]) for v in dom.vertices}
        values[(2, 1)] = values[(1, 1)] + 1e-15
        with pytest.raises(ValueError, match=r"edge \(1, 1\)-\(2, 1\)"):
            HoloGrid.from_dict(dom, values, EdgeLabels.constant(dom))

    def test_infinity_edge_rejected(self):
        dom = LatticeDomain((0, 3), (0, 2))
        values = {v: complex(v[0], v[1]) for v in dom.vertices}
        values[(1, 2)] = values[(2, 2)] = INF
        with pytest.raises(ValueError, match=r"edge \(1, 2\)-\(2, 2\)"):
            HoloGrid.from_dict(dom, values, EdgeLabels.constant(dom))

    def test_infinity_at_diagonal_corners_accepted(self):
        dom = LatticeDomain((0, 3), (0, 2))
        values = {v: complex(v[0], v[1]) for v in dom.vertices}
        values[(1, 1)] = values[(2, 2)] = INF
        grid = HoloGrid.from_dict(dom, values, EdgeLabels.constant(dom))
        assert grid.infinity_vertices() == [(1, 1), (2, 2)]
        assert grid.values[grid.inf].tolist() == [0j, 0j]


class TestPropagateFourth:
    def test_example(self):
        g3 = propagate_fourth(0j, 1 + 0j, 1j, -1.0)
        assert abs(g3 - (1 + 1j)) < 1e-14
        assert abs(cross_ratio_complex(0j, 1 + 0j, g3, 1j) + 1.0) < 1e-14

    def test_at_infinity(self):
        assert is_inf(propagate_fourth(0j, 1 + 0j, -1 + 0j, -1.0))

    def test_round_trip_property(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            g1, g2, g4 = (complex(a, b) for a, b in rng.normal(size=(3, 2)))
            if min(abs(g1 - g2), abs(g1 - g4), abs(g2 - g4)) < 1e-3:
                continue
            q = rng.uniform(-3.0, -0.2)
            g3 = propagate_fourth(g1, g2, g4, q)
            if is_inf(g3):
                continue
            assert abs(cross_ratio_complex(g1, g2, g3, g4) - q) < 1e-12 * max(1, abs(q))

    def test_infinite_inputs(self):
        for args in ((INF, 1 + 0j, 2j), (0j, INF, 2j), (0j, 1 + 0j, INF)):
            g3 = propagate_fourth(*args, -1.0)
            assert abs(cross_ratio_complex(args[0], args[1], g3, args[2]) + 1) < 1e-12

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateQuad):
            propagate_fourth(1 + 0j, 1 + 0j, 2j, -1.0)
        with pytest.raises(DegenerateQuad):
            propagate_fourth(0j, 1 + 0j, 2j, 0.0)


class TestPowerFunction:
    def test_unsupported_gamma(self):
        for gamma in (0.0, 2.0, 4.0, -0.5, 5.0):
            with pytest.raises(UnsupportedGamma):
                power_function(gamma, 4, 4)
        with pytest.raises(ValueError):
            power_function(1.5, 1, 4)

    @pytest.mark.parametrize("gamma", [0.5, 4 / 3, 1.5])
    def test_small_gamma_properties(self, gamma):
        grid = power_function(gamma, 8, 8)
        report = validate_holomorphic(grid, 1e-10)
        assert report.ok, report.max_residual
        # boundary rays
        for m in range(1, 9):
            assert abs(grid[(m, 0)].imag) < 1e-12
            assert grid[(m, 0)].real > 0
        target = gamma * math.pi / 2
        for n in range(1, 9):
            assert abs(cmath.phase(grid[(0, n)]) - target) < 1e-12
        # axis monotonicity
        row = [abs(grid[(m, 0)]) for m in range(9)]
        col = [abs(grid[(0, n)]) for n in range(9)]
        assert all(a < b for a, b in zip(row, row[1:]))
        assert all(a < b for a, b in zip(col, col[1:]))

    def test_sector_containment(self):
        # image of z^(2k/(k+1)) stays in the sector between the axis rays
        for k in (2, 3):
            gamma = 2 * k / (k + 1)
            grid = power_function(gamma, 7, 7)
            opening = k * math.pi / (k + 1)
            assert abs(gamma * math.pi / 2 - opening) < 1e-15
            for v in grid.domain.vertices:
                z = grid[v]
                if abs(z) < 1e-12:
                    continue
                ang = cmath.phase(z)
                assert -1e-12 <= ang <= opening + 1e-12

    def test_gamma_three(self):
        grid = power_function(3.0, 8, 8)
        assert (0, 0) not in grid.domain
        report = validate_holomorphic(grid, 1e-10)
        assert report.ok
        # g_{0,n} on the ray arg = 3*pi/2, i.e. -i * r with r > 0
        for n in range(2, 9):
            z = grid[(0, n)]
            assert abs(z.real) < 1e-9 * abs(z)
            assert z.imag < 0
        # |g| strictly increasing along both axes
        row = [abs(grid[(m, 0)]) for m in range(1, 9)]
        col = [abs(grid[(0, n)]) for n in range(1, 9)]
        assert all(a < b for a, b in zip(row, row[1:]))
        assert all(a < b for a, b in zip(col, col[1:]))
        # axis recurrence for the exponent holds from m = 2 onward
        for m in range(2, 7):
            g_prev, g_m, g_next = (grid[(i, 0)] for i in (m - 1, m, m + 1))
            a, b = g_next - g_m, g_m - g_prev
            residual = abs(3.0 * g_m - 2 * m * a * b / (a + b))
            assert residual < 1e-9 * abs(g_next)

    def test_gamma_three_matches_cubic_growth(self):
        grid = power_function(3.0, 10, 10)
        # axis values are (m^3 - m)/3 times the first increment scale
        scale = grid[(2, 0)].real / 2.0
        for m in range(2, 11):
            expected = scale * (m ** 3 - m) / 3.0
            assert abs(grid[(m, 0)].real - expected) < 1e-9 * expected


class TestMobiusApply:
    def test_translation_and_scaling_keep_residuals(self):
        grid = power_function(1.5, 6, 6)
        base = validate_holomorphic(grid).max_residual
        for a, b in ((1.0, 2.3 - 0.7j), (2.0, 0j)):      # z -> a z + b
            moved = HoloGrid.from_dict(grid.domain, {v: a * grid[v] + b
                                                     for v in grid.domain.vertices}, grid.labels)
            assert abs(validate_holomorphic(moved).max_residual - base) < 1e-11

    def test_inversion_of_identity_grid(self):
        dom = LatticeDomain((0, 4), (0, 4), frozenset({(0, 0)}))
        inverted = HoloGrid.from_dict(dom, {v: 1.0 / complex(v[0], v[1]) for v in dom.vertices},
                                      EdgeLabels.constant(dom))
        report = validate_holomorphic(inverted, 1e-9)
        assert report.ok, report.max_residual


class TestGridSerialization:
    def test_round_trip(self, tmp_path):
        grid = power_function(1.5, 5, 5)
        path = tmp_path / "grid.dnet.json"
        write_grid(path, grid)
        back = read_grid(path)
        assert back.domain == grid.domain
        for v in grid.domain.vertices:
            assert back[v] == grid[v]
        assert np.array_equal(back.labels.alpha, grid.labels.alpha)

    def test_infinity_round_trip(self, tmp_path):
        dom = LatticeDomain((0, 2), (0, 1))
        values = {v: complex(v[0], v[1]) for v in dom.vertices}
        values[(2, 1)] = INF
        grid = HoloGrid.from_dict(dom, values, EdgeLabels.constant(dom))
        path = tmp_path / "grid.dnet.json"
        write_grid(path, grid)
        back = read_grid(path)
        assert is_inf(back[(2, 1)])
        assert back[(1, 1)] == 1 + 1j
