import math

import numpy as np
import pytest

from minnet.bvp import BoundarySpec, solve_knoid
from minnet.holomorphic import power_function
from minnet.minimal import MinimalPair
from minnet.mobius import rotation_matrix


@pytest.fixture(scope="session")
def enneper_pair():
    """k=3 higher-order Enneper pair (gamma = 3/2) on an 8x8 grid."""
    return MinimalPair.from_grid(power_function(1.5, 8, 8))


@pytest.fixture(scope="session")
def enneper_pairs():
    """Higher-order Enneper pairs for k = 2, 3, 4."""
    return {k: MinimalPair.from_grid(power_function(2 * k / (k + 1), 6, 6))
            for k in (2, 3, 4)}


@pytest.fixture(scope="session")
def planar_enneper_pair():
    """gamma = 3 planar Enneper pair, origin masked."""
    return MinimalPair.from_grid(power_function(3.0, 8, 8))


@pytest.fixture(scope="session")
def trinoid_result():
    return solve_knoid(BoundarySpec(3, 3, 10))


@pytest.fixture(scope="session")
def trinoid_pair(trinoid_result):
    return MinimalPair.from_grid(trinoid_result.grid)


def edge_label(labels, a, b):
    """Label of the lattice edge a-b: alpha for horizontal edges, beta for vertical ones."""
    if a[1] == b[1]:
        return labels.alpha[min(a[0], b[0])]
    return labels.beta[min(a[1], b[1])]


def neighbors(domain, v):
    """The present vertices among (m+1,n), (m-1,n), (m,n+1), (m,n-1), in that order."""
    m, n = v
    return [w for w in ((m + 1, n), (m - 1, n), (m, n + 1), (m, n - 1)) if w in domain]


def random_similarity(rng):
    """Random rotation + translation + positive scale as (fn, scale)."""
    axis = rng.normal(size=3)
    angle = rng.uniform(0, 2 * math.pi)
    rot = rotation_matrix(axis, angle)
    shift = rng.normal(size=3) * 5.0
    scale = rng.uniform(0.2, 5.0)

    def apply(p):
        return scale * (rot @ np.asarray(p, dtype=float)) + shift

    return apply, scale


def random_circle_points(rng, count=4):
    """Points on a random circle in R^3, in increasing angular order."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    u = np.cross(axis, [1.0, 0.3, -0.2])
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    center = rng.normal(size=3) * 3.0
    radius = rng.uniform(0.5, 4.0)
    angles = np.sort(rng.uniform(0, 2 * math.pi, size=count))
    while np.min(np.diff(angles)) < 1e-2:
        angles = np.sort(rng.uniform(0, 2 * math.pi, size=count))
    pts = [center + radius * (math.cos(a) * u + math.sin(a) * v) for a in angles]
    basis = (center, u, v)
    return pts, angles, basis
