"""Value records: immutability, value equality and normalisation."""

import math

import numpy as np
import pytest

from minnet.bvp import BoundarySpec
from minnet.mobius import Isometry, LineR3, PlaneR3, Quaternion
from minnet.net import EdgeLabels, LatticeDomain

FROZEN = {
    "LatticeDomain": (lambda: LatticeDomain((0, 2), (0, 3)), "mask"),
    "EdgeLabels": (lambda: EdgeLabels({0: 1.0}, {0: -1.0}), "alpha"),
    "BoundarySpec": (lambda: BoundarySpec(3, 3, 10), "k"),
    "PlaneR3": (lambda: PlaneR3(np.array([0.0, 0.0, 1.0]), 0.5), "offset"),
    "LineR3": (lambda: LineR3(np.zeros(3), np.array([1.0, 0.0, 0.0])), "direction"),
    "Isometry": (Isometry.identity, "matrix"),
    "Quaternion": (lambda: Quaternion(1.0, 0.0, 0.0, 0.0), "w"),
}


@pytest.mark.parametrize("name", list(FROZEN))
def test_fields_refuse_assignment(name):
    make, field = FROZEN[name]
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_equal_domains_compare_and_hash_equal():
    a = LatticeDomain((0, 4), (-1, 3), frozenset({(0, 0), (4, 3)}))
    b = LatticeDomain((0, 4), (-1, 3), {(4, 3), (0, 0)})
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != LatticeDomain((0, 4), (-1, 3), frozenset({(0, 0)}))
    assert a != LatticeDomain((0, 4), (-1, 4), frozenset({(0, 0), (4, 3)}))
    assert a != ((0, 4), (-1, 3), frozenset({(0, 0), (4, 3)}))


def test_plane_normalises_normal_and_offset():
    plane = PlaneR3([0.0, 3.0, 4.0], 10.0)
    assert isinstance(plane.normal, np.ndarray)
    assert np.allclose(plane.normal, [0.0, 0.6, 0.8], rtol=0, atol=1e-15)
    assert plane.offset == pytest.approx(2.0, rel=1e-15)
    assert plane.contains([0.0, 0.0, 2.5]) and not plane.contains([0.0, 0.0, 2.6])
    with pytest.raises(ValueError):
        PlaneR3(np.zeros(3), 1.0)
    assert math.isclose(np.linalg.norm(LineR3([1, 2, 3], [0, 0, 5]).direction), 1.0)
