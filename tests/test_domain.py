import math

import pytest

from quasicrack.domain import DomainError, DomainSpec, regular_polygon_disk
from quasicrack.geometry import CrackSet, Polyline, length

from verification import domain_area, domain_diameter, unit_square


def test_validation_errors():
    with pytest.raises(DomainError):
        DomainSpec(((0.0, 0.0), (1.0, 0.0)))  # too few vertices
    with pytest.raises(DomainError):
        DomainSpec(((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)))  # clockwise
    with pytest.raises(DomainError):
        DomainSpec(((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)))  # bowtie
    with pytest.raises(DomainError):
        unit_square(dirichlet_arcs=((0, 1), (0, 2)))  # overlap


def test_arc_tagging():
    dom = unit_square(dirichlet_arcs=((0, 1),))
    assert dom.edge_tag(0) == "dirichlet"
    assert dom.edge_tag(1) == "neumann"
    full = DomainSpec.all_dirichlet(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    assert all(full.edge_tag(k) == "dirichlet" for k in range(4))


def test_point_queries():
    dom = unit_square()
    assert dom.contains_point((0.5, 0.5))
    assert dom.contains_point((0.0, 0.5))
    assert dom._locate((0.0, 0.5)) == 0  # on the boundary
    assert not dom.contains_point((1.5, 0.5))
    assert dom.contains_segment((0.1, 0.1), (0.9, 0.9))
    assert not dom.contains_segment((0.5, 0.5), (1.5, 0.5))


def test_disk_polygon_cardinal_vertices():
    pts = regular_polygon_disk(128)
    assert (1.0, 0.0) in pts
    assert (-1.0, 0.0) in pts
    assert (0.0, 1.0) in pts
    area = domain_area(DomainSpec.all_dirichlet(pts))
    assert area == pytest.approx(math.pi, rel=5e-4)


def test_geometry_helpers():
    dom = unit_square()
    assert domain_diameter(dom) == pytest.approx(math.sqrt(2.0))
    assert dom.distance_to_boundary((0.5, 0.5)) == pytest.approx(0.5)
    back = DomainSpec.from_json(dom.to_json())
    assert back.boundary == dom.boundary
    assert back.dirichlet_arcs == dom.dirichlet_arcs


def test_length_additive_over_disjoint_components():
    k1 = CrackSet((Polyline(((0.0, 0.0), (1.0, 0.5))),), 1)
    k2 = CrackSet((Polyline(((2.0, 2.0), (2.0, 3.0), (2.5, 3.5))),), 1)
    union = CrackSet(k1.components + k2.components, m=2)
    assert length(union) == pytest.approx(length(k1) + length(k2), abs=1e-15)
