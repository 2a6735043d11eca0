import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from oracles import bisect_polyline, edge_owners_loop, hex_lattice_loop, thin_greedy_loop
from quasicrack import cases
from quasicrack.domain import DomainSpec, regular_polygon_disk
from quasicrack.geometry import CrackSet, Polyline
from quasicrack.mesh import (
    CrackMesh,
    MeshFailure,
    _hex_lattice,
    _SizeField,
    _subdivide,
    _thin,
    edge_table,
    triangulate,
)
from quasicrack.solver import scale_datum


@pytest.fixture(scope="module")
def slit_disk_mesh():
    domain = DomainSpec.all_dirichlet(regular_polygon_disk(128))
    crack = CrackSet((Polyline(((-1.0, 0.0), (0.0, 0.0))),), 1)
    return domain, crack, triangulate(domain, crack, 1 / 8, 1 / 64)


def test_square_empty_crack():
    dom = DomainSpec.unit_square(dirichlet_arcs=((0, 1),))
    mesh = triangulate(dom, CrackSet((), 1), 0.5, 0.5)
    assert len(mesh.crack_face_pairs) == 0
    assert len(mesh.tip_nodes) == 0
    tags = {t for _, _, t in mesh.boundary_edges}
    assert tags == {"dirichlet", "neumann"}
    assert mesh.areas.sum() == pytest.approx(1.0, abs=1e-12)


def test_slit_disk_topology(slit_disk_mesh):
    domain, crack, mesh = slit_disk_mesh
    # exactly one tip node, at the slit end
    assert len(mesh.tip_nodes) == 1
    assert tuple(mesh.nodes[mesh.tip_nodes[0]]) == (0.0, 0.0)
    # every interior slit node is duplicated: coincident pair, no shared triangle
    chain = mesh.crack_chains[0]
    assert chain.finish_kind == "tip" and chain.start_kind == "boundary"
    n_dup = sum(1 for p, m in zip(chain.node_ids, chain.minus_ids) if p != m)
    assert n_dup == len(chain.node_ids) - 1  # all but the tip
    for fp in mesh.crack_face_pairs:
        assert np.allclose(mesh.nodes[fp.plus_node], mesh.nodes[fp.minus_node])
        owners_p = {i for i, t in enumerate(mesh.triangles) if fp.plus_node in t}
        owners_m = {i for i, t in enumerate(mesh.triangles) if fp.minus_node in t}
        assert owners_p and owners_m and not (owners_p & owners_m)


def test_area_sum_invariant(slit_disk_mesh):
    domain, crack, mesh = slit_disk_mesh
    assert abs(mesh.areas.sum() - domain.area()) <= 1e-10 * domain.area()


def test_euler_characteristic_boundary_slit(slit_disk_mesh):
    # cutting a disk open along a slit from the boundary keeps a disk
    _, _, mesh = slit_disk_mesh
    V, E, F = mesh.n_nodes, len(edge_table(mesh.triangles)[0]), mesh.n_triangles
    assert V - E + F == 1


def test_euler_characteristic_interior_slit():
    # a fully interior slit cut open is an annulus
    dom = DomainSpec.unit_square()
    crack = CrackSet((Polyline(((0.3, 0.5), (0.7, 0.5))),), 1)
    mesh = triangulate(dom, crack, 0.1, 0.02)
    assert len(mesh.tip_nodes) == 2
    V, E, F = mesh.n_nodes, len(edge_table(mesh.triangles)[0]), mesh.n_triangles
    assert V - E + F == 0


def test_determinism_bitwise(slit_disk_mesh):
    domain, crack, mesh = slit_disk_mesh
    again = triangulate(domain, crack, 1 / 8, 1 / 64)
    assert mesh.fingerprint_bytes() == again.fingerprint_bytes()


def test_tip_grading(slit_disk_mesh):
    _, _, mesh = slit_disk_mesh
    h_tip = mesh.h_tip
    cent = mesh.nodes[mesh.triangles].mean(axis=1)
    near = np.linalg.norm(cent, axis=1) <= 8.0 * h_tip
    p = mesh.nodes[mesh.triangles[near]]
    edge_len = np.concatenate(
        [
            np.linalg.norm(p[:, 0] - p[:, 1], axis=1),
            np.linalg.norm(p[:, 1] - p[:, 2], axis=1),
            np.linalg.norm(p[:, 2] - p[:, 0], axis=1),
        ]
    )
    assert edge_len.max() <= 2.0 * h_tip


def test_min_angle_bound(slit_disk_mesh):
    _, _, mesh = slit_disk_mesh
    assert mesh.min_angle() >= 5.0


def test_crack_touches_dirichlet_cases():
    dom = DomainSpec.unit_square(dirichlet_arcs=((0, 1),))  # bottom edge only
    cases = [
        (((0.3, 0.5), (0.7, 0.5)), []),  # interior slit
        (((0.5, 0.0), (0.5, 0.4)), [(0.5, 0.0), (0.5, 0.0)]),  # meets the Dirichlet edge
        (((0.5, 1.0), (0.5, 0.6)), []),  # meets only a Neumann edge
    ]
    for segment, released in cases:
        mesh = triangulate(dom, CrackSet((Polyline(segment),), 1), 0.1, 0.02)
        assert sorted(tuple(mesh.nodes[i]) for i in mesh.released_nodes) == released


def test_released_nodes_at_dirichlet_touch():
    dom = DomainSpec.unit_square(dirichlet_arcs=((0, 1),))
    crack = CrackSet((Polyline(((0.5, 0.0), (0.5, 0.4))),), 1)
    mesh = triangulate(dom, crack, 0.1, 0.02)
    released_pts = {tuple(mesh.nodes[i]) for i in mesh.released_nodes}
    assert (0.5, 0.0) in released_pts
    assert all(i not in mesh.dirichlet_nodes for i in mesh.released_nodes)


def test_mesh_failures():
    dom = DomainSpec.unit_square()
    outside = CrackSet((Polyline(((0.5, 0.5), (1.5, 0.5))),), 1)
    with pytest.raises(MeshFailure):
        triangulate(dom, outside, 0.1, 0.02)
    with pytest.raises(MeshFailure):
        triangulate(dom, CrackSet((), 1), 0.1, 0.2)  # h_tip > h_max
    tiny_seg = CrackSet((Polyline(((0.3, 0.5), (0.305, 0.5), (0.7, 0.5))),), 1)
    with pytest.raises(MeshFailure):
        triangulate(dom, tiny_seg, 0.1, 0.02)
    along = CrackSet((Polyline(((0.2, 0.0), (0.8, 0.0))),), 1)
    with pytest.raises(MeshFailure):
        triangulate(dom, along, 0.1, 0.02)
    touching = CrackSet(
        (Polyline(((0.3, 0.5), (0.6, 0.5))), Polyline(((0.6, 0.5), (0.6, 0.8)))),
        m=2,
    )
    with pytest.raises(MeshFailure):
        triangulate(dom, touching, 0.1, 0.02)


def test_point_component_is_single_node():
    dom = DomainSpec.unit_square()
    crack = CrackSet((Polyline(((0.4, 0.6),)),), 1)
    mesh = triangulate(dom, crack, 0.2, 0.1)
    assert len(mesh.crack_face_pairs) == 0
    hits = np.flatnonzero(
        (mesh.nodes[:, 0] == 0.4) & (mesh.nodes[:, 1] == 0.6)
    )
    assert len(hits) == 1


def test_text_export_roundtrip_counts(slit_disk_mesh):
    _, _, mesh = slit_disk_mesh
    text = mesh.to_text()
    header = text.splitlines()[0].split()
    assert [int(x) for x in header] == [
        mesh.n_nodes,
        mesh.n_triangles,
        len(mesh.boundary_edges),
    ]
    vtk = mesh.to_vtk()
    assert vtk.startswith("# vtk DataFile")
    assert f"POINTS {mesh.n_nodes} double" in vtk


def _assert_edge_table_matches_loop(triangles):
    edges, counts, owners = edge_table(triangles)
    ref = sorted(edge_owners_loop(triangles).items())
    assert edges.tolist() == [list(e) for e, _ in ref]
    assert counts.tolist() == [len(o) for _, o in ref]
    assert owners.tolist() == [(o + [-1])[:2] for _, o in ref]


@given(st.integers(3, 80), st.integers(0, 2**32 - 1))
def test_edge_table_matches_loop_on_delaunay(n_points, seed):
    rng = np.random.default_rng(seed)
    tris = Delaunay(rng.uniform(0.0, 1.0, size=(n_points, 2))).simplices
    _assert_edge_table_matches_loop(tris)
    # shuffled rows and rotated corners: owners follow triangle order
    tris = np.roll(tris[rng.permutation(len(tris))], int(rng.integers(3)), axis=1)
    _assert_edge_table_matches_loop(tris)


@given(
    st.floats(0.2, 0.8),
    st.floats(0.2, 0.8),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.1, 0.4),
)
def test_edge_table_matches_loop_on_slit_meshes(x, y, angle, ell):
    ex, ey = x + ell * math.cos(angle), y + ell * math.sin(angle)
    assume(0.1 <= ex <= 0.9 and 0.1 <= ey <= 0.9)
    crack = CrackSet((Polyline(((x, y), (ex, ey))),), 1)
    try:
        mesh = triangulate(DomainSpec.unit_square(), crack, 0.1, 0.025)
    except MeshFailure:
        assume(False)
    _assert_edge_table_matches_loop(mesh.triangles)
    # an interior slit cut open is an annulus
    V, E, F = mesh.n_nodes, len(edge_table(mesh.triangles)[0]), mesh.n_triangles
    assert V - E + F == 0


# ---------------------------------------------------------------------------
# batched sampling, lattice and thinning keep the bits of the point loops
# ---------------------------------------------------------------------------

_xy = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@given(
    st.lists(st.tuples(_xy, _xy), min_size=1, max_size=4),
    st.lists(_xy, min_size=1, max_size=3),
    st.floats(0.02, 0.2),
    st.floats(1.0, 8.0),
    st.floats(0.1, 1.0),
)
def test_subdivide_matches_recursive_bisection(pieces, tips, h_tip, ratio, grading):
    size = _SizeField(tips, ratio * h_tip, h_tip)
    size.grading = grading  # the mesher's grading is fixed; bisection must agree for any
    got = _subdivide(pieces, size)
    assert len(got) == len(pieces)
    for pts, (a, b) in zip(got, pieces):
        want = np.array(bisect_polyline(a, b, size), float)
        assert np.array(pts, float).tobytes() == want.tobytes()


@given(
    st.lists(_xy, min_size=1, max_size=3),
    st.floats(0.05, 0.4),
    st.floats(0.1, 1.5),
)
def test_hex_lattice_matches_point_loop(anchors, s, reach):
    bbox = (-1.0, 1.5, -0.5, 1.0)
    anchored = [
        ((ax, ay), (ax - reach, ax + reach, ay - reach, ay + reach))
        for ax, ay in anchors
    ]
    want = np.array(hex_lattice_loop(anchored, s, *bbox), float).reshape(-1, 2)
    assert _hex_lattice(anchored, s, *bbox).tobytes() == want.tobytes()


@given(st.integers(2, 120), st.integers(0, 2**32 - 1))
def test_thin_matches_greedy_loop(n_points, seed):
    # points and radii on a 1/8 grid, so distances often equal a radius
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 10, size=(n_points, 2)) / 8.0
    radius = rng.integers(1, 4, size=n_points) / 8.0
    kept = _thin(pts, radius)
    assert np.flatnonzero(kept).tolist() == thin_greedy_loop(pts, radius)


def _benchmark_taper():
    return DomainSpec(
        (
            (0.0, -cases.TAPER_H0),
            (cases.TAPER_L, -cases.TAPER_H1),
            (cases.TAPER_L, cases.TAPER_H1),
            (0.0, cases.TAPER_H0),
        ),
        dirichlet_arcs=((0, 1), (2, 3)),
    )


def _slits(*polylines, m=1):
    return CrackSet(tuple(Polyline(p) for p in polylines), m)


# sha256 of `fingerprint_bytes()`. The bits depend on qhull (scipy) and on
# numpy's floating point; these values hold for numpy 2.4 and scipy 1.17,
# the versions CI installs.
PINNED_MESHES = {
    "taper_refine1": (
        lambda: (_benchmark_taper(), cases.taper_crack(cases.TAPER_A0), 8 / 64, 1 / 64),
        "c23304ecc5b2bcc278824dabe8dfe36bfa6f5e66da3f926e0d5b81e127f2e183",
    ),
    "taper_refine2": (
        lambda: (_benchmark_taper(), cases.taper_crack(cases.TAPER_A0), 8 / 128, 1 / 128),
        "741ab9051fbc82f1ffa50ca6c10adc6d6d3067b5c5885d7cbf907eb9875a81e1",
    ),
    "slit_disk": (
        lambda: (
            DomainSpec.all_dirichlet(regular_polygon_disk(128)),
            _slits(((-1.0, 0.0), (0.0, 0.0))),
            1 / 8,
            1 / 64,
        ),
        "de7912b7909a2f441d60d5d3e8e115599e3dda4bceed7ceaedfeac48f2303c9f",
    ),
    "square_slit": (
        lambda: (DomainSpec.unit_square(), _slits(((0.3, 0.5), (0.7, 0.5))), 0.1, 0.02),
        "0b93c63a02e95df9ce0720d1e9569e6e5405df15ef37132945af78e7c685f003",
    ),
    "kinked_slit": (
        lambda: (
            DomainSpec.unit_square(),
            _slits(((0.3, 0.5), (0.5, 0.5), (0.6, 0.6))),
            0.1,
            0.02,
        ),
        "5c39e39b69f6ebe75e7fc1502d725b71794ed4c96c3e8c9b6b248206301a5ad4",
    ),
    "two_components": (
        lambda: (
            DomainSpec.unit_square(),
            _slits(((0.2, 0.3), (0.45, 0.3)), ((0.55, 0.7), (0.8, 0.7)), m=2),
            0.1,
            0.02,
        ),
        "7be7c584a4f7a7610b2744251282d02f500f8e850d3366c8dcbdd85b769f75be",
    ),
    "taper_h512": (
        lambda: (_benchmark_taper(), cases.taper_crack(1.1), 8 / 512, 1 / 512),
        "36e12ca086d27441b944068999dcbd523ba0262f076119789d8dac711fa9862b",
    ),
}


@functools.cache
def _pinned_mesh(name):
    return triangulate(*PINNED_MESHES[name][0]())


@pytest.mark.parametrize("name", sorted(PINNED_MESHES))
def test_pinned_mesh_fingerprints(name):
    want = PINNED_MESHES[name][1]
    assert hashlib.sha256(_pinned_mesh(name).fingerprint_bytes()).hexdigest() == want


@pytest.mark.parametrize("name", sorted(PINNED_MESHES))
def test_builtin_samplers_match_evaluators(name):
    # each built-in datum samples a whole mesh with the same bits as its
    # per-node evaluator, and so does its scaled copy
    mesh = _pinned_mesh(name)
    data = [
        cases.taper_datum(),
        cases.datum_from_config(
            {"type": "taper", "length_x": 3, "h0": cases.TAPER_H0, "h1": cases.TAPER_H1}
        ),
        cases.linear_datum(1.7, -0.3),
        cases.constant_datum(2.5),
        cases.constant_datum(3),
        cases.zero_datum(),
    ]
    for g in data + [scale_datum(g, c) for g in data for c in (-0.37, 1e3)]:
        assert g.mesh_sampler is not None
        per_node = np.array([g.evaluator(x, y) for x, y in mesh.nodes], dtype=float)
        assert g.sample(mesh).tobytes() == per_node.tobytes()
