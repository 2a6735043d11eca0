import dataclasses
import functools
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from oracles import (
    bisect_polyline,
    constant_reference,
    delaunay_with_required_loop,
    edge_owners_loop,
    hex_lattice_loop,
    linear_reference,
    min_angle_loop,
    points_in_polygon_loop,
    taper_reference,
    thin_greedy_loop,
    triangulate_loops,
    unzip_loop,
)
from quasicrack import cases
from quasicrack.domain import DomainSpec, regular_polygon_disk
from quasicrack.geometry import (
    CrackSet,
    GeometryViolation,
    Polyline,
    crack_tips,
    extend_tip,
    tips_on_boundary,
)
from quasicrack.mesh import (
    CrackChain,
    CrackMesh,
    MeshFailure,
    _delaunay_with_required,
    _hex_lattice,
    _points_in_polygon,
    _SizeField,
    _subdivide,
    _thin,
    conforming_mesh,
    triangulate,
    unzip,
)
from quasicrack.solver import bulk_energy, scale_datum, solve
from verification import (
    domain_area,
    face_pairs,
    fingerprint_bytes,
    pointwise,
    released_nodes,
    tip_nodes,
    unit_square,
)


@pytest.fixture(scope="module")
def slit_disk_mesh():
    domain = DomainSpec.all_dirichlet(regular_polygon_disk(128))
    crack = CrackSet((Polyline(((-1.0, 0.0), (0.0, 0.0))),), 1)
    return domain, crack, triangulate(domain, crack, 1 / 8, 1 / 64)


def test_square_empty_crack():
    dom = unit_square(dirichlet_arcs=((0, 1),))
    mesh = triangulate(dom, CrackSet((), 1), 0.5, 0.5)
    assert face_pairs(mesh) == []
    assert tip_nodes(mesh) == ()
    tags = {t for _, _, t in mesh.boundary_edges}
    assert tags == {"dirichlet", "neumann"}
    assert mesh.areas.sum() == pytest.approx(1.0, abs=1e-12)


def test_slit_disk_topology(slit_disk_mesh):
    domain, crack, mesh = slit_disk_mesh
    # exactly one tip node, at the slit end, which the chain finishes at
    chain = mesh.crack_chains[0]
    assert tip_nodes(mesh) == (chain.node_ids[-1],)
    assert tuple(mesh.nodes[chain.node_ids[-1]]) == (0.0, 0.0)
    # every other slit node, the boundary end included, is duplicated:
    # coincident pair, no shared triangle
    n_dup = sum(1 for p, m in zip(chain.node_ids, chain.minus_ids) if p != m)
    assert n_dup == len(chain.node_ids) - 1
    for _, plus, minus in face_pairs(mesh):
        assert np.allclose(mesh.nodes[plus], mesh.nodes[minus])
        owners_p = {i for i, t in enumerate(mesh.triangles) if plus in t}
        owners_m = {i for i, t in enumerate(mesh.triangles) if minus in t}
        assert owners_p and owners_m and not (owners_p & owners_m)


def test_area_sum_invariant(slit_disk_mesh):
    domain, crack, mesh = slit_disk_mesh
    assert abs(mesh.areas.sum() - domain_area(domain)) <= 1e-10 * domain_area(domain)


def test_euler_characteristic_boundary_slit(slit_disk_mesh):
    # cutting a disk open along a slit from the boundary keeps a disk
    _, _, mesh = slit_disk_mesh
    V, E, F = mesh.n_nodes, len(edge_owners_loop(mesh.triangles)), len(mesh.triangles)
    assert V - E + F == 1


def test_euler_characteristic_interior_slit():
    # a fully interior slit cut open is an annulus
    dom = unit_square()
    crack = CrackSet((Polyline(((0.3, 0.5), (0.7, 0.5))),), 1)
    mesh = triangulate(dom, crack, 0.1, 0.02)
    assert len(tip_nodes(mesh)) == 2
    V, E, F = mesh.n_nodes, len(edge_owners_loop(mesh.triangles)), len(mesh.triangles)
    assert V - E + F == 0


def test_determinism_bitwise(slit_disk_mesh):
    domain, crack, mesh = slit_disk_mesh
    again = triangulate(domain, crack, 1 / 8, 1 / 64)
    assert fingerprint_bytes(mesh) == fingerprint_bytes(again)


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
    dom = unit_square(dirichlet_arcs=((0, 1),))  # bottom edge only
    cases = [
        (((0.3, 0.5), (0.7, 0.5)), []),  # interior slit
        (((0.5, 0.0), (0.5, 0.4)), [(0.5, 0.0), (0.5, 0.0)]),  # meets the Dirichlet edge
        (((0.5, 1.0), (0.5, 0.6)), []),  # meets only a Neumann edge
    ]
    for segment, released in cases:
        mesh = triangulate(dom, CrackSet((Polyline(segment),), 1), 0.1, 0.02)
        assert sorted(tuple(mesh.nodes[i]) for i in released_nodes(mesh)) == released


def test_released_nodes_at_dirichlet_touch():
    dom = unit_square(dirichlet_arcs=((0, 1),))
    crack = CrackSet((Polyline(((0.5, 0.0), (0.5, 0.4))),), 1)
    mesh = triangulate(dom, crack, 0.1, 0.02)
    released_pts = {tuple(mesh.nodes[i]) for i in released_nodes(mesh)}
    assert (0.5, 0.0) in released_pts
    assert all(i not in mesh.dirichlet_nodes for i in released_nodes(mesh))


@pytest.mark.parametrize(
    "h_max, h_tip",
    [(0.1, 0.0), (0.1, -0.02), (0.0, 0.0), (math.inf, 0.02), (0.1, math.nan)],
)
def test_sizes_that_are_not_positive_and_finite_are_rejected(h_max, h_tip):
    # checked before any sampling: a zero size would bisect forever
    crack = CrackSet((Polyline(((0.3, 0.5), (0.7, 0.5))),), 1)
    with pytest.raises(MeshFailure, match="^mesh sizes must be positive and finite$"):
        triangulate(unit_square(), crack, h_max, h_tip)


def test_mesh_failures():
    dom = unit_square()
    outside = CrackSet((Polyline(((0.5, 0.5), (1.5, 0.5))),), 1)
    with pytest.raises(MeshFailure, match="^crack leaves the closure of the domain$"):
        triangulate(dom, outside, 0.1, 0.02)
    with pytest.raises(MeshFailure, match="^h_tip must not exceed h_max$"):
        triangulate(dom, CrackSet((), 1), 0.1, 0.2)
    tiny_seg = CrackSet((Polyline(((0.3, 0.5), (0.305, 0.5), (0.7, 0.5))),), 1)
    with pytest.raises(MeshFailure, match="^crack segment shorter than h_tip$"):
        triangulate(dom, tiny_seg, 0.1, 0.02)
    along = CrackSet((Polyline(((0.2, 0.0), (0.8, 0.0))),), 1)
    with pytest.raises(
        MeshFailure, match="^crack running along the boundary is unsupported$"
    ):
        triangulate(dom, along, 0.1, 0.02)
    notched = DomainSpec(((0.0, 0.0), (1.0, 0.0), (0.75, 0.25), (1.0, 1.0), (0.0, 1.0)))
    crossing = CrackSet((Polyline(((0.95, 0.02), (0.95, 0.9))),), 1)
    with pytest.raises(MeshFailure, match="^crack segment crosses the boundary$"):
        triangulate(notched, crossing, 0.1, 0.02)
    touching = CrackSet(
        (Polyline(((0.3, 0.5), (0.6, 0.5))), Polyline(((0.6, 0.5), (0.6, 0.8)))),
        m=2,
    )
    with pytest.raises(MeshFailure, match="^touching crack components are unsupported$"):
        triangulate(dom, touching, 0.1, 0.02)
    with pytest.raises(MeshFailure, match="^not enough points to triangulate$"):
        _delaunay_with_required(np.zeros((2, 2)), np.zeros((0, 2), dtype=np.int64), 2)


@pytest.mark.parametrize("edge", range(8))
def test_crack_along_a_slanted_edge_is_reported(edge):
    # decided exactly: the float midpoint of a slanted edge may miss it
    dom = DomainSpec.all_dirichlet(regular_polygon_disk(8))
    along = CrackSet((Polyline(dom.edges()[edge]),), 1)
    with pytest.raises(
        MeshFailure, match="^crack running along the boundary is unsupported$"
    ):
        triangulate(dom, along, 1 / 4, 1 / 16)


def test_crack_along_two_collinear_edges_is_reported():
    # the bottom side is two edges meeting at a straight vertex (0.5, 0)
    dom = DomainSpec(((0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    across = CrackSet((Polyline(((0.25, 0.0), (0.75, 0.0))),), 1)
    with pytest.raises(
        MeshFailure, match="^crack running along the boundary is unsupported$"
    ):
        triangulate(dom, across, 0.1, 0.02)


def test_extension_of_a_meshed_crack_checks_its_new_segment():
    # a crack from `extend_tip` keeps no link to its base, so the mesher
    # checks it whole: each failure carries the message of a fresh copy
    dom = unit_square()

    def grow(crack, end, angle, step):
        tip = next(t for t in crack_tips(crack) if t.end == end)
        return extend_tip(crack, tip, angle, step, domain=dom)

    def message(crack):
        with pytest.raises(MeshFailure) as err:
            triangulate(dom, crack, 0.1, 0.02)
        fresh = CrackSet.from_json(crack.to_json(), crack.m)
        with pytest.raises(MeshFailure, match=f"^{err.value}$"):
            triangulate(dom, fresh, 0.1, 0.02)
        return str(err.value)

    base = CrackSet((Polyline(((0.2, 0.5), (0.5, 0.5))),), 1)
    triangulate(dom, base, 0.1, 0.02)
    assert message(grow(base, "finish", 0.0, 0.01)) == "crack segment shorter than h_tip"
    to_edge = grow(base, "finish", 0.0, 0.5)  # ends on the edge x = 1
    along = grow(to_edge, "finish", math.pi / 2, 0.25)
    assert message(along) == "crack running along the boundary is unsupported"
    # two unmeshed extensions: the first fails, the second adds a short
    # segment at the start, which a whole check meets first
    assert message(grow(along, "start", 0.0, 0.01)) == "crack segment shorter than h_tip"
    grown = grow(grow(base, "start", 0.0, 0.1), "finish", 0.3, 0.1)
    assert fingerprint_bytes(triangulate(dom, grown, 0.1, 0.02)) == fingerprint_bytes(
        triangulate(dom, CrackSet.from_json(grown.to_json(), grown.m), 0.1, 0.02)
    )


# Crafted base meshes for the unzip, one per failure after triangulation.
# Each case: chains as node ids, points, triangles, boundary cycle (nodes,
# parent polygon edges), and the message. A chain end on the cycle is a
# boundary end, any other a tip.
_FAN = [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)]
_UNZIP_FAILURES = {
    "one_sided_edge": (
        [[0, 1]], _FAN + [(0.0, 1.0)], [[0, 1, 3]], ([0, 1, 3], [0, 1, 2]),
        "interior crack edge lacks two triangles",
    ),
    "empty_side": (
        [[0, 1, 2]], _FAN + [(0.0, 1.0), (0.0, 2.0)],
        [[0, 1, 3], [1, 2, 3], [0, 1, 4], [1, 2, 4]], ([0, 2, 4], [0, 1, 2]),
        "crack unzip found an empty face side",
    ),
    "face_not_free": (
        # both ends are tips, off the cycle; only node 1 splits
        [[0, 1, 2]],
        _FAN + [(-0.5, 1.0), (-0.5, 2.0), (0.5, -1.0), (0.5, 1.0)],
        [[0, 1, 3], [0, 1, 4], [1, 2, 6], [2, 1, 5]], ([4, 5, 6], [0, 1, 2]),
        "crack face edge not free after unzip",
    ),
    "non_manifold": (
        [], [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0), (0.5, 2.0)],
        [[0, 1, 2], [1, 0, 3], [0, 1, 4]], ([0, 3, 1, 2], [0, 1, 2, 3]),
        "non-manifold edge",
    ),
    "untagged": (
        [], [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.0, 1.0)], [[0, 1, 2]],
        ([0, 1, 3], [0, 1, 2]),
        "untagged boundary edge (hole in mesh?)",
    ),
    "clockwise": (
        [], [(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)], [[0, 2, 1]], ([0, 1, 2], [0, 1, 2]),
        "non-positive triangle area",
    ),
    "sliver": (
        [], [(0.0, 0.0), (1.0, 0.0), (0.5, 0.01)], [[0, 1, 2]], ([0, 1, 2], [0, 1, 2]),
        "min angle 1.15 deg below bound 5.0",
    ),
}


@pytest.mark.parametrize("name", sorted(_UNZIP_FAILURES))
def test_unzip_failures(name):
    chains, pts, tris, (cycle, parent), message = _UNZIP_FAILURES[name]
    dom = unit_square(dirichlet_arcs=((0, 1),))
    base = CrackMesh(
        nodes=np.array(pts, float),
        triangles=np.array(tris, dtype=np.int64),
        boundary_edges=tuple(
            (u, v, dom.edge_tag(k)) for u, v, k in zip(cycle, cycle[1:] + cycle[:1], parent)
        ),
        crack_chains=tuple(CrackChain(tuple(ids), tuple(ids)) for ids in chains),
        h_max=1.0,
        h_tip=1.0,
    )
    with pytest.raises(MeshFailure) as got:
        unzip(base)
    assert str(got.value) == message
    with pytest.raises(MeshFailure) as want:
        unzip_loop(base)
    assert str(want.value) == message


# a required edge (0, 1) blocked by points 4 and 5 on either side of it
_BLOCKED = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0), (0.5, -1.0), (0.5, 0.05), (0.5, -0.05)])


def test_delaunay_repair_recovers_required_edge():
    required = np.array([[1, 0], [0, 2]], dtype=np.int64)
    assert (0, 1) not in edge_owners_loop(Delaunay(_BLOCKED).simplices)
    tris = _delaunay_with_required(_BLOCKED, required, 4)
    # the blocking points were not features, so the repair dropped them
    assert set(tris.ravel().tolist()) == {0, 1, 2, 3}
    assert (0, 1) in edge_owners_loop(tris)
    want = delaunay_with_required_loop(_BLOCKED, {(0, 1), (0, 2)}, 4)
    assert tris.tobytes() == want.tobytes()


def test_delaunay_repair_fails_on_feature_blockers():
    required = np.array([[0, 1]], dtype=np.int64)
    message = "1 required edges missing after repair"
    with pytest.raises(MeshFailure, match=f"^{message}$"):
        _delaunay_with_required(_BLOCKED, required, 6)
    with pytest.raises(MeshFailure, match=f"^{message}$"):
        delaunay_with_required_loop(_BLOCKED, {(0, 1)}, 6)


def test_point_component_is_single_node():
    dom = unit_square()
    crack = CrackSet((Polyline(((0.4, 0.6),)),), 1)
    mesh = triangulate(dom, crack, 0.2, 0.1)
    assert face_pairs(mesh) == [] and tip_nodes(mesh) == ()
    hits = np.flatnonzero(
        (mesh.nodes[:, 0] == 0.4) & (mesh.nodes[:, 1] == 0.6)
    )
    assert len(hits) == 1


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
        mesh = triangulate(unit_square(), crack, 0.1, 0.025)
    except MeshFailure:
        assume(False)
    # an interior slit cut open is an annulus
    V, E, F = mesh.n_nodes, len(edge_owners_loop(mesh.triangles)), len(mesh.triangles)
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
    piece, start, end = _subdivide(pieces, size)
    assert piece.tolist() == sorted(piece.tolist())
    assert set(piece.tolist()) == set(range(len(pieces)))
    for k, (a, b) in enumerate(pieces):
        # a piece's points: its first part's start, then every part's end
        at = piece == k
        assert (start[at][1:] == end[at][:-1]).all()
        pts = np.vstack([start[at][:1], end[at]])
        want = np.array(bisect_polyline(a, b, size), float)
        assert pts.tobytes() == want.tobytes()


@given(
    st.lists(
        st.tuples(st.lists(_xy, min_size=1, max_size=3), st.floats(0.05, 0.4)),
        min_size=1,
        max_size=3,
    ),
    st.floats(0.1, 1.5),
)
def test_hex_lattice_matches_point_loop(levels, reach):
    # all levels at once equal one point loop per level, in level order
    bbox = (-1.0, 1.5, -0.5, 1.0)
    levels = [
        (
            [((ax, ay), (ax - reach, ax + reach, ay - reach, ay + reach)) for ax, ay in anchors],
            s,
        )
        for anchors, s in levels
    ]
    want = [hex_lattice_loop(anchored, s, *bbox) for anchored, s in levels]
    pts, level = _hex_lattice(levels, *bbox)
    assert pts.tobytes() == np.array(sum(want, []), float).reshape(-1, 2).tobytes()
    assert level.tolist() == [k for k, w in enumerate(want) for _ in w]


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


# sha256 of `verification.fingerprint_bytes`. The bits depend on qhull (scipy) and on
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
        lambda: (unit_square(), _slits(((0.3, 0.5), (0.7, 0.5))), 0.1, 0.02),
        "0b93c63a02e95df9ce0720d1e9569e6e5405df15ef37132945af78e7c685f003",
    ),
    "kinked_slit": (
        lambda: (
            unit_square(),
            _slits(((0.3, 0.5), (0.5, 0.5), (0.6, 0.6))),
            0.1,
            0.02,
        ),
        "5c39e39b69f6ebe75e7fc1502d725b71794ed4c96c3e8c9b6b248206301a5ad4",
    ),
    "two_components": (
        lambda: (
            unit_square(),
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
    assert hashlib.sha256(fingerprint_bytes(_pinned_mesh(name))).hexdigest() == want


@pytest.mark.parametrize("name", sorted(PINNED_MESHES))
def test_chain_tips_are_the_crack_tips(name):
    # the tip nodes read off the chains sit, in order, at the crack's tips
    # off the boundary
    domain, crack, _, _ = PINNED_MESHES[name][0]()
    mesh = _pinned_mesh(name)
    want = [t.position for t, on in tips_on_boundary(crack, domain) if not on]
    assert [tuple(mesh.nodes[v].tolist()) for v in tip_nodes(mesh)] == want


@pytest.mark.parametrize("name", sorted(PINNED_MESHES))
def test_builtin_samplers_match_evaluators(name):
    # each built-in datum samples a whole mesh with the same bits as its
    # scalar formula node by node, and so does its scaled copy
    mesh = _pinned_mesh(name)
    data = [
        (cases.taper_datum(), taper_reference()),
        (
            cases.datum_from_config(
                {"type": "taper", "length_x": 3, "h0": cases.TAPER_H0, "h1": cases.TAPER_H1}
            ),
            taper_reference(3, cases.TAPER_H0, cases.TAPER_H1),
        ),
        (cases.linear_datum(1.7, -0.3), linear_reference(1.7, -0.3)),
        (cases.constant_datum(2.5), constant_reference(2.5)),
        (cases.constant_datum(3), constant_reference(3)),
        (cases.zero_datum(), constant_reference(0.0)),
    ]
    scaled = [
        (scale_datum(g, c), lambda x, y, f=f, c=c: c * f(x, y))
        for g, f in data
        for c in (-0.37, 1e3)
    ]
    for g, f in data + scaled:
        assert g(mesh).tobytes() == pointwise(f)(mesh).tobytes()


# ---------------------------------------------------------------------------
# the array mesher keeps the bits of its loop oracle
# ---------------------------------------------------------------------------

_grid = st.integers(-4, 4).map(lambda k: k / 4.0)


@given(
    st.lists(st.tuples(_grid, _grid), min_size=3, max_size=10),
    st.lists(st.tuples(_grid, _grid), max_size=20),
    st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)), max_size=20),
)
def test_points_in_polygon_matches_edge_loop(poly, on_grid, anywhere):
    # grid points sit on vertex ordinates and on horizontal edges, where
    # the ray test divides by zero
    poly = np.array(poly, float)
    pts = np.array(on_grid + anywhere + [tuple(v) for v in poly], float).reshape(-1, 2)
    got = _points_in_polygon(pts, poly)
    assert got.dtype == bool and got.tolist() == points_in_polygon_loop(pts, poly).tolist()


def _mesh_fields(mesh):
    return (
        mesh.nodes.tobytes(),
        mesh.triangles.tobytes(),
        mesh.boundary_edges,
        mesh.crack_chains,
        mesh.dirichlet_nodes,
        mesh.h_max,
        mesh.h_tip,
    )


def _slit(x, y, angle, ell):
    return (x, y), (x + ell * math.cos(angle), y + ell * math.sin(angle))


@st.composite
def _test_cracks(draw, kind):
    """A straight or kinked slit, a slit from the boundary, two components,
    or point components, in the unit square."""
    u = st.floats(0.25, 0.75)
    angle = st.floats(0.0, 2.0 * math.pi)
    ell = st.floats(0.08, 0.3)
    if kind == "slit":
        return (_slit(draw(u), draw(u), draw(angle), draw(ell)),)
    if kind == "kinked":
        a, b = _slit(draw(u), draw(u), draw(angle), draw(ell))
        turn = draw(st.floats(-1.2, 1.2))
        return (
            (a, b, _slit(*b, math.atan2(b[1] - a[1], b[0] - a[0]) + turn, draw(ell))[1]),
        )
    if kind == "boundary":
        # from the bottom edge into the square
        return (_slit(draw(u), 0.0, draw(st.floats(0.4, math.pi - 0.4)), draw(ell)),)
    if kind == "two":
        return (
            _slit(draw(st.floats(0.2, 0.5)), draw(st.floats(0.2, 0.35)), draw(angle), 0.12),
            _slit(draw(st.floats(0.5, 0.8)), draw(st.floats(0.65, 0.8)), draw(angle), 0.12),
        )
    return ((draw(u), draw(u)),) + draw(st.sampled_from([(), (((0.2, 0.2), (0.3, 0.25)),)]))


def _crack_of(polylines):
    """The crack set of `_test_cracks` polylines and points; a drawn set
    that is not a crack set is rejected."""
    comps = tuple(
        Polyline(p) if isinstance(p[0], tuple) else Polyline((p,)) for p in polylines
    )
    try:
        return CrackSet(comps, len(comps))
    except GeometryViolation:
        assume(False)


_SIZES = st.sampled_from([(0.1, 0.025), (0.2, 0.05), (0.1, 0.1)])


@pytest.mark.parametrize("kind", ["slit", "kinked", "boundary", "two", "point"])
@given(data=st.data(), sizes=_SIZES)
def test_triangulate_matches_loop_oracle(kind, data, sizes):
    # every CrackMesh field, including those fingerprint_bytes leaves out,
    # the constrained nodes against the oracle's own edge-by-edge set, and
    # the failure message when there is one
    crack = _crack_of(data.draw(_test_cracks(kind)))
    dom = unit_square(dirichlet_arcs=((0, 1),))
    try:
        want, want_dirichlet = triangulate_loops(dom, crack, *sizes)
    except MeshFailure as exc:
        with pytest.raises(MeshFailure) as got:
            triangulate(dom, crack, *sizes)
        assert str(got.value) == str(exc)
        return
    got = triangulate(dom, crack, *sizes)
    assert _mesh_fields(got) == _mesh_fields(want)
    assert got.dirichlet_nodes == want_dirichlet
    assert got.min_angle() == min_angle_loop(got)
    # the unzip takes a chain end for a tip when it is off the base's
    # boundary cycle: exactly when the crack end is off the boundary
    base = conforming_mesh(dom, crack, *sizes)
    on_cycle = {v for i, j, _ in base.boundary_edges for v in (i, j)}
    ends = [
        ch.node_ids[at] in on_cycle
        for ch in base.crack_chains
        if len(ch.node_ids) > 1
        for at in (0, -1)
    ]
    assert ends == [on for _, on in tips_on_boundary(crack, dom)]


# ---------------------------------------------------------------------------
# the seam: a conforming base mesh, then the unzip of its chains
# ---------------------------------------------------------------------------


def _edge(u, v):
    return min(u, v), max(u, v)


def _chain_edges(ids):
    return [_edge(u, v) for u, v in zip(ids, ids[1:])]


@pytest.mark.parametrize(
    "kind", ["slit", "kinked", "boundary", "two", "point", "taper", "disk"]
)
@given(data=st.data())
def test_unzip_keeps_the_base_geometry(kind, data):
    # the unzip only renumbers corners: every triangle keeps its area and
    # angles; the base's chains are closed and interior, the unzip's faces free
    if kind == "taper":
        dom, sizes = _benchmark_taper(), (1 / 4, 1 / 32)
        crack = _slits(((0.0, 0.0), (data.draw(st.floats(0.3, 2.4)), 0.0)))
    elif kind == "disk":
        # a slit from the boundary vertex (-1, 0) to a tip inside the disk
        dom, sizes = cases.slit_disk_domain(64), (1 / 4, 1 / 32)
        tip = (data.draw(st.floats(-0.5, 0.5)), data.draw(st.floats(-0.5, 0.5)))
        crack = _slits(((-1.0, 0.0), tip))
    else:
        dom, sizes = unit_square(dirichlet_arcs=((0, 1),)), data.draw(_SIZES)
        crack = _crack_of(data.draw(_test_cracks(kind)))
    try:
        base = conforming_mesh(dom, crack, *sizes)
        mesh = unzip(base)
    except MeshFailure:
        assume(False)
    assert base.areas.tobytes() == mesh.areas.tobytes()
    area = domain_area(dom)
    assert abs(math.fsum(mesh.areas.tolist()) - area) <= 1e-12 * area
    assert mesh.min_angle() == base.min_angle() >= 5.0
    assert all(tag != "crack_face" for _, _, tag in base.boundary_edges)
    owners = edge_owners_loop(base.triangles)
    for ch in base.crack_chains:
        assert ch.minus_ids == ch.node_ids
        assert all(len(owners[e]) == 2 for e in _chain_edges(ch.node_ids))
    owners = edge_owners_loop(mesh.triangles)
    for ch in mesh.crack_chains:
        for ids in (ch.node_ids, ch.minus_ids):
            assert all(len(owners[e]) == 1 for e in _chain_edges(ids))
    assert fingerprint_bytes(triangulate(dom, crack, *sizes)) == fingerprint_bytes(mesh)


def test_unzip_chain_prefixes():
    # one base for the taper crack and ten straight rungs of 2h beyond it;
    # each vertex prefix of its chain unzips into a mesh with that crack
    h = 1 / 64
    vertices = [(0.0, 0.0), (cases.TAPER_A0, 0.0)]
    vertices += [(cases.TAPER_A0 + 2 * h * k, 0.0) for k in range(1, 11)]
    dom, crack = _benchmark_taper(), _slits(tuple(vertices))
    base = conforming_mesh(dom, crack, 8 * h, h)
    ids = base.crack_chains[0].node_ids
    position = {tuple(base.nodes[v].tolist()): at for at, v in enumerate(ids)}
    datum = cases.taper_datum(cases.TAPER_L, cases.TAPER_H0, cases.TAPER_H1)
    energies = []
    for v in vertices[1:]:
        prefix = ids[: position[v] + 1]
        cut = dataclasses.replace(base, crack_chains=(CrackChain(prefix, prefix),))
        mesh = unzip(cut)
        want, want_dirichlet = unzip_loop(cut)
        assert _mesh_fields(mesh) == _mesh_fields(want)
        assert mesh.dirichlet_nodes == want_dirichlet
        (chain,) = mesh.crack_chains
        faces = {(i, j) for i, j, tag in mesh.boundary_edges if tag == "crack_face"}
        assert faces == set(_chain_edges(chain.node_ids) + _chain_edges(chain.minus_ids))
        owners = edge_owners_loop(mesh.triangles)
        assert all(len(owners[e]) == 2 for e in _chain_edges(ids[len(prefix) - 1 :]))
        energies.append(bulk_energy(solve(mesh, datum)))
    assert len(energies) == 11
    for before, after in zip(energies, energies[1:]):
        assert after <= before * (1.0 + 1e-9)
    assert fingerprint_bytes(mesh) == fingerprint_bytes(triangulate(dom, crack, 8 * h, h))


def test_chain_touching_the_boundary_at_an_inner_vertex():
    # the fan of the vertex on the bottom edge is open, with the gap on the
    # minus side; the loop oracle splits it by angles
    dom = unit_square(dirichlet_arcs=((0, 1),))
    crack = _slits(((0.3, 0.5), (0.5, 0.0), (0.7, 0.5)))
    want, want_dirichlet = triangulate_loops(dom, crack, 0.1, 0.02)
    got = triangulate(dom, crack, 0.1, 0.02)
    assert _mesh_fields(got) == _mesh_fields(want)
    assert got.dirichlet_nodes == want_dirichlet
    (chain,) = got.crack_chains
    owners = edge_owners_loop(got.triangles)
    for ids in (chain.node_ids, chain.minus_ids):
        assert all(len(owners[e]) == 1 for e in _chain_edges(ids))


# the L-shaped domain (-1, 1)^2 less its upper-left quadrant: the corner at
# the origin is re-entrant, between the notch faces along +y and -x
_L_SHAPE = DomainSpec.all_dirichlet(
    ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0), (-1.0, 0.0))
)


@pytest.mark.parametrize("degrees", range(-170, 90, 10))
def test_cracks_from_a_reentrant_corner_unzip(degrees):
    # at the corner one side of the crack spans more than 180 degrees near
    # a notch face; the unzip splits the fan by topology, so every
    # direction meshes, from either end, with the same bulk energy
    angle = math.radians(degrees)
    tip = (0.5 * math.cos(angle), 0.5 * math.sin(angle))
    energies = []
    for crack in (_slits(((0.0, 0.0), tip)), _slits((tip, (0.0, 0.0)))):
        base = conforming_mesh(_L_SHAPE, crack, 1 / 8, 1 / 64)
        mesh = unzip(base)
        assert base.areas.tobytes() == mesh.areas.tobytes()
        (chain,) = mesh.crack_chains
        # every node but the tip is split, the corner included
        assert sum(p != m for p, m in zip(chain.node_ids, chain.minus_ids)) == len(
            chain.node_ids
        ) - 1
        owners = edge_owners_loop(mesh.triangles)
        for ids in (chain.node_ids, chain.minus_ids):
            assert all(len(owners[e]) == 1 for e in _chain_edges(ids))
        energies.append(bulk_energy(solve(mesh, cases.linear_datum(1, 0.5))))
    assert energies[1] == pytest.approx(energies[0], rel=1e-12, abs=0.0)
