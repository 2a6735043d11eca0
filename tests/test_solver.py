import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from quasicrack import solver
from quasicrack.cases import (
    TAPER_A0,
    TAPER_H0,
    TAPER_H1,
    TAPER_L,
    constant_datum,
    linear_datum,
    mode3_datum,
    slit_disk_crack,
    slit_disk_domain,
    taper_crack,
    taper_datum,
    taper_domain,
    zero_datum,
)
from quasicrack.domain import DomainSpec
from quasicrack.geometry import CrackSet, Polyline
from quasicrack.mesh import triangulate
from quasicrack.solver import (
    MeshMismatch,
    ScalarField,
    SolveFailure,
    _dirichlet_mask,
    bulk_energy,
    gram_matrix,
    scale_datum,
    solve,
    solve_many,
)

from oracles import node_components_loop, tangential_jump_max_loop
from verification import (
    RegionNotSimplyConnected,
    face_pairs,
    harmonic_conjugate,
    pointwise,
    residual_norm,
    unit_square,
)


@pytest.fixture(scope="module")
def square_mesh():
    dom = DomainSpec.all_dirichlet(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    return dom, triangulate(dom, CrackSet((), 1), 0.2, 0.2)


def test_linear_reproduction(square_mesh):
    _, mesh = square_mesh
    u = solve(mesh, pointwise(lambda x, y: x))
    assert np.max(np.abs(u.nodal_values - mesh.nodes[:, 0])) <= 1e-9
    assert bulk_energy(u) == pytest.approx(1.0, abs=1e-9)


def test_constant_reproduction(square_mesh):
    _, mesh = square_mesh
    u = solve(mesh, pointwise(lambda x, y: 2.5))
    assert np.max(np.abs(u.nodal_values - 2.5)) <= 1e-9
    assert bulk_energy(u) <= 1e-18


def test_galerkin_residual(square_mesh):
    _, mesh = square_mesh
    g = pointwise(lambda x, y: x * x - y * y + 0.3 * x * y)
    u = solve(mesh, g)
    assert residual_norm(u, g) <= 1e-9


def test_inner_product_cases(square_mesh):
    _, mesh = square_mesh
    ux = solve(mesh, pointwise(lambda x, y: x))
    uy = solve(mesh, pointwise(lambda x, y: y))
    zero = ScalarField(mesh, np.zeros(mesh.n_nodes))
    G = gram_matrix([ux, uy, zero])
    assert G[0][0] == bulk_energy(ux) == pytest.approx(1.0, abs=1e-9)
    assert G[0][1] == G[1][0] == pytest.approx(0.0, abs=1e-12)
    assert G[0][2] == G[2][2] == 0.0


def test_mesh_mismatch_raises(square_mesh):
    dom, mesh = square_mesh
    other = triangulate(dom, CrackSet((), 1), 0.25, 0.25)
    u = solve(mesh, pointwise(lambda x, y: x))
    v = solve(other, pointwise(lambda x, y: x))
    with pytest.raises(MeshMismatch):
        gram_matrix([u, v])


@given(
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
    st.floats(-1.0, 1.0),
)
@settings(max_examples=15)
def test_energy_comparison_vs_interpolant(square_mesh, a, b, c):
    # the discrete minimizer never beats the interpolated datum's energy
    _, mesh = square_mesh
    g = pointwise(lambda x, y: a * x * x + b * y + c * x * y)
    u = solve(mesh, g)
    interp = ScalarField(mesh, g(mesh))
    assert bulk_energy(u) <= bulk_energy(interp) + 1e-12


def test_linearity_nodewise(square_mesh):
    _, mesh = square_mesh
    f1 = lambda x, y: x * x - y
    f2 = lambda x, y: math.sin(x) + y * y
    g1, g2 = pointwise(f1), pointwise(f2)
    alpha, beta = 1.7, -0.6
    combo = pointwise(lambda x, y: alpha * f1(x, y) + beta * f2(x, y))
    u = solve(mesh, combo)
    u12 = alpha * solve(mesh, g1).nodal_values + beta * solve(mesh, g2).nodal_values
    assert np.max(np.abs(u.nodal_values - u12)) <= 1e-9


def test_scale_datum(square_mesh):
    _, mesh = square_mesh
    g = pointwise(lambda x, y: x + 2 * y)
    sg = scale_datum(g, -2.0)
    assert np.allclose(sg(mesh), -2.0 * g(mesh))
    # a datum that is no per-node formula is scaled too
    faced = lambda m: np.arange(float(m.n_nodes))
    assert np.array_equal(scale_datum(faced, -2.0)(mesh), -2.0 * np.arange(mesh.n_nodes))


def test_mode3_convergence():
    domain = slit_disk_domain()
    crack = slit_disk_crack()
    g = mode3_datum(1.0)
    errs = []
    for h_max, h_tip in [(1 / 8, 1 / 32), (1 / 16, 1 / 64), (1 / 32, 1 / 128)]:
        mesh = triangulate(domain, crack, h_max, h_tip)
        u = solve(mesh, g)
        exact = g(mesh)
        # nodal L2 error, area-lumped
        lump = np.zeros(mesh.n_nodes)
        for i in range(3):
            np.add.at(lump, mesh.triangles[:, i], mesh.areas / 3.0)
        errs.append(math.sqrt(float(lump @ (u.nodal_values - exact) ** 2)))
    assert errs[1] < errs[0] * 0.9
    assert errs[2] < errs[1] * 0.9


def _floating_data():
    return (
        pointwise(lambda x, y: 1.0 + x),
        pointwise(lambda x, y: math.sin(3.0 * x)),
    )


def _three_strips():
    """The unit square, Dirichlet on the bottom edge only, cut into three
    strips by full-width slits at y = 1/3 and 2/3: the upper two float."""
    dom = unit_square(dirichlet_arcs=((0, 1),))
    crack = CrackSet(tuple(Polyline(((0.0, y), (1.0, y))) for y in (1 / 3, 2 / 3)), 2)
    return triangulate(dom, crack, 0.1, 0.02)


def test_each_floating_strip_is_pinned_at_its_lowest_node(monkeypatch):
    mesh = _three_strips()
    components = node_components_loop(mesh)
    # the stiffness matrix's pattern, explicit zeros included, is the
    # triangle-edge graph
    n_comp, labels = connected_components(solver.stiffness_matrix(mesh), directed=False)
    assert sorted(np.flatnonzero(labels == k).tolist() for k in range(n_comp)) == components
    assert mesh.n_nodes == 179 and len(components) == 3
    constrained = _dirichlet_mask(mesh)
    floating = [c for c in components if not constrained[c].any()]
    assert len(floating) == 2
    for direct_max_free in (solver.DIRECT_MAX_FREE, 0):
        monkeypatch.setattr(solver, "DIRECT_MAX_FREE", direct_max_free)
        for u in solve_many(mesh, _floating_data()):
            for nodes in floating:
                assert u.nodal_values[nodes[0]] == 0.0
                assert np.max(np.abs(u.nodal_values[nodes])) <= 1e-9


def test_floating_strip_columns_keep_their_bits(monkeypatch):
    # sha256 of both floating data's columns on the three strips, from the
    # factor and from the CG; recorded with a per-component pinning loop, so
    # they check that pinning through one array keeps the bits (numpy 2.4,
    # scipy 1.17)
    expected = {
        solver.DIRECT_MAX_FREE: "21433efd86b93c2857d2d1f136cb07b2a5a030610514928ee32808a024b2f298",
        0: "62ae60e6e2ac294dee4afa01f03f5558e56ef7cecf1b5d774095463421277f51",
    }
    mesh = _three_strips()
    for direct_max_free, hexdigest in expected.items():
        monkeypatch.setattr(solver, "DIRECT_MAX_FREE", direct_max_free)
        digest = hashlib.sha256()
        for u in solve_many(mesh, _floating_data()):
            digest.update(u.nodal_values.tobytes())
        assert digest.hexdigest() == hexdigest


def test_floating_component_pinned():
    # crack separating the square: the upper half sees no Dirichlet data
    dom = unit_square(dirichlet_arcs=((0, 1),))  # bottom only
    crack = CrackSet((Polyline(((0.0, 0.5), (1.0, 0.5))),), 1)
    mesh = triangulate(dom, crack, 0.1, 0.02)
    u = solve(mesh, pointwise(lambda x, y: 1.0 + x))
    upper = mesh.nodes[:, 1] > 0.5 + 1e-9
    # floating upper block: constant (pinned to zero), zero gradient
    assert np.max(np.abs(u.nodal_values[upper])) <= 1e-9
    lower_boundary = [
        i for i in mesh.dirichlet_nodes if mesh.nodes[i][1] < 1e-12
    ]
    vals = u.nodal_values[lower_boundary]
    expect = 1.0 + mesh.nodes[lower_boundary, 0]
    assert np.max(np.abs(vals - expect)) <= 1e-9


def _taper_mesh(refine: int):
    h_tip = 1.0 / (64.0 * refine)
    domain = taper_domain(TAPER_L, TAPER_H0, TAPER_H1)
    return triangulate(domain, taper_crack(TAPER_A0), 8.0 * h_tip, h_tip)


def _mixed_data():
    """Seven columns on which the CG stops at different iterations.

    On the refine-1 taper mesh scipy's `cg` takes 112, 0, 110, 111, 123,
    112 and 0 iterations on them: the zero datum never enters the loop and
    the constant's start is already its solution.
    """
    tap = taper_datum(TAPER_L, TAPER_H0, TAPER_H1)
    return (
        scale_datum(tap, 1e-3),
        zero_datum(),
        mode3_datum(1e3, (TAPER_A0, 0.0)),
        linear_datum(1e-1, 1e1),
        pointwise(lambda x, y: math.sin(3.0 * x) + y),
        scale_datum(tap, 1e3),
        constant_datum(1e2),
    )


def test_solve_many_columns_bitwise_equal_solve(monkeypatch):
    # shared assembly, pinning and solve, on a mesh with a floating
    # component and on taper meshes at refine 1 and 2, for S = 1..7: each
    # mesh takes the factor, and then the CG under a zero DIRECT_MAX_FREE
    dom = unit_square(dirichlet_arcs=((0, 1),))
    crack = CrackSet((Polyline(((0.0, 0.5), (1.0, 0.5))),), 1)
    systems = [(triangulate(dom, crack, 0.1, 0.02), _floating_data())]
    systems += [(_taper_mesh(refine), _mixed_data()) for refine in (1, 2)]
    for mesh, data in systems:
        assert np.sum(~_dirichlet_mask(mesh)) <= solver.DIRECT_MAX_FREE
        for direct_max_free in (solver.DIRECT_MAX_FREE, 0):
            with monkeypatch.context() as m:
                m.setattr(solver, "DIRECT_MAX_FREE", direct_max_free)
                single = [solve(mesh, g).nodal_values.tobytes() for g in data]
                for S in range(1, len(data) + 1):
                    block = [u.nodal_values.tobytes() for u in solve_many(mesh, data[:S])]
                    assert block == single[:S]


def test_factor_columns_repeat_and_match_scipy_cg(monkeypatch):
    # the factor's columns are the same bits on every call, and within the
    # CG's tolerance of its columns (scipy's `cg`) on each datum
    for refine in (1, 2):
        mesh, data = _taper_mesh(refine), _mixed_data()
        first = [u.nodal_values for u in solve_many(mesh, data)]
        again = [u.nodal_values for u in solve_many(mesh, data)]
        assert [u.tobytes() for u in first] == [u.tobytes() for u in again]
        with monkeypatch.context() as m:
            m.setattr(solver, "DIRECT_MAX_FREE", 0)
            reference = [u.nodal_values for u in solve_many(mesh, data)]
        for u, ref in zip(first, reference):
            assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_factor_failure_raises(square_mesh):
    _, mesh = square_mesh
    data = (pointwise(lambda x, y: x * x - y), pointwise(lambda x, y: math.nan))
    with pytest.raises(SolveFailure, match="non-finite"):
        solve_many(mesh, data)
    # [[1, 1], [1, 1]] has a zero pivot after one elimination step
    with pytest.raises(SolveFailure, match="singular stiffness block"):
        solver._direct_solve(csr_matrix(np.ones((2, 2))), np.ones((1, 2)))


def test_cg_columns_keep_their_bits(monkeypatch):
    # sha256 of the CG's seven columns on the refine-1 taper mesh; like the
    # mesh pins, these bits hold for numpy 2.4 and scipy 1.17
    monkeypatch.setattr(solver, "DIRECT_MAX_FREE", 0)
    digest = hashlib.sha256()
    for u in solve_many(_taper_mesh(1), _mixed_data()):
        digest.update(u.nodal_values.tobytes())
    assert digest.hexdigest() == (
        "2fc8fbb273e4e39d7f241b33858018c8d5f4ed2a04ea8b27d449d882b1655e38"
    )


def test_cg_failure_past_maxiter(monkeypatch, square_mesh):
    _, mesh = square_mesh
    monkeypatch.setattr(solver, "DIRECT_MAX_FREE", 0)  # the CG
    maxiter = solver.CG_MAXITER_FACTOR * int(np.sum(~_dirichlet_mask(mesh)))
    message = f"conjugate gradient did not converge (info={maxiter})"
    g = pointwise(lambda x, y: x * x - y)
    with np.errstate(all="ignore"):
        with monkeypatch.context() as m:
            m.setattr(solver, "CG_RTOL", 0.0)  # no residual is below 0
            with pytest.raises(SolveFailure) as failure:
                solve_many(mesh, (g,))
            assert str(failure.value) == message
        # a NaN column runs to maxiter after the column before it converged
        data = (g, pointwise(lambda x, y: math.nan), constant_datum(2.0), zero_datum())
        with pytest.raises(SolveFailure) as failure:
            solve_many(mesh, data)
        assert str(failure.value) == message


def test_harmonic_conjugate_of_linear(square_mesh):
    _, mesh = square_mesh
    u = solve(mesh, pointwise(lambda x, y: x))
    v = harmonic_conjugate(u, (0.0, 1.0, 0.0, 1.0))
    w = v.nodal_values - (mesh.nodes[:, 1] - np.nanmean(mesh.nodes[:, 1]))
    assert np.nanmax(np.abs(w - np.nanmean(w))) <= 1e-9


def test_harmonic_conjugate_constant(square_mesh):
    _, mesh = square_mesh
    u = solve(mesh, pointwise(lambda x, y: 4.0))
    v = harmonic_conjugate(u, (0.0, 1.0, 0.0, 1.0))
    assert np.nanmax(np.abs(v.nodal_values)) <= 1e-9


def test_harmonic_conjugate_face_constancy_decays():
    domain = slit_disk_domain()
    crack = slit_disk_crack()
    g = mode3_datum(1.0)
    osc = []
    for h_max, h_tip in [(1 / 8, 1 / 32), (1 / 16, 1 / 128)]:
        mesh = triangulate(domain, crack, h_max, h_tip)
        u = solve(mesh, g)
        v = harmonic_conjugate(u, (-0.9, 0.6, -0.6, 0.6))
        vals = [
            v.nodal_values[plus]
            for (x, _), plus, _ in face_pairs(mesh)
            if -0.85 <= x <= 0.0 and not np.isnan(v.nodal_values[plus])
        ]
        osc.append(max(vals) - min(vals))
    assert osc[1] < osc[0] * 0.75


def test_harmonic_conjugate_region_errors(square_mesh):
    _, mesh = square_mesh
    u = solve(mesh, pointwise(lambda x, y: x))
    with pytest.raises(RegionNotSimplyConnected):
        harmonic_conjugate(u, (2.0, 3.0, 2.0, 3.0))  # empty region


def test_harmonic_conjugate_disconnected_region():
    # U-shaped domain; a rectangle catching both prongs but not the base
    dom = DomainSpec.all_dirichlet(
        (
            (0.0, 0.0),
            (3.0, 0.0),
            (3.0, 3.0),
            (2.0, 3.0),
            (2.0, 1.0),
            (1.0, 1.0),
            (1.0, 3.0),
            (0.0, 3.0),
        )
    )
    mesh = triangulate(dom, CrackSet((), 1), 0.3, 0.3)
    u = solve(mesh, pointwise(lambda x, y: x + y))
    with pytest.raises(RegionNotSimplyConnected):
        harmonic_conjugate(u, (0.0, 3.0, 1.5, 3.0))


def test_tangential_jump_linear_exact(square_mesh):
    _, mesh = square_mesh
    u = solve(mesh, pointwise(lambda x, y: 2.0 * x - 3.0 * y))
    assert tangential_jump_max_loop(u) <= 1e-8


def test_tangential_jump_decreases_under_refinement():
    # away from the crack the flux jump of the smooth part shrinks with h
    domain = slit_disk_domain()
    crack = slit_disk_crack()
    g = mode3_datum(1.0)
    jumps = []
    for h_max, h_tip in [(1 / 8, 1 / 32), (1 / 16, 1 / 64)]:
        mesh = triangulate(domain, crack, h_max, h_tip)
        jumps.append(
            tangential_jump_max_loop(solve(mesh, g), away_from=crack, clearance=0.4)
        )
    assert jumps[1] < jumps[0]


def test_field_exports(square_mesh):
    _, mesh = square_mesh
    u = solve(mesh, pointwise(lambda x, y: x))
    csv = u.to_csv()
    assert csv.splitlines()[0] == "node_id,x,y,value"
    assert len(csv.splitlines()) == mesh.n_nodes + 1
