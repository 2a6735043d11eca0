"""P1 finite elements for the mixed Laplace problem on a cracked mesh.

The discrete displacement minimizes the Dirichlet energy over nodal
fields matching the boundary datum on constrained Dirichlet nodes;
crack faces carry natural (do-nothing) conditions through the node
duplication done by the mesher. Floating components (no constrained
node) are pinned at their lowest node index.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

from .geometry import distance_to_crack
from .mesh import CrackMesh, TriangleLocator, edge_table

CG_RTOL = 1e-10
CG_MAXITER_FACTOR = 20


class SolveFailure(Exception):
    """Linear solve did not converge or the system is singular."""


class MeshMismatch(Exception):
    """Operands live on different meshes."""


class RegionNotSimplyConnected(Exception):
    """Conjugate recovery requested on a non-disk region."""


@dataclass(frozen=True)
class BoundaryDatum:
    """Trace of an admissible displacement, evaluable on the closed domain.

    `mesh_sampler`, when given, samples a whole mesh at once in place of a
    per-node evaluator call; data that jump across the crack need one, as
    plus/minus copies take different values. Data carry no identity: an
    `energy.Evaluator` memoizes per crack for the basis it was built with.
    """

    evaluator: Callable[[float, float], float]
    mesh_sampler: Callable[[CrackMesh], np.ndarray] | None = None

    def sample(self, mesh: CrackMesh) -> np.ndarray:
        if self.mesh_sampler is not None:
            return np.asarray(self.mesh_sampler(mesh), dtype=float)
        ev = self.evaluator
        return np.array([ev(x, y) for x, y in mesh.nodes], dtype=float)


def scale_datum(g: BoundaryDatum, c: float) -> BoundaryDatum:
    ev = g.evaluator
    sampler = None
    if g.mesh_sampler is not None:
        base = g.mesh_sampler
        sampler = lambda mesh: c * np.asarray(base(mesh), dtype=float)
    return BoundaryDatum(evaluator=lambda x, y: c * ev(x, y), mesh_sampler=sampler)


@dataclass(frozen=True)
class ScalarField:
    """Nodal P1 field; crack-face duplicates may carry distinct values."""

    mesh: CrackMesh
    nodal_values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.nodal_values, dtype=np.float64)
        if len(v) != self.mesh.n_nodes:
            raise MeshMismatch("one value per node required")
        v.setflags(write=False)
        object.__setattr__(self, "nodal_values", v)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("node_id,x,y,value\n")
        for i, ((x, y), v) in enumerate(zip(self.mesh.nodes, self.nodal_values)):
            buf.write(f"{i},{x!r},{y!r},{v!r}\n")
        return buf.getvalue()

    def to_vtk(self, name: str = "u") -> str:
        out = self.mesh.to_vtk()
        lines = [out.rstrip("\n")]
        lines.append(f"POINT_DATA {self.mesh.n_nodes}")
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{v!r}" for v in self.nodal_values)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class GradientField:
    """Per-triangle constant gradient (extended by zero on the crack)."""

    mesh: CrackMesh
    values: np.ndarray  # (T, 2)


def gradient(u: ScalarField) -> GradientField:
    mesh = u.mesh
    uv = u.nodal_values[mesh.triangles]
    gx = np.einsum("ti,ti->t", mesh.grad_x, uv)
    gy = np.einsum("ti,ti->t", mesh.grad_y, uv)
    return GradientField(mesh, np.stack([gx, gy], axis=1))


def _same_mesh(a: CrackMesh, b: CrackMesh) -> bool:
    return a is b or (
        a.nodes.shape == b.nodes.shape
        and np.array_equal(a.nodes, b.nodes)
        and np.array_equal(a.triangles, b.triangles)
    )


def inner_product(gu: GradientField, gw: GradientField) -> float:
    """Integral of grad u . grad w over the mesh."""
    if not _same_mesh(gu.mesh, gw.mesh):
        raise MeshMismatch("gradient fields live on different meshes")
    return float(np.sum(gu.mesh.areas * (gu.values * gw.values).sum(axis=1)))


def bulk_energy(u: ScalarField) -> float:
    """Integral of |grad u|^2 over the mesh (shear modulus scaled to mu = 2)."""
    g = gradient(u)
    return inner_product(g, g)


# ---------------------------------------------------------------------------
# assembly and solve
# ---------------------------------------------------------------------------


def stiffness_matrix(mesh: CrackMesh) -> csr_matrix:
    """Assemble the P1 stiffness matrix sum_T area * grad phi_i . grad phi_j."""
    return _assemble(mesh.triangles, mesh.areas, mesh.grad_x, mesh.grad_y, mesh.n_nodes)


def _assemble(triangles, areas, grad_x, grad_y, n: int) -> csr_matrix:
    """P1 stiffness on n nodes from per-triangle areas and basis gradients."""
    rows, cols, vals = [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(triangles[:, i])
            cols.append(triangles[:, j])
            vals.append(
                areas * (grad_x[:, i] * grad_x[:, j] + grad_y[:, i] * grad_y[:, j])
            )
    K = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return K.tocsr()


def _dirichlet_mask(mesh: CrackMesh) -> np.ndarray:
    """Boolean mask of the constrained (Dirichlet, not released) nodes."""
    constrained = np.zeros(mesh.n_nodes, dtype=bool)
    idx = np.fromiter(mesh.dirichlet_nodes, dtype=np.int64, count=len(mesh.dirichlet_nodes))
    if len(idx):
        constrained[idx] = True
    return constrained


def _node_components(mesh: CrackMesh) -> np.ndarray:
    t = mesh.triangles
    n = mesh.n_nodes
    rows = np.concatenate([t[:, 0], t[:, 1], t[:, 2]])
    cols = np.concatenate([t[:, 1], t[:, 2], t[:, 0]])
    adj = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    return labels


def solve(mesh: CrackMesh, g: BoundaryDatum) -> ScalarField:
    """Discrete minimizer of the Dirichlet energy with u = g on constrained nodes.

    Constrained nodes are the Dirichlet-tagged ones minus those released
    where the crack meets the Dirichlet boundary. Components whose
    boundary misses the constrained set get one node pinned to zero (the
    continuum solution there is an arbitrary constant).
    """
    return solve_many(mesh, (g,))[0]


def solve_many(mesh: CrackMesh, data) -> list[ScalarField]:
    """`solve` for several data on one mesh: shared assembly, pinning and block CG.

    Each returned field is bitwise equal to `solve(mesh, g)` for its datum.
    """
    n = mesh.n_nodes
    samples = [g.sample(mesh) for g in data]
    constrained = _dirichlet_mask(mesh)

    labels = _node_components(mesh)
    columns = []
    for gvals in samples:
        values = np.zeros(n)
        values[constrained] = gvals[constrained]
        columns.append(values)
    for comp in np.unique(labels):
        members = labels == comp
        if not np.any(constrained & members):
            pin = int(np.flatnonzero(members).min())
            constrained[pin] = True
            for values in columns:
                values[pin] = 0.0

    free = ~constrained
    if not np.any(free):
        return [ScalarField(mesh, values) for values in columns]
    K = stiffness_matrix(mesh)
    Kf = K[free]
    Kff = Kf[:, free]
    Kfc = Kf[:, constrained]
    rhs = np.array([-Kfc @ values[constrained] for values in columns])
    x0 = np.array([gvals[free] for gvals in samples])
    for values, x in zip(columns, _cg_solve(Kff, rhs, x0)):
        values[free] = x
    return [ScalarField(mesh, values) for values in columns]


def _cg_solve(A: csr_matrix, rhs: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
    """Solve A x_k = rhs[k] for every row k by one block Jacobi-preconditioned CG.

    `rhs` and `x0` are (S, n), and so is the result. Each iteration does one
    CSR multi-vector product and keeps per-row scalars rho, alpha and beta;
    a row leaves the block at the iteration where it reaches relative
    residual CG_RTOL. Every row takes the floating-point steps of scipy's
    `cg(A, rhs[k], x0[k], rtol=CG_RTOL, atol=0, M=diag(A)^-1)` in its order,
    so it is bitwise equal to that solve on its own (`tests/oracles.py`).
    """
    diag = np.asarray(A.diagonal())
    if np.any(diag <= 0):
        raise SolveFailure("singular stiffness diagonal (beyond pinning rule)")
    maxiter = CG_MAXITER_FACTOR * len(diag)
    B = np.ascontiguousarray(rhs, dtype=float)
    out = np.zeros_like(B) if x0 is None else np.array(x0, dtype=float)
    # np.vecdot of C-contiguous rows is np.dot per row; a strided row is not
    bnrm = np.sqrt(np.vecdot(B, B))
    live = bnrm != 0
    out[~live] = B[~live]  # a zero right-hand side returns itself
    rows = np.flatnonzero(live)
    x = out if live.all() else out[rows]
    # b - A @ 0 == b bitwise, so a zero start needs no branch
    r = B[rows] - _block_matmul(A, x)
    tol = CG_RTOL * bnrm[rows]
    p = rho_prev = None
    for _ in range(maxiter):
        done = np.sqrt(np.vecdot(r, r)) < tol
        if done.any():
            out[rows[done]] = x[done]
            keep = ~done
            rows, x, r, tol = rows[keep], x[keep], r[keep], tol[keep]
            if p is not None:
                p, rho_prev = p[keep], rho_prev[keep]
        if not len(rows):
            return out
        z = r / diag
        rho = np.vecdot(r, z)
        p = z if p is None else p * (rho / rho_prev)[:, None] + z
        q = _block_matmul(A, p)
        alpha = (rho / np.vecdot(p, q))[:, None]
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    raise SolveFailure(f"conjugate gradient did not converge (info={maxiter})")


def _block_matmul(A: csr_matrix, X: np.ndarray) -> np.ndarray:
    """Rows A @ X[k] as a C-contiguous (S, n) array.

    scipy's multi-vector CSR product sums each row's terms in the order of
    its single-vector product, so every row is bitwise A @ X[k].
    """
    return np.ascontiguousarray((A @ X.T).T)


def gram_matrix(fields) -> tuple[tuple[float, ...], ...]:
    """G_jk = (grad u_j | grad u_k) for fields on one mesh; G_jj == bulk_energy(u_j)."""
    grads = [gradient(u) for u in fields]
    G = [[0.0] * len(grads) for _ in grads]
    for j, gj in enumerate(grads):
        for k in range(j, len(grads)):
            G[j][k] = G[k][j] = inner_product(gj, grads[k])
    return tuple(tuple(row) for row in G)


def residual_norm(u: ScalarField, g: BoundaryDatum) -> float:
    """Max |assembled residual| over free nodes (Galerkin orthogonality)."""
    mesh = u.mesh
    K = stiffness_matrix(mesh)
    r = K @ u.nodal_values
    free = ~_dirichlet_mask(mesh)
    return float(np.max(np.abs(r[free]))) if np.any(free) else 0.0


# ---------------------------------------------------------------------------
# harmonic conjugate (verification operation)
# ---------------------------------------------------------------------------


def harmonic_conjugate(
    u: ScalarField, region: tuple[float, float, float, float]
) -> ScalarField:
    """Least-squares potential v with grad v ~ R grad u on a sub-rectangle.

    R is the 90-degree rotation (x, y) -> (-y, x). The conjugate is
    single-valued across the crack, so face duplicates are merged before
    the recovery; the result is zero-mean on the region and NaN outside.
    """
    mesh = u.mesh
    xmin, xmax, ymin, ymax = region
    cent = mesh.nodes[mesh.triangles].mean(axis=1)
    sel = (
        (cent[:, 0] >= xmin)
        & (cent[:, 0] <= xmax)
        & (cent[:, 1] >= ymin)
        & (cent[:, 1] <= ymax)
    )
    tri_idx = np.flatnonzero(sel)
    if len(tri_idx) == 0:
        raise RegionNotSimplyConnected("region contains no triangles")
    tris = mesh.triangles[tri_idx]

    # merge crack-face duplicates: v is continuous across traction-free cracks
    canon = np.arange(mesh.n_nodes)
    for fp in mesh.crack_face_pairs:
        canon[fp.minus_node] = fp.plus_node
    merged = canon[tris]
    used = np.unique(merged)
    local = -np.ones(mesh.n_nodes, dtype=np.int64)
    local[used] = np.arange(len(used))
    ltris = local[merged]

    # Euler check certifies the merged region is a disk
    euler = len(used) - len(edge_table(ltris)[0]) + len(ltris)
    if euler != 1:
        raise RegionNotSimplyConnected(
            f"region Euler characteristic {euler} != 1 after face merge"
        )

    gu = gradient(u)
    rot = np.stack(
        [-gu.values[tri_idx, 1], gu.values[tri_idx, 0]], axis=1
    )  # R grad u
    areas = mesh.areas[tri_idx]
    gx = mesh.grad_x[tri_idx]
    gy = mesh.grad_y[tri_idx]

    nloc = len(used)
    K = _assemble(ltris, areas, gx, gy, nloc)
    b = np.zeros(nloc)
    for i in range(3):
        np.add.at(
            b, ltris[:, i], areas * (gx[:, i] * rot[:, 0] + gy[:, i] * rot[:, 1])
        )

    # pin one node against the constant null space, then re-center
    free = np.ones(nloc, dtype=bool)
    free[0] = False
    vloc = np.zeros(nloc)
    vloc[free] = _cg_solve(K[free][:, free], b[free][None])[0]

    # area-weighted zero mean
    lumped = np.zeros(nloc)
    for i in range(3):
        np.add.at(lumped, ltris[:, i], areas / 3.0)
    vloc -= np.sum(lumped * vloc) / np.sum(lumped)

    vals_full = np.full(mesh.n_nodes, np.nan)
    has = local[canon] >= 0
    vals_full[has] = vloc[local[canon[has]]]
    return ScalarField(mesh, vals_full)


def tangential_jump_max(
    u: ScalarField, *, away_from=None, clearance: float = 0.0
) -> float:
    """Max jump of the tangential component of R grad u across interior edges.

    Crack-face and boundary edges are excluded. With `away_from` (a crack
    set) and `clearance`, edges whose midpoint lies within `clearance` of
    the crack are skipped too: near the tip singularity the per-edge jump
    grows under refinement even though the smooth-region jumps shrink.
    """
    mesh = u.mesh
    g = gradient(u)
    edges, counts, owners = edge_table(mesh.triangles)
    edges, owners = edges[counts == 2], owners[counts == 2]
    if away_from is not None and clearance > 0.0:
        mid = 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])
        far = distance_to_crack(away_from, mid) >= clearance
        edges, owners = edges[far], owners[far]
    if not len(edges):
        return 0.0
    t = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    t /= np.linalg.norm(t, axis=1)[:, None]
    rot = np.stack([-g.values[:, 1], g.values[:, 0]], axis=1)
    jump = ((rot[owners[:, 0]] - rot[owners[:, 1]]) * t).sum(axis=1)
    return float(np.max(np.abs(jump)))


def interpolate_at(u: ScalarField, pts, locator: TriangleLocator | None = None):
    """P1 interpolation of u at arbitrary points inside the domain."""
    loc = locator or TriangleLocator(u.mesh)
    out = np.empty(len(pts))
    for k, p in enumerate(pts):
        ti, bary = loc.locate(p)
        out[k] = float(bary @ u.nodal_values[u.mesh.triangles[ti]])
    return out
