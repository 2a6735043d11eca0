"""P1 finite elements for the mixed Laplace problem on a cracked mesh.

The discrete displacement minimizes the Dirichlet energy over nodal
fields matching the boundary datum on constrained Dirichlet nodes;
crack faces carry natural (do-nothing) conditions through the node
duplication done by the mesher. A component of the triangle-edge graph
with no constrained node is pinned to zero at its lowest node index.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import LinearOperator, cg, splu

from .mesh import CrackMesh

CG_RTOL = 1e-10
CG_MAXITER_FACTOR = 20
#: Largest free block that `solve_many` factors; a larger one takes the CG.
#: A growth mesh's block (786 free nodes at refine 1) factors and solves
#: faster than the CG, but the factor of a 15.6k-node calibration block holds
#: about 11 MB of L+U, where the CG needs the matrix and a few vectors.
DIRECT_MAX_FREE = 8192


class SolveFailure(Exception):
    """Linear solve did not converge or the system is singular."""


class MeshMismatch(Exception):
    """Operands live on different meshes."""


#: Trace of an admissible displacement: the datum's values at every node of
#: a mesh. Data that jump across the crack give plus/minus face copies
#: different values. Data carry no identity: an `energy.Evaluator` memoizes
#: per crack for the basis it was built with.
BoundaryDatum = Callable[[CrackMesh], np.ndarray]


def scale_datum(g: BoundaryDatum, c: float) -> BoundaryDatum:
    return lambda mesh: c * g(mesh)


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


def gradient(u: ScalarField) -> np.ndarray:
    """Per-triangle constant gradient (T, 2), extended by zero on the crack."""
    mesh = u.mesh
    uv = u.nodal_values[mesh.triangles]
    gx = np.einsum("ti,ti->t", mesh.grad_x, uv)
    gy = np.einsum("ti,ti->t", mesh.grad_y, uv)
    return np.stack([gx, gy], axis=1)


def bulk_energy(u: ScalarField) -> float:
    """Integral of |grad u|^2 over the mesh (shear modulus scaled to mu = 2)."""
    return gram_matrix([u])[0][0]


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


def solve(mesh: CrackMesh, g: BoundaryDatum) -> ScalarField:
    """Discrete minimizer of the Dirichlet energy with u = g on constrained nodes.

    Constrained nodes are the Dirichlet-tagged ones minus those released
    where the crack meets the Dirichlet boundary. A component of the
    mesh's node graph with no constrained node gets its lowest node pinned
    to zero (the continuum solution there is an arbitrary constant).
    """
    return solve_many(mesh, (g,))[0]


def solve_many(mesh: CrackMesh, data) -> list[ScalarField]:
    """`solve` for S data on one mesh in one (S, n) array, a field per row.

    Components come from the pattern of the stiffness matrix, which is the
    triangle-edge graph. A free block of at most DIRECT_MAX_FREE nodes is
    factored once and every datum solved from the factor; a larger one
    takes the CG. Each field is bitwise equal to `solve(mesh, g)`.
    """
    G = np.array([g(mesh) for g in data], dtype=float)
    constrained = _dirichlet_mask(mesh)
    K = stiffness_matrix(mesh)
    n_comp, labels = connected_components(K, directed=False)
    _, lowest = np.unique(labels, return_index=True)
    floating = np.bincount(labels[constrained], minlength=n_comp) == 0
    U = np.where(constrained, G, 0.0)  # a floating component's pin stays 0
    constrained[lowest[floating]] = True

    free = ~constrained
    if np.any(free):
        Kf = K[free]
        Kff, Kfc = Kf[:, free], Kf[:, constrained]
        rhs = np.array([-Kfc @ u[constrained] for u in U])
        if Kff.shape[0] <= DIRECT_MAX_FREE:
            U[:, free] = _direct_solve(Kff, rhs)
        else:
            U[:, free] = _cg_solve(Kff, rhs, G[:, free])
    return [ScalarField(mesh, u) for u in U]


def _direct_solve(A: csr_matrix, rhs: np.ndarray) -> np.ndarray:
    """Solve A x_k = rhs[k] for every row k from one sparse LU factor of A.

    Minimum degree ordering on A^T + A with diagonal pivots suits the
    symmetric positive definite stiffness block. Each row is its own
    `lu.solve`, so a row's bits do not depend on the others: a block
    `lu.solve` of (n, S) columns can round differently from one column.
    """
    try:
        lu = splu(
            A.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            relax=1,
            options={"SymmetricMode": True},
        )
    except RuntimeError as e:  # SuperLU's "Factor is exactly singular"
        raise SolveFailure(f"singular stiffness block ({e})") from e
    X = np.array([lu.solve(b) for b in rhs])
    if not np.isfinite(X).all():
        raise SolveFailure("sparse LU solve gave a non-finite solution")
    return X


def _cg_solve(A: csr_matrix, rhs: np.ndarray, x0: np.ndarray | None = None) -> np.ndarray:
    """Solve A x_k = rhs[k] for every row k by Jacobi-preconditioned CG.

    `rhs` and `x0` are (S, n), and so is the result. Each row is one scipy
    `cg` from x0[k] (zero without x0) to relative residual CG_RTOL, so a
    row's bits do not depend on the other rows.
    """
    diag = np.asarray(A.diagonal())
    if np.any(diag <= 0):
        raise SolveFailure("singular stiffness diagonal (beyond pinning rule)")
    M = LinearOperator(A.shape, matvec=lambda v: v / diag)
    X = []
    for b, start in zip(rhs, [None] * len(rhs) if x0 is None else x0):
        x, info = cg(A, b, x0=start, rtol=CG_RTOL, atol=0.0, maxiter=CG_MAXITER_FACTOR * len(b), M=M)
        if info:
            raise SolveFailure(f"conjugate gradient did not converge (info={info})")
        X.append(x)
    return np.array(X)


def gram_matrix(fields) -> tuple[tuple[float, ...], ...]:
    """G_jk = (grad u_j | grad u_k) for fields on one mesh; G_jj == bulk_energy(u_j).

    Fields are on one mesh if they share it or equal arrays of it.
    """
    fields = list(fields)
    mesh = fields[0].mesh if fields else None
    for u in fields[1:]:
        m = u.mesh
        if not (m is mesh or (
            m.nodes.shape == mesh.nodes.shape
            and np.array_equal(m.nodes, mesh.nodes)
            and np.array_equal(m.triangles, mesh.triangles)
        )):
            raise MeshMismatch("fields live on different meshes")
    grads = [gradient(u) for u in fields]
    G = [[0.0] * len(grads) for _ in grads]
    for j, gj in enumerate(grads):
        for k in range(j, len(grads)):
            gk = grads[k]
            G[j][k] = G[k][j] = float(
                np.sum(mesh.areas * (gj[:, 0] * gk[:, 0] + gj[:, 1] * gk[:, 1]))
            )
    return tuple(tuple(row) for row in G)
