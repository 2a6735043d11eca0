"""Total energy E(g(t), K) = bulk + surface, evaluated on one path.

The bulk term is the Dirichlet energy of the minimizer with u = g(t) on
the Dirichlet boundary, the surface term the length of the crack.
`Evaluator` is the one place that meshes and solves for it: the run, both
audits, `replay_state` and the release rates of `sif` all go through one.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .domain import DomainSpec
from .geometry import CrackSet, length
from .mesh import triangulate
from .solver import ScalarField, gram_matrix, solve_many


@dataclass(frozen=True)
class EnergyRecord:
    """Bulk/surface split at one time; total is always recomputed."""

    time: float
    bulk: float
    surface: float
    power: float = 0.0

    @property
    def total(self) -> float:
        return self.bulk + self.surface

    def to_json(self) -> dict:
        return {
            "t": self.time,
            "bulk": self.bulk,
            "surface": self.surface,
            "total": self.total,
            "power": self.power,
        }


# ---------------------------------------------------------------------------
# energy evaluation through the Gram matrix of a loading basis
# ---------------------------------------------------------------------------


def _quad(G, a, b) -> float:
    """a^T G b summed term by term; with one basis datum exactly a[0] * b[0] * G[0][0]."""
    terms = [a[j] * b[k] * G[j][k] for j in range(len(a)) for k in range(len(b))]
    return functools.reduce(operator.add, terms)


class Evaluator:
    """Energy/field evaluation of g(t) = sum_j c_j(t) g_j, memoized per crack.

    `basis` holds the data g_1..g_S and `coeffs(t)` returns (c(t), c'(t)).
    The solve is linear, so one mesh and S solves u_j per crack give, with
    G_jk = (grad u_j | grad u_k), bulk(t) = c^T G c, the exact discrete
    power 2 c^T G c' and u(t) = sum_j c_j u_j. The Gram matrix is kept for
    the evaluator's lifetime; the basis fields only until the step ends. A
    `record` ends it and keeps its own crack's fields, `end_step` keeps
    none: a winner meshed in its own step is not meshed twice, and memory
    does not grow with a run.
    """

    def __init__(self, domain: DomainSpec, basis, coeffs, h_max: float, h_tip: float):
        self.domain = domain
        self.basis = tuple(basis)
        self.coeffs = coeffs
        self.h_max = h_max
        self.h_tip = h_tip
        self._gram: dict[tuple, tuple] = {}
        self._fields: dict[tuple, list[ScalarField]] = {}

    def _solved(self, crack: CrackSet, need_fields: bool = False) -> tuple:
        key = crack.fingerprint()
        if key not in self._gram or (need_fields and key not in self._fields):
            mesh = triangulate(self.domain, crack, self.h_max, self.h_tip)
            fields = solve_many(mesh, self.basis)
            self._gram[key] = gram_matrix(fields)
            self._fields[key] = fields
        return key

    def energy(self, crack: CrackSet, t: float) -> float:
        G = self._gram[self._solved(crack)]
        c, _ = self.coeffs(t)
        return _quad(G, c, c) + length(crack)

    def record(self, crack: CrackSet, t: float) -> tuple[EnergyRecord, ScalarField]:
        """Energy record at t, with the power, and u(t); keeps only this crack's fields."""
        key = self._solved(crack, need_fields=True)
        G, fields = self._gram[key], self._fields[key]
        self._fields = {key: fields}
        c, cdot = self.coeffs(t)
        u = functools.reduce(
            operator.add, [cj * f.nodal_values for cj, f in zip(c, fields)]
        )
        rec = EnergyRecord(
            time=t,
            bulk=_quad(G, c, c),
            surface=length(crack),
            power=2.0 * _quad(G, c, cdot),
        )
        return rec, ScalarField(fields[0].mesh, u)

    def balance_increment(self, crack: CrackSet, t0: float, t1: float) -> float:
        """2 (grad u(t0) | grad(u(t1) - u(t0))) on one crack."""
        G = self._gram[self._solved(crack)]
        c0, _ = self.coeffs(t0)
        c1, _ = self.coeffs(t1)
        return 2.0 * _quad(G, c0, [b - a for a, b in zip(c0, c1)])

    def end_step(self) -> None:
        """Drop the basis fields of every crack."""
        self._fields = {}
