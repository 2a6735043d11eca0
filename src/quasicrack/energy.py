"""Total energy E(g(t), K) = bulk + surface, evaluated on one path.

The bulk term is the Dirichlet energy of the minimizer with u = g(t) on
the Dirichlet boundary, the surface term the length of the crack.
`Evaluator` is the one place that meshes and solves for it: the run, both
audits, `replay_state` and the release rates of `sif` all go through one.
A round is scored in one `Evaluator.energies` call; inside `Evaluator.helpers()`
its uncached cracks are shared with forked helpers, which send back each
crack's Gram matrix with the same bits. Only `record` needs a field.
"""

from __future__ import annotations

import contextlib
import functools
import operator
import os
from dataclasses import dataclass

from .domain import DomainSpec
from .geometry import CrackSet, length
from .mesh import MeshFailure, triangulate
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
    power 2 c^T G c' and u(t) = sum_j c_j u_j. Every crack's Gram matrix is
    kept for the evaluator's lifetime, but the basis fields of one crack
    only: the last one that a single request (`energy`, `record`,
    `balance_increment`) meshed. A round of `energies` keeps Gram matrices
    alone, and `record` meshes its crack again unless the kept fields are
    its own, so memory does not grow with a run.
    """

    def __init__(self, domain: DomainSpec, basis, coeffs, h_max: float, h_tip: float):
        self.domain = domain
        self.basis = tuple(basis)
        self.coeffs = coeffs
        self.h_max = h_max
        self.h_tip = h_tip
        self._gram: dict[tuple, tuple] = {}
        self._kept: tuple = (None, None)  # (fingerprint, basis fields) of one crack
        self._helpers: list | None = None  # (pipe, process) per helper inside `helpers()`

    def _solve(self, crack: CrackSet) -> list[ScalarField]:
        """Basis fields of one crack, meshed and solved anew."""
        return solve_many(triangulate(self.domain, crack, self.h_max, self.h_tip), self.basis)

    def _gram_or_error(self, crack: CrackSet):
        """The Gram matrix of one crack, meshed and solved anew, or the exception."""
        try:
            return gram_matrix(self._solve(crack))
        except Exception as e:
            return e

    def _solved(self, crack: CrackSet, need_fields: bool = False) -> tuple:
        """The Gram matrix of one crack, whose fields are kept if this meshes it;
        with need_fields it is meshed again unless its fields are the kept ones."""
        key = crack.fingerprint()
        if key not in self._gram or (need_fields and self._kept[0] != key):
            fields = self._solve(crack)
            self._gram[key], self._kept = gram_matrix(fields), (key, fields)
        return self._gram[key]

    def energy(self, crack: CrackSet, t: float) -> float:
        G = self._solved(crack)
        c, _ = self.coeffs(t)
        return _quad(G, c, c) + length(crack)

    def energies(self, cracks, t: float) -> list:
        """`energy` of each crack, None where its mesh fails (any other failure,
        the first in order, is raised); uncached [j::n] go to helper j of n - 1."""
        keys = [crack.fingerprint() for crack in cracks]
        todo = [(key, crack) for key, crack in zip(keys, cracks) if key not in self._gram]
        pipes = self._pipes(len(todo))
        n = len(pipes) + 1
        for j, conn in enumerate(pipes, 1):
            conn.send([crack for _, crack in todo[j::n]])
        out = [self._gram_or_error(crack) if i % n == 0 else None for i, (_, crack) in enumerate(todo)]
        for j, conn in enumerate(pipes, 1):
            out[j::n] = conn.recv()
        for (key, _), res in zip(todo, out):
            if not isinstance(res, Exception):
                self._gram[key] = res
            elif not isinstance(res, MeshFailure):
                raise res
        c, _ = self.coeffs(t)
        return [None if key not in self._gram else _quad(self._gram[key], c, c) + length(crack)
                for key, crack in zip(keys, cracks)]

    def _pipes(self, n_cracks: int) -> list:
        """Pipes to the helpers that share n_cracks with this process, forked as
        needed; none where the CPU set cannot be read (macOS)."""
        if self._helpers is None or n_cracks < 2 or not hasattr(os, "sched_getaffinity"):
            return []
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
            while len(self._helpers) < min(n_cracks, len(os.sched_getaffinity(0))) - 1:
                conn, child = ctx.Pipe()
                proc = ctx.Process(target=self._serve, args=(child,), daemon=True)
                self._helpers.append((conn, proc))
                proc.start()
                child.close()
        return [conn for conn, _ in self._helpers[: n_cracks - 1]]

    def _serve(self, conn) -> None:
        """A helper's loop: solve each batch received until the pipe closes."""
        for parent_end, _ in self._helpers:  # inherited: the parent's alone
            parent_end.close()
        try:
            while True:
                conn.send([self._gram_or_error(crack) for crack in conn.recv()])
        except (EOFError, ConnectionError):
            pass

    @contextlib.contextmanager
    def helpers(self):
        """Let `energies` share its uncached cracks for the block with helper
        processes: forked at need ("fork"), up to one per CPU but this one,
        and joined when the block ends; one whose parent dies finds its pipe closed."""
        self._helpers = []
        try:
            yield
        finally:
            helpers, self._helpers = self._helpers, None
            for conn, proc in helpers:
                conn.close()
                proc.join()

    def record(self, crack: CrackSet, t: float) -> tuple[EnergyRecord, ScalarField]:
        """Energy record at t, with the power, and u(t)."""
        G, fields = self._solved(crack, need_fields=True), self._kept[1]
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
        G = self._solved(crack)
        c0, _ = self.coeffs(t0)
        c1, _ = self.coeffs(t1)
        return 2.0 * _quad(G, c0, [b - a for a, b in zip(c0, c1)])
