"""Crack-conforming triangulation of a cracked polygon.

Two stages, which pass one mesh. `conforming_mesh`: size-graded feature
sampling (boundary + crack polylines with protection radii), deterministic
multi-level hex lattice fill, Delaunay (qhull), required-edge verification
with one repair pass; its crack chains are closed. `unzip(base)` then opens
them: crack nodes are duplicated into plus/minus face copies, except the
tips, the chain ends off the base's boundary cycle, which stay single nodes.

Everything but qhull works on arrays, with the float operations of the
loops it replaced (kept in the tests as the oracle), so meshes keep their
bits:
- boundary pieces and crack segments are bisected together, one
  size-field call per level (`_subdivide`), and the samples are deduped
  in one pass;
- the lattices of all levels are built at once (`_hex_lattice`), and the
  per-point filters (level band, polygon, clearance from the feature
  segments) run once over every level's candidates. The polygon test
  casts each point against the edges spanning its slab only, and the
  clearance is computed only on the point–segment pairs that the widened
  bounding boxes cannot rule out: no pruned pair could change a result.
  Only the clearance from the points of earlier levels, a KD-tree query,
  goes level by level. Kept points have a positive clearance from all
  others, so they are appended without a dedupe lookup;
- required edges are looked up among the triangles' sorted edge keys;
- the unzip finds the crack nodes' corners with a boolean lookup, walks
  each node's fan from corner to corner (topology, no angles), moves every
  minus-side corner in one assignment, and takes the free edges and
  boundary tags from one sort of the final edge keys. A boundary edge takes
  the tag of the base's boundary edge its nodes stand for.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field
import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .domain import DomainSpec
from .geometry import (
    CrackSet,
    Point,
    _components_touch,
    _distances,
    tips_on_boundary,
)

# protection constants (fractions of the local size)
_SEG_CLEARANCE = 0.62
_PT_CLEARANCE = 0.58
_JUNCTION_CLEARANCE = 0.45
# quality bound and tip grading: smallest interior angle (degrees), size
# growth per unit distance, and the radius (in h_tip) of the h_tip core
_MIN_ANGLE_DEG = 5.0
_GRADING = 0.3
_TIP_RADIUS_FACTOR = 8.0


class MeshFailure(Exception):
    """Triangulation could not satisfy the conformity/quality contract."""


@dataclass(frozen=True)
class CrackChain:
    """Mesh trace of one crack component: its plus-side node ids in order,
    and beside each its minus-side copy (the node itself where the faces
    meet: at a tip, and for a point component)."""

    node_ids: tuple[int, ...]
    minus_ids: tuple[int, ...]


@dataclass
class CrackMesh:
    """Immutable triangulation of Omega minus a crack set.

    Chain k of `crack_chains` traces crack component k. A chain whose minus
    ids equal its node ids is closed, and `unzip` opens it. The constrained
    nodes `dirichlet_nodes` are the ends of Dirichlet-tagged boundary
    edges, less the crack nodes: the crack releases the Dirichlet boundary
    where it meets it.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: tuple[tuple[int, int, str], ...]
    crack_chains: tuple[CrackChain, ...]
    h_max: float
    h_tip: float
    # derived in __post_init__
    dirichlet_nodes: frozenset[int] = field(init=False, repr=False)
    areas: np.ndarray = field(init=False, repr=False)
    grad_x: np.ndarray = field(init=False, repr=False)
    grad_y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.nodes = np.ascontiguousarray(self.nodes, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        self.nodes.setflags(write=False)
        self.triangles.setflags(write=False)
        x = self.nodes[:, 0][self.triangles]
        y = self.nodes[:, 1][self.triangles]
        # P1 gradient coefficients: grad u|_T = sum_i u_i * (gx[T,i], gy[T,i])
        b = np.stack(
            [y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1
        )
        c = np.stack(
            [x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1
        )
        det = x[:, 0] * b[:, 0] + x[:, 1] * b[:, 1] + x[:, 2] * b[:, 2]
        self.areas = 0.5 * det
        self.grad_x = b / det[:, None]
        self.grad_y = c / det[:, None]
        self.areas.setflags(write=False)
        self.grad_x.setflags(write=False)
        self.grad_y.setflags(write=False)
        on_crack = {v for ch in self.crack_chains for v in ch.node_ids + ch.minus_ids}
        self.dirichlet_nodes = frozenset(
            v for i, j, tag in self.boundary_edges if tag == "dirichlet" for v in (i, j)
        ) - on_crack

    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles, in degrees.

        `arccos` is decreasing, so the smallest angle is the `arccos` of the
        largest cosine; one `arccos` gives the bits of the per-corner minimum.
        """
        x = self.nodes[:, 0][self.triangles]
        y = self.nodes[:, 1][self.triangles]
        # edge i runs from corner i to corner i + 1; the angle at corner i
        # lies between edge i and edge i - 1 reversed (negation is exact)
        ex, ey = x[:, [1, 2, 0]] - x, y[:, [1, 2, 0]] - y
        length = np.sqrt(ex * ex + ey * ey)
        prev = [2, 0, 1]
        cosines = -(ex * ex[:, prev] + ey * ey[:, prev]) / (length * length[:, prev])
        return float(np.degrees(np.arccos(np.clip(np.max(cosines), -1.0, 1.0))))


# ---------------------------------------------------------------------------
# edge topology
# ---------------------------------------------------------------------------


def _edge_keys(pairs, n: int) -> np.ndarray:
    """Orientation-free int64 key lo * n + hi of each node pair (ids < n).

    Keys sort as the (lo, hi) pairs do; `_edges_of` inverts them.
    """
    p = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.minimum(p[:, 0], p[:, 1]) * n + np.maximum(p[:, 0], p[:, 1])


def _edges_of(keys: np.ndarray, n: int) -> np.ndarray:
    """(E, 2) node pairs (lo, hi) of edge keys made with the same n."""
    return np.column_stack([keys // n, keys % n])


def _triangle_edge_keys(t: np.ndarray, n: int) -> np.ndarray:
    """Keys of triangle k's edges (0,1), (1,2), (2,0), at 3k..3k+2."""
    return _edge_keys(np.stack([t.ravel(), t[:, [1, 2, 0]].ravel()], axis=1), n)


def _runs(sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each run of equal values in a sorted array."""
    first = np.ones(len(sorted_keys), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.flatnonzero(first)
    return starts, np.diff(np.append(starts, len(sorted_keys)))


# ---------------------------------------------------------------------------
# size field
# ---------------------------------------------------------------------------


class _SizeField:
    def __init__(self, tip_positions, h_max, h_tip):
        self.tips = np.array(tip_positions, float).reshape(-1, 2)
        self.h_max = float(h_max)
        self.h_tip = float(h_tip)
        self.grading = _GRADING
        self.inner = _TIP_RADIUS_FACTOR * float(h_tip)

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, float).reshape(-1, 2)
        if len(self.tips) == 0:
            return np.full(len(pts), self.h_max)
        dx = pts[:, 0, None] - self.tips[:, 0]
        dy = pts[:, 1, None] - self.tips[:, 1]
        d = np.sqrt(dx * dx + dy * dy).min(axis=1)
        return np.clip(
            self.h_tip + self.grading * (d - self.inner), self.h_tip, self.h_max
        )


def _subdivide(pieces, size: _SizeField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Midpoint subdivision of each piece (a, b) against the size field.

    A part is split at its midpoint while its length exceeds the size field
    there. All pieces are split together, level by level, with one size-field
    call per level. A part's midpoint `(a + b) / 2.0` and its length
    `math.hypot(b - a)` do not depend on the other parts, so piece k's
    points, its first part's start followed by every part's end, are
    exactly what a recursive bisection of that piece gives.

    Returns the final parts as `(piece, start, end)`, ordered by piece and
    along each piece: (P,) piece indices and (P, 2) part ends.
    """
    a = np.array([pc[0] for pc in pieces], float).reshape(-1, 2)
    b = np.array([pc[1] for pc in pieces], float).reshape(-1, 2)
    piece = np.arange(len(pieces))
    key = np.zeros(len(pieces))  # a part's start along its piece: exact dyadic
    width = 1.0
    done_piece, done_key, done_start, done_end = [], [], [], []
    while len(a):
        mid = (a + b) / 2.0
        d = b - a
        length = np.fromiter(
            map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist()), float, len(d)
        )
        done = length <= size(mid)
        done_piece.append(piece[done])
        done_key.append(key[done])
        done_start.append(a[done])
        done_end.append(b[done])
        split = ~done
        a, b, mid = a[split], b[split], mid[split]
        piece, key = np.tile(piece[split], 2), key[split]
        width /= 2.0
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        key = np.concatenate([key, key + width])
    piece = np.concatenate(done_piece)
    order = np.lexsort((np.concatenate(done_key), piece))
    return (
        piece[order],
        np.concatenate(done_start)[order].reshape(-1, 2),
        np.concatenate(done_end)[order].reshape(-1, 2),
    )


def _hex_lattice(levels, xmin, xmax, ymin, ymax) -> tuple[np.ndarray, np.ndarray]:
    """Hex lattice points of every level (anchored, s): spacing s, one
    lattice per (anchor, box) of the level.

    Rows are y = ay + j*dy; odd rows shift by s/2, x = (ax + off) + i*s.
    Levels come in order, a level's anchors in order, and each anchor's
    points row by row, left to right. A point that several anchors of one
    level share comes once per anchor; `_lattice_fill` thins such levels,
    which drops every repeat. Returns the points (N, 2) and each point's
    level.
    """
    anchors, j_first, n_rows, level_of = [], [], [], []
    for level, (anchored, s) in enumerate(levels):
        dy = s * math.sqrt(3.0) / 2.0
        for (ax, ay), (bx0, bx1, by0, by1) in anchored:
            j0 = int(math.floor((max(by0, ymin) - ay) / dy))
            j1 = int(math.ceil((min(by1, ymax) - ay) / dy))
            anchors.append((ax, ay, s, dy, max(bx0, xmin) - ax, min(bx1, xmax) - ax))
            j_first.append(j0)
            n_rows.append(max(j1 - j0 + 1, 0))
            level_of.append(level)
    ax, ay, s, dy, left, right = np.array(anchors, float).reshape(-1, 6).T
    # per row: its anchor a and its j
    a = np.repeat(np.arange(len(anchors)), n_rows)
    j = np.arange(len(a)) - np.repeat(np.cumsum(n_rows) - n_rows, n_rows)
    j += np.repeat(np.array(j_first, dtype=np.int64), n_rows)
    off = np.where(j % 2 == 1, 0.5 * s[a], 0.0)
    i0 = np.floor((left[a] - off) / s[a]).astype(np.int64)
    i1 = np.ceil((right[a] - off) / s[a]).astype(np.int64)
    n = np.maximum(i1 - i0 + 1, 0)
    # per point: its row and its i
    row = np.repeat(np.arange(len(a)), n)
    i = np.arange(len(row)) - np.repeat(np.cumsum(n) - n, n) + i0[row]
    a = a[row]
    pts = np.column_stack([(ax[a] + off[row]) + i * s[a], ay[a] + j[row] * dy[a]])
    return pts.reshape(-1, 2), np.array(level_of, dtype=np.int64)[a]


def _thin(pts: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Mask of the points kept when, in order, a point is dropped if an
    earlier kept point lies strictly within its radius."""
    x, y = pts[:, 0].tolist(), pts[:, 1].tolist()
    r = radius.tolist()
    # a slightly larger ball finds every candidate; the test below decides
    near = cKDTree(pts).query_ball_point(pts, radius * (1.0 + 1e-9))
    kept = np.zeros(len(pts), dtype=bool)
    for i, js in enumerate(near):
        for j in js:
            if j < i and kept[j]:
                dx, dy = x[i] - x[j], y[i] - y[j]
                if math.sqrt(dx * dx + dy * dy) < r[i]:
                    break
        else:
            kept[i] = True
    return kept


# ---------------------------------------------------------------------------
# polygon inclusion (float ray-cast)
# ---------------------------------------------------------------------------


def _points_in_polygon(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Ray-cast parity of each point (N, 2) over the polygon edges (E, 2)
    whose y-range spans it.

    The vertex ordinates cut the plane into slabs, and an edge spans every
    point of a slab or none; each point is cast only against its slab's
    edges. An edge that does not span a point adds nothing to its parity,
    and each pair is the arithmetic of an (N, E) broadcast, so the result
    is that broadcast's. Callers keep a clearance, so exactness is moot.
    """
    ax, ay = poly[:, 0], poly[:, 1]
    bx, by = np.roll(ax, -1), np.roll(ay, -1)
    ys = np.unique(ay)
    # edge e spans slab [ys[k], ys[k+1]) iff min(ay, by) <= ys[k] < max(ay, by)
    spans = (np.minimum(ay, by) <= ys[:, None]) & (ys[:, None] < np.maximum(ay, by))
    width = max(int(spans.sum(axis=1).max()), 1)
    slab_edges = np.argsort(~spans, axis=1, kind="stable")[:, :width]
    # per slab and edge slot: ax, ay, bx - ax, by - ay, and 1 if the edge
    # spans the slab; a last slab of zeros serves points below every vertex
    coef = np.zeros((len(ys) + 1, width, 5))
    coef[:-1, :, :4] = np.stack([ax, ay, bx - ax, by - ay], axis=-1)[slab_edges]
    coef[:-1, :, 4] = np.take_along_axis(spans, slab_edges, axis=1)
    c = coef[np.searchsorted(ys, pts[:, 1], side="right") - 1]
    y = pts[:, 1, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = c[..., 0] + (y - c[..., 1]) * c[..., 2] / c[..., 3]
    return np.logical_xor.reduce((c[..., 4] > 0.0) & (pts[:, 0, None] < xint), axis=1)


def _clears_segments(pts: np.ndarray, a: np.ndarray, b: np.ndarray, need: np.ndarray) -> np.ndarray:
    """Whether each point (N, 2) is at least `need` (N,) from every segment
    [a_j, b_j] (S, 2), decided as over the full `segment_distances` matrix.

    A segment whose bounding box, widened by max(need), misses a point is
    farther from it than any need (the 1e-6 relative slack dwarfs the
    rounding of the box), so it cannot decide against the point; the
    distances are computed on the other pairs alone, each with the
    matrix's bits.
    """
    reach = need.max(initial=0.0) * (1.0 + 1e-6)
    lo, hi = np.minimum(a, b) - reach, np.maximum(a, b) + reach
    x, y = pts[:, 0, None], pts[:, 1, None]
    pt, seg = np.nonzero((x >= lo[:, 0]) & (x <= hi[:, 0]) & (y >= lo[:, 1]) & (y <= hi[:, 1]))
    dmin = np.full(len(pts), np.inf)
    if len(pt):
        # np.nonzero lists the pairs point by point
        first = np.flatnonzero(np.r_[True, pt[1:] != pt[:-1]])
        d = _distances(pts[pt, 0], pts[pt, 1], a[seg], b[seg])
        dmin[pt[first]] = np.minimum.reduceat(d, first)
    return dmin >= need


# ---------------------------------------------------------------------------
# triangulate
# ---------------------------------------------------------------------------


def _validate_crack(domain: DomainSpec, crack: CrackSet, h_tip: float):
    """Raise MeshFailure unless the crack can be meshed in `domain` at `h_tip`."""
    for comp in crack.components:
        for v in comp.vertices:
            if not domain.contains_point(v):
                raise MeshFailure("crack leaves the closure of the domain")
        for a, b in comp.segments():
            if math.hypot(b[0] - a[0], b[1] - a[1]) < h_tip * (1.0 - 1e-9):
                raise MeshFailure("crack segment shorter than h_tip")
            if domain.along_boundary(a, b):
                raise MeshFailure("crack running along the boundary is unsupported")
            if not domain.contains_segment(a, b):
                raise MeshFailure("crack segment crosses the boundary")
    for ci in range(len(crack.components)):
        for cj in range(ci + 1, len(crack.components)):
            if _components_touch(crack.components[ci], crack.components[cj]):
                raise MeshFailure("touching crack components are unsupported")


def triangulate(domain: DomainSpec, crack: CrackSet, h_max: float, h_tip: float) -> CrackMesh:
    """Deterministic crack-conforming triangulation with tip grading.

    Raises MeshFailure on degenerate geometry, unreachable conformity,
    or a violated quality bound.
    """
    return unzip(conforming_mesh(domain, crack, h_max, h_tip))


def conforming_mesh(domain: DomainSpec, crack: CrackSet, h_max: float, h_tip: float) -> CrackMesh:
    """The mesh before the unzip.

    The base's boundary edges are the boundary cycle's, each tagged as its
    polygon edge; a crack end on the domain boundary is a cycle node, which
    tells it from a tip. Every chain is closed, its crack edges interior
    edges.
    """
    if not all(0.0 < h < math.inf for h in (h_max, h_tip)):
        raise MeshFailure("mesh sizes must be positive and finite")
    if h_tip > h_max:
        raise MeshFailure("h_tip must not exceed h_max")
    _validate_crack(domain, crack, h_tip)
    ends = tips_on_boundary(crack, domain)
    tips = [t for t, on in ends if not on]
    size = _SizeField([t.position for t in tips], h_max, h_tip)
    poly_arr = np.array(domain.boundary, float)

    features, cycle, cycle_parent, chain_ids = _feature_points(
        domain, crack, [t.position for t, on in ends if on], size
    )
    pts_arr = _lattice_fill(domain, crack, tips, size, features, poly_arr)

    # ---------------- Delaunay + required edges ----------------
    cycle_edges = np.column_stack([cycle, np.roll(cycle, -1)])
    required = np.concatenate(
        [np.array([ids[:-1], ids[1:]], dtype=np.int64).T for ids in chain_ids] + [cycle_edges]
    )
    tris = _delaunay_with_required(pts_arr, required, len(features))

    # qhull emits exactly-degenerate slivers for collinear hull samples
    # (e.g. the midpoint of a straight boundary edge); drop them first
    x, y = pts_arr[:, 0][tris].T, pts_arr[:, 1][tris].T
    det = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
    wx = np.maximum(np.maximum(x[0], x[1]), x[2]) - np.minimum(np.minimum(x[0], x[1]), x[2])
    wy = np.maximum(np.maximum(y[0], y[1]), y[2]) - np.minimum(np.minimum(y[0], y[1]), y[2])
    keep = np.abs(det) > 1e-12 * (wx * wx + wy * wy)
    # drop triangles outside the (possibly non-convex) polygon
    centroid = np.column_stack([(x[0] + x[1] + x[2]) / 3.0, (y[0] + y[1] + y[2]) / 3.0])
    keep[keep] = _points_in_polygon(centroid[keep], poly_arr)
    tris = tris[keep]
    # enforce CCW orientation
    flip = det[keep] < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]

    labels = np.array([domain.edge_tag(k) for k in range(len(domain.boundary))])
    base = CrackMesh(
        nodes=pts_arr,
        triangles=tris,
        boundary_edges=tuple(zip(*cycle_edges.T.tolist(), labels[cycle_parent].tolist())),
        crack_chains=tuple(CrackChain(ids, ids) for ids in chain_ids),
        h_max=h_max,
        h_tip=h_tip,
    )
    return base


def _feature_points(domain: DomainSpec, crack: CrackSet, boundary_ends, size: _SizeField):
    """Boundary and crack samples, each distinct point once, first seen first.

    Returns the points (F, 2); the boundary cycle as node ids with each
    node's parent polygon edge; and each component's chain, a tuple of ids.
    """
    poly = domain.boundary
    on_edge: dict[int, list[Point]] = {k: [] for k in range(len(poly))}
    # crack vertices sitting on the boundary must be boundary samples
    mandatory: list[Point] = list(poly)
    for v in boundary_ends:
        if v not in poly:
            on_edge[domain.boundary_edge(v)].append(v)
            mandatory.append(v)

    # boundary pieces between consecutive anchors, then crack segments
    pieces: list[tuple[Point, Point]] = []
    parents: list[int] = []
    for k, (a, b) in enumerate(domain.edges()):
        anchors = [a] + sorted(
            on_edge[k],
            key=lambda p: (p[0] - a[0]) ** 2 + (p[1] - a[1]) ** 2,
        ) + [b]
        pieces.extend(zip(anchors, anchors[1:]))
        parents.extend([k] * (len(anchors) - 1))
    n_boundary = len(pieces)
    pieces.extend(crack.segments())
    piece, start, end = _subdivide(pieces, size)

    # a boundary piece's samples are its parts' starts; generated samples
    # crowding a mandatory point are dropped
    on_boundary = piece < n_boundary
    bpts = start[on_boundary]
    mand_arr = np.array(mandatory, float)
    dmin = np.min(
        np.linalg.norm(mand_arr[None, :, :] - bpts[:, None, :], axis=2), axis=1
    )
    keep = dmin >= _JUNCTION_CLEARANCE * size(bpts)
    keep |= (bpts[:, None, :] == mand_arr[None, :, :]).all(axis=2).any(axis=1)

    # a component's chain: its first vertex, then every part's end
    chains = []
    lo = n_boundary
    for comp in crack.components:
        hi = lo + len(comp.vertices) - 1
        first, last = np.searchsorted(piece, [lo, hi])
        chains.append(np.vstack([np.array(comp.vertices[:1], float), end[first:last]]))
        lo = hi

    # equal points (as float tuples, so -0.0 == 0.0) share the first one's id
    samples = np.vstack([bpts[keep]] + chains)
    index_of: dict[tuple, int] = {}
    ids = np.array(
        [index_of.setdefault(p, len(index_of)) for p in map(tuple, samples.tolist())],
        dtype=np.int64,
    )
    n_cycle = int(np.count_nonzero(keep))
    stops = np.cumsum([n_cycle] + [len(c) for c in chains]).tolist()
    chain_ids = [tuple(ids[lo:hi].tolist()) for lo, hi in zip(stops, stops[1:])]
    cycle_parent = np.array(parents)[piece[on_boundary][keep]]
    points = np.array(list(index_of), float).reshape(-1, 2)
    return points, ids[:n_cycle], cycle_parent, chain_ids


def _lattice_fill(domain, crack, tips, size: _SizeField, features, poly_arr) -> np.ndarray:
    """The feature points followed by the interior lattice points, by level.

    Level 0 is one far-field lattice anchored at the domain bbox; each
    finer level holds lattices anchored at the tips, so meshes near a tip
    moving on a lattice-commensurate path are translates of each other
    (keeps candidate-to-candidate energy noise down). A candidate is kept
    if its size falls in its level's band, it lies inside the polygon, it
    clears the feature segments, and it clears the points kept before it.
    Only the last test depends on other levels, so the others run once
    over every level's candidates; each is a per-point operation, so the
    bits are those of a level-by-level pass. Every kept point has a
    positive clearance from all others, so no dedupe lookup is needed.
    """
    h_max, h_tip = size.h_max, size.h_tip
    xmin, xmax, ymin, ymax = domain.bbox()
    log07 = math.log(0.7)
    n_levels = (
        0
        if not tips or h_tip >= h_max
        else int(math.ceil(math.log(h_tip / h_max) / log07 - 1e-12))
    )
    levels = []
    for level in range(n_levels + 1):
        s = h_max * (0.7**level)
        if level == 0:
            anchored = [((xmin, ymin), (xmin, xmax, ymin, ymax))]
        else:
            reach = size.inner + (h_max * (0.7 ** (level - 1)) - h_tip) / max(
                size.grading, 1e-9
            )
            reach += 2.0 * s
            anchored = [
                (
                    t.position,
                    (t.position[0] - reach, t.position[0] + reach,
                     t.position[1] - reach, t.position[1] + reach),
                )
                for t in tips
            ]
        levels.append((anchored, s))
    cand, level = _hex_lattice(levels, xmin, xmax, ymin, ymax)
    sz = size(cand)
    # the level responsible for each candidate's size
    with np.errstate(divide="ignore"):
        lev = np.ceil(np.log(sz / h_max) / log07 - 1e-12)
    keep = np.clip(lev, 0, n_levels).astype(int) == level
    keep[keep] = _points_in_polygon(cand[keep], poly_arr)
    # feature segments demand empty diametral circles
    feat = np.array(domain.edges() + crack.segments(), float).reshape(-1, 2, 2)
    keep[keep] = _clears_segments(cand[keep], feat[:, 0], feat[:, 1], _SEG_CLEARANCE * sz[keep])
    cand, radius = cand[keep], _PT_CLEARANCE * sz[keep]
    bounds = np.searchsorted(level[keep], np.arange(n_levels + 2)).tolist()

    accepted = [features]
    for level, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if lo == hi:
            continue
        # a neighbor beyond the largest radius cannot reject: the search
        # stops there and reports inf
        tree = cKDTree(np.vstack(accepted), balanced_tree=False)
        r = radius[lo:hi]
        ok = tree.query(cand[lo:hi], distance_upper_bound=r.max())[0] >= r
        if not np.any(ok):
            continue
        pts, r = cand[lo:hi][ok], r[ok]
        if len(tips) > 1 and level > 0:
            # lattices from different tip anchors overlap, and a point two
            # anchors share comes twice; thin greedily, which drops the
            # repeat (it passed every filter alike, at distance 0 < r)
            pts = pts[_thin(pts, r)]
        accepted.append(pts)
    return np.vstack(accepted)


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position of each key in a sorted key array, and whether it is there."""
    at = np.searchsorted(sorted_keys, keys)
    found = at < len(sorted_keys)
    found[found] = sorted_keys[at[found]] == keys[found]
    return at, found


def _delaunay_with_required(
    pts_arr: np.ndarray, required: np.ndarray, n_feature: int
) -> np.ndarray:
    """qhull Delaunay triangles of the points, containing every required edge.

    `required` (R, 2) holds node-id pairs, looked up among the triangles'
    sorted edge keys. If some are missing, the non-feature points within
    1.05 times the diametral circle of a missing edge are dropped and qhull
    runs once more; edges still missing then raise.
    """
    if len(pts_arr) < 3:
        raise MeshFailure("not enough points to triangulate")
    n = len(pts_arr)
    req = np.unique(_edge_keys(required, n))
    keep_mask = np.ones(n, dtype=bool)
    for attempt in range(2):
        idx_map = np.flatnonzero(keep_mask)
        tris = idx_map[Delaunay(pts_arr[keep_mask]).simplices]
        _, present = _find(np.sort(_triangle_edge_keys(tris, n)), req)
        missing = _edges_of(req[~present], n)
        if not len(missing):
            return tris
        if attempt == 1:
            raise MeshFailure(f"{len(missing)} required edges missing after repair")
        # repair: clear the diametral circles of the missing edges
        for u, v in missing:
            mid = 0.5 * (pts_arr[u] + pts_arr[v])
            rad = 0.5 * np.linalg.norm(pts_arr[v] - pts_arr[u])
            d = np.linalg.norm(pts_arr - mid, axis=1)
            bad = (d < rad * 1.05) & keep_mask
            bad[:n_feature] = False
            keep_mask &= ~bad


def _walk(fan: dict, w, stop) -> tuple[list[int], bool]:
    """The corners of a node's fan met turning clockwise from its edge to w,
    through the one whose next corner is `stop` or to the end of the fan;
    and whether `stop` was met."""
    hits = []
    while w in fan and len(hits) < len(fan):
        w, hit = fan[w]
        hits.append(hit)
        if w == stop:
            return hits, True
    return hits, False


def unzip(base: CrackMesh) -> CrackMesh:
    """Split the base's chains open, then tag the free edges.

    Each crack node but a tip gets a copy that takes over the triangles on
    the right of the chain (the minus face). A tip is a chain end off the
    base's boundary cycle; a one-node chain, a point, stays closed. A CCW
    triangle holds an edge (w, v) into its corner at v and (v, x) out of
    it; its neighbour across (v, x) holds (x, v), so stepping from w to x
    walks clockwise about v. The free edges of the result, found with one
    sort of its edge keys, are the crack faces and the base's boundary
    edges, whose tags they take; a copy stands for the node it was split
    from.
    """
    pts_arr, tris = base.nodes, base.triangles
    chain_ids = [list(ch.node_ids) for ch in base.crack_chains]
    n_orig = len(pts_arr)
    on_cycle = {v for i, j, _ in base.boundary_edges for v in (i, j)}

    # the corners at crack nodes ("hits"): per node v, its fan {w: (x, hit)}
    on_crack = np.zeros(n_orig, dtype=bool)
    for ids in chain_ids:
        on_crack[ids] = True
    hit_tri, hit_col = np.nonzero(on_crack[tris])
    # the hit's node v, the corner x after it, and the corner w before it
    node, out, into = (tris[hit_tri, (hit_col + j) % 3].tolist() for j in range(3))
    fans = collections.defaultdict(dict)
    for hit, (v, w, x) in enumerate(zip(node, into, out)):
        fans[v][w] = (x, hit)
    # a triangle on the edge (u, v) holds it as (u, v) or as (v, u)
    held = collections.Counter(zip(into, node))

    chains: list[CrackChain] = []
    split_from: list[int] = []  # copy n_orig + i stands for node split_from[i]
    moved: list[list[int]] = []  # the hits whose node copy split_from[i] takes
    for ids in chain_ids:
        if len(ids) == 1:
            chains.append(CrackChain(tuple(ids), tuple(ids)))
            continue
        for u, v in zip(ids, ids[1:]):
            if held[u, v] + held[v, u] != 2:
                raise MeshFailure("interior crack edge lacks two triangles")
        k = len(ids) - 1
        minus_ids = list(ids)
        for i, v in enumerate(ids):
            if i in (0, k) and v not in on_cycle:
                continue
            # the minus side: the turn from the next node to the previous one;
            # off an open fan, or with no next node, all but the reverse turn
            fan, prev, nxt = fans[v], ids[i - 1] if i else None, ids[i + 1] if i < k else None
            right, met = _walk(fan, nxt, prev)
            if prev is not None and not met and (right or nxt is None):
                left = set(_walk(fan, prev, nxt)[0])
                right = [hit for _, hit in fan.values() if hit not in left]
            if not right or len(right) == len(fan):
                raise MeshFailure("crack unzip found an empty face side")
            minus_ids[i] = n_orig + len(split_from)
            split_from.append(v)
            moved.append(right)
        chains.append(CrackChain(tuple(ids), tuple(minus_ids)))

    # each copy takes its node's place in the triangles on the minus side
    tris = tris.copy()
    hit = np.array([h for right in moved for h in right], dtype=np.int64)
    tris[hit_tri[hit], hit_col[hit]] = np.repeat(
        np.arange(n_orig, n_orig + len(moved)), [len(right) for right in moved]
    )
    origin = np.concatenate([np.arange(n_orig), np.array(split_from, dtype=np.int64)])
    pts_arr = pts_arr[origin]
    n = len(pts_arr)

    # consistency: plus edges and minus edges each have exactly one triangle now
    keys = np.sort(_triangle_edge_keys(tris, n))
    starts, counts = _runs(keys)
    free = keys[starts[counts == 1]]
    face = np.unique(_edge_keys([
        pair
        for ch in chains
        for ids in (ch.node_ids, ch.minus_ids)
        for pair in zip(ids, ids[1:])
    ], n))
    if not _find(free, face)[1].all():
        raise MeshFailure("crack face edge not free after unzip")
    if np.any(counts > 2):
        raise MeshFailure("non-manifold edge")

    # boundary tagging: a free edge off the crack faces, its copies mapped
    # back to their nodes, must be a base boundary edge
    edges = _edges_of(free, n)
    off_face = ~_find(face, free)[1]
    base_keys = _edge_keys([(i, j) for i, j, _ in base.boundary_edges], n_orig)
    by_key = np.argsort(base_keys)
    at, found = _find(base_keys[by_key], _edge_keys(origin[edges[off_face]], n_orig))
    if not found.all():
        raise MeshFailure("untagged boundary edge (hole in mesh?)")
    labels = np.array([tag for _, _, tag in base.boundary_edges] + ["crack_face"])
    tag = np.full(len(free), len(base.boundary_edges))
    tag[off_face] = by_key[at]
    tags = labels[tag]
    mesh = CrackMesh(
        nodes=pts_arr,
        triangles=tris,
        boundary_edges=tuple(zip(edges[:, 0].tolist(), edges[:, 1].tolist(), tags.tolist())),
        crack_chains=tuple(chains),
        h_max=base.h_max,
        h_tip=base.h_tip,
    )
    if np.any(mesh.areas <= 0):
        raise MeshFailure("non-positive triangle area")
    ang = mesh.min_angle()
    if ang < _MIN_ANGLE_DEG:
        raise MeshFailure(f"min angle {ang:.2f} deg below bound {_MIN_ANGLE_DEG}")
    return mesh
