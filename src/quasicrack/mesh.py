"""Crack-conforming triangulation of a cracked polygon.

Pipeline: size-graded feature sampling (boundary + crack polylines with
protection radii), deterministic multi-level hex lattice fill, Delaunay
(qhull), required-edge verification with one repair pass, then the crack
"unzip": interior crack nodes are duplicated into plus/minus face copies
while tips stay single shared nodes.

Sampling works on arrays, level by level, with the float operations of
the per-point loops it replaced, so meshes keep their bits:
- boundary pieces and crack segments are bisected together, one
  size-field call per level (`_subdivide`);
- each lattice level is built per anchor, row by row (`_hex_lattice`),
  and lattice points need a positive clearance from the features
  (`geometry.segment_distances`) and from earlier points, so they are
  appended without a dedupe lookup.

Edge topology (required-edge checks, free crack faces, and the solver's
Euler and edge-jump checks) comes from one sorted table, `edge_table`.
Boundary edges are tagged from the boundary cycle's parent polygon edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .domain import DomainSpec
from .geometry import CrackSet, Point, Tip, _components_touch, crack_tips, segment_distances

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
class FacePair:
    """Geometrically coincident node duplicates across an interior crack face."""

    position: Point
    plus_node: int
    minus_node: int


@dataclass(frozen=True)
class CrackChain:
    """Mesh trace of one crack component: ordered plus-side node ids."""

    component_id: int
    node_ids: tuple[int, ...]
    minus_ids: tuple[int, ...]  # parallel to node_ids; == node_ids entry if shared
    start_kind: str  # "tip" | "boundary" | "point"
    finish_kind: str


@dataclass
class CrackMesh:
    """Immutable triangulation of Omega minus a crack set."""

    nodes: np.ndarray
    triangles: np.ndarray
    crack_face_pairs: tuple[FacePair, ...]
    boundary_edges: tuple[tuple[int, int, str], ...]
    tip_nodes: tuple[int, ...]
    crack_chains: tuple[CrackChain, ...]
    dirichlet_nodes: frozenset[int]
    released_nodes: frozenset[int]
    h_max: float
    h_tip: float
    areas: np.ndarray = field(default=None, repr=False)
    grad_x: np.ndarray = field(default=None, repr=False)
    grad_y: np.ndarray = field(default=None, repr=False)

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

    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles, in degrees."""
        p = self.nodes[self.triangles]
        angles = []
        for i in range(3):
            u = p[:, (i + 1) % 3] - p[:, i]
            v = p[:, (i + 2) % 3] - p[:, i]
            cosang = (u * v).sum(axis=1) / (
                np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
            )
            angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
        return float(np.min(angles))

    def fingerprint_bytes(self) -> bytes:
        parts = [self.nodes.tobytes(), self.triangles.tobytes()]
        parts.extend(
            f"{i},{j},{tag};".encode() for i, j, tag in self.boundary_edges
        )
        parts.append(repr(self.tip_nodes).encode())
        parts.extend(
            f"{fp.position!r}:{fp.plus_node}:{fp.minus_node};".encode()
            for fp in self.crack_face_pairs
        )
        return b"".join(parts)

    # ------------------------------------------------------------------
    # exports
    # ------------------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.n_nodes} {self.n_triangles} {len(self.boundary_edges)}"]
        lines.extend(f"{x!r} {y!r}" for x, y in self.nodes)
        lines.extend(f"{a} {b} {c}" for a, b, c in self.triangles)
        lines.extend(f"{i} {j} {tag}" for i, j, tag in self.boundary_edges)
        return "\n".join(lines) + "\n"

    def to_vtk(self) -> str:
        out = [
            "# vtk DataFile Version 3.0",
            "crack mesh",
            "ASCII",
            "DATASET UNSTRUCTURED_GRID",
            f"POINTS {self.n_nodes} double",
        ]
        out.extend(f"{x!r} {y!r} 0.0" for x, y in self.nodes)
        out.append(f"CELLS {self.n_triangles} {4 * self.n_triangles}")
        out.extend(f"3 {a} {b} {c}" for a, b, c in self.triangles)
        out.append(f"CELL_TYPES {self.n_triangles}")
        out.extend("5" for _ in range(self.n_triangles))
        return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# edge topology
# ---------------------------------------------------------------------------


def edge_table(triangles) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unique edges of a triangle list, with their triangle counts and owners.

    Returns `edges` (E, 2), lower node id first, in lexicographic order;
    `counts` (E,), the number of triangles on each edge; and `owners`
    (E, 2), the two lowest triangle ids on each edge, -1 where there is
    no second.
    """
    t = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    # triangle k's edges (0,1), (1,2), (2,0) sit at 3k..3k+2
    pairs = np.stack([t.ravel(), t[:, [1, 2, 0]].ravel()], axis=1)
    keys = _edge_keys(pairs, int(t.max(initial=0)) + 1)
    order = np.argsort(keys, kind="stable")  # stable: owners in triangle order
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, len(keys)))
    owner = order // 3
    owners = np.full((len(starts), 2), -1, dtype=np.int64)
    owners[:, 0] = owner[starts]
    shared = counts > 1
    owners[shared, 1] = owner[starts[shared] + 1]
    edges = np.sort(pairs[order[starts]], axis=1)
    return edges, counts, owners


def _edge_keys(pairs, n: int) -> np.ndarray:
    """Orientation-free int64 key lo * n + hi of each node pair (ids < n)."""
    p = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return np.minimum(p[:, 0], p[:, 1]) * n + np.maximum(p[:, 0], p[:, 1])


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
        d = np.min(
            np.linalg.norm(pts[:, None, :] - self.tips[None, :, :], axis=2), axis=1
        )
        return np.clip(
            self.h_tip + self.grading * (d - self.inner), self.h_tip, self.h_max
        )


def _subdivide(pieces, size: _SizeField) -> list[list[Point]]:
    """Midpoint subdivision of each piece (a, b) against the size field.

    A part is split at its midpoint while its length exceeds the size field
    there. All pieces are split together, level by level, with one size-field
    call per level. A part's midpoint `(a + b) / 2.0` and its length
    `math.hypot(b - a)` do not depend on the other parts, so each returned
    list (ends included, in order) is exactly what a recursive bisection of
    that piece gives.
    """
    a = np.array([pc[0] for pc in pieces], float)
    b = np.array([pc[1] for pc in pieces], float)
    piece = np.arange(len(pieces))
    key = np.zeros(len(pieces))  # a part's start along its piece: exact dyadic
    width = 1.0
    done_piece, done_key, done_end = [], [], []
    while len(a):
        mid = (a + b) / 2.0
        d = b - a
        length = np.fromiter(
            map(math.hypot, d[:, 0].tolist(), d[:, 1].tolist()), float, len(d)
        )
        done = length <= size(mid)
        done_piece.append(piece[done])
        done_key.append(key[done])
        done_end.append(b[done])
        split = ~done
        a, b, mid = a[split], b[split], mid[split]
        piece, key = np.tile(piece[split], 2), key[split]
        width /= 2.0
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        key = np.concatenate([key, key + width])
    piece = np.concatenate(done_piece)
    order = np.lexsort((np.concatenate(done_key), piece))
    ends = np.concatenate(done_end)[order].tolist()
    stops = np.cumsum(np.bincount(piece, minlength=len(pieces))).tolist()
    out, start = [], 0
    for (p0, _), stop in zip(pieces, stops):
        out.append([p0] + [tuple(e) for e in ends[start:stop]])
        start = stop
    return out


def _hex_lattice(anchored, s: float, xmin, xmax, ymin, ymax) -> np.ndarray:
    """Hex lattice points of spacing s, one lattice per (anchor, box).

    Rows are y = ay + j*dy; odd rows shift by s/2, x = (ax + off) + i*s.
    Each anchor's points come row by row, left to right. Points that
    several anchors share are kept once, where first seen.
    """
    dy = s * math.sqrt(3.0) / 2.0
    parts = []
    for (ax, ay), (bx0, bx1, by0, by1) in anchored:
        j0 = int(math.floor((max(by0, ymin) - ay) / dy))
        j1 = int(math.ceil((min(by1, ymax) - ay) / dy))
        j = np.arange(j0, j1 + 1)
        off = np.where(j % 2 == 1, 0.5 * s, 0.0)
        i0 = np.floor((max(bx0, xmin) - ax - off) / s).astype(np.int64)
        i1 = np.ceil((min(bx1, xmax) - ax - off) / s).astype(np.int64)
        n = np.maximum(i1 - i0 + 1, 0)
        row = np.repeat(np.arange(len(j)), n)
        i = np.arange(len(row)) - np.repeat(np.cumsum(n) - n, n) + i0[row]
        parts.append(np.column_stack([(ax + off[row]) + i * s, ay + j[row] * dy]))
    pts = np.concatenate(parts) if parts else np.empty((0, 2))
    if len(anchored) > 1:
        pts = np.array(list(dict.fromkeys(map(tuple, pts.tolist()))), float)
    return pts.reshape(-1, 2)


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
    """Vectorized ray-cast; callers keep a clearance so exactness is moot."""
    x, y = pts[:, 0], pts[:, 1]
    n = len(poly)
    inside = np.zeros(len(pts), dtype=bool)
    for i in range(n):
        ax, ay = poly[i]
        bx, by = poly[(i + 1) % n]
        crosses = (ay > y) != (by > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = ax + (y - ay) * (bx - ax) / (by - ay)
        inside ^= crosses & (x < xint)
    return inside


# ---------------------------------------------------------------------------
# triangulate
# ---------------------------------------------------------------------------


def _classify_ends(domain: DomainSpec, crack: CrackSet):
    """Per component: ('tip'|'boundary'|'point') for each end; tips list."""
    kinds = []
    tip_list: list[Tip] = []
    tips_by_comp = {}
    for t in crack_tips(crack):
        tips_by_comp.setdefault(t.component_id, {})[t.end] = t
    for ci, comp in enumerate(crack.components):
        if comp.is_point:
            kinds.append(("point", "point"))
            continue
        pair = []
        for end in ("start", "finish"):
            t = tips_by_comp[ci][end]
            if domain.on_boundary(t.position):
                pair.append("boundary")
            else:
                pair.append("tip")
                tip_list.append(t)
        kinds.append(tuple(pair))
    return kinds, tip_list


def _validate_crack(domain: DomainSpec, crack: CrackSet, h_tip: float):
    for comp in crack.components:
        for v in comp.vertices:
            if not domain.contains_point(v):
                raise MeshFailure("crack leaves the closure of the domain")
        for a, b in comp.segments():
            if math.hypot(b[0] - a[0], b[1] - a[1]) < h_tip * (1.0 - 1e-9):
                raise MeshFailure("crack segment shorter than h_tip")
            mid = ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0)
            if domain.on_boundary(mid):
                raise MeshFailure("crack running along the boundary is unsupported")
            if not domain.contains_segment(a, b):
                raise MeshFailure("crack segment crosses the boundary")
    for ci in range(len(crack.components)):
        for cj in range(ci + 1, len(crack.components)):
            if _components_touch(crack.components[ci], crack.components[cj]):
                raise MeshFailure("touching crack components are unsupported")


def triangulate(
    domain: DomainSpec,
    crack: CrackSet,
    h_max: float,
    h_tip: float,
) -> CrackMesh:
    """Deterministic crack-conforming triangulation with tip grading.

    Raises MeshFailure on degenerate geometry, unreachable conformity,
    or a violated quality bound.
    """
    if h_tip > h_max:
        raise MeshFailure("h_tip must not exceed h_max")
    _validate_crack(domain, crack, h_tip)
    end_kinds, tips = _classify_ends(domain, crack)
    size = _SizeField([t.position for t in tips], h_max, h_tip)

    # ---------------- feature sampling ----------------
    poly = domain.boundary
    n_poly = len(poly)
    boundary_pts_on_edge: dict[int, list[Point]] = {k: [] for k in range(n_poly)}
    # crack vertices sitting on the boundary must be boundary samples
    mandatory: list[Point] = list(poly)
    for comp, kinds in zip(crack.components, end_kinds):
        for v, kind in ((comp.vertices[0], kinds[0]), (comp.vertices[-1], kinds[1])):
            if kind == "boundary" and v not in poly:
                boundary_pts_on_edge[domain.boundary_edge(v)].append(v)
                mandatory.append(v)

    # boundary pieces between consecutive anchors, then crack segments
    pieces: list[tuple[Point, Point]] = []
    parents: list[int] = []
    for k, (a, b) in enumerate(domain.edges()):
        anchors = [a] + sorted(
            boundary_pts_on_edge[k],
            key=lambda p: (p[0] - a[0]) ** 2 + (p[1] - a[1]) ** 2,
        ) + [b]
        pieces.extend(zip(anchors, anchors[1:]))
        parents.extend([k] * (len(anchors) - 1))
    for comp in crack.components:
        if not comp.is_point:
            pieces.extend(comp.segments())
    sampled = _subdivide(pieces, size)
    boundary_samples = [  # (point, parent edge)
        (p, k) for pts, k in zip(sampled, parents) for p in pts[:-1]
    ]
    # thin generated samples crowding a mandatory point
    mand_set = set(mandatory)
    mand_arr = np.array(mandatory, float)
    bpts = np.array([p for p, _ in boundary_samples], float)
    dmin = np.min(
        np.linalg.norm(mand_arr[None, :, :] - bpts[:, None, :], axis=2), axis=1
    )
    clear = dmin >= _JUNCTION_CLEARANCE * size(bpts)
    boundary_samples = [
        pk for pk, ok in zip(boundary_samples, clear.tolist()) if ok or pk[0] in mand_set
    ]

    crack_sample_chains: list[list[Point]] = []
    seg_samples = iter(sampled[len(parents):])
    for comp in crack.components:
        chain = [comp.vertices[0]]
        for _ in comp.segments():
            chain.extend(next(seg_samples)[1:])
        crack_sample_chains.append(chain)

    # ---------------- assemble point list ----------------
    index_of: dict[Point, int] = {}
    points: list[Point] = []

    def add_point(p: Point) -> int:
        idx = index_of.get(p)
        if idx is None:
            idx = len(points)
            index_of[p] = idx
            points.append(p)
        return idx

    boundary_cycle: list[tuple[int, int]] = []  # (node, parent edge)
    for p, k in boundary_samples:
        boundary_cycle.append((add_point(p), k))
    chain_ids: list[list[int]] = []
    for chain in crack_sample_chains:
        chain_ids.append([add_point(p) for p in chain])

    n_feature = len(points)
    feature_arr = np.array(points, float)

    # feature segments that demand empty diametral circles
    feat_segs = list(domain.edges())
    for comp in crack.components:
        feat_segs.extend(comp.segments())
    feat_a, feat_b = np.array(feat_segs, float).reshape(-1, 2, 2).transpose(1, 0, 2)

    # ---------------- interior lattice fill ----------------
    # Every kept lattice point is at least a positive clearance away from
    # the features and from the points kept before it, so the interior
    # points are distinct from all others and are appended as they are.
    xmin, xmax, ymin, ymax = domain.bbox()
    poly_arr = np.array(poly, float)
    accepted = [feature_arr]
    n_levels = (
        0
        if not tips or h_tip >= h_max
        else int(math.ceil(math.log(h_tip / h_max) / math.log(0.7) - 1e-12))
    )
    log07 = math.log(0.7)

    for level in range(n_levels + 1):
        s = h_max * (0.7**level)
        if level == 0:
            # far field: one lattice anchored at the domain bbox
            anchored = [((xmin, ymin), (xmin, xmax, ymin, ymax))]
        else:
            # tip neighborhoods: lattices anchored at each tip, so meshes
            # near a tip moving on a lattice-commensurate path are translates
            # of each other (keeps candidate-to-candidate energy noise down)
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
        cand_arr = _hex_lattice(anchored, s, xmin, xmax, ymin, ymax)
        if not len(cand_arr):
            continue
        sz = size(cand_arr)
        # level responsible for this size
        with np.errstate(divide="ignore"):
            lev = np.ceil(np.log(sz / h_max) / log07 - 1e-12)
        at_level = np.clip(lev, 0, n_levels).astype(int) == level
        cand_arr, sz = cand_arr[at_level], sz[at_level]
        keep = _points_in_polygon(cand_arr, poly_arr)
        keep[keep] = (
            segment_distances(cand_arr[keep], feat_a, feat_b).min(axis=1)
            >= _SEG_CLEARANCE * sz[keep]
        )
        if not np.any(keep):
            continue
        cand_arr, sz = cand_arr[keep], sz[keep]
        tree = cKDTree(np.vstack(accepted))
        dist, _ = tree.query(cand_arr)
        ok = dist >= _PT_CLEARANCE * sz
        if not np.any(ok):
            continue
        cand_arr, sz = cand_arr[ok], sz[ok]
        if len(tips) > 1 and level > 0:
            # lattices from different tip anchors overlap; thin greedily
            cand_arr = cand_arr[_thin(cand_arr, _PT_CLEARANCE * sz)]
        accepted.append(cand_arr)

    # ---------------- Delaunay + required edges ----------------
    required: set[tuple[int, int]] = set()
    for ids in chain_ids:
        for u, v in zip(ids, ids[1:]):
            required.add((min(u, v), max(u, v)))
    cyc = boundary_cycle
    for (u, _), (v, _) in zip(cyc, cyc[1:] + cyc[:1]):
        required.add((min(u, v), max(u, v)))

    pts_arr = np.vstack(accepted)
    tris = _delaunay_with_required(pts_arr, required, n_feature)

    # qhull emits exactly-degenerate slivers for collinear hull samples
    # (e.g. the midpoint of a straight boundary edge); drop them first
    p = pts_arr[tris]
    det = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 1, 1] - p[:, 0, 1]
    ) * (p[:, 2, 0] - p[:, 0, 0])
    extent2 = ((p.max(axis=1) - p.min(axis=1)) ** 2).sum(axis=1)
    keep = np.abs(det) > 1e-12 * extent2
    # drop triangles outside the (possibly non-convex) polygon
    keep[keep] = _points_in_polygon(p[keep].mean(axis=1), poly_arr)
    tris = tris[keep]
    # enforce CCW orientation
    flip = det[keep] < 0
    tris[flip] = tris[flip][:, [0, 2, 1]]

    # ---------------- unzip the crack ----------------
    mesh = _unzip_and_finalize(
        domain,
        crack,
        end_kinds,
        chain_ids,
        pts_arr,
        tris,
        boundary_cycle,
        h_max,
        h_tip,
    )
    return mesh


def _delaunay_with_required(
    pts_arr: np.ndarray, required: set[tuple[int, int]], n_feature: int
) -> np.ndarray:
    if len(pts_arr) < 3:
        raise MeshFailure("not enough points to triangulate")
    n = len(pts_arr)
    req = np.array(list(required), dtype=np.int64).reshape(-1, 2)
    keep_mask = np.ones(n, dtype=bool)
    for attempt in range(2):
        idx_map = np.flatnonzero(keep_mask)
        dela = Delaunay(pts_arr[keep_mask])
        tris = idx_map[dela.simplices]
        edges = edge_table(tris)[0]
        missing = req[~np.isin(_edge_keys(req, n), _edge_keys(edges, n))]
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
    raise MeshFailure("unreachable")


def _fan_sides(
    coords, tris, incident, v, theta_b, theta_a
) -> tuple[list[int], list[int]]:
    """Split the triangle fan at node v by the CCW interval theta_b -> theta_a."""
    gap = (theta_a - theta_b) % (2.0 * math.pi)
    pv = coords[v]
    left, right = [], []
    for ti in incident:
        tri = tris[ti]
        others = [n for n in tri if n != v]
        p1, p2 = coords[others[0]], coords[others[1]]
        t1 = math.atan2(p1[1] - pv[1], p1[0] - pv[0])
        t2 = math.atan2(p2[1] - pv[1], p2[0] - pv[0])
        d12 = (t2 - t1) % (2.0 * math.pi)
        if d12 <= math.pi:
            mid = t1 + 0.5 * d12
        else:
            mid = t2 + 0.5 * ((t1 - t2) % (2.0 * math.pi))
        rel = (mid - theta_b) % (2.0 * math.pi)
        (left if rel < gap else right).append(ti)
    return left, right


def _unzip_and_finalize(
    domain,
    crack,
    end_kinds,
    chain_ids,
    pts_arr,
    tris,
    boundary_cycle,
    h_max,
    h_tip,
) -> CrackMesh:
    tris = tris.copy()
    n_orig = len(pts_arr)
    coords = pts_arr.tolist()
    origin = list(range(n_orig))  # node id -> the node it was split from

    # incidence for crack nodes only (row-major: increasing triangle ids)
    crack_nodes = sorted({u for ids in chain_ids for u in ids})
    incident: dict[int, list[int]] = {u: [] for u in crack_nodes}
    for ti, col in zip(*np.nonzero(np.isin(tris, crack_nodes))):
        incident[int(tris[ti, col])].append(int(ti))

    edges, counts, _ = edge_table(tris)
    two_sided = _edge_keys(edges[counts == 2], n_orig)

    tip_nodes: list[int] = []
    chains: list[CrackChain] = []

    for comp_idx, ids in enumerate(chain_ids):
        kinds = end_kinds[comp_idx]
        if kinds[0] == "point":
            chains.append(
                CrackChain(comp_idx, tuple(ids), tuple(ids), "point", "point")
            )
            continue
        k = len(ids) - 1
        if not np.all(np.isin(_edge_keys(list(zip(ids, ids[1:])), n_orig), two_sided)):
            raise MeshFailure("interior crack edge lacks two triangles")
        minus_ids = list(ids)
        for i, v in enumerate(ids):
            at_end = i == 0 or i == k
            kind = kinds[0] if i == 0 else (kinds[1] if i == k else "interior")
            if at_end and kind == "tip":
                tip_nodes.append(v)
                continue
            pv = coords[v]
            if i > 0:
                pa = coords[ids[i - 1]]
                theta_a = math.atan2(pa[1] - pv[1], pa[0] - pv[0])
            if i < k:
                pb = coords[ids[i + 1]]
                theta_b = math.atan2(pb[1] - pv[1], pb[0] - pv[0])
            if 0 < i < k:
                left, right = _fan_sides(coords, tris, incident[v], v, theta_b, theta_a)
            else:
                # boundary end: split the open fan by the single crack edge
                travel = (
                    (pb[0] - pv[0], pb[1] - pv[1])
                    if i == 0
                    else (pv[0] - pa[0], pv[1] - pa[1])
                )
                left, right = [], []
                for ti in incident[v]:
                    tri = tris[ti]
                    others = [n for n in tri if n != v]
                    p1, p2 = coords[others[0]], coords[others[1]]
                    cx = (p1[0] + p2[0] + pv[0]) / 3.0
                    cy = (p1[1] + p2[1] + pv[1]) / 3.0
                    cross = travel[0] * (cy - pv[1]) - travel[1] * (cx - pv[0])
                    (left if cross > 0 else right).append(ti)
            if not left or not right:
                raise MeshFailure("crack unzip found an empty face side")
            dup = len(origin)
            origin.append(v)
            coords.append(pv)
            minus_ids[i] = dup
            for ti in right:
                row = tris[ti]
                row[row == v] = dup
        chains.append(
            CrackChain(comp_idx, tuple(ids), tuple(minus_ids), kinds[0], kinds[1])
        )

    pts_arr = pts_arr[origin]

    # consistency: plus edges and minus edges each have exactly one triangle now
    edges, counts, _ = edge_table(tris)
    free = [tuple(e) for e in edges[counts == 1].tolist()]

    face_edges: set[tuple[int, int]] = set()
    face_pairs: list[FacePair] = []
    for ch in chains:
        if ch.start_kind == "point":
            continue
        for ids in (ch.node_ids, ch.minus_ids):
            face_edges.update((min(u, v), max(u, v)) for u, v in zip(ids, ids[1:]))
        for plus, minus in zip(ch.node_ids, ch.minus_ids):
            if plus != minus:
                face_pairs.append(
                    FacePair(
                        (float(pts_arr[plus][0]), float(pts_arr[plus][1])),
                        plus,
                        minus,
                    )
                )
    if not face_edges.issubset(free):
        raise MeshFailure("crack face edge not free after unzip")
    if np.any(counts > 2):
        raise MeshFailure("non-manifold edge")

    # boundary tagging: a free edge off the crack faces must be a boundary
    # cycle edge, which lies on the polygon edge of its first node; a
    # duplicate stands for the node it was split from
    parent_of = {}
    for (u, k), (v, _) in zip(boundary_cycle, boundary_cycle[1:] + boundary_cycle[:1]):
        parent_of[(min(u, v), max(u, v))] = k
    boundary_edges: list[tuple[int, int, str]] = []
    for e in free:
        if e in face_edges:
            boundary_edges.append((e[0], e[1], "crack_face"))
            continue
        u, v = origin[e[0]], origin[e[1]]
        parent = parent_of.get((min(u, v), max(u, v)))
        if parent is None:
            raise MeshFailure("untagged boundary edge (hole in mesh?)")
        boundary_edges.append((e[0], e[1], domain.edge_tag(parent)))

    # Dirichlet nodes and crack releases
    dirichlet_nodes = set()
    for i, j, tag in boundary_edges:
        if tag == "dirichlet":
            dirichlet_nodes.update((i, j))
    crack_ids = set()
    for ch in chains:
        crack_ids.update(ch.node_ids)
        crack_ids.update(ch.minus_ids)
    released = frozenset(dirichlet_nodes & crack_ids)

    mesh = CrackMesh(
        nodes=pts_arr,
        triangles=tris,
        crack_face_pairs=tuple(face_pairs),
        boundary_edges=tuple(boundary_edges),
        tip_nodes=tuple(tip_nodes),
        crack_chains=tuple(chains),
        dirichlet_nodes=frozenset(dirichlet_nodes - set(released)),
        released_nodes=released,
        h_max=h_max,
        h_tip=h_tip,
    )
    if np.any(mesh.areas <= 0):
        raise MeshFailure("non-positive triangle area")
    ang = mesh.min_angle()
    if ang < _MIN_ANGLE_DEG:
        raise MeshFailure(f"min angle {ang:.2f} deg below bound {_MIN_ANGLE_DEG}")
    return mesh


# ---------------------------------------------------------------------------
# point location / interpolation
# ---------------------------------------------------------------------------


class TriangleLocator:
    """Deterministic point-to-triangle lookup via centroid KD-tree."""

    def __init__(self, mesh: CrackMesh):
        self.mesh = mesh
        self.centroids = mesh.nodes[mesh.triangles].mean(axis=1)
        self.tree = cKDTree(self.centroids)

    def locate(self, p, k: int = 24) -> tuple[int, np.ndarray]:
        """Containing triangle index and barycentric coordinates of p."""
        mesh = self.mesh
        kq = min(k, len(self.centroids))
        while True:
            _, cand = self.tree.query(p, k=kq)
            cand = np.atleast_1d(cand)
            best = None
            for ti in cand:
                tri = mesh.triangles[ti]
                bary = self._bary(ti, p)
                neg = float(np.min(bary))
                if neg >= -1e-10:
                    return int(ti), bary
                if best is None or neg > best[0]:
                    best = (neg, int(ti), bary)
            if kq >= len(self.centroids):
                # fall back to the least-bad candidate (point on/near boundary)
                if best is not None and best[0] > -1e-6:
                    return best[1], best[2]
                raise MeshFailure(f"point {p} not inside any triangle")
            kq = min(4 * kq, len(self.centroids))

    def _bary(self, ti: int, p) -> np.ndarray:
        a, b, c = self.mesh.nodes[self.mesh.triangles[ti]]
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        l1 = ((b[0] - p[0]) * (c[1] - p[1]) - (b[1] - p[1]) * (c[0] - p[0])) / det
        l2 = ((c[0] - p[0]) * (a[1] - p[1]) - (c[1] - p[1]) * (a[0] - p[0])) / det
        return np.array([l1, l2, 1.0 - l1 - l2])
