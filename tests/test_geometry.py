import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasicrack.domain import DomainSpec
from quasicrack.geometry import (
    CrackSet,
    GeometryViolation,
    Polyline,
    component_count,
    contains,
    crack_tips,
    distance_to_crack,
    extend_tip,
    hausdorff_distance,
    segment_distances,
    _dist_to_segment,
    _intersect_beyond_shared,
    _orient,
    _segments_intersect,
    length,
)

from oracles import (
    contains_scan,
    folds_back_exact,
    hausdorff_bruteforce,
    orient_exact,
    random_crackset,
    segments_intersect_exact,
    union_length_scan,
)


def seg(a, b, m=1):
    return CrackSet((Polyline((a, b)),), m)


def pt(p, m=1):
    return CrackSet((Polyline((p,)),), m)


# ---------------------------------------------------------------------------
# length
# ---------------------------------------------------------------------------


def test_length_unit_segment():
    assert length(seg((0.0, 0.0), (1.0, 0.0))) == 1.0


def test_length_point_is_zero():
    assert length(pt((0.0, 0.0))) == 0.0


def test_length_345():
    assert length(seg((0.0, 0.0), (3.0, 4.0))) == 5.0


def test_length_collinear_overlap_not_double_counted():
    k = CrackSet(
        (Polyline(((0.0, 0.0), (1.0, 0.0))), Polyline(((0.5, 0.0), (2.0, 0.0)))),
        m=1,
    )
    assert length(k) == pytest.approx(2.0, abs=1e-14)


def test_length_crossing_segments_full_sum():
    k = CrackSet(
        (Polyline(((0.0, 0.0), (1.0, 1.0))), Polyline(((0.0, 1.0), (1.0, 0.0)))),
        m=1,
    )
    assert length(k) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-14)


@given(
    st.floats(0.0, 2.0 * math.pi),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
)
def test_length_rigid_motion_invariant(theta, dx, dy):
    k = CrackSet(
        (
            Polyline(((0.0, 0.0), (0.7, 0.1), (1.1, 0.6))),
            Polyline(((2.0, 2.0), (2.5, 2.8))),
        ),
        m=2,
    )
    c, s = math.cos(theta), math.sin(theta)
    moved = CrackSet(
        tuple(
            Polyline(
                tuple((c * x - s * y + dx, s * x + c * y + dy) for x, y in comp.vertices)
            )
            for comp in k.components
        ),
        m=2,
    )
    assert length(moved) == pytest.approx(length(k), abs=1e-12)


# ---------------------------------------------------------------------------
# point-segment distance matrix
# ---------------------------------------------------------------------------

# coordinates on a 1e-8 grid in [-10, 10]: no squared difference underflows,
# so the matrix and the scalar `hypot` differ only in rounding
_coord = st.integers(-10**9, 10**9).map(lambda k: k / 1e8)
_point = st.tuples(_coord, _coord)


@st.composite
def _distance_case(draw):
    segs = draw(st.lists(st.tuples(_point, _point), min_size=1, max_size=4))
    segs += [(q, q) for q in draw(st.lists(_point, max_size=2))]
    pts = draw(st.lists(_point, max_size=3))
    # points on a segment (s in [0, 1]) and collinear beyond either end
    for a, b in draw(st.lists(st.sampled_from(segs), min_size=1, max_size=4)):
        s = draw(st.integers(-300, 400)) / 100.0
        pts.append((a[0] + s * (b[0] - a[0]), a[1] + s * (b[1] - a[1])))
    return pts, segs


@given(_distance_case())
def test_segment_distances_match_scalar(case):
    pts, segs = case
    a = np.array([s[0] for s in segs])
    b = np.array([s[1] for s in segs])
    d = segment_distances(np.array(pts), a, b)
    assert d.shape == (len(pts), len(segs))
    for i, p in enumerate(pts):
        for j, (sa, sb) in enumerate(segs):
            assert math.isclose(d[i, j], _dist_to_segment(p, sa, sb), rel_tol=1e-15)


def test_distance_to_crack_points_and_empty():
    k = CrackSet((Polyline(((0.0, 0.0), (1.0, 0.0))), Polyline(((3.0, 4.0),))), m=2)
    pts = np.array([[0.5, 2.0], [3.0, 5.0], [-3.0, -4.0]])
    assert distance_to_crack(k, pts).tolist() == [2.0, 1.0, 5.0]
    empty = CrackSet((), m=1)
    assert distance_to_crack(empty, pts).tolist() == [math.inf] * 3


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------


def test_hausdorff_two_points():
    assert hausdorff_distance(pt((0.0, 0.0)), pt((3.0, 4.0))) == 5.0


def test_hausdorff_identity():
    k = CrackSet((Polyline(((0.0, 0.0), (1.0, 0.5), (2.0, 0.0))),), 1)
    assert hausdorff_distance(k, k) == 0.0


def test_hausdorff_segment_vs_point_matches_bruteforce():
    k1 = seg((0.0, 0.0), (1.0, 0.0))
    k2 = pt((0.0, 1.0))
    d = hausdorff_distance(k1, k2)
    assert d == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert d == pytest.approx(hausdorff_bruteforce(k1, k2), abs=1e-3)


def test_hausdorff_empty_conventions():
    empty = CrackSet((), 1)
    k = seg((0.0, 0.0), (1.0, 0.0))
    assert hausdorff_distance(empty, empty) == 0.0
    assert hausdorff_distance(empty, k, domain_diameter=7.0) == 7.0
    with pytest.raises(ValueError):
        hausdorff_distance(empty, k)


def test_hausdorff_random_pairs_against_bruteforce():
    rng = np.random.default_rng(42)
    for _ in range(20):
        k1 = random_crackset(rng)
        k2 = random_crackset(rng)
        d = hausdorff_distance(k1, k2)
        d_ref = hausdorff_bruteforce(k1, k2)
        assert d == pytest.approx(d_ref, abs=1e-3)


@given(st.integers(0, 10_000))
@settings(max_examples=40)
def test_hausdorff_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (random_crackset(rng, max_components=2) for _ in range(3))
    dab = hausdorff_distance(a, b)
    dbc = hausdorff_distance(b, c)
    dac = hausdorff_distance(a, c)
    assert dac <= dab + dbc + 1e-10
    assert dab == pytest.approx(hausdorff_distance(b, a), abs=1e-10)


# ---------------------------------------------------------------------------
# component count
# ---------------------------------------------------------------------------


def test_component_count_disjoint():
    k = CrackSet(
        (Polyline(((0.0, 0.0), (1.0, 0.0))), Polyline(((0.0, 1.0), (1.0, 1.0)))),
        m=2,
    )
    assert component_count(k) == 2


def test_component_count_shared_endpoint():
    k = CrackSet(
        (Polyline(((0.0, 0.0), (1.0, 0.0))), Polyline(((1.0, 0.0), (2.0, 1.0)))),
        m=2,
    )
    assert component_count(k) == 1


def test_component_count_empty():
    assert component_count(CrackSet((), 1)) == 0


def test_component_count_point_on_segment():
    k = CrackSet(
        (Polyline(((0.0, 0.0), (2.0, 0.0))), Polyline(((1.0, 0.0),))),
        m=2,
    )
    assert component_count(k) == 1


def test_component_budget_enforced():
    with pytest.raises(GeometryViolation):
        CrackSet(
            (Polyline(((0.0, 0.0), (1.0, 0.0))), Polyline(((0.0, 1.0), (1.0, 1.0)))),
            m=1,
        )


# ---------------------------------------------------------------------------
# contains
# ---------------------------------------------------------------------------


def test_contains_subsegment_exact():
    big = seg((0.0, 0.0), (1.0, 0.0))
    small = seg((0.25, 0.0), (0.75, 0.0))
    assert contains(big, small, 0.0)
    assert not contains(small, big, 0.0)


def test_contains_disjoint_false():
    assert not contains(seg((0.0, 0.0), (1.0, 0.0)), pt((0.0, 1.0)), 0.0)


def test_contains_with_tolerance():
    big = seg((0.0, 0.0), (1.0, 0.0))
    near = seg((0.1, 0.05), (0.9, 0.05))
    assert contains(big, near, 0.06)
    assert not contains(big, near, 0.04)


def test_contains_multi_segment_cover():
    big = CrackSet(
        (Polyline(((0.0, 0.0), (0.6, 0.0))), Polyline(((0.4, 0.0), (1.0, 0.0)))),
        m=1,
    )
    assert contains(big, seg((0.0, 0.0), (1.0, 0.0)), 0.0)


# collinear-heavy crack sets: components laid on a few shared lines at
# quarter-step parameters, so overlaps, touching intervals, prefixes and
# suffixes are common; directions include exact and near 45 degrees and
# one whose points are rounded off their exact line
_LINE_DIRS = [
    (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0), (3.0, 4.0), (-4.0, 3.0),
    (1.0, 1.0 + 2.0**-30), (1.0 + 2.0**-30, 1.0), (0.1, 0.7),
]
_LINE_TS = [k / 4.0 for k in range(-4, 9)]


@st.composite
def _lines(draw):
    origin = st.tuples(_dyadic, _dyadic)
    return draw(st.lists(st.tuples(origin, st.sampled_from(_LINE_DIRS)), min_size=1, max_size=3))


@st.composite
def _crack_on(draw, lines, min_size=1):
    comps = []
    for _ in range(draw(st.integers(min_size, 5))):
        (ox, oy), (dx, dy) = draw(st.sampled_from(lines))
        ts = draw(st.lists(st.sampled_from(_LINE_TS), min_size=3, max_size=3, unique=True))
        a, m, b = ((ox + t * dx, oy + t * dy) for t in sorted(ts))
        kind = draw(st.sampled_from(["segment", "split", "kinked", "point"]))
        if kind == "point":
            comps.append(Polyline((a,)))
        elif kind == "kinked":
            comps.append(Polyline((a, b, (b[0] - dy, b[1] + dx))))
        elif kind == "split":  # two components touching at m
            comps.extend((Polyline((a, m)), Polyline((m, b))))
        else:
            comps.append(Polyline((a, b)))
    return CrackSet(tuple(comps), m=max(1, len(comps)))


@st.composite
def _containment_pair(draw):
    lines = draw(_lines())
    big = draw(_crack_on(lines))
    kind = draw(st.sampled_from(["prefix", "suffix", "subset", "other", "point", "span"]))
    comps = big.components
    # pairs of big's segments on one exact line; "span" joins their far ends
    spans = [
        sorted(s + t)
        for s, t in itertools.permutations(big.segments(), 2)
        if orient_exact(*s, t[0]) == 0 and orient_exact(*s, t[1]) == 0
    ]
    if kind == "span" and not spans:
        kind = "other"
    if kind in ("prefix", "suffix"):
        v = draw(st.sampled_from(comps)).vertices
        k = draw(st.integers(1, len(v)))
        small = CrackSet((Polyline(v[:k] if kind == "prefix" else v[-k:]),), 1)
    elif kind == "subset":
        keep = draw(st.lists(st.sampled_from(range(len(comps))), min_size=1, unique=True))
        small = CrackSet(tuple(comps[i] for i in sorted(keep)), m=len(keep))
    elif kind == "point":
        # a vertex of big, or the midpoint of one of its segments
        a, b = draw(st.sampled_from([(q, q) for c in comps for q in c.vertices] + big.segments()))
        small = CrackSet((Polyline((((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0),)),), 1)
    elif kind == "span":
        ends = draw(st.sampled_from(spans))
        small = CrackSet((Polyline((ends[0], ends[-1])),), 1)
    else:
        small = draw(_crack_on(lines))
    return big, small


@given(_lines().flatmap(lambda lines: _crack_on(lines, 0)))
@settings(max_examples=200)
def test_length_matches_union_scan(crack):
    assert length(crack) == union_length_scan(crack)


@given(_containment_pair())
@settings(max_examples=200)
def test_contains_exact_matches_cover_scan(pair):
    big, small = pair
    assert contains(big, small, 0.0) == contains_scan(big, small)
    assert contains(small, big, 0.0) == contains_scan(small, big)


# ---------------------------------------------------------------------------
# tips and extension
# ---------------------------------------------------------------------------


def test_crack_tips_fields():
    k = seg((0.0, 0.0), (1.0, 0.0))
    tips = crack_tips(k)
    assert len(tips) == 2
    start, finish = tips
    assert start.end == "start" and start.position == (0.0, 0.0)
    assert start.tangent == (-1.0, 0.0)
    assert finish.end == "finish" and finish.tangent == (1.0, 0.0)


def test_extend_tip_straight_set_equality():
    k = seg((0.0, 0.0), (1.0, 0.0))
    tip = crack_tips(k)[1]
    ext = extend_tip(k, tip, 0.0, 0.5)
    target = seg((0.0, 0.0), (1.5, 0.0))
    assert contains(ext, target, 0.0) and contains(target, ext, 0.0)


def test_extend_tip_kink():
    k = seg((0.0, 0.0), (1.0, 0.0))
    tip = crack_tips(k)[1]
    ext = extend_tip(k, tip, math.pi / 2.0, 0.5)
    assert ext.components[0].vertices == ((0.0, 0.0), (1.0, 0.0), (1.0, 0.5))


def test_extend_tip_prefix_contained():
    k = CrackSet((Polyline(((0.0, 0.0), (0.5, 0.1), (1.0, 0.0))),), 1)
    tip = crack_tips(k)[1]
    ext = extend_tip(k, tip, 0.3, 0.2)
    assert contains(ext, k, 0.0)


def test_extend_tip_start_end():
    k = seg((0.0, 0.0), (1.0, 0.0))
    tip = crack_tips(k)[0]
    ext = extend_tip(k, tip, 0.0, 0.25)
    assert ext.components[0].vertices[0] == (-0.25, 0.0)
    assert contains(ext, k, 0.0)


def test_extend_tip_exits_domain_raises():
    square = DomainSpec.unit_square()
    k = seg((0.2, 0.5), (0.8, 0.5))
    tip = crack_tips(k)[1]
    with pytest.raises(GeometryViolation):
        extend_tip(k, tip, 0.0, 0.5, domain=square)


def test_extend_tip_may_touch_boundary():
    square = DomainSpec.unit_square()
    k = seg((0.2, 0.5), (0.8, 0.5))
    tip = crack_tips(k)[1]
    ext = extend_tip(k, tip, 0.0, 0.2, domain=square)
    assert ext.components[0].vertices[-1] == (1.0, 0.5)


def test_extend_tip_fold_back_raises():
    k = seg((0.0, 0.0), (1.0, 0.0))
    tip = crack_tips(k)[1]
    with pytest.raises(GeometryViolation):
        extend_tip(k, tip, math.pi, 0.5)


def test_extend_tip_crossing_other_component_raises():
    k = CrackSet(
        (Polyline(((0.0, 0.0), (1.0, 0.0))), Polyline(((1.5, -1.0), (1.5, 1.0)))),
        m=2,
    )
    tip = crack_tips(k)[1]
    with pytest.raises(GeometryViolation):
        extend_tip(k, tip, 0.0, 1.0)


def test_extend_tip_kink_bound():
    k = seg((0.0, 0.0), (1.0, 0.0))
    tip = crack_tips(k)[1]
    with pytest.raises(GeometryViolation):
        extend_tip(k, tip, 0.9, 0.1, max_kink=math.radians(45))


# ---------------------------------------------------------------------------
# polyline validity, serialization
# ---------------------------------------------------------------------------


def test_polyline_rejects_duplicate_consecutive():
    with pytest.raises(GeometryViolation):
        Polyline(((0.0, 0.0), (0.0, 0.0)))


def test_polyline_rejects_self_intersection():
    with pytest.raises(GeometryViolation):
        Polyline(((0.0, 0.0), (1.0, 0.0), (0.5, 0.5), (0.5, -0.5)))


def test_crackset_json_roundtrip():
    k = CrackSet(
        (Polyline(((0.0, 0.0), (1.0, 0.0), (1.2, 0.4))), Polyline(((2.0, 2.0),))),
        m=2,
    )
    back = CrackSet.from_json(k.to_json(), m=2)
    assert back.fingerprint() == k.fingerprint()


# ---------------------------------------------------------------------------
# exact predicates against a Fraction-only oracle
# ---------------------------------------------------------------------------

_dyadic = st.integers(-8, 8).map(lambda k: k / 4.0)
_real = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def _nudge(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def _partner(draw, s0, s1):
    """A segment placed against [s0, s1] in one of four degenerate ways:
    on its line, sharing an end, with bounding boxes touching at one
    corner, or on its line with one coordinate nudged by a few ulps."""
    kind = draw(st.sampled_from(["collinear", "shared", "corner", "near"]))
    if kind in ("collinear", "near"):
        t = draw(st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]),
                          min_size=2, max_size=2, unique=True))
        q = [(s0[0] + ti * (s1[0] - s0[0]), s0[1] + ti * (s1[1] - s0[1])) for ti in t]
        if kind == "near":
            k, axis = draw(st.integers(0, 1)), draw(st.integers(0, 1))
            moved = list(q[k])
            moved[axis] = _nudge(moved[axis], draw(st.integers(-3, 3)))
            q[k] = tuple(moved)
    elif kind == "shared":
        q = [draw(st.sampled_from([s0, s1])), (draw(_real), draw(_real))]
    else:
        xs, ys = draw(st.integers(0, 1)), draw(st.integers(0, 1))
        cx = max(s0[0], s1[0]) if xs else min(s0[0], s1[0])
        cy = max(s0[1], s1[1]) if ys else min(s0[1], s1[1])
        u, v = draw(st.floats(0.1, 1.0)), draw(st.floats(0.1, 1.0))
        q = [(cx, cy), (cx + u if xs else cx - u, cy + v if ys else cy - v)]
    if draw(st.booleans()):
        q.reverse()
    return tuple(q)


@st.composite
def _segment_pairs(draw):
    s0 = (draw(st.one_of(_dyadic, _real)), draw(st.one_of(_dyadic, _real)))
    s1 = (draw(st.one_of(_dyadic, _real)), draw(st.one_of(_dyadic, _real)))
    return (s0, s1), draw(_partner(s0, s1))


@given(_segment_pairs())
def test_predicates_match_fraction_oracle(pair):
    (p1, p2), (p3, p4) = pair
    pts = (p1, p2, p3, p4)
    for a, b, c in itertools.permutations(pts, 3):
        assert _orient(a, b, c) == orient_exact(a, b, c)
    assert _segments_intersect(p1, p2, p3, p4) == segments_intersect_exact(p1, p2, p3, p4)
    assert _segments_intersect(p3, p4, p1, p2) == segments_intersect_exact(p3, p4, p1, p2)


@given(
    st.sampled_from([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (1.0, 1.0), (3.0, 4.0)]),
    st.sampled_from([0.25, 0.5, 0.3, 1.0]),
    st.data(),
)
def test_extend_tip_matches_fraction_oracle(direction, step, data):
    # straight growth of [a0, anchor] past a second component placed
    # degenerately against the new segment
    a0, anchor = (0.0, 0.0), direction
    alone = seg(a0, anchor)
    tip = crack_tips(alone)[1]
    new_pt = extend_tip(alone, tip, 0.0, step).components[0].vertices[-1]
    q = data.draw(_partner(anchor, new_pt))
    assume(q[0] != q[1] and not segments_intersect_exact(a0, anchor, *q))
    k = CrackSet((Polyline((a0, anchor)), Polyline(q)), m=2)
    try:
        extend_tip(k, crack_tips(k)[1], 0.0, step)
        raised = False
    except GeometryViolation:
        raised = True
    assert raised == segments_intersect_exact(anchor, new_pt, *q)


@st.composite
def _adjacent_pair(draw):
    """Two segments sharing an end vertex: a fold-back, a straight
    continuation, either one with a coordinate nudged by a few ulps, or a
    kink; each segment in either orientation."""
    shared = (draw(st.one_of(_dyadic, _real)), draw(st.one_of(_dyadic, _real)))
    a = (draw(st.one_of(_dyadic, _real)), draw(st.one_of(_dyadic, _real)))
    kind = draw(st.sampled_from(["fold", "straight", "near", "kink"]))
    if kind == "kink":
        b = (draw(st.one_of(_dyadic, _real)), draw(st.one_of(_dyadic, _real)))
    else:
        k = draw(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]))
        k = -k if kind == "straight" or (kind == "near" and draw(st.booleans())) else k
        b = [shared[0] + k * (a[0] - shared[0]), shared[1] + k * (a[1] - shared[1])]
        if kind == "near":
            axis = draw(st.integers(0, 1))
            b[axis] = _nudge(b[axis], draw(st.integers(-3, 3)))
        b = tuple(b)
    assume(a != shared and b != shared)
    seg = (shared, a) if draw(st.booleans()) else (a, shared)
    other = (shared, b) if draw(st.booleans()) else (b, shared)
    return shared, a, b, seg, other


@given(_adjacent_pair())
def test_fold_back_matches_fraction_oracle(pair):
    shared, a, b, seg, other = pair
    want = folds_back_exact(shared, a, b)
    assert _intersect_beyond_shared(seg, other) == want
    assert _intersect_beyond_shared(other, seg) == want
