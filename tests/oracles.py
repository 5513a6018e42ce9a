"""Independent brute-force oracles used to cross-check the package.

Everything here is written directly from definitions (rational
determinants, exhaustive scans) and deliberately shares no code with the
implementation under test, except ``geom.encroaches``, the definition of
encroachment that the two whole-mesh encroachment scans below apply,
``geom.DegenerateTriangleError``, which the reference ``min_angle_deg``
raises as the real one does, the ``Point``, ``Pslg`` and ``Segment``
types that the reference enclosure returns, the engines and the
verdict that the reference threshold scan runs probe by probe, and the
triangulation's ``_rim`` and ``_replace``, through which the reference
vertex insertion refills its cavity.  The writers stream into open
files; ``written`` gives the text one wrote.
"""

from __future__ import annotations

import io
import math
from fractions import Fraction

from refinelab.analysis import (
    DIVERGING,
    INCONCLUSIVE,
    CascadeChecker,
    ScanError,
    ScanProbe,
    ScanResult,
    _as_pslg,
    classify,
)
from refinelab.cdt import InsertResult, TriangulationError
from refinelab.geom import (
    DegenerateTriangleError,
    Point,
    encroaches,
    incircle_sign,
    orient_sign,
)
from refinelab.pslg import Pslg, Segment
from refinelab.refine import (
    CHEW2,
    RUPPERT,
    TERMINATED,
    RefinementConfig,
    chew2,
    ruppert,
)


def written(write, *args) -> str:
    """The text ``write(*args, out)`` writes into a fresh ``io.StringIO``."""
    out = io.StringIO()
    write(*args, out)
    return out.getvalue()


def orient_oracle(a, b, c) -> int:
    """Sign of the 3x3 orientation determinant in exact arithmetic."""
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def min_angle_deg_oracle(a, b, c) -> float:
    """The smallest angle of abc, in degrees, as three separate vertex
    angles: at each vertex, atan2 of the cross and dot products of its
    two outgoing edges, every edge difference computed afresh."""
    if orient_oracle(a, b, c) == 0:
        raise DegenerateTriangleError("degenerate triangle has no angles")
    angles = (
        _vertex_angle(a[0], a[1], b[0], b[1], c[0], c[1]),
        _vertex_angle(b[0], b[1], c[0], c[1], a[0], a[1]),
        _vertex_angle(c[0], c[1], a[0], a[1], b[0], b[1]),
    )
    if math.isnan(sum(angles)):  # a product overflowed
        raise DegenerateTriangleError("triangle angles overflow float range")
    return math.degrees(min(angles))


def _vertex_angle(ox, oy, px, py, qx, qy) -> float:
    ux = px - ox
    uy = py - oy
    vx = qx - ox
    vy = qy - oy
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    return math.atan2(abs(cross), dot)


def incircle_oracle(a, b, c, d) -> int:
    """Sign of the full 4x4 lifted determinant, normalized to CCW abc.

    +1 means d strictly inside the circumcircle of abc.
    """
    rows = []
    for p in (a, b, c, d):
        x, y = Fraction(p[0]), Fraction(p[1])
        rows.append([x, y, x * x + y * y, Fraction(1)])
    det = _det4(rows)
    o = orient_oracle(a, b, c)
    if o == 0:
        raise ValueError("collinear triangle in incircle oracle")
    det *= o
    return (det > 0) - (det < 0)


def _det4(m) -> Fraction:
    total = Fraction(0)
    sign = 1
    for col in range(4):
        minor = [
            [m[r][c] for c in range(4) if c != col] for r in range(1, 4)
        ]
        total += sign * m[0][col] * _det3(minor)
        sign = -sign
    return total


def _det3(m) -> Fraction:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def in_diametral_disk_oracle(p, a, b) -> int:
    """-1 outside, 0 on, +1 strictly inside the diametral circle of ab.

    Exact rational test: p is inside iff the angle apb is obtuse.
    """
    pax = Fraction(a[0]) - Fraction(p[0])
    pay = Fraction(a[1]) - Fraction(p[1])
    pbx = Fraction(b[0]) - Fraction(p[0])
    pby = Fraction(b[1]) - Fraction(p[1])
    dot = pax * pbx + pay * pby
    return (dot < 0) - (dot > 0)


def _in_box(a, b, c) -> bool:
    """c lies in the closed bounding box of ab (on ab when collinear)."""
    return (
        min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
    )


def segments_cross_oracle(p1, q1, p2, q2) -> bool:
    """True when the closed segments share any point (exact)."""
    o1 = orient_oracle(p1, q1, p2)
    o2 = orient_oracle(p1, q1, q2)
    o3 = orient_oracle(p2, q2, p1)
    o4 = orient_oracle(p2, q2, q1)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _in_box(p1, q1, p2):
        return True
    if o2 == 0 and _in_box(p1, q1, q2):
        return True
    if o3 == 0 and _in_box(p2, q2, p1):
        return True
    if o4 == 0 and _in_box(p2, q2, q1):
        return True
    return False


def first_crossing_oracle(points, subsegments, g, c):
    """The subsegment key whose crossing with the walk g -> c is nearest g.

    A crossing is the one point that segment gc shares with a subsegment
    ab; it counts when it lies strictly inside ab and in the half-open
    segment (g, c].  Parallel pairs have no single common point and never
    count.  Returns None when no subsegment is crossed.
    """
    gx, gy = Fraction(g[0]), Fraction(g[1])
    dx, dy = Fraction(c[0]) - gx, Fraction(c[1]) - gy
    best = None
    for key in subsegments:
        a, b = points[key[0]], points[key[1]]
        ax, ay = Fraction(a[0]), Fraction(a[1])
        ex, ey = Fraction(b[0]) - ax, Fraction(b[1]) - ay
        den = dx * ey - dy * ex
        if den == 0:
            continue
        # solve g + t (c - g) = a + s (b - a)
        wx, wy = ax - gx, ay - gy
        t = (wx * ey - wy * ex) / den
        s = (wx * dy - wy * dx) / den
        if 0 < s < 1 and 0 < t <= 1 and (best is None or t < best[0]):
            best = (t, key)
    return None if best is None else best[1]


def encroached_subsegs_oracle(tri, p, closed):
    """Every subsegment whose diametral circle holds p, by a loop over all
    subsegments in ``tri.subsegments`` order; one with an endpoint at p is
    skipped.

    ``encroaches`` (with its 1e-12 band) is the definition of the disk
    test, and the padded box in front of it is the one the engines use, so
    that the result and the sequence of ``encroaches`` calls are those of
    the whole-mesh scan; what this checks is the candidate search.
    """
    px, py = p
    pts = tri.points
    out = []
    for key, rec in tri.subsegments.items():
        a = pts[key[0]]
        b = pts[key[1]]
        r = rec.length * 0.5000005
        dx = px - (a[0] + b[0]) * 0.5
        if dx > r or -dx > r:
            continue
        dy = py - (a[1] + b[1]) * 0.5
        if dy > r or -dy > r:
            continue
        if (px == a[0] and py == a[1]) or (px == b[0] and py == b[1]):
            continue
        if encroaches(p, a, b, closed=closed):
            out.append(key)
    return out


def encroaching_vertices_oracle(tri, key, closed, tag=None):
    """Every alive vertex (with the given tag, if one is given) other than
    key's endpoints in key's diametral circle, by a loop over all vertices
    in id order; see ``encroached_subsegs_oracle``."""
    pts = tri.points
    a = pts[key[0]]
    b = pts[key[1]]
    mx = (a[0] + b[0]) * 0.5
    my = (a[1] + b[1]) * 0.5
    r = tri.subsegments[key].length * 0.5000005
    out = []
    for vid in range(len(pts)):
        if not tri.alive[vid] or (tag is not None and tri.tags[vid] != tag):
            continue
        px, py = p = pts[vid]
        dx = px - mx
        if dx > r or -dx > r:
            continue
        dy = py - my
        if dy > r or -dy > r:
            continue
        if (px == a[0] and py == a[1]) or (px == b[0] and py == b[1]):
            continue
        if encroaches(p, a, b, closed=closed):
            out.append(vid)
    return out


def flanks(tri):
    """Each undirected edge of ``tri``'s triangles, as (low, high), mapped
    to the ids of its one or two triangles in id order."""
    out = {}
    for tid in sorted(tri.triangles):
        a, b, c = tri.triangles[tid]
        for u, v in ((a, b), (b, c), (c, a)):
            out.setdefault((min(u, v), max(u, v)), []).append(tid)
    return out


def insert_in_cavity_oracle(tri, vid, seeds, split=None):
    """``Triangulation._insert_in_cavity`` as three passes: flood the
    cavity, read its rim from the finished cavity (``_rim``), and refill it
    through ``_replace``, which links every new edge by matching it with
    its reverse."""
    pts, triangles, nbr = tri.points, tri.triangles, tri._nbr
    x, y = pts[vid]
    cavity = set(seeds)
    stack = list(seeds)
    while stack:
        tid = stack.pop()
        a, b, c = triangles[tid]
        for i, (u, v) in enumerate(((a, b), (b, c), (c, a))):
            n = nbr[3 * tid + i]
            if n < 0 or n in cavity or (min(u, v), max(u, v)) in tri.subsegments:
                continue
            pa, pb, pc = (pts[w] for w in triangles[n])
            if incircle_sign(*pa, *pb, *pc, x, y) > 0:
                cavity.add(n)
                stack.append(n)
    rim = tri._rim(cavity)
    ring = dict(rim.keys())  # start -> end of each boundary edge
    if len(ring) != len(rim):
        raise TriangulationError("cavity boundary is pinched")
    start = u = min(ring)
    fan = []
    for _ in range(len(ring)):
        v = ring[u]
        if not split or (min(u, v), max(u, v)) != split:
            o = orient_sign(x, y, *pts[u], *pts[v])
            if o < 0:
                raise TriangulationError("cavity boundary is not star-shaped")
            if o:
                fan.append((vid, u, v))
        u = v
    if u != start:
        raise TriangulationError("cavity boundary is not a single loop")
    return InsertResult(vid, tri._replace(cavity, fan), sorted(cavity))


def constrained_delaunay_violations(points, triangles, constraint_edges):
    """Brute-force constrained empty-circle audit.

    For every triangle and every other vertex strictly inside its
    circumcircle, the vertex must be hidden from the triangle's centroid
    by some constraint edge.  Returns a list of (triangle, vertex)
    offenders.
    """
    constraints = [
        (points[u], points[v]) for (u, v) in constraint_edges
    ]
    bad = []
    for tri in triangles:
        ia, ib, ic = tri
        a, b, c = points[ia], points[ib], points[ic]
        cx = Fraction(a[0]) + Fraction(b[0]) + Fraction(c[0])
        cy = Fraction(a[1]) + Fraction(b[1]) + Fraction(c[1])
        centroid = (cx / 3, cy / 3)
        for iv, p in points.items() if isinstance(points, dict) else enumerate(points):
            if iv in tri:
                continue
            if incircle_oracle(a, b, c, p) <= 0:
                continue
            visible = True
            for (u, v) in constraints:
                if (u == p or v == p):
                    continue
                if _proper_cross(centroid, p, u, v):
                    visible = False
                    break
            if visible:
                bad.append((tuple(tri), iv))
    return bad


def _proper_cross(p1, q1, p2, q2) -> bool:
    """Segments p1q1 and p2q2 cross at a single interior point of p2q2."""
    o1 = orient_oracle(p1, q1, p2)
    o2 = orient_oracle(p1, q1, q2)
    o3 = orient_oracle(p2, q2, p1)
    o4 = orient_oracle(p2, q2, q1)
    return o1 * o2 < 0 and o3 * o4 < 0


def validate_oracle(p):
    """`(kind, where)` of every violation `pslg.validate` should report.

    The all-pairs definition: each usable segment, in input order, is
    tested against every later usable segment and then against every
    finite vertex, with exact orientations.
    """
    verts, segs = p.vertices, p.segments
    finite = [math.isfinite(v[0]) and math.isfinite(v[1]) for v in verts]
    out = []
    first_at = {}
    for i, v in enumerate(verts):
        if not finite[i]:
            out.append(("nonfinite_vertex", (i,)))
        elif (v[0], v[1]) in first_at:
            out.append(("duplicate_vertex", (first_at[(v[0], v[1])], i)))
        else:
            first_at[(v[0], v[1])] = i
    for i, h in enumerate(p.holes):
        if not (math.isfinite(h[0]) and math.isfinite(h[1])):
            out.append(("nonfinite_hole", (i,)))

    first_seg = {}
    usable = []
    for k, s in enumerate(segs):
        if not (0 <= s.a < len(verts) and 0 <= s.b < len(verts)):
            out.append(("bad_index", (k,)))
        elif not (finite[s.a] and finite[s.b]):
            continue
        elif s.a == s.b or verts[s.a] == verts[s.b]:
            out.append(("zero_length", (k,)))
        elif frozenset((s.a, s.b)) in first_seg:
            out.append(("duplicate_segment", (first_seg[frozenset((s.a, s.b))], k)))
        else:
            first_seg[frozenset((s.a, s.b))] = k
            usable.append(k)

    for ii, k1 in enumerate(usable):
        s1 = segs[k1]
        a1, b1 = verts[s1.a], verts[s1.b]
        for k2 in usable[ii + 1:]:
            s2 = segs[k2]
            a2, b2 = verts[s2.a], verts[s2.b]
            if not {s1.a, s1.b} & {s2.a, s2.b}:
                bad = segments_cross_oracle(a1, b1, a2, b2)
            else:
                # sharing an endpoint, they may meet only there: a collinear
                # pair must not hold a further endpoint of the other
                bad = (
                    orient_oracle(a1, b1, a2) == 0
                    and orient_oracle(a1, b1, b2) == 0
                    and any(
                        q != sa and q != sb and _in_box(sa, sb, q)
                        for q, sa, sb in (
                            (a2, a1, b1), (b2, a1, b1), (a1, a2, b2), (b1, a2, b2)
                        )
                    )
                )
            if bad:
                out.append(("improper_intersection", (k1, k2)))
        for j, v in enumerate(verts):
            if j not in (s1.a, s1.b) and finite[j] and (
                orient_oracle(a1, b1, v) == 0 and _in_box(a1, b1, v)
            ):
                out.append(("vertex_on_segment", (j, k1)))
    return out


# generators.enclose as it was before it pruned pairs by reach: every
# vertex pair is measured
def enclose_oracle(p: Pslg, scale: float = 4.0) -> Pslg:
    """Wrap a configuration in an axis-aligned square of constraints.

    The side is scale times the configuration diameter, rounded up to a
    power of two so enclosure coordinates behave exactly under halving.
    """
    if not scale >= 3:
        raise ValueError("enclosure scale must be at least 3")
    xs = [v.x for v in p.vertices]
    ys = [v.y for v in p.vertices]
    cx = (min(xs) + max(xs)) / 2.0
    cy = (min(ys) + max(ys)) / 2.0
    diam = 0.0
    for i in range(len(p.vertices)):
        for j in range(i + 1, len(p.vertices)):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            diam = max(diam, math.sqrt(dx * dx + dy * dy))
    if diam == 0.0:
        raise ValueError("configuration has no extent to enclose")
    if not scale * diam <= 2.0 ** 1023:
        raise ValueError(
            f"enclosure scale {scale} makes a side larger than a float holds"
        )
    # every vertex lies within diam / 2 of (cx, cy) on each axis, and
    # half >= scale * diam / 2 >= 1.5 * diam, so the square clears them
    half = 2.0 ** math.ceil(math.log2(scale * diam)) / 2.0
    base = len(p.vertices)
    corners = (
        Point(cx - half, cy - half),
        Point(cx + half, cy - half),
        Point(cx + half, cy + half),
        Point(cx - half, cy + half),
    )
    nseg = len(p.segments)
    sides = tuple(
        Segment(base + k, base + (k + 1) % 4, nseg + k) for k in range(4)
    )
    return Pslg(p.vertices + corners, p.segments + sides, p.holes)


def threshold_scan_oracle(target, algorithm, lo, hi, tol=0.1, budget=40000):
    """``analysis.threshold_scan`` by its definition: every probe is its
    own engine run with ``budget`` insertions, stopped at its first
    DIVERGING verdict.  ``exact_deg`` is the largest angle of any event in
    the run at ``hi``."""
    if not 0.0 < lo < hi < 60.0:
        raise ScanError(f"invalid bracket [{lo}, {hi}]")
    if not tol >= math.ulp(hi):
        raise ScanError(f"tolerance must be positive and >= {math.ulp(hi):.3g}")
    if algorithm not in (RUPPERT, CHEW2):
        raise ScanError(f"unknown algorithm {algorithm!r}")
    pslg = _as_pslg(target)
    engine = ruppert if algorithm == RUPPERT else chew2
    probes = []

    def probe(alpha):
        cfg = RefinementConfig(alpha_deg=alpha, max_insertions=budget)
        outcome = engine(pslg, cfg, stop=CascadeChecker().feed)
        verdict = classify(outcome)
        if verdict.status == INCONCLUSIVE:
            raise ScanError(
                f"probe at alpha={alpha:.4f} is inconclusive: "
                f"{outcome.status} after {outcome.insertions} insertions"
            )
        p = ScanProbe(
            alpha_deg=alpha,
            status=outcome.status,
            verdict=verdict,
            insertions=outcome.insertions,
            splits=len(outcome.trace.splits()),
        )
        probes.append(p)
        return verdict.status, outcome

    if probe(lo)[0] != TERMINATED:
        raise ScanError(f"refinement at lo={lo} does not terminate")
    status, run_hi = probe(hi)
    if status != DIVERGING:
        raise ScanError(f"refinement at hi={hi} does not diverge")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if probe(mid)[0] == DIVERGING:
            hi = mid
        else:
            lo = mid
    return ScanResult(
        threshold_deg=(lo + hi) / 2.0,
        exact_deg=max(e.min_angle_deg for e in run_hi.trace.events
                      if e.min_angle_deg is not None),
        lo=lo,
        hi=hi,
        tol=tol,
        algorithm=algorithm,
        probes=tuple(probes),
    )
