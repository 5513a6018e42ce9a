"""Planar straight-line graph model, validation, and the .poly file format.

The file dialect is the one used by Triangle-style tools: a vertex
section, a segment section, and a hole section.  Attribute and boundary
marker columns are parsed and discarded; coordinates are emitted with 17
significant digits so that write/parse round-trips are exact.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .geom import Point, orient_sign

__all__ = [
    "Segment",
    "Pslg",
    "Violation",
    "PolyParseError",
    "validate",
    "min_input_angle_deg",
    "parse_poly",
    "write_poly",
]


class Segment(NamedTuple):
    a: int
    b: int
    lineage: Optional[int] = None


class Violation(NamedTuple):
    kind: str
    where: tuple
    message: str


class PolyParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Pslg:
    vertices: tuple[Point, ...]
    segments: tuple[Segment, ...]
    holes: tuple[Point, ...] = field(default_factory=tuple)

    def with_lineages(self) -> "Pslg":
        """Copy with each segment's lineage set to its own index."""
        segs = tuple(
            Segment(s.a, s.b, i if s.lineage is None else s.lineage)
            for i, s in enumerate(self.segments)
        )
        return Pslg(self.vertices, segs, self.holes)


def _on_closed_segment(a: Point, b: Point, p) -> bool:
    # assumes p collinear with ab
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _segments_conflict(a1: Point, b1: Point, a2: Point, b2: Point,
                       shared: int) -> bool:
    """True when two segments meet anywhere besides `shared` endpoints."""
    o1 = orient_sign(a1[0], a1[1], b1[0], b1[1], a2[0], a2[1])
    o2 = orient_sign(a1[0], a1[1], b1[0], b1[1], b2[0], b2[1])
    o3 = orient_sign(a2[0], a2[1], b2[0], b2[1], a1[0], a1[1])
    o4 = orient_sign(a2[0], a2[1], b2[0], b2[1], b1[0], b1[1])
    if shared == 0:
        if o1 != o2 and o3 != o4:
            return True
        if o1 == 0 and _on_closed_segment(a1, b1, a2):
            return True
        if o2 == 0 and _on_closed_segment(a1, b1, b2):
            return True
        # b1 on a2b2 needs no test of its own.  Off the line a2b2, a1 gives
        # o3 != 0 = o4, so the first test finds b1 strictly inside a2b2 and
        # the o1 or o2 test finds it at a2 or b2.  On the line, with neither
        # a2 nor b2 in a1b1, a1b1 lies inside a2b2, which the o3 test finds
        return o3 == 0 and _on_closed_segment(a2, b2, a1)
    # exactly one shared endpoint: the only legal contact is that point,
    # which collinear overlap would exceed
    if o1 == 0 and o2 == 0:
        # collinear; overlap iff a non-shared endpoint falls inside the
        # other segment's interior
        for p, (sa, sb) in (
            (a2, (a1, b1)),
            (b2, (a1, b1)),
            (a1, (a2, b2)),
            (b1, (a2, b2)),
        ):
            if p != sa and p != sb and _on_closed_segment(sa, sb, p):
                return True
        return False
    return False


def validate(p: Pslg) -> list[Violation]:
    """Check all structural invariants; violations are data, not errors."""
    out: list[Violation] = []
    n = len(p.vertices)

    # non-finite vertices are reported once and kept out of the exact tests
    finite = [math.isfinite(v[0]) and math.isfinite(v[1]) for v in p.vertices]
    seen: dict[Point, int] = {}
    for i, v in enumerate(p.vertices):
        if not finite[i]:
            out.append(Violation("nonfinite_vertex", (i,), f"vertex {i} is not finite"))
            continue
        key = Point(v[0], v[1])
        if key in seen:
            out.append(
                Violation(
                    "duplicate_vertex",
                    (seen[key], i),
                    f"vertices {seen[key]} and {i} coincide at {tuple(key)}",
                )
            )
        else:
            seen[key] = i
    for i, h in enumerate(p.holes):
        if not (math.isfinite(h[0]) and math.isfinite(h[1])):
            out.append(Violation("nonfinite_hole", (i,), f"hole {i} is not finite"))

    seg_keys: dict[tuple[int, int], int] = {}
    usable = []
    for k, s in enumerate(p.segments):
        if not (0 <= s.a < n and 0 <= s.b < n):
            out.append(
                Violation("bad_index", (k,), f"segment {k} references a missing vertex")
            )
            continue
        if not (finite[s.a] and finite[s.b]):
            continue
        if s.a == s.b or p.vertices[s.a] == p.vertices[s.b]:
            out.append(
                Violation("zero_length", (k,), f"segment {k} has zero length")
            )
            continue
        key = (min(s.a, s.b), max(s.a, s.b))
        if key in seg_keys:
            out.append(
                Violation(
                    "duplicate_segment",
                    (seg_keys[key], k),
                    f"segments {seg_keys[key]} and {k} are identical",
                )
            )
            continue
        seg_keys[key] = k
        usable.append(k)

    # Sort and sweep: two segments, or a segment and a vertex, can meet only
    # if their closed bounding boxes overlap.  The box tests are exact float
    # comparisons, so they drop no contact the predicates would find.
    box = {}
    for k in usable:
        a, b = p.vertices[p.segments[k].a], p.vertices[p.segments[k].b]
        box[k] = (min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]))
    by_x = sorted(usable, key=lambda k: box[k][0])
    partners: dict[int, list[int]] = {k: [] for k in usable}
    for i, k in enumerate(by_x):
        _, x1, y0, y1 = box[k]
        for j in range(i + 1, len(by_x)):
            m = by_x[j]
            mx0, _, my0, my1 = box[m]
            if mx0 > x1:
                break
            if my0 <= y1 and y0 <= my1:
                partners[min(k, m)].append(max(k, m))
    xs = sorted((v[0], j) for j, v in enumerate(p.vertices) if finite[j])
    xkeys = [x for x, _ in xs]

    # report per segment in input order: its crossings, then the vertices
    # in its interior (which break constraint recovery)
    for k1 in usable:
        s1 = p.segments[k1]
        a1, b1 = p.vertices[s1.a], p.vertices[s1.b]
        for k2 in sorted(partners[k1]):
            s2 = p.segments[k2]
            shared = len({s1.a, s1.b} & {s2.a, s2.b})
            a2, b2 = p.vertices[s2.a], p.vertices[s2.b]
            if _segments_conflict(a1, b1, a2, b2, shared):
                out.append(
                    Violation(
                        "improper_intersection",
                        (k1, k2),
                        f"segments {k1} and {k2} intersect away from shared endpoints",
                    )
                )
        x0, x1 = box[k1][:2]
        for j in sorted(j for _, j in xs[bisect_left(xkeys, x0):bisect_right(xkeys, x1)]):
            v = p.vertices[j]
            if (
                j not in (s1.a, s1.b)
                and _on_closed_segment(a1, b1, v)
                and orient_sign(a1[0], a1[1], b1[0], b1[1], v[0], v[1]) == 0
            ):
                out.append(
                    Violation(
                        "vertex_on_segment",
                        (j, k1),
                        f"vertex {j} lies in the interior of segment {k1}",
                    )
                )
    return out


def min_input_angle_deg(p: Pslg) -> float:
    """Smallest angle between two segments sharing an endpoint, degrees."""
    incident: dict[int, list[Point]] = {}
    for s in p.segments:
        va, vb = p.vertices[s.a], p.vertices[s.b]
        incident.setdefault(s.a, []).append(Point(vb.x - va.x, vb.y - va.y))
        incident.setdefault(s.b, []).append(Point(va.x - vb.x, va.y - vb.y))
    best = None
    for dirs in incident.values():
        for i in range(len(dirs)):
            for j in range(i + 1, len(dirs)):
                u, v = dirs[i], dirs[j]
                ang = math.atan2(abs(u.x * v.y - u.y * v.x), u.x * v.x + u.y * v.y)
                if best is None or ang < best:
                    best = ang
    if best is None:
        raise ValueError("no two segments share an endpoint")
    return math.degrees(best)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_poly(p: Pslg) -> str:
    lines = [f"{len(p.vertices)} 2 0 0"]
    for i, v in enumerate(p.vertices):
        lines.append(f"{i} {_fmt(v.x)} {_fmt(v.y)}")
    lines.append(f"{len(p.segments)} 0")
    for i, s in enumerate(p.segments):
        lines.append(f"{i} {s.a} {s.b}")
    lines.append(f"{len(p.holes)}")
    for i, h in enumerate(p.holes):
        lines.append(f"{i} {_fmt(h.x)} {_fmt(h.y)}")
    return "\n".join(lines) + "\n"


class _LineReader:
    def __init__(self, text: str):
        self.items: list[tuple[int, list[str]]] = []
        for no, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.items.append((no, body.split()))
        self.pos = 0
        self.last_no = 0

    def next(self, what: str) -> tuple[int, list[str]]:
        if self.pos >= len(self.items):
            raise PolyParseError(self.last_no + 1, f"file truncated, expected {what}")
        no, fields = self.items[self.pos]
        self.pos += 1
        self.last_no = no
        return no, fields

    def exhausted(self) -> bool:
        return self.pos >= len(self.items)


def _parse_int(no: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise PolyParseError(no, f"bad {what}: {token!r}") from None


def _parse_count(no: int, token: str, what: str) -> int:
    n = _parse_int(no, token, what)
    if n < 0:
        raise PolyParseError(no, f"negative {what}: {n}")
    return n


def _parse_float(no: int, token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise PolyParseError(no, f"bad {what}: {token!r}") from None


def parse_poly(text: str) -> Pslg:
    rd = _LineReader(text)

    no, fields = rd.next("vertex header")
    if len(fields) < 2:
        raise PolyParseError(no, "vertex header needs at least a count and dimension")
    n_vert = _parse_count(no, fields[0], "vertex count")
    dim = _parse_int(no, fields[1], "dimension")
    if dim != 2:
        raise PolyParseError(no, f"only 2-d files supported, got dimension {dim}")

    vertices: list[Point] = []
    index_of: dict[int, int] = {}
    for _ in range(n_vert):
        no, fields = rd.next("vertex line")
        if len(fields) < 3:
            raise PolyParseError(no, "vertex line needs an index and two coordinates")
        idx = _parse_int(no, fields[0], "vertex index")
        if idx in index_of:
            raise PolyParseError(no, f"vertex index {idx} repeated")
        x = _parse_float(no, fields[1], "x coordinate")
        y = _parse_float(no, fields[2], "y coordinate")
        index_of[idx] = len(vertices)
        vertices.append(Point(x, y))

    no, fields = rd.next("segment header")
    n_seg = _parse_count(no, fields[0], "segment count")
    segments: list[Segment] = []
    for _ in range(n_seg):
        no, fields = rd.next("segment line")
        if len(fields) < 3:
            raise PolyParseError(no, "segment line needs an index and two endpoints")
        a = _parse_int(no, fields[1], "segment endpoint")
        b = _parse_int(no, fields[2], "segment endpoint")
        for ref in (a, b):
            if ref not in index_of:
                raise PolyParseError(no, f"segment references unknown vertex {ref}")
        segments.append(Segment(index_of[a], index_of[b], len(segments)))

    no, fields = rd.next("hole header")
    n_holes = _parse_count(no, fields[0], "hole count")
    holes: list[Point] = []
    for _ in range(n_holes):
        no, fields = rd.next("hole line")
        if len(fields) < 3:
            raise PolyParseError(no, "hole line needs an index and two coordinates")
        holes.append(
            Point(
                _parse_float(no, fields[1], "x coordinate"),
                _parse_float(no, fields[2], "y coordinate"),
            )
        )

    # optional trailing region section, parsed and ignored
    if not rd.exhausted():
        no, fields = rd.next("region header")
        n_reg = _parse_count(no, fields[0], "region count")
        for _ in range(n_reg):
            rd.next("region line")

    return Pslg(tuple(vertices), tuple(segments), tuple(holes))
