"""Constrained Delaunay triangulation with the operations refinement needs.

The structure is triangle-based: a dict of CCW vertex triples plus,
per triangle id, three neighbour slots holding the triangle across each
edge, or -1 where none is (as in Shewchuk's Triangle; there is no edge
table).  Every operation removes a region of triangles and refills it.
A vertex insertion finds its cavity and the cavity's rim in one flood,
and links its fan by position, as Triangle does: each fan triangle to
the triangle outside its rim edge and to the fan triangles before and
after it.  Constraint routing and deletion link their new triangles to
each other and to those across the region's rim by matching edges.
Constraint subsegments carry their input-segment lineage and an
exactly-halving length so refinement traces can reason about split
cascades without re-deriving geometry.  A subsegment split inserts
its midpoint on the edge it already knows, seeding the cavity with the
edge's flanking triangles instead of locating the rounded midpoint, so
the split vertex can never land outside the domain or leave a sliver
over the old edge.  A vertex's star is walked around it from one
incident triangle.  Each triangle's minimum angle is computed once and
kept until the triangle is removed, so the engine's queue, the report
and the SVG share it.

The queries refinement asks are local.  Each subsegment's padded
diametral box sits in a grid for its power-of-two size and keeps the
vertices inside it, so the boxes holding a point, and the vertices near
a subsegment, are found without a scan; every operation keeps this index
current, and ``check`` compares it with one rebuilt from scratch.  The
first subsegment crossed on a path is found by walking the triangles
along it from the one whose interior holds its start, through the
interiors of their edges; where the path starts on an edge, at a vertex
or off the mesh, meets a vertex, or leaves the mesh, a scan of every
subsegment answers instead, as ``locate`` scans every triangle when its
walk fails.

All orientation and incircle decisions go through the exact predicates
in :mod:`refinelab.geom`; ties (cocircular quads) are left unflipped, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from array import array
from typing import NamedTuple, Optional

from .geom import (
    Point,
    _exact_area,
    _proper_min_angle_deg,
    incircle_sign,
    min_angle_deg,
    orient_sign,
)
from .pslg import Pslg, Violation, validate

__all__ = [
    "INPUT",
    "SEGMENT_MIDPOINT",
    "CIRCUMCENTER",
    "Subseg",
    "InsertResult",
    "Triangulation",
    "TriangulationError",
    "InvalidPslgError",
    "DuplicateVertexError",
    "OutsideDomainError",
    "MissingSubsegmentError",
]

INPUT = "INPUT"
SEGMENT_MIDPOINT = "SEGMENT_MIDPOINT"
CIRCUMCENTER = "CIRCUMCENTER"
_SUPER = "_SUPER"


class TriangulationError(RuntimeError):
    pass


class InvalidPslgError(ValueError):
    def __init__(self, violations):
        super().__init__(
            "invalid input: " + "; ".join(v.message for v in violations)
        )
        self.violations = violations


class DuplicateVertexError(TriangulationError):
    pass


class OutsideDomainError(TriangulationError):
    pass


class MissingSubsegmentError(TriangulationError):
    pass


class Subseg(NamedTuple):
    lineage: int
    length: float


class InsertResult(NamedTuple):
    vertex: int
    created: list
    removed: list


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


# a subsegment's padded diametral box: the float midpoint plus or minus
# length * _BOX_PAD on each axis
_BOX_PAD = 0.5000005


def _in_box(box, x: float, y: float) -> bool:
    """Whether (x, y) lies in the padded box (mx, my, r, ...) of a
    subsegment, with the float comparisons the encroachment queries use."""
    dx = x - box[0]
    if dx > box[2] or -dx > box[2]:
        return False
    dy = y - box[1]
    return not (dy > box[2] or -dy > box[2])


def _box_cells(mx: float, my: float, r: float):
    """The grid level e and the cells, of side 2**e, that the box covers.

    The box is first padded by a relative 2**-40, more than the rounding
    of ``x - mx`` and of ``mx + r``, so every float (x, y) that ``_in_box``
    accepts has ``floor(x * 2**-e)`` in the covered range; 2**e exceeds
    the padded side, so the box covers at most 2x2 cells.
    """
    pad = (abs(mx) + abs(my) + r) * 2.0 ** -40
    lox, hix = mx - r - pad, mx + r + pad
    loy, hiy = my - r - pad, my + r + pad
    e = math.frexp(max(hix - lox, hiy - loy))[1]
    s = 2.0 ** -e
    return e, s, [
        (i, j)
        for i in range(math.floor(lox * s), math.floor(hix * s) + 1)
        for j in range(math.floor(loy * s), math.floor(hiy * s) + 1)
    ]


class _BoxIndex:
    """The subsegments' padded diametral boxes, and the vertices in each.

    Each box sits in the grid of its power-of-two level (see
    ``_box_cells``); a point query looks up one cell per level and returns
    the subsegments whose box holds the point in creation order, the order
    in which ``Triangulation.subsegments`` iterates.  Each subsegment keeps
    the alive vertices other than its endpoints that lie in its box, in id
    order.
    """

    def __init__(self, points: list[Point]):
        self.points = points
        self.boxes: dict[tuple[int, int], tuple] = {}  # (mx, my, r, serial)
        self.levels: dict[int, tuple[float, dict]] = {}  # e: (2**-e, cells)
        self.inside: dict[tuple[int, int], list[int]] = {}
        self._serial = 0
        self._last = None  # the last point query and its answer

    @classmethod
    def of(cls, points, alive, subsegments) -> "_BoxIndex":
        index = cls(points)
        for key, rec in subsegments.items():
            index.add(key, rec.length, ())
        for vid, ok in enumerate(alive):
            if ok:
                index.add_vertex(vid)
        return index

    def add(self, key, length: float, candidates) -> None:
        """Index a new subsegment; its vertices are those of the
        candidates (in id order) that lie in its box."""
        a, b = self.points[key[0]], self.points[key[1]]
        box = ((a[0] + b[0]) * 0.5, (a[1] + b[1]) * 0.5, length * _BOX_PAD,
               self._serial)
        self._serial += 1
        self.boxes[key] = box
        e, s, cells = _box_cells(*box[:3])
        grid = self.levels.setdefault(e, (s, {}))[1]
        for cell in cells:
            grid.setdefault(cell, []).append(key)
        pts = self.points
        self.inside[key] = [w for w in candidates if _in_box(box, *pts[w])]
        self._last = None

    def remove(self, key) -> list[int]:
        """Drop a subsegment; returns its vertex list."""
        box = self.boxes.pop(key)
        e, _, cells = _box_cells(*box[:3])
        grid = self.levels[e][1]
        for cell in cells:
            keys = grid[cell]
            keys.remove(key)
            if not keys:
                del grid[cell]
        if not grid:
            del self.levels[e]
        self._last = None
        return self.inside.pop(key)

    def near(self, p) -> list[tuple[int, int]]:
        """The subsegments whose box holds p, in creation order."""
        if self._last is not None and self._last[0] == p:
            return self._last[1]
        px, py = p
        floor = math.floor
        found = []
        for s, grid in self.levels.values():
            keys = grid.get((floor(px * s), floor(py * s)))
            if keys:
                found += keys
        boxes = self.boxes
        if len(found) > 1:
            found.sort(key=lambda k: boxes[k][3])
        found = [k for k in found if _in_box(boxes[k], px, py)]
        self._last = (p, found)
        return found

    def add_vertex(self, vid: int) -> None:
        for key in self.near(self.points[vid]):
            if vid not in key:
                self.inside[key].append(vid)

    def remove_vertex(self, vid: int) -> None:
        for key in self.near(self.points[vid]):
            self.inside[key].remove(vid)


class Triangulation:
    def __init__(self):
        self.points: list[Point] = []
        self.tags: list[str] = []
        self.alive: list[bool] = []
        self.triangles: dict[int, tuple[int, int, int]] = {}
        self.subsegments: dict[tuple[int, int], Subseg] = {}
        self.lineage_root_length: dict[int, float] = {}
        # slot 3 * t + i holds the triangle across edge i of triangle t,
        # or -1: edge 0 is (a, b), edge 1 (b, c) and edge 2 (c, a).  Ids
        # are never reused, so a removed triangle's slots are left
        # behind: 24 bytes per id, where a dict of edges to their flanks
        # took about 280 per triangle
        self._nbr = array("q")
        # min_angle's answers by triangle id, NaN where none is held; like
        # the neighbour slots, each id's entry is made with its triangle,
        # so the array's length is the next id.  Triangle ids are never
        # reused and points never move, so an answer holds until its
        # triangle is removed.  An array of doubles takes 8 bytes per id,
        # a dict of floats about 100 per triangle
        self._angles = array("d")
        self._v2t: dict[int, int] = {}
        self._index = _BoxIndex(self.points)

    # -- low-level structure ------------------------------------------------

    def _add_vertex(self, x: float, y: float, tag: str) -> int:
        self.points.append(Point(x, y))
        self.tags.append(tag)
        self.alive.append(True)
        return len(self.points) - 1

    def _add_tri(self, a: int, b: int, c: int) -> int:
        tid = len(self._angles)
        self.triangles[tid] = (a, b, c)
        self._nbr.extend((-1, -1, -1))
        self._angles.append(math.nan)
        v2t = self._v2t
        v2t[a] = v2t[b] = v2t[c] = tid
        return tid

    def _rim(self, region: set) -> dict[tuple[int, int], int]:
        """The directed edges of region's triangles with no region
        triangle across them, each mapped to the triangle across or -1."""
        triangles, nbr = self.triangles, self._nbr
        rim = {}
        for tid in region:
            a, b, c = triangles[tid]
            s = 3 * tid
            for u, v, n in ((a, b, nbr[s]), (b, c, nbr[s + 1]),
                            (c, a, nbr[s + 2])):
                if n not in region:
                    rim[u, v] = n
        return rim

    def _replace(self, region: set, tris) -> list[int]:
        """Remove the triangles of region and add tris, which fill the
        same polygon less any rim edge they leave bare; returns the new
        ids.  Each new triangle is linked across each edge to the new or
        outside triangle (from ``_rim(region)``) that has the edge the
        other way round; an outside triangle whose rim edge is left bare
        gets -1 across it."""
        triangles, nbr, angles = self.triangles, self._nbr, self._angles
        rim = self._rim(region)
        for tid in region:
            del triangles[tid]
            angles[tid] = math.nan
        open_slots = {}  # unmatched directed edge -> its slot
        for (u, v), n in rim.items():
            if n >= 0:
                a, b, c = triangles[n]  # n has the edge (v, u)
                m = 3 * n + (0 if u == b else 1 if u == c else 2)
                nbr[m] = -1
                open_slots[v, u] = m
        created = []
        for a, b, c in tris:
            tid = self._add_tri(a, b, c)
            created.append(tid)
            s = 3 * tid
            for u, v, i in ((a, b, s), (b, c, s + 1), (c, a, s + 2)):
                m = open_slots.pop((v, u), None)
                if m is None:
                    open_slots[u, v] = i
                else:
                    nbr[i], nbr[m] = m // 3, tid
        return created

    def _neighbor(self, tid: int, u: int, v: int) -> Optional[int]:
        """The triangle across tid's edge between u and v, or None."""
        a, b, c = self.triangles[tid]
        n = self._nbr[3 * tid + (1 if a != u and a != v else
                                 2 if b != u and b != v else 0)]
        return n if n >= 0 else None

    def _tri_of_vertex(self, v: int) -> int:
        # build records a triangle at every vertex after its final sweeps,
        # and insertion, constraint routing and deletion refill each hole
        # they make with a triangle at every vertex of its rim; triangle
        # ids are never reused, so a recorded triangle that still exists
        # holds v
        tid = self._v2t.get(v)
        if tid not in self.triangles:
            raise TriangulationError(f"vertex {v} has no incident triangle")
        return tid

    def triangle_points(self, tid: int):
        a, b, c = self.triangles[tid]
        return self.points[a], self.points[b], self.points[c]

    def min_angle(self, tid: int) -> float:
        """``min_angle_deg`` of the triangle's points, computed once.  A
        live triangle is strictly CCW (fans, ears and flips are made only
        where the orientation is positive, and ``check`` verifies it), so
        the degeneracy test is skipped."""
        ma = self._angles[tid]
        if ma != ma:  # NaN: not computed yet
            a, b, c = self.triangles[tid]
            pts = self.points
            ma = self._angles[tid] = _proper_min_angle_deg(
                pts[a], pts[b], pts[c])
        return ma

    def vertex_count(self) -> int:
        return sum(self.alive)

    def subsegs_near(self, p: Point) -> list[tuple[int, int]]:
        """The subsegments whose padded diametral box (the float midpoint
        plus or minus ``length * 0.5000005`` per axis) holds p, in
        ``subsegments`` order.  The list is shared; do not change it."""
        return self._index.near(p)

    def vertices_near(self, key: tuple[int, int]) -> list[int]:
        """The alive vertices other than key's endpoints in key's padded
        diametral box, in id order.  The list is shared; do not change
        it."""
        return self._index.inside[key]

    # -- point location -----------------------------------------------------

    def locate(self, x: float, y: float, start: Optional[int] = None):
        """Return ('in', tid) / ('edge', (u, v), tid) / ('vertex', vid) /
        ('outside', tid).

        The walk steps across the first edge that has the point on its
        right.  Where no triangle is across that edge (the hull, or the
        rim of a hole with more domain behind it), or the walk runs long,
        every triangle is tested instead."""
        if not self.triangles:
            raise TriangulationError("empty triangulation")
        # without a usable start, walk from the newest triangle
        cur = start if start in self.triangles else len(self._angles) - 1
        if cur not in self.triangles:
            cur = next(iter(self.triangles))
        nbr = self._nbr
        for _ in range(4 * len(self.triangles) + 64):
            where = self._classify(cur, x, y)
            if where[0] != "across":
                return where
            cur = nbr[3 * cur + where[1]]
            if cur < 0:
                break
        for tid in self.triangles:
            where = self._classify(tid, x, y)
            if where[0] != "across":
                return where
        return ("outside", next(iter(self.triangles)))

    def _classify(self, tid: int, x: float, y: float):
        """Where (x, y) lies in triangle tid's closed interior, as ``locate``
        reports it, or ('across', i) for the first edge i of tid that
        has the point strictly on its right."""
        a, b, c = self.triangles[tid]
        pa, pb, pc = self.points[a], self.points[b], self.points[c]
        o_ab = orient_sign(pa[0], pa[1], pb[0], pb[1], x, y)
        if o_ab < 0:
            return ("across", 0)
        o_bc = orient_sign(pb[0], pb[1], pc[0], pc[1], x, y)
        if o_bc < 0:
            return ("across", 1)
        o_ca = orient_sign(pc[0], pc[1], pa[0], pa[1], x, y)
        if o_ca < 0:
            return ("across", 2)
        if o_ab and o_bc and o_ca:
            return ("in", tid)
        # two zero orientations: on the vertex the two edges share
        if not o_ab and not o_bc:
            return ("vertex", b)
        if not o_bc and not o_ca:
            return ("vertex", c)
        if not o_ca and not o_ab:
            return ("vertex", a)
        if not o_ab:
            return ("edge", (a, b), tid)
        if not o_bc:
            return ("edge", (b, c), tid)
        return ("edge", (c, a), tid)

    # -- insertion ----------------------------------------------------------

    def insert_vertex(self, p: Point, tag: str,
                      start: Optional[int] = None) -> InsertResult:
        """Insert p, restoring the constrained Delaunay property.

        p must fall strictly inside the triangulated domain and must not
        coincide with an existing vertex or lie on a constraint edge.
        """
        seeds = self._cavity_seeds(p, start)
        vid = self._add_vertex(p[0], p[1], tag)
        res = self._insert_in_cavity(vid, seeds)
        self._index.add_vertex(vid)
        return res

    def _cavity_seeds(self, p: Point, start: Optional[int] = None) -> list:
        """Locate p and return the triangles whose interior holds it: one,
        or the two flanking the non-constraint edge it lies on."""
        where = self.locate(p[0], p[1], start)
        if where[0] == "vertex":
            raise DuplicateVertexError(
                f"point {tuple(p)} duplicates vertex {where[1]}"
            )
        if where[0] == "outside":
            raise OutsideDomainError(f"point {tuple(p)} is outside the domain")
        if where[0] == "edge":
            if _edge_key(*where[1]) in self.subsegments:
                raise TriangulationError(
                    "point lies on a constraint edge; split the subsegment instead"
                )
            return self._flank(where[2], *where[1])
        return [where[1]]

    def _flank(self, tid: int, u: int, v: int) -> list[int]:
        """tid and the triangle across its edge between u and v, if any,
        in id order."""
        n = self._neighbor(tid, u, v)
        return [tid] if n is None else sorted((tid, n))

    def _flood(self, seeds: list) -> set:
        """The seeds plus every triangle reached from them across
        non-constraint edges."""
        region = set(seeds)
        stack = list(seeds)
        triangles, subsegments, nbr = (
            self.triangles, self.subsegments, self._nbr)
        while stack:
            tid = stack.pop()
            a, b, c = triangles[tid]
            s = 3 * tid
            for u, v, n in ((a, b, nbr[s]), (b, c, nbr[s + 1]),
                            (c, a, nbr[s + 2])):
                if n < 0 or n in region:
                    continue
                if ((u, v) if u < v else (v, u)) in subsegments:
                    continue
                region.add(n)
                stack.append(n)
        return region

    def _insert_in_cavity(self, vid: int, seeds: list,
                          split: Optional[tuple[int, int]] = None
                          ) -> InsertResult:
        """Replace the Delaunay cavity of vertex vid, grown from seeds, by a
        fan around vid.  The edge ``split``, which vid subdivides, gets no
        triangle when it lies on the cavity boundary.

        One pass floods the cavity across non-constraint edges into the
        triangles whose circumcircle holds vid, and records each edge it
        does not cross; one walk around the rim then makes the fan, each
        triangle linked by its position (as in Shewchuk's Triangle): its
        rim edge to the triangle outside, its first edge to the previous
        fan triangle's last."""
        pts, triangles, nbr = self.points, self.triangles, self._nbr
        subsegments = self.subsegments
        x, y = pts[vid]
        cavity = set(seeds)
        stack = list(seeds)
        edges = []  # (u, v, triangle across or -1) of each edge not crossed
        while stack:
            tid = stack.pop()
            a, b, c = triangles[tid]
            s = 3 * tid
            for u, v, n in ((a, b, nbr[s]), (b, c, nbr[s + 1]),
                            (c, a, nbr[s + 2])):
                if n in cavity:
                    continue
                if n >= 0 and ((u, v) if u < v else (v, u)) not in subsegments:
                    p, q, r = triangles[n]
                    pp, pq, pr = pts[p], pts[q], pts[r]
                    if incircle_sign(pp[0], pp[1], pq[0], pq[1],
                                     pr[0], pr[1], x, y) > 0:
                        cavity.add(n)
                        stack.append(n)
                        continue
                edges.append((u, v, n))
        # the rim, start -> (end, triangle across), leaves out an edge
        # whose far triangle joined the cavity later, across a constraint
        rim = {}
        for u, v, n in edges:
            if n not in cavity:
                if u in rim:
                    raise TriangulationError("cavity boundary is pinched")
                rim[u] = v, n
        angles = self._angles
        for tid in cavity:
            del triangles[tid]
            angles[tid] = math.nan
        # canonical refill order: chain the boundary loop starting from its
        # smallest vertex id, so triangle creation order is independent of
        # internal triangle numbering
        start = min(rim)
        created = []
        prev = -1  # the fan triangle that ends at u, or -1: the chain broke
        u = start
        for _ in range(len(rim)):
            v, n = rim[u]
            pu, pv = pts[u], pts[v]
            if split and _edge_key(u, v) == split:
                o = 0
            else:
                o = orient_sign(x, y, pu[0], pu[1], pv[0], pv[1])
                if o < 0:
                    raise TriangulationError(
                        "cavity boundary is not star-shaped")
            if o:
                t = self._add_tri(vid, u, v)
                created.append(t)
                s = 3 * t
                if n >= 0:
                    a, b, c = triangles[n]  # n has the edge (v, u)
                    nbr[s + 1] = n
                    nbr[3 * n + (0 if u == b else 1 if u == c else 2)] = t
                if prev >= 0:
                    nbr[s] = prev
                    nbr[3 * prev + 2] = t
                prev = t
            else:
                # the split edge, or vid lies exactly on this boundary
                # edge: either is on the hull, with no triangle across
                prev = -1
            u = v
        if u != start:
            raise TriangulationError("cavity boundary is not a single loop")
        first = created[0]
        if prev >= 0 and triangles[first][1] == start:  # the loop closes
            nbr[3 * first] = prev
            nbr[3 * prev + 2] = first
        return InsertResult(vid, created, sorted(cavity))

    # -- constraint segments -------------------------------------------------

    def _insert_constraint_edge(self, u: int, v: int) -> None:
        star, ring = self._star(u)
        if v in ring:
            return
        pu, pv = self.points[u], self.points[v]

        def side(w):
            pw = self.points[w]
            return orient_sign(pu[0], pu[1], pv[0], pv[1], pw[0], pw[1])

        # u->v leaves u through the star triangle (u, ring[i], ring[i + 1])
        # that has ring[i] on its right and ring[i + 1] on its left
        o_right = side(ring[0])
        for i, tid in enumerate(star):
            left = ring[(i + 1) % len(ring)]
            o_left = side(left)
            if o_right < 0 and o_left > 0:
                right = ring[i]
                break
            o_right = o_left
        else:
            raise TriangulationError(
                f"cannot route constraint {u}-{v}: no crossing fan triangle"
            )
        crossed = [tid]
        upper = [left]
        lower = [right]
        while True:
            nxt = self._neighbor(tid, left, right)
            if nxt is None:
                raise TriangulationError(
                    f"constraint {u}-{v} runs outside the triangulation"
                )
            verts = self.triangles[nxt]
            far = next(w for w in verts if w != left and w != right)
            crossed.append(nxt)
            if far == v:
                break
            o = side(far)
            if o == 0:
                raise TriangulationError(
                    f"vertex {far} lies on constraint {u}-{v}"
                )
            tid = nxt
            if o > 0:
                upper.append(far)
                left = far
            else:
                lower.append(far)
                right = far
        self._replace(set(crossed), [
            tri for poly in ([v] + upper[::-1] + [u], [u] + lower + [v])
            for tri in self._triangulate_polygon(poly)])

    def _star(self, v: int) -> tuple[list[int], list[int]]:
        """The triangles around interior vertex v and their far vertices,
        walked CCW from ``_tri_of_vertex(v)``: triangle ``star[i]`` is
        (v, ring[i], ring[i + 1]), cyclically."""
        star, ring, ends = [], [], []
        for tid in self._fan(v, self._tri_of_vertex(v)):
            a, b, c = self.triangles[tid]
            p, q = (b, c) if v == a else (c, a) if v == b else (a, b)
            star.append(tid)
            ring.append(p)
            ends.append(q)
        # a closed fan is one CCW chain: each triangle's far edge ends
        # where the next one's starts
        if ends != ring[1:] + ring[:1]:
            raise TriangulationError(f"vertex {v} touches the boundary")
        return star, ring

    # -- polygon retriangulation ----------------------------------------------

    def _triangulate_polygon(self, poly: list[int]) -> list[tuple[int, int, int]]:
        """Triangulate a simple CCW polygon of vertex ids, Delaunay inside."""
        pts = self.points
        if len(poly) < 3:
            raise TriangulationError("polygon with fewer than 3 vertices")
        work = list(poly)
        tris: list[list[int]] = []
        while len(work) > 3:
            clipped = False
            for k in range(len(work)):
                i0 = work[k - 1]
                i1 = work[k]
                i2 = work[(k + 1) % len(work)]
                p0, p1, p2 = pts[i0], pts[i1], pts[i2]
                if orient_sign(p0[0], p0[1], p1[0], p1[1], p2[0], p2[1]) <= 0:
                    continue
                ok = True
                for j in work:
                    if j in (i0, i1, i2):
                        continue
                    pj = pts[j]
                    if (
                        orient_sign(p0[0], p0[1], p1[0], p1[1], pj[0], pj[1]) >= 0
                        and orient_sign(p1[0], p1[1], p2[0], p2[1], pj[0], pj[1]) >= 0
                        and orient_sign(p2[0], p2[1], p0[0], p0[1], pj[0], pj[1]) >= 0
                    ):
                        ok = False
                        break
                if ok:
                    tris.append([i0, i1, i2])
                    del work[k]
                    clipped = True
                    break
            if not clipped:
                raise TriangulationError("no ear found; polygon is degenerate")
        tris.append(list(work))

        # Lawson flips on internal diagonals until locally Delaunay; a pass
        # tries each diagonal once, from its lower-numbered triangle
        def diagonals():
            owner = {}
            for i, (a, b, c) in enumerate(tris):
                owner[a, b] = owner[b, c] = owner[c, a] = i
            for t1, (a, b, c) in enumerate(tris):
                for _ in range(3):
                    t2 = owner.get((b, a), -1)
                    if t2 > t1:
                        yield t1, t2, a, b, c
                    a, b, c = b, c, a

        changed = True
        while changed:
            changed = False
            for t1, t2, a, b, c in diagonals():
                d = next(w for w in tris[t2] if w not in (a, b))
                p_a, p_b, p_c, p_d = pts[a], pts[b], pts[c], pts[d]
                # strict convexity of the quad around the diagonal
                o1 = orient_sign(p_c[0], p_c[1], p_d[0], p_d[1], p_a[0], p_a[1])
                o2 = orient_sign(p_c[0], p_c[1], p_d[0], p_d[1], p_b[0], p_b[1])
                if not (o1 > 0 > o2 or o1 < 0 < o2):
                    continue
                if (
                    incircle_sign(
                        p_a[0], p_a[1], p_b[0], p_b[1], p_c[0], p_c[1],
                        p_d[0], p_d[1],
                    )
                    > 0
                ):
                    tris[t1] = [a, d, c]
                    tris[t2] = [d, b, c]
                    changed = True
                    break
        return [tuple(t) for t in tris]

    # -- segment splitting -----------------------------------------------------

    def split_subsegment(self, u: int, v: int):
        """Split constraint subsegment (u, v) at its midpoint.

        Returns (midpoint vid, ((u, m), (m, v)) child keys, InsertResult).
        Child lengths are exactly half the parent's.  The midpoint's
        cavity grows from the triangles flanking (u, v), so the split
        never depends on which side of the edge the rounded midpoint
        falls.
        """
        key = _edge_key(u, v)
        if key not in self.subsegments:
            raise MissingSubsegmentError(f"{key} is not a current subsegment")
        rec = self.subsegments.pop(key)
        inside = self._index.remove(key)
        pu, pv = self.points[u], self.points[v]
        mid = self._add_vertex(
            (pu.x + pv.x) / 2.0, (pu.y + pv.y) / 2.0, SEGMENT_MIDPOINT
        )
        flank = next(t for t in self._fan(u, self._tri_of_vertex(u))
                     if v in self.triangles[t])
        res = self._insert_in_cavity(mid, self._flank(flank, u, v), split=key)
        children = (_edge_key(u, mid), _edge_key(mid, v))
        for k in children:
            self.subsegments[k] = Subseg(rec.lineage, rec.length / 2.0)
            # a child's box lies inside its parent's, with about 2.5e-7
            # of the parent's length to spare on each side
            self._index.add(k, rec.length / 2.0, inside)
        self._index.add_vertex(mid)
        return mid, children, res

    # -- vertex deletion ---------------------------------------------------------

    def delete_vertex(self, v: int) -> InsertResult:
        """Remove a free vertex and retriangulate its star."""
        if self.tags[v] != CIRCUMCENTER:
            raise TriangulationError(
                f"vertex {v} has tag {self.tags[v]}; only free vertices are deletable"
            )
        star, ring = self._star(v)
        # canonical rotation so the retriangulation is independent of
        # which incident triangle the walk started from
        k = ring.index(min(ring))
        ring = ring[k:] + ring[:k]
        created = self._replace(set(star), self._triangulate_polygon(ring))
        self._index.remove_vertex(v)
        self.alive[v] = False
        self._v2t.pop(v, None)
        return InsertResult(v, created, sorted(star))

    # -- visibility -----------------------------------------------------------

    def first_constraint_crossing(self, g: Point, c: Point,
                                  start: Optional[int] = None):
        """First constraint subsegment properly crossed on the way g -> c.

        Returns the subsegment key, or None when c is reachable.  A c
        lying exactly on a subsegment's interior counts as crossed;
        passages exactly through segment endpoints, or along a
        subsegment, do not.  The walk goes through the triangles along
        g -> c from the one whose interior holds g, located from
        ``start`` as in ``locate``.  Wherever it cannot go on through
        the interior of an edge (g on an edge, at a vertex or off the
        mesh, the path through a vertex, or out through an edge with no
        triangle beyond), a scan of every subsegment answers instead
        (``_crossing_beyond``), as ``locate`` scans every triangle.
        """
        gx, gy = g
        cx, cy = c
        pts = self.points
        sides: dict[int, int] = {}

        def side(w):  # the side of the line g -> c that vertex w is on
            s = sides.get(w)
            if s is None:
                p = pts[w]
                s = sides[w] = orient_sign(gx, gy, cx, cy, p[0], p[1])
            return s

        where = self.locate(gx, gy, start)
        if where[0] != "in":
            return self._crossing_beyond(g, c)
        tid = where[1]
        while True:
            a, b, d = self.triangles[tid]
            # the path leaves a CCW triangle through the edge u -> v that
            # runs from its right to its left, or else through a vertex
            for u, v in ((a, b), (b, d), (d, a)):
                if side(u) < 0 < side(v):
                    break
            else:
                return self._crossing_beyond(g, c)
            pu, pv = pts[u], pts[v]
            o = orient_sign(pu[0], pu[1], pv[0], pv[1], cx, cy)
            if o > 0:
                return None
            key = _edge_key(u, v)
            if key in self.subsegments:
                return key
            if o == 0:
                return None
            tid = self._neighbor(tid, u, v)
            if tid is None:
                return self._crossing_beyond(g, c)

    def _crossing_beyond(self, g: Point, c: Point) -> Optional[tuple]:
        """First subsegment properly crossed on g -> c, for any g and c:
        every subsegment is tested, and the crossing nearest g wins."""
        gx, gy = g
        cx, cy = c
        best_t = best_key = None
        pts = self.points
        for key in self.subsegments:
            a, b = pts[key[0]], pts[key[1]]
            o_a = orient_sign(gx, gy, cx, cy, a[0], a[1])
            o_b = orient_sign(gx, gy, cx, cy, b[0], b[1])
            if o_a == 0 or o_b == 0 or o_a == o_b:
                continue
            o_g = orient_sign(a[0], a[1], b[0], b[1], gx, gy)
            o_c = orient_sign(a[0], a[1], b[0], b[1], cx, cy)
            if o_g == 0 or o_c == o_g:
                continue
            # exact crossing parameter along g -> c; with g off line ab and
            # c on it or beyond it, num and den share a sign and
            # |den| >= |num|, so t lies in (0, 1]
            num = _exact_area(a[0], a[1], b[0], b[1], gx, gy)
            t = num / (num - _exact_area(a[0], a[1], b[0], b[1], cx, cy))
            if best_t is None or t < best_t:
                best_t, best_key = t, key
        return best_key

    def _fan(self, v: int, tid: int):
        """The triangles around vertex v: CCW from tid and, when that
        walk meets the boundary, CW from tid."""
        triangles, nbr = self.triangles, self._nbr
        t = tid
        while True:
            yield t
            a, b, c = triangles[t]
            # across the edge that ends at v
            t = nbr[3 * t + (2 if v == a else 0 if v == b else 1)]
            if t == tid:
                return
            if t < 0:
                break
        t = tid
        while True:
            a, b, c = triangles[t]
            # across the edge that starts at v
            t = nbr[3 * t + (0 if v == a else 1 if v == b else 2)]
            if t < 0:
                return
            yield t

    # -- audit ------------------------------------------------------------------

    def check(self) -> list[str]:
        """Full structural audit; returns human-readable violations.  The
        Euler relation and the Delaunay audit read the neighbour slots, so
        they run only when the slots match the triangles."""
        problems: list[str] = []
        tris, nbr, pts = self.triangles, self._nbr, self.points
        owner: dict[tuple[int, int], int] = {}  # directed edge -> triangle
        linked = True
        if list(tris) != sorted(tris):
            problems.append("triangle ids are not in increasing order")
        for tid, (a, b, c) in tris.items():
            pa, pb, pc = pts[a], pts[b], pts[c]
            if orient_sign(pa[0], pa[1], pb[0], pb[1], pc[0], pc[1]) <= 0:
                problems.append(f"triangle {tid} is not CCW")
            for e in ((a, b), (b, c), (c, a)):
                if e in owner:
                    linked = False
                    problems.append(
                        f"edge {e} runs the same way in triangles "
                        f"{owner[e]} and {tid}")
                owner[e] = tid
        for tid, (a, b, c) in tris.items():
            for i, (u, v) in enumerate(((a, b), (b, c), (c, a))):
                got, want = nbr[3 * tid + i], owner.get((v, u), -1)
                if got != want:
                    linked = False
                    problems.append(
                        f"neighbour {i} of triangle {tid} is {got}, not {want}")
        for key in self.subsegments:
            if key not in owner and key[::-1] not in owner:
                problems.append(f"constraint edge {key} missing from triangulation")
        if linked:
            n_v = self.vertex_count()
            n_e = len({_edge_key(*e) for e in owner})
            n_t = len(tris)
            pieces, loops, pinches = self._topology()
            if n_v - n_e + n_t != 2 * pieces - loops - pinches:
                problems.append(
                    f"Euler relation violated: V={n_v} E={n_e} T={n_t} "
                    f"pieces={pieces} loops={loops} pinches={pinches}"
                )
        for tid, ma in enumerate(self._angles):
            if ma != ma:  # NaN: nothing held
                continue
            if tid not in tris:
                problems.append(f"stored min angle of removed triangle {tid}")
            elif ma != min_angle_deg(*self.triangle_points(tid)):
                problems.append(f"stored min angle of triangle {tid} is wrong")
        problems.extend(self._index_differences())
        if linked:
            problems.extend(self.delaunay_violations())
        return problems

    def _topology(self) -> tuple[int, int, int]:
        """The mesh's pieces (triangles joined across shared edges), its
        boundary loops, and its pinches, read from the neighbour slots,
        which must match the triangles.  A boundary edge u -> v, directed
        as in its triangle, is followed by the first boundary edge from v
        turning around v (``_fan``) through the triangles from that one, so
        each loop keeps the mesh on its left.  The turn ends: it never
        re-enters its start triangle, whose edge ending at v has no
        neighbour, and it enters each triangle only across that triangle's
        one edge ending at v, from the one owner of the reversed edge, so it
        cannot cycle.
        A vertex where k boundary edges start is a pinch k - 1 times.  For
        a planar mesh, V - E + T = 2 * pieces - loops - pinches: each piece
        is a disk with holes, and un-pinching a vertex into its k fans adds
        k - 1 vertices."""
        tris, nbr = self.triangles, self._nbr
        piece = {tid: tid for tid in tris}

        def root(t):
            while piece[t] != t:
                piece[t] = t = piece[piece[t]]
            return t

        follow = {}  # boundary edge (u, v) -> the next one
        for tid, verts in tris.items():
            for i in range(3):
                n = nbr[3 * tid + i]
                if n >= 0:
                    piece[root(tid)] = root(n)
                    continue
                u, v = verts[i], verts[i - 2]
                # tid's edge ending at v is this boundary edge, so the fan
                # runs clockwise only and ends at the next boundary edge
                *_, t = self._fan(v, tid)
                w = tris[t]
                follow[u, v] = (v, w[w.index(v) - 2])
        loops = 0
        seen = set()
        for edge in follow:
            if edge not in seen:
                loops += 1
                while edge not in seen:
                    seen.add(edge)
                    edge = follow[edge]
        pieces = sum(1 for t in tris if root(t) == t)
        pinches = len(follow) - len({u for u, _ in follow})
        return pieces, loops, pinches

    def _index_differences(self) -> list[str]:
        """Where the live subsegment index differs from a rebuilt one."""
        live = self._index
        fresh = _BoxIndex.of(self.points, self.alive, self.subsegments)
        problems = []
        if list(live.boxes) != list(self.subsegments) or any(
            live.boxes[k][:3] != box[:3] for k, box in fresh.boxes.items()
        ):
            problems.append("subsegment boxes differ from a rebuilt index")
        if live.levels != fresh.levels:
            problems.append("subsegment box cells differ from a rebuilt index")
        for key, inside in fresh.inside.items():
            if live.inside.get(key) != inside:
                problems.append(
                    f"vertex list of subsegment {key} differs from a rebuilt index"
                )
        return problems

    def delaunay_violations(self) -> list[str]:
        """Non-constraint edges that are not locally Delaunay: the far
        vertex of the triangle across lies strictly inside the
        circumcircle.  By the constrained Delaunay lemma (Chew 1989), a
        mesh with none is constrained Delaunay.  Each edge is tested once,
        from its lower-numbered triangle."""
        problems = []
        pts, tris, nbr = self.points, self.triangles, self._nbr
        for tid, (a, b, c) in tris.items():
            pa, pb, pc = pts[a], pts[b], pts[c]
            for i, (u, v) in enumerate(((a, b), (b, c), (c, a))):
                n = nbr[3 * tid + i]
                if n <= tid or _edge_key(u, v) in self.subsegments:
                    continue
                w = next(w for w in tris[n] if w != u and w != v)
                pw = pts[w]
                if incircle_sign(pa[0], pa[1], pb[0], pb[1], pc[0], pc[1],
                                 pw[0], pw[1]) > 0:
                    problems.append(
                        f"vertex {w} across edge {_edge_key(u, v)} lies "
                        f"inside the circumcircle of triangle {tid}")
        return problems

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(cls, pslg: Pslg) -> "Triangulation":
        violations = validate(pslg)
        if violations:
            raise InvalidPslgError(violations)
        no_area = [Violation("no_area", (), "the input encloses no area")]
        if len(pslg.vertices) < 3:
            raise InvalidPslgError(no_area)
        pslg = pslg.with_lineages()
        t = cls()

        for v in pslg.vertices:
            t._add_vertex(v.x, v.y, INPUT)

        xs = [v.x for v in pslg.vertices]
        ys = [v.y for v in pslg.vertices]
        cx = (min(xs) + max(xs)) / 2.0
        cy = (min(ys) + max(ys)) / 2.0
        span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
        m = 64.0 * span
        s0 = t._add_vertex(cx - 2.0 * m, cy - m, _SUPER)
        s1 = t._add_vertex(cx + 2.0 * m, cy - m, _SUPER)
        s2 = t._add_vertex(cx, cy + 2.0 * m, _SUPER)
        t._add_tri(s0, s1, s2)

        for vid in range(len(pslg.vertices)):
            t._insert_in_cavity(vid, t._cavity_seeds(t.points[vid]))

        for seg in pslg.segments:
            t._insert_constraint_edge(seg.a, seg.b)
            length = math.dist(pslg.vertices[seg.a], pslg.vertices[seg.b])
            t.subsegments[_edge_key(seg.a, seg.b)] = Subseg(seg.lineage, length)
            t.lineage_root_length[seg.lineage] = length

        t._replace({k for k, verts in t.triangles.items() if max(verts) >= s0},
                   ())
        del t.points[s0:], t.tags[s0:], t.alive[s0:]

        for hole in pslg.holes:
            try:
                seeds = t._cavity_seeds(hole)
            except TriangulationError:
                continue  # on a vertex or a constraint, or outside the domain
            t._replace(t._flood(seeds), ())
        if not t.triangles:
            raise InvalidPslgError(no_area)
        t._v2t = {v: tid for tid, verts in t.triangles.items() for v in verts}
        t._index = _BoxIndex.of(t.points, t.alive, t.subsegments)
        return t

