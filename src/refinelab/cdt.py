"""Constrained Delaunay triangulation with the operations refinement needs.

The structure is triangle-based: a dict of CCW vertex triples plus an
edge map giving the one or two triangles flanking each edge.  Constraint
subsegments carry their input-segment lineage and an exactly-halving
length so refinement traces can reason about split cascades without
re-deriving geometry.

All orientation and incircle decisions go through the exact predicates
in :mod:`refinelab.geom`; ties (cocircular quads) are left unflipped, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .geom import (
    Point,
    incircle_sign,
    min_angle_deg,
    orient_sign,
)
from .pslg import Pslg, validate

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


class Triangulation:
    def __init__(self):
        self.points: list[Point] = []
        self.tags: list[str] = []
        self.alive: list[bool] = []
        self.triangles: dict[int, tuple[int, int, int]] = {}
        self.edge_map: dict[tuple[int, int], list[int]] = {}
        self.subsegments: dict[tuple[int, int], Subseg] = {}
        self.lineage_root_length: dict[int, float] = {}
        self.holes_carved = 0
        self._next_tid = 0
        self._v2t: dict[int, int] = {}
        self._walk_hint: int = -1

    # -- low-level structure ------------------------------------------------

    def _add_vertex(self, x: float, y: float, tag: str) -> int:
        self.points.append(Point(x, y))
        self.tags.append(tag)
        self.alive.append(True)
        return len(self.points) - 1

    def _add_tri(self, a: int, b: int, c: int) -> int:
        tid = self._next_tid
        self._next_tid += 1
        self.triangles[tid] = (a, b, c)
        for u, v in ((a, b), (b, c), (c, a)):
            self.edge_map.setdefault(_edge_key(u, v), []).append(tid)
        for v in (a, b, c):
            self._v2t[v] = tid
        self._walk_hint = tid
        return tid

    def _rm_tri(self, tid: int) -> None:
        a, b, c = self.triangles.pop(tid)
        for u, v in ((a, b), (b, c), (c, a)):
            key = _edge_key(u, v)
            flank = self.edge_map[key]
            flank.remove(tid)
            if not flank:
                del self.edge_map[key]

    def _neighbor(self, tid: int, u: int, v: int) -> Optional[int]:
        for t in self.edge_map.get(_edge_key(u, v), ()):
            if t != tid:
                return t
        return None

    def _tri_of_vertex(self, v: int) -> int:
        tid = self._v2t.get(v, -1)
        if tid in self.triangles and v in self.triangles[tid]:
            return tid
        for tid, verts in self.triangles.items():
            if v in verts:
                self._v2t[v] = tid
                return tid
        raise TriangulationError(f"vertex {v} has no incident triangle")

    def _rotate_to(self, tid: int, v: int) -> tuple[int, int, int]:
        a, b, c = self.triangles[tid]
        if a == v:
            return (a, b, c)
        if b == v:
            return (b, c, a)
        if c == v:
            return (c, a, b)
        raise TriangulationError(f"vertex {v} not in triangle {tid}")

    def triangle_points(self, tid: int):
        a, b, c = self.triangles[tid]
        return self.points[a], self.points[b], self.points[c]

    def min_angle(self, tid: int) -> float:
        return min_angle_deg(*self.triangle_points(tid))

    def vertex_count(self) -> int:
        return sum(self.alive)

    def is_subsegment(self, u: int, v: int) -> bool:
        return _edge_key(u, v) in self.subsegments

    # -- point location -----------------------------------------------------

    def locate(self, x: float, y: float, start: Optional[int] = None):
        """Return ('in', tid) / ('edge', (u, v), tid) / ('vertex', vid) /
        ('outside', last_tid)."""
        if not self.triangles:
            raise TriangulationError("empty triangulation")
        cur = start if start in self.triangles else self._walk_hint
        if cur not in self.triangles:
            cur = next(iter(self.triangles))
        steps = 0
        cap = 4 * len(self.triangles) + 64
        while True:
            steps += 1
            if steps > cap:
                return self._locate_scan(x, y)
            a, b, c = self.triangles[cur]
            pa, pb, pc = self.points[a], self.points[b], self.points[c]
            o_ab = orient_sign(pa[0], pa[1], pb[0], pb[1], x, y)
            o_bc = orient_sign(pb[0], pb[1], pc[0], pc[1], x, y)
            o_ca = orient_sign(pc[0], pc[1], pa[0], pa[1], x, y)
            if o_ab < 0:
                nxt = self._neighbor(cur, a, b)
                if nxt is None:
                    return ("outside", cur)
                cur = nxt
                continue
            if o_bc < 0:
                nxt = self._neighbor(cur, b, c)
                if nxt is None:
                    return ("outside", cur)
                cur = nxt
                continue
            if o_ca < 0:
                nxt = self._neighbor(cur, c, a)
                if nxt is None:
                    return ("outside", cur)
                cur = nxt
                continue
            zeros = (o_ab == 0) + (o_bc == 0) + (o_ca == 0)
            if zeros == 0:
                return ("in", cur)
            if zeros == 1:
                if o_ab == 0:
                    return ("edge", (a, b), cur)
                if o_bc == 0:
                    return ("edge", (b, c), cur)
                return ("edge", (c, a), cur)
            # two zero orientations: on a vertex
            if o_ab == 0 and o_bc == 0:
                return ("vertex", b)
            if o_bc == 0 and o_ca == 0:
                return ("vertex", c)
            return ("vertex", a)

    def _locate_scan(self, x: float, y: float):
        for tid, (a, b, c) in self.triangles.items():
            pa, pb, pc = self.points[a], self.points[b], self.points[c]
            o_ab = orient_sign(pa[0], pa[1], pb[0], pb[1], x, y)
            o_bc = orient_sign(pb[0], pb[1], pc[0], pc[1], x, y)
            o_ca = orient_sign(pc[0], pc[1], pa[0], pa[1], x, y)
            if o_ab >= 0 and o_bc >= 0 and o_ca >= 0:
                zeros = (o_ab == 0) + (o_bc == 0) + (o_ca == 0)
                if zeros == 0:
                    return ("in", tid)
                if zeros == 1:
                    for o, e in ((o_ab, (a, b)), (o_bc, (b, c)), (o_ca, (c, a))):
                        if o == 0:
                            return ("edge", e, tid)
                if o_ab == 0 and o_bc == 0:
                    return ("vertex", b)
                if o_bc == 0 and o_ca == 0:
                    return ("vertex", c)
                return ("vertex", a)
        return ("outside", next(iter(self.triangles)))

    # -- insertion ----------------------------------------------------------

    def insert_vertex(self, p: Point, tag: str,
                      start: Optional[int] = None) -> InsertResult:
        """Insert p, restoring the constrained Delaunay property.

        p must fall strictly inside the triangulated domain and must not
        coincide with an existing vertex or lie on a constraint edge.
        """
        where = self.locate(p[0], p[1], start)
        if where[0] == "vertex":
            raise DuplicateVertexError(
                f"point {tuple(p)} duplicates vertex {where[1]}"
            )
        if where[0] == "outside":
            raise OutsideDomainError(f"point {tuple(p)} is outside the domain")
        if where[0] == "edge":
            u, v = where[1]
            if _edge_key(u, v) in self.subsegments:
                raise TriangulationError(
                    "point lies on a constraint edge; split the subsegment instead"
                )
            seeds = list(self.edge_map[_edge_key(u, v)])
        else:
            seeds = [where[1]]
        vid = self._add_vertex(p[0], p[1], tag)
        return self._insert_in_cavity(vid, seeds)

    def _insert_in_cavity(self, vid: int, seeds: list) -> InsertResult:
        x, y = self.points[vid]
        cavity = set(seeds)
        stack = list(seeds)
        while stack:
            tid = stack.pop()
            a, b, c = self.triangles[tid]
            for u, v in ((a, b), (b, c), (c, a)):
                key = _edge_key(u, v)
                if key in self.subsegments:
                    continue
                n = self._neighbor(tid, u, v)
                if n is None or n in cavity:
                    continue
                na, nb, nc = self.triangles[n]
                qa, qb, qc = self.points[na], self.points[nb], self.points[nc]
                if (
                    incircle_sign(qa[0], qa[1], qb[0], qb[1], qc[0], qc[1], x, y)
                    > 0
                ):
                    cavity.add(n)
                    stack.append(n)

        # boundary of the cavity as directed edges
        ring: dict[int, int] = {}
        n_boundary = 0
        for tid in cavity:
            a, b, c = self.triangles[tid]
            for u, v in ((a, b), (b, c), (c, a)):
                n = self._neighbor(tid, u, v)
                if n is None or n not in cavity:
                    ring[u] = v
                    n_boundary += 1
        if len(ring) != n_boundary:
            raise TriangulationError("cavity boundary is pinched")
        # canonical refill order: chain the boundary loop starting from its
        # smallest vertex id, so triangle creation order is independent of
        # internal triangle numbering
        start = min(ring)
        chain = []
        u = start
        for _ in range(len(ring)):
            v = ring[u]
            chain.append((u, v))
            u = v
        if u != start:
            raise TriangulationError("cavity boundary is not a single loop")
        removed = sorted(cavity)
        for tid in removed:
            self._rm_tri(tid)
        created = []
        for u, v in chain:
            pu, pv = self.points[u], self.points[v]
            o = orient_sign(x, y, pu[0], pu[1], pv[0], pv[1])
            if o == 0:
                continue  # p exactly on a boundary edge of the cavity
            if o < 0:
                raise TriangulationError("cavity boundary is not star-shaped")
            created.append(self._add_tri(vid, u, v))
        return InsertResult(vid, created, removed)

    # -- constraint segments -------------------------------------------------

    def _insert_constraint_edge(self, u: int, v: int) -> None:
        if _edge_key(u, v) in self.edge_map:
            return
        pu, pv = self.points[u], self.points[v]
        # find the starting triangle in u's star whose far edge the
        # segment u->v crosses
        entry = None
        for tid in self._star(u):
            w, p, q = self._rotate_to(tid, u)
            pp, pq = self.points[p], self.points[q]
            o_p = orient_sign(pu[0], pu[1], pv[0], pv[1], pp[0], pp[1])
            o_q = orient_sign(pu[0], pu[1], pv[0], pv[1], pq[0], pq[1])
            # u->v leaves the triangle between q on its left and p on its right
            if o_p < 0 and o_q > 0:
                entry = (tid, q, p)
                break
        if entry is None:
            raise TriangulationError(
                f"cannot route constraint {u}-{v}: no crossing fan triangle"
            )
        tid, left, right = entry
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
            pf = self.points[far]
            o = orient_sign(pu[0], pu[1], pv[0], pv[1], pf[0], pf[1])
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
        for t in crossed:
            self._rm_tri(t)
        upper_poly = [v] + list(reversed(upper)) + [u]
        lower_poly = [u] + lower + [v]
        for tri in self._triangulate_polygon(upper_poly):
            self._add_tri(*tri)
        for tri in self._triangulate_polygon(lower_poly):
            self._add_tri(*tri)

    def _star(self, v: int) -> list[int]:
        """All triangles incident to v (unordered, deterministic)."""
        out = []
        for tid, verts in self.triangles.items():
            if v in verts:
                out.append(tid)
        return out

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

        # Lawson flips on internal diagonals until locally Delaunay
        changed = True
        while changed:
            changed = False
            edge_use: dict[tuple[int, int], list[int]] = {}
            for idx, (a, b, c) in enumerate(tris):
                for e in ((a, b), (b, c), (c, a)):
                    edge_use.setdefault(_edge_key(*e), []).append(idx)
            for key, users in edge_use.items():
                if len(users) != 2:
                    continue
                t1, t2 = users
                a, b, c = tris[t1]
                # rotate t1 so the shared edge is (u, v)
                for _ in range(3):
                    if _edge_key(a, b) == key:
                        break
                    a, b, c = b, c, a
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
        Child lengths are exactly half the parent's.
        """
        key = _edge_key(u, v)
        if key not in self.subsegments:
            raise MissingSubsegmentError(f"{key} is not a current subsegment")
        rec = self.subsegments.pop(key)
        pu, pv = self.points[u], self.points[v]
        mid = Point((pu.x + pv.x) / 2.0, (pu.y + pv.y) / 2.0)
        start = self.edge_map[key][0]
        try:
            res = self.insert_vertex(mid, SEGMENT_MIDPOINT, start=start)
        except TriangulationError:
            self.subsegments[key] = rec
            raise
        half = rec.length / 2.0
        k1 = _edge_key(u, res.vertex)
        k2 = _edge_key(res.vertex, v)
        for k in (k1, k2):
            if k not in self.edge_map:
                raise TriangulationError(
                    "midpoint insertion failed to produce child edges"
                )
            self.subsegments[k] = Subseg(rec.lineage, half)
        return res.vertex, (k1, k2), res

    # -- vertex deletion ---------------------------------------------------------

    def delete_vertex(self, v: int) -> InsertResult:
        """Remove a free vertex and retriangulate its star."""
        if self.tags[v] != CIRCUMCENTER:
            raise TriangulationError(
                f"vertex {v} has tag {self.tags[v]}; only free vertices are deletable"
            )
        start = self._tri_of_vertex(v)
        _, p, q = self._rotate_to(start, v)
        ring = [p]
        star = [start]
        cur = start
        nxt_v = q
        while True:
            n = self._neighbor(cur, v, nxt_v)
            if n is None:
                raise TriangulationError(
                    f"vertex {v} touches the boundary and cannot be deleted"
                )
            if n == start:
                ring.append(nxt_v)
                break
            ring.append(nxt_v)
            star.append(n)
            _, _, nxt_v = self._rotate_to(n, v)
            cur = n
        # ring ends with the first vertex repeated's predecessor; drop dupes
        ring = ring[:-1] if ring[0] == ring[-1] else ring
        # canonical rotation so the retriangulation is independent of
        # which incident triangle the walk started from
        k = ring.index(min(ring))
        ring = ring[k:] + ring[:k]
        for tid in star:
            self._rm_tri(tid)
        created = []
        for tri in self._triangulate_polygon(ring):
            created.append(self._add_tri(*tri))
        self.alive[v] = False
        self._v2t.pop(v, None)
        return InsertResult(v, created, sorted(star))

    # -- visibility -----------------------------------------------------------

    def first_constraint_crossing(self, g: Point, c: Point):
        """First constraint subsegment properly crossed on the way g -> c.

        Returns the subsegment key, or None when c is reachable.  A c
        lying exactly on a subsegment's interior counts as crossed;
        passages exactly through segment endpoints do not.
        """
        gx, gy = g
        cx, cy = c
        lo_x, hi_x = (gx, cx) if gx <= cx else (cx, gx)
        lo_y, hi_y = (gy, cy) if gy <= cy else (cy, gy)
        best_t = None
        best_key = None
        pts = self.points
        for key in self.subsegments:
            u, v = key
            a, b = pts[u], pts[v]
            # disjoint bounding boxes cannot intersect
            if a[0] > hi_x and b[0] > hi_x:
                continue
            if a[0] < lo_x and b[0] < lo_x:
                continue
            if a[1] > hi_y and b[1] > hi_y:
                continue
            if a[1] < lo_y and b[1] < lo_y:
                continue
            o_a = orient_sign(gx, gy, cx, cy, a[0], a[1])
            o_b = orient_sign(gx, gy, cx, cy, b[0], b[1])
            if o_a == 0 or o_b == 0 or o_a == o_b:
                continue
            o_g = orient_sign(a[0], a[1], b[0], b[1], gx, gy)
            o_c = orient_sign(a[0], a[1], b[0], b[1], cx, cy)
            if o_g == 0 or (o_c != 0 and o_c == o_g):
                continue
            # exact crossing parameter along g -> c
            num = _exact_area(a, b, (gx, gy))
            den = num - _exact_area(a, b, (cx, cy))
            t = num / den
            if not (0 < t <= 1):
                continue
            if best_t is None or t < best_t:
                best_t = t
                best_key = key
        return best_key

    # -- audit ------------------------------------------------------------------

    def check(self) -> list[str]:
        """Full structural audit; returns human-readable violations."""
        problems: list[str] = []
        rebuilt: dict[tuple[int, int], list[int]] = {}
        for tid, (a, b, c) in self.triangles.items():
            pa, pb, pc = self.points[a], self.points[b], self.points[c]
            if orient_sign(pa[0], pa[1], pb[0], pb[1], pc[0], pc[1]) <= 0:
                problems.append(f"triangle {tid} is not CCW")
            for e in ((a, b), (b, c), (c, a)):
                rebuilt.setdefault(_edge_key(*e), []).append(tid)
        if {k: sorted(v) for k, v in rebuilt.items()} != {
            k: sorted(v) for k, v in self.edge_map.items()
        }:
            problems.append("edge map inconsistent with triangle set")
        for key, users in rebuilt.items():
            if len(users) > 2:
                problems.append(f"edge {key} flanked by {len(users)} triangles")
        for key in self.subsegments:
            if key not in rebuilt:
                problems.append(f"constraint edge {key} missing from triangulation")
        n_v = self.vertex_count()
        n_e = len(rebuilt)
        n_t = len(self.triangles)
        if n_v - n_e + n_t != 1 - self.holes_carved:
            problems.append(
                f"Euler relation violated: V={n_v} E={n_e} T={n_t} "
                f"holes={self.holes_carved}"
            )
        problems.extend(self.delaunay_violations())
        return problems

    def delaunay_violations(self) -> list[str]:
        """Constrained empty-circle audit (brute force)."""
        problems = []
        for tid, (a, b, c) in self.triangles.items():
            pa, pb, pc = self.points[a], self.points[b], self.points[c]
            gx = (pa.x + pb.x + pc.x) / 3.0
            gy = (pa.y + pb.y + pc.y) / 3.0
            for w in range(len(self.points)):
                if not self.alive[w] or w in (a, b, c):
                    continue
                pw = self.points[w]
                if (
                    incircle_sign(
                        pa[0], pa[1], pb[0], pb[1], pc[0], pc[1], pw[0], pw[1]
                    )
                    <= 0
                ):
                    continue
                if self.first_constraint_crossing(Point(gx, gy), pw) is None:
                    problems.append(
                        f"vertex {w} visibly inside circumcircle of triangle {tid}"
                    )
        return problems

    # -- construction ---------------------------------------------------------

    @classmethod
    def build(cls, pslg: Pslg) -> "Triangulation":
        violations = validate(pslg)
        if violations:
            raise InvalidPslgError(violations)
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
            p = t.points[vid]
            where = t.locate(p.x, p.y)
            if where[0] == "vertex":
                raise DuplicateVertexError(f"vertex {vid} duplicates another")
            if where[0] == "outside":
                raise TriangulationError("input escapes the bounding triangle")
            if where[0] == "edge":
                seeds = list(t.edge_map[_edge_key(*where[1])])
            else:
                seeds = [where[1]]
            t._insert_in_cavity(vid, seeds)

        for i, seg in enumerate(pslg.segments):
            t._insert_constraint_edge(seg.a, seg.b)
            lineage = seg.lineage if seg.lineage is not None else i
            length = math.dist(pslg.vertices[seg.a], pslg.vertices[seg.b])
            t.subsegments[_edge_key(seg.a, seg.b)] = Subseg(lineage, length)
            t.lineage_root_length[lineage] = length

        for s in (s2, s1, s0):
            for tid in t._star(s):
                t._rm_tri(tid)
            t._v2t.pop(s, None)
            t.points.pop()
            t.tags.pop()
            t.alive.pop()

        for hole in pslg.holes:
            where = t.locate(hole.x, hole.y)
            if where[0] == "in":
                seeds = [where[1]]
            elif where[0] == "edge" and _edge_key(*where[1]) not in t.subsegments:
                seeds = list(t.edge_map[_edge_key(*where[1])])
            else:
                continue
            region = set(seeds)
            stack = list(seeds)
            while stack:
                tid = stack.pop()
                a, b, c = t.triangles[tid]
                for u, v in ((a, b), (b, c), (c, a)):
                    if _edge_key(u, v) in t.subsegments:
                        continue
                    n = t._neighbor(tid, u, v)
                    if n is not None and n not in region:
                        region.add(n)
                        stack.append(n)
            for tid in sorted(region):
                t._rm_tri(tid)
            t.holes_carved += 1

        if t._walk_hint not in t.triangles and t.triangles:
            t._walk_hint = next(iter(t.triangles))
        return t


def _exact_area(a, b, c) -> Fraction:
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
