import functools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from refinelab.cdt import (
    CIRCUMCENTER,
    SEGMENT_MIDPOINT,
    DuplicateVertexError,
    InvalidPslgError,
    MissingSubsegmentError,
    OutsideDomainError,
    Subseg,
    Triangulation,
    TriangulationError,
)
from refinelab.geom import Point
from refinelab.generators import pinwheel
from refinelab.pslg import Pslg, Segment
from refinelab.refine import RefinementConfig, chew2, ruppert

from oracles import (
    constrained_delaunay_violations,
    first_crossing_oracle,
    flanks,
    insert_in_cavity_oracle,
    orient_oracle,
)


def square_pslg(side=1.0):
    return Pslg(
        vertices=(
            Point(0, 0),
            Point(side, 0),
            Point(side, side),
            Point(0, side),
        ),
        segments=(
            Segment(0, 1),
            Segment(1, 2),
            Segment(2, 3),
            Segment(3, 0),
        ),
    )


def alive_points(t):
    return {
        i: t.points[i] for i in range(len(t.points)) if t.alive[i]
    }


def oracle_audit(t):
    pts = {i: tuple(p) for i, p in alive_points(t).items()}
    tris = list(t.triangles.values())
    return constrained_delaunay_violations(pts, tris, list(t.subsegments))


def triangle_set(t):
    return {tuple(sorted(v)) for v in t.triangles.values()}


class TestBuild:
    def test_square_two_triangles(self):
        t = Triangulation.build(square_pslg())
        assert len(t.triangles) == 2
        for seg in ((0, 1), (1, 2), (2, 3), (0, 3)):
            assert seg in t.subsegments
        assert t.check() == []

    def test_pinwheel_fan_triangle_is_delaunay(self):
        # endpoints of the longest and shortest fan segments and the apex
        t = Triangulation.build(pinwheel(4))
        assert (0, 1, 4) in triangle_set(t)
        assert t.check() == []

    def test_random_cloud_empty_circle_vs_oracle(self):
        rng = random.Random(2024)
        pts = []
        seen = set()
        while len(pts) < 50:
            p = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            if p not in seen:
                seen.add(p)
                pts.append(Point(*p))
        t = Triangulation.build(Pslg(tuple(pts), ()))
        assert oracle_audit(t) == []

    def test_invalid_pslg_rejected(self):
        bad = Pslg(
            vertices=(Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0)),
            segments=(Segment(0, 1), Segment(2, 3)),
        )
        with pytest.raises(InvalidPslgError):
            Triangulation.build(bad)

    @pytest.mark.parametrize("extra", [
        # a segment that is already a Delaunay edge
        (Point(2.0, 1.2), Point(2.0, 2.8)),
        # a segment the Delaunay triangulation of its endpoints and the two
        # free vertices does not contain: it must be routed through the fan
        (Point(0.5, 2.0), Point(3.5, 2.0), Point(2.0, 2.3), Point(2.0, 1.7)),
    ], ids=["delaunay-edge", "crossing-edges"])
    def test_crossing_constraint_recovered(self, extra):
        p = Pslg(
            vertices=(
                Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4),
            ) + extra,
            segments=(
                Segment(0, 1), Segment(1, 2), Segment(2, 3), Segment(3, 0),
                Segment(4, 5),
            ),
        )
        t = Triangulation.build(p)
        assert (4, 5) in t.subsegments
        assert t.check() == []

    def test_hole_carving(self):
        p = Pslg(
            vertices=(
                Point(0, 0), Point(6, 0), Point(6, 6), Point(0, 6),
                Point(2, 2), Point(4, 2), Point(4, 4), Point(2, 4),
            ),
            segments=(
                Segment(0, 1), Segment(1, 2), Segment(2, 3), Segment(3, 0),
                Segment(4, 5), Segment(5, 6), Segment(6, 7), Segment(7, 4),
            ),
            holes=(Point(3, 3),),
        )
        t = Triangulation.build(p)
        # no triangle centroid may fall inside the carved square
        for a, b, c in t.triangles.values():
            gx = (t.points[a].x + t.points[b].x + t.points[c].x) / 3
            gy = (t.points[a].y + t.points[b].y + t.points[c].y) / 3
            assert not (2 < gx < 4 and 2 < gy < 4)
        assert t.check() == []

    @pytest.mark.parametrize("hole", [Point(1, 0), Point(0.5, 0), Point(2, 2)],
                             ids=["at-vertex", "on-segment", "outside"])
    def test_hole_off_the_open_domain_is_ignored(self, hole):
        p = square_pslg()
        plain = Triangulation.build(p)
        t = Triangulation.build(Pslg(p.vertices, p.segments, (hole,)))
        assert (t.points, t.triangles, t.subsegments) == (
            plain.points, plain.triangles, plain.subsegments)
        assert t.check() == []


class TestInsert:
    def test_centroid_into_single_triangle(self):
        p = Pslg(
            vertices=(Point(0, 0), Point(3, 0), Point(0, 3)),
            segments=(Segment(0, 1), Segment(1, 2), Segment(2, 0)),
        )
        t = Triangulation.build(p)
        assert len(t.triangles) == 1
        t.insert_vertex(Point(1, 1), CIRCUMCENTER)
        assert len(t.triangles) == 3
        assert t.check() == []

    def test_point_on_interior_edge_gives_four(self):
        t = Triangulation.build(square_pslg(2.0))
        # the diagonal is the only interior edge; find it and split it
        (diag,) = [k for k, flank in flanks(t).items() if len(flank) == 2]
        mid = Point(
            (t.points[diag[0]].x + t.points[diag[1]].x) / 2,
            (t.points[diag[0]].y + t.points[diag[1]].y) / 2,
        )
        t.insert_vertex(mid, CIRCUMCENTER)
        assert len(t.triangles) == 4
        assert t.check() == []

    def test_duplicate_rejected(self):
        t = Triangulation.build(square_pslg())
        with pytest.raises(DuplicateVertexError):
            t.insert_vertex(Point(0, 0), CIRCUMCENTER)

    def test_outside_rejected(self):
        t = Triangulation.build(square_pslg())
        with pytest.raises(OutsideDomainError):
            t.insert_vertex(Point(9, 9), CIRCUMCENTER)

    def test_on_constraint_edge_rejected(self):
        t = Triangulation.build(square_pslg(2.0))
        with pytest.raises(TriangulationError):
            t.insert_vertex(Point(1.0, 0.0), CIRCUMCENTER)

    def test_random_insertions_vs_oracle(self):
        rng = random.Random(7)
        t = Triangulation.build(square_pslg(10.0))
        n = 0
        while n < 200:
            p = Point(rng.uniform(0.3, 9.7), rng.uniform(0.3, 9.7))
            try:
                t.insert_vertex(p, CIRCUMCENTER)
            except (DuplicateVertexError, TriangulationError):
                continue
            n += 1
        assert t.check() == []
        assert oracle_audit(t) == []

    def test_euler_relation_through_operations(self):
        rng = random.Random(3)
        t = Triangulation.build(square_pslg(4.0))
        for _ in range(30):
            t.insert_vertex(
                Point(rng.uniform(0.2, 3.8), rng.uniform(0.2, 3.8)),
                CIRCUMCENTER,
            )
            n_v = t.vertex_count()
            n_e = len(flanks(t))
            n_t = len(t.triangles)
            assert n_v - n_e + n_t == 1


class TestSplit:
    def test_exact_halving(self):
        t = Triangulation.build(square_pslg(2.0))
        mid, (k1, k2), _ = t.split_subsegment(0, 1)
        assert t.points[mid] == Point(1.0, 0.0)
        assert t.subsegments[k1].length == 1.0
        assert t.subsegments[k2].length == 1.0
        assert t.subsegments[k1].lineage == 0
        assert t.check() == []

    def test_counts_after_split(self):
        t = Triangulation.build(square_pslg(2.0))
        nv = t.vertex_count()
        ns = len(t.subsegments)
        t.split_subsegment(0, 1)
        assert t.vertex_count() == nv + 1
        assert len(t.subsegments) == ns + 1

    def test_pinwheel_first_cascade_split(self):
        t = Triangulation.build(pinwheel(4))
        t.split_subsegment(0, 1)  # the length-2 fan segment
        fan_lengths = sorted(
            rec.length
            for key, rec in t.subsegments.items()
            if 0 in key and rec.lineage < 4
        )
        expect = sorted([1.0, 2 ** 0.75, 2 ** 0.5, 2 ** 0.25])
        assert fan_lengths == pytest.approx(expect, abs=0)

    def test_split_both_children_quarters(self):
        t = Triangulation.build(square_pslg(2.0))
        _, (k1, k2), _ = t.split_subsegment(0, 1)
        _, (k11, k12), _ = t.split_subsegment(*k1)
        _, (k21, k22), _ = t.split_subsegment(*k2)
        for k in (k11, k12, k21, k22):
            assert t.subsegments[k].length == 0.5
            assert t.subsegments[k].lineage == 0

    def test_missing_subsegment_raises(self):
        t = Triangulation.build(square_pslg())
        with pytest.raises(MissingSubsegmentError):
            t.split_subsegment(0, 2)

    # a slanted 8-gon: the rounded midpoint falls outside edges 0, 1 and 7,
    # inside edges 2, 3 and 4, and exactly on edges 5 and 6
    OCTAGON = (
        Point(1, 0), Point(0.9567, 0.2912), Point(-0.0261, 0.9997),
        Point(-0.9, 0.4359), Point(-0.9975, 0.0712), Point(-0.8501, -0.5267),
        Point(-0.4324, -0.9017), Point(0.4068, -0.9135),
    )

    @pytest.mark.parametrize("u", range(8))
    def test_split_of_slanted_boundary_edge(self, u):
        v = (u + 1) % 8
        t = Triangulation.build(Pslg(
            self.OCTAGON, tuple(Segment(i, (i + 1) % 8) for i in range(8))
        ))
        t.split_subsegment(u, v)
        assert t.check() == []
        assert (min(u, v), max(u, v)) not in flanks(t)
        assert all(t.min_angle(tid) > 0 for tid in t.triangles)

    def test_midpoint_tag(self):
        t = Triangulation.build(square_pslg(2.0))
        mid, _, _ = t.split_subsegment(0, 1)
        assert t.tags[mid] == SEGMENT_MIDPOINT


class TestDelete:
    def test_insert_delete_roundtrip(self):
        t = Triangulation.build(square_pslg(3.0))
        rng = random.Random(11)
        for _ in range(12):
            t.insert_vertex(
                Point(rng.uniform(0.3, 2.7), rng.uniform(0.3, 2.7)),
                CIRCUMCENTER,
            )
        before = triangle_set(t)
        res = t.insert_vertex(Point(1.234, 2.001), CIRCUMCENTER)
        t.delete_vertex(res.vertex)
        assert triangle_set(t) == before
        assert t.check() == []

    def test_degree_three_collapse(self):
        p = Pslg(
            vertices=(Point(0, 0), Point(3, 0), Point(0, 3)),
            segments=(Segment(0, 1), Segment(1, 2), Segment(2, 0)),
        )
        t = Triangulation.build(p)
        res = t.insert_vertex(Point(1, 1), CIRCUMCENTER)
        assert len(t.triangles) == 3
        t.delete_vertex(res.vertex)
        assert len(t.triangles) == 1

    def test_high_degree_delete_delaunay(self):
        rng = random.Random(5)
        t = Triangulation.build(square_pslg(8.0))
        center = t.insert_vertex(Point(4.0, 4.0), CIRCUMCENTER).vertex
        for k in range(7):
            ang = 2 * math.pi * k / 7
            t.insert_vertex(
                Point(4.0 + 1.5 * math.cos(ang + 0.3), 4.0 + 1.5 * math.sin(ang + 0.3)),
                CIRCUMCENTER,
            )
        t.delete_vertex(center)
        assert t.check() == []
        assert oracle_audit(t) == []

    def test_only_free_vertices_deletable(self):
        t = Triangulation.build(square_pslg())
        with pytest.raises(TriangulationError):
            t.delete_vertex(0)
        mid, _, _ = t.split_subsegment(0, 1)
        with pytest.raises(TriangulationError):
            t.delete_vertex(mid)

    def test_constraints_preserved_by_delete(self):
        t = Triangulation.build(square_pslg(4.0))
        res = t.insert_vertex(Point(2.0, 0.5), CIRCUMCENTER)
        t.delete_vertex(res.vertex)
        for seg in ((0, 1), (1, 2), (2, 3), (0, 3)):
            assert seg in t.subsegments
        assert t.check() == []

    def test_vertex_on_hull_edge_not_deletable(self):
        # (0,0)-(4,0) is a hull edge but no constraint, so a circumcenter
        # can land on it; its fan is open, and the walk around it stops
        # at both ends of the hull
        p = Pslg(
            vertices=(Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)),
            segments=(Segment(1, 2), Segment(2, 3)),
        )
        t = Triangulation.build(p)
        v = t.insert_vertex(Point(2.0, 0.0), CIRCUMCENTER).vertex
        with pytest.raises(TriangulationError, match="vertex 4 touches the boundary"):
            t.delete_vertex(v)

    def test_deleted_vertex_not_deletable_again(self):
        t = Triangulation.build(square_pslg(4.0))
        t.insert_vertex(Point(1.0, 1.0), CIRCUMCENTER)
        v = t.insert_vertex(Point(2.5, 2.0), CIRCUMCENTER).vertex
        t.delete_vertex(v)
        with pytest.raises(TriangulationError,
                           match="vertex 5 has no incident triangle"):
            t.delete_vertex(v)


class TestFirstConstraintCrossing:
    @staticmethod
    @functools.lru_cache(maxsize=None)
    def mesh(n):
        return chew2(pinwheel(n), RefinementConfig(alpha_deg=25.0)).triangulation

    @staticmethod
    def targets(t):
        """Random points over the mesh, its vertices, and subsegment
        midpoints, so that walks ending on a subsegment and walks through
        its endpoints both occur."""
        xs = [p.x for p in t.points]
        ys = [p.y for p in t.points]
        coords = st.tuples(
            st.floats(min(xs), max(xs)), st.floats(min(ys), max(ys))
        )
        vertices = [t.points[v] for v, ok in enumerate(t.alive) if ok]
        midpoints = [
            ((t.points[u].x + t.points[v].x) / 2, (t.points[u].y + t.points[v].y) / 2)
            for u, v in t.subsegments
        ]
        return st.one_of(
            coords, st.sampled_from(vertices), st.sampled_from(midpoints)
        ).map(lambda xy: Point(*xy))

    # pinwheel(4)'s subsegments are all axis-aligned, so the bounding-box
    # prefilter alone keeps crossings beyond c out; pinwheel(5)'s slanted
    # arms need the orientation tests
    @pytest.mark.parametrize("n", [4, 5])
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_from_centroid(self, n, data):
        t = self.mesh(n)
        tid = data.draw(st.sampled_from(sorted(t.triangles)))
        pa, pb, pc = t.triangle_points(tid)
        g = Point((pa.x + pb.x + pc.x) / 3.0, (pa.y + pb.y + pc.y) / 3.0)
        c = data.draw(self.targets(t))
        assert t.first_constraint_crossing(g, c) == first_crossing_oracle(
            t.points, t.subsegments, g, c
        )


def walk_pslg():
    """The 4x4 square, the segment (1, 1)-(3, 1) and a free vertex at
    (2, 3)."""
    return Pslg(
        vertices=(
            Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4),
            Point(1, 1), Point(3, 1), Point(2, 3),
        ),
        segments=(
            Segment(0, 1), Segment(1, 2), Segment(2, 3), Segment(3, 0),
            Segment(4, 5),
        ),
    )


def holed_pslg():
    """The 4x4 square with a square hole (1, 1)-(2, 2) and the segment
    (3, 0.5)-(3, 1.5)."""
    return Pslg(
        vertices=(
            Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4),
            Point(1, 1), Point(2, 1), Point(2, 2), Point(1, 2),
            Point(3, 0.5), Point(3, 1.5),
        ),
        segments=tuple(Segment(i, (i + 1) % 4) for i in range(4))
        + tuple(Segment(4 + i, 4 + (i + 1) % 4) for i in range(4))
        + (Segment(8, 9),),
        holes=(Point(1.5, 1.5),),
    )


def islanded_pslg():
    """The 8x8 square with a square hole (2, 2)-(6, 6) and a square
    island (3, 3)-(5, 5) inside the hole."""
    return Pslg(
        vertices=(
            Point(0, 0), Point(8, 0), Point(8, 8), Point(0, 8),
            Point(2, 2), Point(6, 2), Point(6, 6), Point(2, 6),
            Point(3, 3), Point(5, 3), Point(5, 5), Point(3, 5),
        ),
        segments=tuple(
            Segment(k + i, k + (i + 1) % 4) for k in (0, 4, 8) for i in range(4)
        ),
        holes=(Point(2.5, 4),),
    )


def dented_pslg():
    """Four vertices and one segment, (1, 0.001)-(2, 0), with no segment
    around them.  The far super-triangle vertex lies in the circumcircle
    of (0, 0), (1, 0.001), (2, 0), so that triangle is never made: the
    mesh has a dent below (1, 0.001), and the hull edge (0, 0)-(2, 0) is
    missing."""
    return Pslg(
        vertices=(Point(0, 0), Point(2, 0), Point(1, 0.001), Point(1, 1)),
        segments=(Segment(2, 1),),
    )


class TestConstraintWalk:
    # input, g, c and the first subsegment crossed
    CASES = {
        "crossing": (walk_pslg, (2, 0.5), (2, 2), (4, 5)),
        "through-input-vertex": (walk_pslg, (0.5, 0.5), (1.5, 1.5), None),
        "through-free-vertex-then-crossing":
            (walk_pslg, (2, 3.5), (2, 0.5), (4, 5)),
        "c-on-subsegment-interior": (walk_pslg, (2, 0.5), (2, 1), (4, 5)),
        "c-at-endpoint": (walk_pslg, (2, 0.5), (3, 1), None),
        "past-enclosure-corner": (walk_pslg, (3, 3), (5, 5), None),
        "out-through-boundary": (walk_pslg, (3, 3), (5, 3), (1, 2)),
        "along-subsegment": (walk_pslg, (0.5, 1), (3.5, 1), None),
        "along-subsegment-then-out": (walk_pslg, (0.5, 1), (5, 1), (1, 2)),
        "g-on-subsegment": (walk_pslg, (1.5, 1), (1.5, 3), None),
        # g on the plain edge (1, 1)-(2, 3)
        "g-on-edge-then-crossing": (walk_pslg, (1.5, 2), (1.5, 0.5), (4, 5)),
        # through (2, 3), along the plain edge to (3, 1), past the
        # subsegment's endpoint there, and out across the bottom side
        "through-vertex-along-edge-then-crossing":
            (walk_pslg, (1.75, 3.5), (3.75, -0.5), (0, 1)),
        "g-at-vertex": (walk_pslg, (2, 3), (2, 0.5), (4, 5)),
        "g-at-corner": (walk_pslg, (0, 4), (2, 0.5), (4, 5)),
        "g-at-hole-corner": (holed_pslg, (1, 1), (3.5, 0.5), (8, 9)),
        "along-boundary-to-corner": (walk_pslg, (4, 2), (4, 5), None),
        # the fan around a hole corner is open: the way on lies clockwise
        "past-hole-corner-then-crossing":
            (holed_pslg, (1, 3), (3.5, 0.5), (8, 9)),
        "into-hole-through-corners": (holed_pslg, (0.5, 2.5), (2.5, 0.5), None),
        "into-hole-through-edge": (holed_pslg, (0.5, 1.5), (1.5, 1.5), (4, 7)),
        # the path leaves the mesh at a hole corner and crosses the rim
        # on the far side of the hole
        "into-hole-through-corner-then-rim":
            (holed_pslg, (0.5, 3), (1.75, 0.5), (4, 5)),
        "into-hole-through-corner-then-rim-far":
            (holed_pslg, (0.5, 3), (2.25, -0.5), (4, 5)),
        "g-on-rim-into-hole": (holed_pslg, (1.5, 2), (1.5, 0.5), (4, 5)),
        "g-in-hole": (holed_pslg, (1.5, 1.5), (1.5, 0.5), (4, 5)),
        "g-past-hull": (walk_pslg, (5, 2), (3.5, 2), (1, 2)),
        "into-hole-through-corner-onto-island":
            (islanded_pslg, (0.5, 6.75), (5, 4.5), (10, 11)),
        "through-hole-between-corners":
            (islanded_pslg, (0.5, 7.5), (7.5, 0.5), None),
        # out through an edge with no triangle beyond, back through a
        # subsegment
        "out-and-back-across-dent":
            (dented_pslg, (0.25, 0.0005), (1.75, 0.0005), (1, 2)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_matches_oracle_from_every_start(self, case):
        pslg, g, c, want = self.CASES[case]
        g, c = Point(*g), Point(*c)
        t = Triangulation.build(pslg())
        assert first_crossing_oracle(t.points, t.subsegments, g, c) == want
        for start in [None] + sorted(t.triangles):
            assert t.first_constraint_crossing(g, c, start) == want, start

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def refined(pslg):
        return chew2(pslg(), RefinementConfig(alpha_deg=25.0)).triangulation

    # vertices, and points of an eighth-unit grid on and off the mesh, lie
    # on rims and pass in line through hole corners far more often than
    # drawn floats do
    @pytest.mark.parametrize("pslg", [holed_pslg, islanded_pslg])
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_around_holes(self, pslg, data):
        t = self.refined(pslg)
        grid = st.integers(-4, 68).map(lambda k: k / 8)
        points = st.one_of(
            st.builds(Point, grid, grid),
            st.sampled_from([p for p, ok in zip(t.points, t.alive) if ok]),
        )
        g, c = data.draw(points), data.draw(points)
        start = data.draw(st.sampled_from([None] + sorted(t.triangles)))
        assert t.first_constraint_crossing(g, c, start) == first_crossing_oracle(
            t.points, t.subsegments, g, c
        )

    # the scan the walk falls back on answers for any g and c, not only
    # from a point the walk has reached; subsegment midpoints put c on a
    # subsegment's interior
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_scan_matches_oracle_anywhere(self, data):
        make = data.draw(st.sampled_from(
            [lambda: self.refined(holed_pslg), lambda: self.refined(islanded_pslg),
             lambda: Triangulation.build(dented_pslg())]))
        t = make()
        grid = st.integers(-4, 68).map(lambda k: k / 8)
        pts = t.points
        points = st.one_of(
            st.builds(Point, grid, grid),
            st.sampled_from([p for p, ok in zip(pts, t.alive) if ok]),
            st.sampled_from([Point((pts[u].x + pts[v].x) / 2,
                                   (pts[u].y + pts[v].y) / 2)
                             for u, v in t.subsegments]),
        )
        g, c = data.draw(points), data.draw(points)
        assert t._crossing_beyond(g, c) == first_crossing_oracle(
            t.points, t.subsegments, g, c
        )


class TestLocate:
    # a walk from across a hole meets the hole's rim, with no triangle
    # beyond it, before it reaches the point
    @pytest.mark.parametrize("make", [holed_pslg, islanded_pslg])
    def test_same_answer_from_every_start(self, make):
        p = make()
        t = Triangulation.build(p)
        starts = [None] + sorted(t.triangles)
        for tid in t.triangles:
            pa, pb, pc = t.triangle_points(tid)
            g = ((pa.x + pb.x + pc.x) / 3, (pa.y + pb.y + pc.y) / 3)
            for start in starts:
                assert t.locate(*g, start) == ("in", tid), (tid, start)
        for v, q in alive_points(t).items():
            for start in starts:
                assert t.locate(q.x, q.y, start) == ("vertex", v), (v, start)
        for q in p.holes + (Point(-1, 2), Point(2, 9)):
            for start in starts:
                assert t.locate(q.x, q.y, start)[0] == "outside", (q, start)

    def test_empty_triangulation_raises(self):
        with pytest.raises(TriangulationError, match="empty triangulation"):
            Triangulation().locate(0.0, 0.0)


# each step of an operation sequence is an operation and two fractions:
# the point inserted (scaled to the 4x4 square), or which subsegment or
# free vertex
_STEPS = st.lists(st.tuples(st.sampled_from(["insert", "split", "delete"]),
                            st.floats(0, 1), st.floats(0, 1)),
                  min_size=5, max_size=40)


def _apply(t, op, x, y):
    """One step of an operation sequence on t: what the operation
    returned, or the error an insertion raised."""
    if op == "insert":
        try:
            return t.insert_vertex(Point(4 * x, 4 * y), CIRCUMCENTER)
        except TriangulationError as e:
            return type(e), str(e)  # on a vertex or on a subsegment
    if op == "split":
        keys = list(t.subsegments)
        return t.split_subsegment(*keys[min(int(x * len(keys)), len(keys) - 1)])
    free = [v for v, ok in enumerate(t.alive)
            if ok and t.tags[v] == CIRCUMCENTER]
    if free:
        return t.delete_vertex(free[min(int(x * len(free)), len(free) - 1)])


class TestOperationSequences:
    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(_STEPS)
    def test_check_stays_empty(self, steps):
        t = Triangulation.build(walk_pslg())
        for op, x, y in steps:
            _apply(t, op, x, y)
            assert t.check() == [], (op, x, y)


class _ThreePassInsertion(Triangulation):
    """Vertex insertion through ``oracles.insert_in_cavity_oracle``."""

    def _insert_in_cavity(self, vid, seeds, split=None):
        return insert_in_cavity_oracle(self, vid, seeds, split)


class TestCavityKernel:
    """Insertion floods its cavity and links its fan in one pass each; it
    must leave every triangle, id, neighbour slot and vertex-to-triangle
    entry, in dict order, exactly as the three-pass path it replaced."""

    @staticmethod
    def state(t):
        return (list(t.triangles.items()), t._nbr, list(t._v2t.items()),
                t.points, t.alive, list(t.subsegments.items()))

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(_STEPS)
    def test_matches_the_three_pass_oracle(self, steps):
        kernel = Triangulation.build(walk_pslg())
        oracle = _ThreePassInsertion.build(walk_pslg())
        assert self.state(kernel) == self.state(oracle)
        for op, x, y in steps:
            assert _apply(kernel, op, x, y) == _apply(oracle, op, x, y), (op, x, y)
            assert self.state(kernel) == self.state(oracle), (op, x, y)
        assert kernel.check() == []


class TestBoxIndex:
    @staticmethod
    def operated():
        t = Triangulation.build(walk_pslg())
        t.split_subsegment(4, 5)
        v = t.insert_vertex(Point(2.1, 1.2), CIRCUMCENTER).vertex
        t.insert_vertex(Point(1.5, 2.5), CIRCUMCENTER)
        t.split_subsegment(2, 3)
        t.delete_vertex(v)
        return t

    def test_index_follows_every_operation(self):
        t = self.operated()
        assert t.check() == []
        # vertex 8 was deleted; the free vertex 6 lies on the edge of the
        # boxes of both halves of the top side
        assert t.vertices_near((0, 3)) == [4, 6, 7, 9, 10]
        assert t.vertices_near((4, 7)) == []
        assert t.subsegs_near(t.points[6]) == [(1, 2), (0, 3), (2, 10), (3, 10)]

    def test_point_query_keeps_creation_order_across_levels(self):
        t = Triangulation.build(walk_pslg())
        t.split_subsegment(0, 1)  # halves at the level of (4, 5)
        _, (older, _), _ = t.split_subsegment(4, 5)  # a new, finer level
        _, (newer, _), _ = t.split_subsegment(0, 3)  # back at the coarser one
        assert t.subsegs_near(Point(1.0, 1.2)) == [older, newer]

    def test_corrupt_vertex_list_is_reported(self):
        t = self.operated()
        t.vertices_near((0, 3)).remove(9)
        assert t.check() == [
            "vertex list of subsegment (0, 3) differs from a rebuilt index"
        ]

    def test_misplaced_box_is_reported(self):
        t = self.operated()
        cells = next(iter(t._index.levels.values()))[1]
        (i, j), keys = next(iter(cells.items()))
        cells.setdefault((i + 7, j), []).append(keys.pop())
        assert t.check() == ["subsegment box cells differ from a rebuilt index"]

    def test_shifted_box_is_reported(self):
        t = self.operated()
        key, box = next(iter(t._index.boxes.items()))
        t._index.boxes[key] = (box[0] + box[2],) + box[1:]
        assert t.check() == ["subsegment boxes differ from a rebuilt index"]


def convex_diagonals(t):
    """The non-constraint edges, as (low, high), whose two triangles
    form a strictly convex quad."""
    out = []
    for key, flank in flanks(t).items():
        if len(flank) == 2 and key not in t.subsegments:
            a, b, c, d = quad(t, key)
            pa, pb, pc, pd = (t.points[w] for w in (a, b, c, d))
            if orient_oracle(pc, pd, pa) * orient_oracle(pc, pd, pb) < 0:
                out.append(key)
    return out


def quad(t, key):
    """(a, b, c, d) where (a, b, c) is the lower-numbered triangle on the
    edge key, with (a, b) its edge, and d the far vertex of the other."""
    t1, t2 = flanks(t)[key]
    verts = t.triangles[t1]
    a, b, c = next(verts[k:] + verts[:k] for k in range(3)
                   if {verts[k], verts[k - 2]} == set(key))
    d = next(w for w in t.triangles[t2] if w not in key)
    return a, b, c, d


def flip(t, key):
    """Replace the two triangles on the convex diagonal key by the two
    on the quad's other diagonal, both CCW."""
    a, b, c, d = quad(t, key)
    t._replace(set(flanks(t)[key]), [(a, d, c), (d, b, c)])


def pinched_pslgs():
    """Two meshes with a pinch: the 4x4 square with two triangular holes
    that touch at (2, 2), and the same square with a triangular hole at
    its corner (0, 0)."""
    square = [Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)]
    sides = [Segment(i, (i + 1) % 4) for i in range(4)]
    touching = Pslg(
        tuple(square + [Point(1, 1), Point(2, 2), Point(1, 3), Point(3, 1),
                        Point(3, 3)]),
        tuple(sides + [Segment(4, 5), Segment(5, 6), Segment(6, 4),
                       Segment(5, 7), Segment(7, 8), Segment(8, 5)]),
        holes=(Point(1.3, 2), Point(2.7, 2)),
    )
    cornered = Pslg(
        tuple(square + [Point(2, 1), Point(1, 2)]),
        tuple(sides + [Segment(0, 4), Segment(4, 5), Segment(5, 0)]),
        holes=(Point(1, 1),),
    )
    return touching, cornered


class TestCheck:
    @pytest.mark.parametrize("make", [islanded_pslg, holed_pslg])
    def test_meshes_with_holes_and_islands_pass(self, make):
        assert Triangulation.build(make()).check() == []
        for engine in (chew2, ruppert):
            out = engine(make(), RefinementConfig(alpha_deg=25.0))
            assert out.triangulation.check() == [], engine.__name__

    @pytest.mark.parametrize("which", [0, 1], ids=["touching-holes", "corner-hole"])
    def test_pinched_meshes_pass(self, which):
        t = Triangulation.build(pinched_pslgs()[which])
        # a pinch vertex starts two boundary edges
        edges = flanks(t)
        starts = [
            u for a, b, c in t.triangles.values()
            for u, v in ((a, b), (b, c), (c, a))
            if len(edges[min(u, v), max(u, v)]) == 1
        ]
        assert len(starts) == len(set(starts)) + 1
        assert t.check() == []

    def test_wrong_neighbour_slot_is_reported(self):
        t = Triangulation.build(walk_pslg())
        first, other = sorted(t.triangles)[:2]
        i = next(i for i in range(3) if t._nbr[3 * first + i] != other)
        want = t._nbr[3 * first + i]
        t._nbr[3 * first + i] = other
        assert t.check() == [
            f"neighbour {i} of triangle {first} is {other}, not {want}"
        ]

    def test_repeated_directed_edge_is_reported(self):
        t = Triangulation.build(walk_pslg())
        first = next(iter(t.triangles))
        a, b, c = t.triangles[first]
        copy = t._add_tri(a, b, c)
        problems = t.check()
        for e in ((a, b), (b, c), (c, a)):
            assert (f"edge {e} runs the same way in triangles {first} and "
                    f"{copy}") in problems

    def test_subsegment_with_no_edge_is_reported(self):
        t = Triangulation.build(walk_pslg())
        edges = flanks(t)
        key = next((u, w) for u in range(7) for w in range(u + 1, 7)
                   if (u, w) not in edges)
        t.subsegments[key] = Subseg(0, 1.0)
        assert f"constraint edge {key} missing from triangulation" in t.check()

    def test_vertex_with_no_triangle_breaks_the_euler_relation(self):
        t = Triangulation.build(square_pslg())
        t._add_vertex(5.0, 5.0, CIRCUMCENTER)
        assert t.check() == [
            "Euler relation violated: V=5 E=5 T=2 pieces=1 loops=1 pinches=0"
        ]

    def test_triangle_ids_out_of_order_are_reported(self):
        # the mesh writers rely on the triangles iterating in id order
        t = Triangulation.build(walk_pslg())
        first = next(iter(t.triangles))
        t.triangles[first] = t.triangles.pop(first)
        assert t.check() == ["triangle ids are not in increasing order"]

    # the local audit tests only the edges between neighbours; by the
    # constrained Delaunay lemma it must agree with the brute-force
    # definition, which tests every vertex against every circumcircle
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_local_audit_matches_oracle(self, data):
        make = data.draw(st.sampled_from(
            [holed_pslg, islanded_pslg, lambda: pinwheel(4), lambda: pinwheel(5)]))
        engine = data.draw(st.sampled_from([chew2, ruppert]))
        alpha = data.draw(st.sampled_from([20.0, 25.0, 31.0]))
        t = engine(make(), RefinementConfig(alpha_deg=alpha, max_insertions=25)
                   ).triangulation
        if data.draw(st.booleans()):
            flip(t, data.draw(st.sampled_from(convex_diagonals(t))))
        local = t.check()
        assert [m for m in local if "circumcircle" not in m] == []
        assert bool(local) == bool(oracle_audit(t))

    # moving one free vertex of a refined mesh can turn a triangle
    # clockwise or leave an edge not locally Delaunay: check() reports
    # each exactly when the brute-force definitions find it
    def test_moved_vertex_is_reported(self):
        seen = set()

        @settings(derandomize=True, database=None, max_examples=30, deadline=None)
        @given(data=st.data())
        def prop(data):
            n = data.draw(st.sampled_from([4, 5]))
            engine = data.draw(st.sampled_from([chew2, ruppert]))
            t = engine(pinwheel(n), RefinementConfig(alpha_deg=25.0)).triangulation
            free = [v for v, ok in enumerate(t.alive)
                    if ok and t.tags[v] == CIRCUMCENTER]
            v = data.draw(st.sampled_from(free))
            p = t.points[v]
            # by up to one and a half times its shortest edge on each axis
            reach = min(math.dist(p, t.points[w])
                        for tri in t.triangles.values() if v in tri
                        for w in tri if w != v)
            step = st.floats(-1.5, 1.5)
            t.points[v] = Point(p.x + data.draw(step) * reach,
                                p.y + data.draw(step) * reach)
            clockwise = any(orient_oracle(*(t.points[w] for w in tri)) <= 0
                            for tri in t.triangles.values())
            problems = t.check()
            assert any("is not CCW" in m for m in problems) == clockwise
            if not clockwise:
                violated = bool(oracle_audit(t))
                assert any("circumcircle" in m for m in problems) == violated
                seen.add("violated" if violated else "kept")
            else:
                seen.add("clockwise")

        prop()
        assert seen == {"clockwise", "violated", "kept"}

    def test_angle_store_is_audited(self):
        t = Triangulation.build(pinwheel(4))
        for tid in t.triangles:
            t.min_angle(tid)
        gone = next(iter(t.triangles))
        angle = t.min_angle(gone)
        pa, pb, pc = t.triangle_points(gone)
        g = Point((pa.x + pb.x + pc.x) / 3, (pa.y + pb.y + pc.y) / 3)
        res = t.insert_vertex(g, CIRCUMCENTER, gone)
        assert gone in res.removed and math.isnan(t._angles[gone])
        assert t.check() == []
        t._angles[gone] = angle  # stale: its triangle is gone
        kept = res.created[0]
        t._angles[kept] = math.nextafter(t.min_angle(kept), 90.0)  # wrong
        assert t.check() == [
            f"stored min angle of removed triangle {gone}",
            f"stored min angle of triangle {kept} is wrong",
        ]
