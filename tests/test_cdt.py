import math
import random

import pytest

from refinelab.cdt import (
    CIRCUMCENTER,
    SEGMENT_MIDPOINT,
    DuplicateVertexError,
    InvalidPslgError,
    MissingSubsegmentError,
    OutsideDomainError,
    Triangulation,
    TriangulationError,
)
from refinelab.geom import Point
from refinelab.generators import pinwheel
from refinelab.pslg import Pslg, Segment

from oracles import constrained_delaunay_violations


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
            assert t.is_subsegment(*seg)
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
        assert t.is_subsegment(4, 5)
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
        (diag,) = [k for k, flank in t.edge_map.items() if len(flank) == 2]
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
            n_e = len(t.edge_map)
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
            assert t.is_subsegment(*seg)
        assert t.check() == []
