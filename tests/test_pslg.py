import math

import pytest
from hypothesis import given, settings, strategies as st

import refinelab.pslg
from refinelab.geom import Point
from refinelab.pslg import (
    PolyParseError,
    Pslg,
    Segment,
    min_input_angle_deg,
    parse_poly,
    validate,
    write_poly,
)

from oracles import validate_oracle


def square(side=1.0):
    return Pslg(
        vertices=(
            Point(0, 0),
            Point(side, 0),
            Point(side, side),
            Point(0, side),
        ),
        segments=(
            Segment(0, 1, 0),
            Segment(1, 2, 1),
            Segment(2, 3, 2),
            Segment(3, 0, 3),
        ),
    )


class TestValidate:
    def test_square_is_valid(self):
        assert validate(square()) == []

    def test_crossing_segments(self):
        p = Pslg(
            vertices=(Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0)),
            segments=(Segment(0, 1), Segment(2, 3)),
        )
        kinds = [v.kind for v in validate(p)]
        assert kinds == ["improper_intersection"]

    def test_duplicate_vertex(self):
        p = Pslg(
            vertices=(Point(0, 0), Point(1, 0), Point(0, 0)),
            segments=(Segment(0, 1),),
        )
        kinds = [v.kind for v in validate(p)]
        assert "duplicate_vertex" in kinds

    def test_zero_length_segment(self):
        p = Pslg(vertices=(Point(0, 0), Point(1, 0)), segments=(Segment(0, 0),))
        assert [v.kind for v in validate(p)] == ["zero_length"]

    def test_index_out_of_range(self):
        p = Pslg(vertices=(Point(0, 0), Point(1, 0)), segments=(Segment(0, 5),))
        assert [v.kind for v in validate(p)] == ["bad_index"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_hole_is_reported(self, bad):
        p = Pslg(
            vertices=square(4.0).vertices,
            segments=square().segments,
            holes=(Point(1.0, 1.0), Point(bad, 1.0)),
        )
        assert [(v.kind, v.where) for v in validate(p)] == [
            ("nonfinite_hole", (1,))
        ]

    def test_touching_at_interior_point(self):
        # T junction: vertex 2 sits in the interior of segment (0, 1)
        p = Pslg(
            vertices=(Point(0, 0), Point(2, 0), Point(1, 0), Point(1, 1)),
            segments=(Segment(0, 1), Segment(2, 3)),
        )
        kinds = {v.kind for v in validate(p)}
        assert "vertex_on_segment" in kinds

    def test_collinear_overlap_sharing_endpoint(self):
        p = Pslg(
            vertices=(Point(0, 0), Point(2, 0), Point(1, 0)),
            segments=(Segment(0, 1), Segment(0, 2)),
        )
        kinds = {v.kind for v in validate(p)}
        assert "improper_intersection" in kinds or "vertex_on_segment" in kinds

    @pytest.mark.parametrize(
        "points, segments, expected",
        [
            # overlapping collinear segments, each holding an end of the other
            (
                ((0, 0), (2, 0), (1, 0), (3, 0)), ((0, 1), (2, 3)),
                [("improper_intersection", (0, 1)),
                 ("vertex_on_segment", (2, 0)),
                 ("vertex_on_segment", (1, 1))],
            ),
            # the same overlap with the second segment reversed
            (
                ((0, 0), (2, 0), (3, 0), (1, 0)), ((0, 1), (2, 3)),
                [("improper_intersection", (0, 1)),
                 ("vertex_on_segment", (3, 0)),
                 ("vertex_on_segment", (1, 1))],
            ),
            # segment 0 lies inside segment 1
            (
                ((1, 0), (2, 0), (0, 0), (3, 0)), ((0, 1), (2, 3)),
                [("improper_intersection", (0, 1)),
                 ("vertex_on_segment", (0, 1)),
                 ("vertex_on_segment", (1, 1))],
            ),
            # collinear but disjoint
            (((0, 0), (1, 0), (2, 0), (3, 0)), ((0, 1), (2, 3)), []),
            # one segment given twice, once reversed
            (
                ((0, 0), (1, 0), (0, 1)), ((0, 1), (1, 0), (1, 2)),
                [("duplicate_segment", (0, 1))],
            ),
            # segment 0 is crossed by segment 1 and holds the free vertex 4
            (
                ((0, 0), (4, 0), (2, -1), (2, 1), (1, 0)), ((0, 1), (2, 3)),
                [("improper_intersection", (0, 1)),
                 ("vertex_on_segment", (4, 0))],
            ),
            # sorted by x the segments run 2, 1, 0, and the vertices on
            # segment 1 run 7, 6: the report keeps input and id order
            (
                ((5, -1), (5, 1), (3, 0), (6, 0), (2, -1), (4, 1), (5.5, 0), (4, 0)),
                ((0, 1), (2, 3), (4, 5)),
                [("improper_intersection", (0, 1)),
                 ("improper_intersection", (1, 2)),
                 ("vertex_on_segment", (6, 1)),
                 ("vertex_on_segment", (7, 1)),
                 ("vertex_on_segment", (2, 2))],
            ),
        ],
        ids=["overlap", "overlap-reversed", "nested", "disjoint", "repeated",
             "crossed-and-touched", "right-to-left"],
    )
    def test_segment_pairs_report_in_order(self, points, segments, expected):
        p = Pslg(
            vertices=tuple(Point(x, y) for x, y in points),
            segments=tuple(Segment(a, b) for a, b in segments),
        )
        assert [(v.kind, v.where) for v in validate(p)] == expected

    @pytest.mark.parametrize(
        "bad, segments",
        [
            (Point(math.nan, 1.0), square().segments),
            (Point(math.inf, 1.0), square().segments),
            (Point(2.0, -math.inf), square().segments + (Segment(4, 0),)),
        ],
        ids=["nan-free-vertex", "inf-free-vertex", "inf-segment-endpoint"],
    )
    def test_nonfinite_vertex_is_reported_alone(self, bad, segments):
        p = Pslg(vertices=square(4.0).vertices + (bad,), segments=segments)
        assert [(v.kind, v.where) for v in validate(p)] == [
            ("nonfinite_vertex", (4,))
        ]


# a small snapped grid makes shared endpoints, collinear overlaps, vertices
# on segments, duplicates and zero-length segments common
_COORD = st.sampled_from([x / 2 for x in range(-2, 5)] * 8 + [math.nan, math.inf, -math.inf])


@st.composite
def _grid_pslgs(draw):
    verts = draw(st.lists(st.builds(Point, _COORD, _COORD), max_size=8))
    index = st.sampled_from(list(range(len(verts))) * 4 + [-1, len(verts)])
    segs = draw(st.lists(st.builds(Segment, index, index), max_size=10))
    holes = draw(st.lists(st.builds(Point, _COORD, _COORD), max_size=2))
    return Pslg(tuple(verts), tuple(segs), tuple(holes))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_grid_pslgs())
def test_validate_matches_all_pairs_oracle(p):
    assert [(v.kind, v.where) for v in validate(p)] == validate_oracle(p)


def _lattice(k):
    # k x k disjoint short segments on a unit grid; each box touches its
    # right neighbour's, so every segment still meets a few candidates
    verts, segs = [], []
    for i in range(k):
        for j in range(k):
            verts += [Point(i, j), Point(i + 1, j + 0.5)]
            segs.append(Segment(len(verts) - 2, len(verts) - 1))
    return Pslg(tuple(verts), tuple(segs))


class TestValidateScaling:
    @staticmethod
    def _calls_per_segment(monkeypatch, p):
        calls = [0]

        def counted(fn):
            def wrapper(*args):
                calls[0] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(refinelab.pslg, "orient_sign", counted(refinelab.pslg.orient_sign))
        monkeypatch.setattr(
            refinelab.pslg, "_segments_conflict", counted(refinelab.pslg._segments_conflict)
        )
        assert validate(p) == []
        monkeypatch.undo()
        return calls[0] / len(p.segments)

    def test_predicate_calls_grow_linearly_on_a_lattice(self, monkeypatch):
        small, mid, large = (
            self._calls_per_segment(monkeypatch, _lattice(k)) for k in (10, 20, 40)
        )
        assert 0 < small <= mid <= large <= 2 * small

    def test_overlapping_x_extents_still_exact(self):
        # 30 stacked full-width segments, all in one x-extent, crossed by a
        # vertical one and touched by a free vertex
        verts = [Point(x, j) for j in range(30) for x in (0.0, 10.0)]
        verts += [Point(5.0, -1.0), Point(5.0, 40.0), Point(2.5, 7.0)]
        segs = [Segment(2 * j, 2 * j + 1) for j in range(30)] + [Segment(60, 61)]
        p = Pslg(tuple(verts), tuple(segs))
        got = [(v.kind, v.where) for v in validate(p)]
        assert got == validate_oracle(p)
        assert got == [("improper_intersection", (j, 30)) for j in range(8)] + [
            ("vertex_on_segment", (62, 7))
        ] + [("improper_intersection", (j, 30)) for j in range(8, 30)]


class TestMinInputAngle:
    def test_square_90(self):
        assert min_input_angle_deg(square()) == pytest.approx(90.0, abs=1e-12)

    def test_two_segment_fan(self):
        psi = math.radians(105.0)
        p = Pslg(
            vertices=(
                Point(0, 0),
                Point(math.sqrt(2), 0),
                Point(math.cos(psi), math.sin(psi)),
            ),
            segments=(Segment(0, 1), Segment(0, 2)),
        )
        assert min_input_angle_deg(p) == pytest.approx(105.0, abs=1e-9)

    def test_exact_transform_invariance(self):
        p = square(2.0)
        rot = Pslg(
            vertices=tuple(Point(-v.y, v.x) for v in p.vertices),
            segments=p.segments,
        )
        scaled = Pslg(
            vertices=tuple(Point(4 * v.x, 4 * v.y) for v in p.vertices),
            segments=p.segments,
        )
        base = min_input_angle_deg(p)
        assert min_input_angle_deg(rot) == base
        assert min_input_angle_deg(scaled) == base

    def test_no_adjacent_pair_raises(self):
        p = Pslg(
            vertices=(Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)),
            segments=(Segment(0, 1), Segment(2, 3)),
        )
        with pytest.raises(ValueError):
            min_input_angle_deg(p)


class TestPolyFormat:
    def test_minimal_file(self):
        text = "2 2 0 0\n0 0.0 0.0\n1 1.0 0.0\n1 0\n0 0 1\n0\n"
        p = parse_poly(text)
        assert len(p.vertices) == 2
        assert len(p.segments) == 1
        assert p.segments[0].a == 0 and p.segments[0].b == 1

    def test_one_based_indices(self):
        text = "2 2 0 0\n1 0.0 0.0\n2 1.0 2.5\n1 0\n1 1 2\n0\n"
        p = parse_poly(text)
        assert p.segments[0] == Segment(0, 1, 0)
        assert p.vertices[1] == Point(1.0, 2.5)

    def test_round_trip_identity(self):
        p = square(2**0.25)
        text = write_poly(p)
        q = parse_poly(text)
        assert q.vertices == p.vertices
        assert [(s.a, s.b) for s in q.segments] == [(s.a, s.b) for s in p.segments]

    def test_write_is_idempotent_normal_form(self):
        p = square(math.pi)
        once = write_poly(p)
        assert write_poly(parse_poly(once)) == once

    def test_seventeen_digit_round_trip(self):
        v = Point(0.1 + 0.2, 2**-0.75)
        p = Pslg(vertices=(v, Point(1, 1)), segments=(Segment(0, 1),))
        q = parse_poly(write_poly(p))
        assert q.vertices[0] == v

    def test_holes_round_trip(self):
        p = Pslg(
            vertices=square().vertices,
            segments=square().segments,
            holes=(Point(0.5, 0.5),),
        )
        q = parse_poly(write_poly(p))
        assert q.holes == p.holes

    def test_bad_index_names_line(self):
        text = "2 2 0 0\n0 0.0 0.0\n1 1.0 0.0\n1 0\n0 0 7\n0\n"
        with pytest.raises(PolyParseError) as err:
            parse_poly(text)
        assert err.value.line_no == 5

    def test_truncated_file(self):
        text = "3 2 0 0\n0 0.0 0.0\n1 1.0 0.0\n"
        with pytest.raises(PolyParseError):
            parse_poly(text)

    def test_malformed_header(self):
        with pytest.raises(PolyParseError):
            parse_poly("not a header\n")

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("1 2 0 0\n0 x 0\n", 2, "bad x coordinate: 'x'"),
            ("3\n", 1, "vertex header needs at least a count and dimension"),
            ("3 3 0 0\n", 1, "only 2-d files supported, got dimension 3"),
            ("1 2 0 0\n0 1\n", 2, "vertex line needs an index and two coordinates"),
            ("2 2 0 0\n0 0 0\n0 1 0\n", 3, "vertex index 0 repeated"),
            ("2 2 0 0\n0 0 0\n1 1 0\n1 0\n0 1\n", 5,
             "segment line needs an index and two endpoints"),
            ("2 2 0 0\n0 0 0\n1 1 0\n1 0\n0 0 1\n1\n0 0.5\n", 7,
             "hole line needs an index and two coordinates"),
            ("-1 2 0 0\n0 0\n0\n", 1, "negative vertex count: -1"),
            ("1 2 0 0\n0 0 0\n-2 0\n0\n", 3, "negative segment count: -2"),
            ("1 2 0 0\n0 0 0\n0 0\n-1\n", 4, "negative hole count: -1"),
            ("1 2 0 0\n0 0 0\n0 0\n0\n-3\n", 5, "negative region count: -3"),
        ],
        ids=[
            "bad-float", "short-header", "dimension", "short-vertex-line",
            "repeated-index", "short-segment-line", "short-hole-line",
            "negative-vertices", "negative-segments", "negative-holes",
            "negative-regions",
        ],
    )
    def test_error_names_line_and_cause(self, text, line_no, message):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text)
        assert err.value.line_no == line_no
        assert str(err.value) == f"line {line_no}: {message}"

    def test_region_section_is_read_and_ignored(self):
        text = "2 2 0 0\n0 0 0\n1 1 0\n1 0\n0 0 1\n0\n"
        with_regions = text + "2\n0 0.5 0.5 1 0\n1 0.25 0.25 2 0\n"
        assert parse_poly(with_regions) == parse_poly(text)

    def test_comments_ignored(self):
        text = "# a comment\n2 2 0 0\n0 0 0\n1 1 0  # trailing\n1 0\n0 0 1\n0\n"
        p = parse_poly(text)
        assert len(p.vertices) == 2
