import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import enclose_oracle
from refinelab import generators
from refinelab.geom import Point, circumcenter, encroaches, min_angle_deg
from refinelab.generators import (
    EXAMPLE2,
    PAV,
    PINWHEEL,
    ExampleConfig,
    build_example,
    enclose,
    example2,
    example2_optimized,
    pav,
    pinwheel,
    predicted_skinny_angle_deg,
    residuals,
)
from refinelab.pslg import Pslg, Segment, min_input_angle_deg, validate

SQRT2 = math.sqrt(2.0)


class TestPav:
    def test_unperturbed_skinny_angle_exactly_30(self):
        p = pav(0.0)
        assert min_angle_deg(p.vertices[0], p.vertices[1], p.vertices[2]) == (
            pytest.approx(30.0, abs=1e-12)
        )

    def test_unperturbed_circumcenter_on_diametral_circle(self):
        p = pav(0.0)
        apex, b, a = p.vertices[0], p.vertices[1], p.vertices[2]
        cc = circumcenter(apex, a, b)
        mid = Point(b.x / 2, b.y / 2)
        assert math.dist(cc, mid) == pytest.approx(SQRT2 / 2, abs=1e-12)
        assert not encroaches(cc, apex, b, closed=False)
        assert encroaches(cc, apex, b, closed=True)

    def test_perturbed_circumcenter_strictly_inside(self):
        p = pav(1e-3)
        apex, b, a = p.vertices[0], p.vertices[1], p.vertices[2]
        cc = circumcenter(apex, a, b)
        assert encroaches(cc, apex, b, closed=False)

    def test_lengths(self):
        p = pav(1e-3)
        assert math.dist(p.vertices[0], p.vertices[1]) == pytest.approx(SQRT2, abs=0)
        assert math.dist(p.vertices[0], p.vertices[2]) == pytest.approx(1.0, rel=1e-15)

    def test_input_angle_above_60_any_delta(self):
        for delta in (0.0, 1e-6, 1e-3, 0.1):
            assert min_input_angle_deg(pav(delta)) > 60.0


class TestPinwheel:
    def test_four_arm_lengths_and_right_angles(self):
        p = pinwheel(4)
        v = p.vertices
        assert v[1] == Point(2.0, 0.0)
        assert v[2] == Point(0.0, 2 ** 0.75)
        assert v[3] == Point(-(2 ** 0.5), 0.0)
        assert v[4] == Point(0.0, -(2 ** 0.25))

    def test_four_arm_skinny_angle_is_arctan(self):
        p = pinwheel(4)
        got = min_angle_deg(p.vertices[0], p.vertices[1], p.vertices[4])
        assert got == pytest.approx(math.degrees(math.atan(2 ** -0.75)), abs=1e-9)

    def test_three_arm_angle_and_no_encroachment(self):
        p = pinwheel(3)
        apex, longest, shortest = p.vertices[0], p.vertices[1], p.vertices[3]
        got = min_angle_deg(apex, longest, shortest)
        # oracle: law of cosines/sines with apex angle 120, sides 2, 2^(1/3)
        w = math.radians(120.0)
        c = math.sqrt(4 + 2 ** (2 / 3) - 2 * 2 * 2 ** (1 / 3) * math.cos(w))
        want = math.degrees(math.asin(2 ** (1 / 3) * math.sin(w) / c))
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(22.5, abs=0.2)
        cc = circumcenter(apex, longest, shortest)
        assert not encroaches(cc, apex, longest, closed=True)

    def test_five_arm_angle(self):
        p = pinwheel(5)
        apex, longest, shortest = p.vertices[0], p.vertices[1], p.vertices[5]
        got = min_angle_deg(apex, longest, shortest)
        w = math.radians(72.0)
        c = math.sqrt(4 + 2 ** (2 / 5) - 2 * 2 * 2 ** (1 / 5) * math.cos(w))
        want = math.degrees(math.asin(2 ** (1 / 5) * math.sin(w) / c))
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(33.6, abs=0.1)

    def test_five_arm_circumcenter_encroaches_longest(self):
        p = pinwheel(5)
        apex, longest, shortest = p.vertices[0], p.vertices[1], p.vertices[5]
        cc = circumcenter(apex, longest, shortest)
        assert encroaches(cc, apex, longest, closed=False)

    def test_invalid_n(self):
        for n in (2, 6, 0, -1):
            with pytest.raises(ValueError):
                pinwheel(n)


class TestExample2:
    def test_designed_angles_at_75_1(self):
        p = example2(75.0, 1.0, 0.0)
        v = p.vertices
        a1 = min_angle_deg(v[0], v[1], v[2])
        mid_w = Point(v[2].x / 2, v[2].y / 2)
        a2 = min_angle_deg(v[0], mid_w, v[3])
        assert a1 == pytest.approx(29.0, abs=0.1)
        assert a2 == pytest.approx(30.0, abs=1e-9)
        # the unbalanced pair brackets the balanced optimum
        assert min(a1, a2) < 29.51 < max(a1, a2)

    def test_layout_satisfies_equations_at_optimum(self):
        # reconstruction oracle: compute the designed angles from the
        # generated coordinates and plug them into the printed system
        p = example2(74.51, 0.985, 0.0)
        v = p.vertices
        a1 = min_angle_deg(v[0], v[1], v[2])
        mid_w = Point(v[2].x / 2, v[2].y / 2)
        a2 = min_angle_deg(v[0], mid_w, v[3])
        r = residuals(
            math.radians(74.51), 0.985, math.radians(a1), math.radians(a2)
        )
        for val in r:
            assert abs(val) < 1e-3

    def test_segment_lengths(self):
        p = example2(75.0, 1.0, 0.0)
        v = p.vertices
        assert math.dist(v[0], v[1]) == pytest.approx(1.0, abs=0)
        assert math.dist(v[0], v[2]) == pytest.approx(2.0, rel=1e-15)
        assert math.dist(v[0], v[3]) == pytest.approx(SQRT2, rel=1e-15)
        assert math.dist(v[0], v[4]) == pytest.approx(SQRT2, rel=1e-15)

    def test_min_input_angle_is_theta(self):
        p = example2(75.0, 1.0, 0.0)
        assert min_input_angle_deg(p) == pytest.approx(75.0, abs=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            example2(55.0, 1.0, 0.0)   # input angle below 60
        with pytest.raises(ValueError):
            example2(121.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            example2(75.0, -1.0, 0.0)
        with pytest.raises(ValueError, match="encroachment chain"):
            example2(70.0, 1.3, 0.0)   # wide wedge can no longer reach
        with pytest.raises(ValueError, match="narrow-wedge"):
            example2(75.0, 0.3)        # nor can the narrow wedge

    def test_optimized_upper_segment_length(self):
        p = example2_optimized(0.0)
        two_a = math.dist(p.vertices[0], p.vertices[2])
        assert two_a == pytest.approx(1.97, abs=0.005)

    def test_optimized_min_input_angle(self):
        p = example2_optimized(0.0)
        assert min_input_angle_deg(p) == pytest.approx(74.5, abs=0.05)


class TestEnclose:
    def test_pinwheel_side_16(self):
        p = pinwheel(4, enclosure_scale=4.0)
        corners = p.vertices[-4:]
        side = math.dist(corners[0], corners[1])
        assert side == 16.0
        assert min_input_angle_deg(p) == pytest.approx(90.0, abs=1e-9)

    def test_all_generators_validate_at_scale_3(self):
        for p in (
            pav(0.0, 3.0),
            pav(1e-3, 3.0),
            pinwheel(3, 3.0),
            pinwheel(4, 3.0),
            pinwheel(5, 3.0),
            example2(75.0, 1.0, 1e-3, 3.0),
        ):
            assert validate(p) == []
            assert min_input_angle_deg(p) > 60.0

    def test_scale_below_3_rejected(self):
        with pytest.raises(ValueError):
            pinwheel(4, enclosure_scale=2.0)

    def test_touching_configuration_rejected(self):
        with pytest.raises(ValueError):
            enclose(Pslg((Point(0, 0), Point(0, 0.0)), ()), 4.0)

    def test_predicted_skinny_angles(self):
        assert predicted_skinny_angle_deg(pav(0.0), PAV) == pytest.approx(
            30.0, abs=1e-9
        )
        assert predicted_skinny_angle_deg(pinwheel(4), PINWHEEL, 4) == (
            pytest.approx(30.7359, abs=1e-3)
        )
        assert predicted_skinny_angle_deg(
            example2(75.0, 1.0, 0.0), EXAMPLE2
        ) == pytest.approx(30.0, abs=1e-9)


class TestExampleConfig:
    def test_dispatch(self):
        assert len(build_example(ExampleConfig(family=PAV)).vertices) == 7
        assert len(build_example(ExampleConfig(family=PINWHEEL, n=5)).vertices) == 10
        assert len(build_example(ExampleConfig(family=EXAMPLE2)).vertices) == 9
        # the builders' defaults are the config's: a default config builds
        # what each builder builds with no optional argument
        for family, builder in ((PAV, pav), (PINWHEEL, lambda: pinwheel(4)),
                                (EXAMPLE2, example2),
                                (generators.EXAMPLE2_OPT, example2_optimized)):
            assert build_example(ExampleConfig(family=family)) == builder(), family

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            ExampleConfig(family="NOPE")
        with pytest.raises(ValueError):
            ExampleConfig(family=PINWHEEL, n=7)
        with pytest.raises(ValueError):
            ExampleConfig(family=PAV, delta=-1.0)
        with pytest.raises(ValueError):
            ExampleConfig(family=PAV, enclosure_scale=1.0)


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ExampleConfig(family=PAV, delta=NAN), "delta"),
        (lambda: ExampleConfig(family=PAV, delta=INF), "delta"),
        (lambda: ExampleConfig(family=PAV, enclosure_scale=NAN), "scale"),
        (lambda: pav(NAN), "delta"),
        (lambda: pav(INF), "delta"),
        (lambda: pav(1e-3, NAN), "scale"),
        (lambda: pav(1e-3, INF), "scale"),
        (lambda: pinwheel(4, 1e308), "scale"),
        (lambda: example2(75.0, NAN, 0.0), "a must"),
        (lambda: example2(75.0, 1.0, NAN), "delta"),
        (lambda: example2(75.0, 1.0, INF), "delta"),
        (lambda: enclose(pinwheel(4), NAN), "scale"),
    ],
    ids=[
        "config-delta-nan", "config-delta-inf", "config-scale-nan",
        "pav-delta-nan", "pav-delta-inf", "pav-scale-nan", "pav-scale-inf",
        "pinwheel-scale-1e308", "example2-a-nan", "example2-delta-nan",
        "example2-delta-inf", "enclose-scale-nan",
    ],
)
def test_non_finite_parameter_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_largest_enclosure_side_is_finite():
    # scale * diam rounds up to a side of 2**1023, the largest power of
    # two a float holds
    p = pinwheel(4, 2.0 ** 1023 / 4.0)
    assert math.dist(p.vertices[-4], p.vertices[-3]) == 2.0 ** 1023


@pytest.mark.parametrize(
    "vertices, name",
    [
        ((Point(0.0, 0.0), Point(1.0, 0.0), Point(NAN, 0.5)), "vertex 2"),
        ((Point(0.0, NAN), Point(0.0, 0.0), Point(1.0, 0.0)), "vertex 0"),
        ((Point(0.0, 0.0), Point(INF, 1.0), Point(1.0, 0.0)), "vertex 1"),
    ],
    ids=["nan-last", "nan-first", "inf"],
)
def test_non_finite_vertex_rejected(vertices, name):
    with pytest.raises(ValueError, match=f"{name} at .* is not finite"):
        enclose(Pslg(vertices, ()), 3.0)


def _on_circle(n, r=1.0):
    return [
        (r * math.cos(2.0 * math.pi * k / n), r * math.sin(2.0 * math.pi * k / n))
        for k in range(n)
    ]


@st.composite
def _configurations(draw):
    """Point sets of the kinds that stress the pruned diameter: clouds,
    circles, dyadic grids from 2^-600 to 2^600, coordinates whose squares
    underflow or overflow, collinear sets, with duplicates, segments and
    holes."""
    kind = draw(st.sampled_from(
        ["cloud", "circle", "grid", "underflow", "overflow", "collinear"]
    ))
    n = draw(st.integers(1, 30))
    if kind == "cloud":
        lim = draw(st.sampled_from([1.0, 1e3, 1e-3]))
        c = st.floats(-lim, lim)
        pts = [(draw(c), draw(c)) for _ in range(n)]
    elif kind == "circle":
        r = draw(st.floats(1e-6, 1e6))
        pts = _on_circle(max(n, 3), r)
    elif kind == "grid":
        e = draw(st.integers(-600, 600))
        c = st.integers(-4, 4)
        pts = [(math.ldexp(draw(c), e), math.ldexp(draw(c), e)) for _ in range(n)]
    elif kind == "underflow":
        c = st.floats(-4e-160, 4e-160)
        pts = [(draw(c), draw(c)) for _ in range(n)]
    elif kind == "overflow":
        lim = draw(st.sampled_from([1e154, 1e300, 1.7e308]))
        c = st.floats(-lim, lim)
        pts = [(draw(c), draw(c)) for _ in range(n)]
    else:
        dx, dy = draw(
            st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (3.0, -1.0)])
        )
        ts = [draw(st.integers(-8, 8)) for _ in range(n)]
        pts = [(t * dx, t * dy) for t in ts]
    offset = draw(st.sampled_from([0.0, 0.5, -1e3]))
    pts = [(x + offset, y) for x, y in pts]
    pts += [draw(st.sampled_from(pts)) for _ in range(draw(st.integers(0, 3)))]
    pts = draw(st.permutations(pts))
    index = st.integers(0, len(pts) - 1)
    segs = tuple(
        Segment(draw(index), draw(index), k) for k in range(draw(st.integers(0, 3)))
    )
    holes = tuple(Point(0.25, 0.25) for _ in range(draw(st.integers(0, 1))))
    return Pslg(tuple(Point(x, y) for x, y in pts), segs, holes)


def _enclosed(enclose_fn, p, scale):
    try:
        q = enclose_fn(p, scale)
    except ValueError as e:
        return str(e)
    return q.vertices, q.segments, q.holes


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    _configurations(),
    st.sampled_from([3.0, 4.0]) | st.floats(3.0, 1e6) | st.floats(1e6, 1e300),
)
def test_enclose_matches_all_pairs_oracle(p, scale):
    assert _enclosed(enclose, p, scale) == _enclosed(enclose_oracle, p, scale)


class TestEncloseScaling:
    @staticmethod
    def _distances(monkeypatch, points):
        calls = [0]
        distance = generators._distance

        def counted(*args):
            calls[0] += 1
            return distance(*args)

        monkeypatch.setattr(generators, "_distance", counted)
        enclose(Pslg(tuple(Point(x, y) for x, y in points), ()), 3.0)
        monkeypatch.undo()
        return calls[0]

    def test_distances_per_point_do_not_grow_on_clouds(self, monkeypatch):
        per_point = []
        for n in (100, 1600):
            calls = 0
            for seed in range(5):
                rng = random.Random(f"enclose:{n}:{seed}")
                cloud = [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(n)]
                calls += self._distances(monkeypatch, cloud)
            per_point.append(calls / (5 * n))
        assert 0 < per_point[1] <= 2 * per_point[0]

    def test_points_on_a_circle_measure_every_pair(self, monkeypatch):
        # each reach is at least sqrt(5) radii, above the diameter
        assert self._distances(monkeypatch, _on_circle(64)) == 64 * 63 // 2


def test_overflowing_corners_rejected():
    # the centre (lox + hix) / 2 overflows although the diameter is 1
    p = Pslg((Point(1.7e308, 0.0), Point(1.7e308, 1.0)), ())
    with pytest.raises(ValueError, match="corners overflow"):
        enclose(p, 3.0)
