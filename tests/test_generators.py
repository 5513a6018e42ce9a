import math

import pytest

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
)
from refinelab.pslg import Pslg, min_input_angle_deg, validate
from refinelab.analysis import residuals

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
