import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from refinelab.generators import pav
from refinelab.geom import (
    CircleSide,
    DegenerateTriangleError,
    Orientation,
    Point,
    _proper_min_angle_deg,
    circumcenter,
    encroaches,
    incircle,
    incircle_sign,
    min_angle_deg,
    orient2d,
)
from refinelab.refine import DIVERGENCE_FLOOR_HIT, RefinementConfig, ruppert

from oracles import (
    in_diametral_disk_oracle,
    incircle_oracle,
    min_angle_deg_oracle,
    orient_oracle,
)


class TestOrient2d:
    def test_unit_right_triangle_ccw(self):
        assert orient2d(Point(0, 0), Point(1, 0), Point(0, 1)) is Orientation.CCW

    def test_collinear(self):
        assert orient2d(Point(0, 0), Point(1, 0), Point(2, 0)) is Orientation.COLLINEAR

    def test_cw(self):
        assert orient2d(Point(0, 0), Point(0, 1), Point(1, 0)) is Orientation.CW

    def test_tiny_height_still_ccw(self):
        # height 1e-300 is far below any epsilon-based comparison
        assert orient2d(Point(0, 0), Point(1, 0), Point(0.5, 1e-300)) is Orientation.CCW

    def test_underflowing_products_still_exact(self):
        # both products round to 0.0, so the float filter alone says collinear
        assert orient2d(Point(0, 0), Point(1e-200, 0), Point(0, 1e-200)) is Orientation.CCW

    def test_agrees_with_rational_oracle_random(self):
        rng = random.Random(1234)
        for _ in range(100_000):
            pts = [
                (rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)
            ]
            assert int(orient2d(*map(Point._make, pts))) == orient_oracle(*pts)

    def test_agrees_with_rational_oracle_adversarial(self):
        # near-degenerate: points almost on a line, perturbed by ulps
        rng = random.Random(99)
        for _ in range(1000):
            x0 = rng.uniform(-1, 1)
            x1 = rng.uniform(-1, 1)
            t = rng.uniform(0, 1)
            a = (x0, x0)
            b = (x1, x1)
            mid = (x0 + t * (x1 - x0), x0 + t * (x1 - x0))
            nudged = (mid[0], math.nextafter(mid[1], rng.choice([-1e9, 1e9, mid[1]])))
            for _ in range(rng.randint(0, 3)):
                nudged = (nudged[0], math.nextafter(nudged[1], rng.choice([-1e9, 1e9])))
            assert int(orient2d(Point(*a), Point(*b), Point(*nudged))) == orient_oracle(
                a, b, nudged
            )


class TestIncircle:
    def test_center_inside(self):
        a, b, c = Point(0, 0), Point(1, 0), Point(0, 1)
        center = circumcenter(a, b, c)
        assert incircle(a, b, c, center) is CircleSide.INSIDE

    def test_cocircular_on(self):
        # circle x^2 + y^2 = 2x + 2y passes through all four points
        a, b, c = Point(0, 0), Point(2, 0), Point(0, 2)
        assert incircle(a, b, c, Point(2, 2)) is CircleSide.ON

    def test_far_point_outside(self):
        a, b, c = Point(0, 0), Point(1, 0), Point(0, 1)
        assert incircle(a, b, c, Point(50, 50)) is CircleSide.OUTSIDE

    def test_orientation_normalized(self):
        a, b, c = Point(0, 0), Point(0, 1), Point(1, 0)  # CW
        center = circumcenter(a, b, c)
        assert incircle(a, b, c, center) is CircleSide.INSIDE

    def test_underflowing_products_still_exact(self):
        a, b, c = Point(0, 0), Point(1e-100, 0), Point(0, 1e-100)
        assert incircle(a, b, c, Point(5e-101, 5e-101)) is CircleSide.INSIDE

    def test_underflowing_cross_product_times_large_lift(self):
        # a sits 4e41 from d, and its lift magnifies the cross products of b
        # and c, which underflow to 0.0; the permanent (about 2e-254) is far
        # above 2**-900, so an unscaled floor would still trust the filter
        pts = [(3.5762786865234375e-07, -3.910784156252166e41),
               (-7.62939453125e-05, -1.1079574341342883e-126),
               (9.850888323116103e-288, 0.0), (0.0, 1.58e-321)]
        got = incircle_sign(*(x for p in pts for x in p))
        assert got == incircle_oracle(*pts[:3], pts[3]) * orient_oracle(*pts[:3]) == 1

    def test_collinear_raises(self):
        with pytest.raises(DegenerateTriangleError):
            incircle(Point(0, 0), Point(1, 0), Point(2, 0), Point(0, 1))

    def test_agrees_with_rational_oracle_random(self):
        rng = random.Random(4321)
        checked = 0
        while checked < 10_000:
            pts = [
                (rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(4)
            ]
            if orient_oracle(*pts[:3]) == 0:
                continue
            got = incircle(*map(Point._make, pts))
            assert int(got) == incircle_oracle(*pts)
            checked += 1

    def test_agrees_with_rational_oracle_near_cocircular(self):
        rng = random.Random(7)
        for _ in range(1000):
            ang = [rng.uniform(0, 2 * math.pi) for _ in range(4)]
            r = rng.uniform(0.5, 2.0)
            pts = [(r * math.cos(t) + 1.0, r * math.sin(t) - 2.0) for t in ang]
            if orient_oracle(*pts[:3]) == 0:
                continue
            p = pts[3]
            for _ in range(rng.randint(0, 2)):
                p = (math.nextafter(p[0], rng.choice([-1e9, 1e9])), p[1])
            got = incircle(*map(Point._make, pts[:3]), Point(*p))
            assert int(got) == incircle_oracle(pts[0], pts[1], pts[2], p)


class TestCircumcenter:
    def test_right_triangle_hypotenuse_midpoint(self):
        # legs 2 and 2**0.25: center must be the hypotenuse midpoint
        c = circumcenter(Point(0, 0), Point(2, 0), Point(0, 2**0.25))
        assert c.x == pytest.approx(1.0, abs=1e-14)
        assert c.y == pytest.approx(2 ** -0.75, abs=1e-14)

    def test_equilateral_centroid(self):
        a = Point(0, 0)
        b = Point(1, 0)
        c = Point(0.5, math.sqrt(3) / 2)
        cc = circumcenter(a, b, c)
        assert cc.x == pytest.approx(0.5, abs=1e-14)
        assert cc.y == pytest.approx(math.sqrt(3) / 6, abs=1e-12)

    def test_equidistance_random(self):
        rng = random.Random(5)
        for _ in range(500):
            a = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
            b = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
            c = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if orient2d(a, b, c) is Orientation.COLLINEAR:
                continue
            cc = circumcenter(a, b, c)
            r = math.dist(cc, a)
            assert math.dist(cc, b) == pytest.approx(r, rel=1e-12)
            assert math.dist(cc, c) == pytest.approx(r, rel=1e-12)

    def test_permutation_invariant(self):
        import itertools

        a = Point(0.31, -1.7)
        b = Point(2.45, 0.9)
        c = Point(-1.2, 1.3)
        ref = circumcenter(a, b, c)
        for p, q, r in itertools.permutations((a, b, c)):
            got = circumcenter(p, q, r)
            assert got.x == pytest.approx(ref.x, rel=1e-12, abs=1e-12)
            assert got.y == pytest.approx(ref.y, rel=1e-12, abs=1e-12)

    def test_boundary_configuration_distance(self):
        # sides 1 and sqrt(2) meeting at 105 degrees: the circumcenter sits
        # exactly on the diametral circle of the longer side
        apex = Point(0.0, 0.0)
        b = Point(math.sqrt(2), 0.0)
        a = Point(math.cos(math.radians(105)), math.sin(math.radians(105)))
        cc = circumcenter(apex, a, b)
        mid = Point(b.x / 2, 0.0)
        assert math.dist(cc, mid) == pytest.approx(math.sqrt(2) / 2, abs=1e-9)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateTriangleError):
            circumcenter(Point(0, 0), Point(1, 1), Point(2, 2))

    @pytest.mark.parametrize(
        "a, b, c",
        [
            # far from bc, whose ends differ from a only below a's ulp: the
            # float determinant cancels to 0.0
            (Point(-1e20, -1e20), Point(0, -1), Point(-1, 0)),
            # the centre's coordinates overflow
            (Point(0, 0), Point(1e300, 0), Point(0, 1e300)),
        ],
        ids=["zero-determinant", "overflow"],
    )
    def test_unrepresentable_centre_raises(self, a, b, c):
        assert orient2d(a, b, c) is Orientation.CCW
        with pytest.raises(DegenerateTriangleError):
            circumcenter(a, b, c)


class TestMinAngle:
    def test_right_triangle_arctan(self):
        got = min_angle_deg(Point(0, 0), Point(2, 0), Point(0, 2**0.25))
        assert got == pytest.approx(math.degrees(math.atan(2 ** -0.75)), abs=1e-12)

    def test_equilateral_60(self):
        got = min_angle_deg(
            Point(0, 0), Point(1, 0), Point(0.5, math.sqrt(3) / 2)
        )
        assert got == pytest.approx(60.0, abs=1e-12)

    def test_boundary_triangle_is_30(self):
        apex = Point(0.0, 0.0)
        b = Point(math.sqrt(2), 0.0)
        a = Point(math.cos(math.radians(105)), math.sin(math.radians(105)))
        assert min_angle_deg(apex, a, b) == pytest.approx(30.0, abs=1e-12)

    def test_rigid_motion_and_pow2_scale_invariance(self):
        rng = random.Random(17)
        for _ in range(200):
            pts = [
                Point(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)
            ]
            if orient2d(*pts) is Orientation.COLLINEAR:
                continue
            base = min_angle_deg(*pts)
            rot = [Point(-p.y, p.x) for p in pts]  # exact 90 degree rotation
            assert min_angle_deg(*rot) == base
            scaled = [Point(p.x * 8.0, p.y * 8.0) for p in pts]
            assert min_angle_deg(*scaled) == base

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateTriangleError):
            min_angle_deg(Point(0, 0), Point(1, 0), Point(2, 0))

    def test_overflowing_angles_raise(self):
        # the dot product at the origin is inf - inf, a NaN angle
        a, b, c = Point(0, 0), Point(1e300, 1e300), Point(-1e300, 1e300)
        assert orient2d(a, b, c) is Orientation.CCW
        for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
            with pytest.raises(DegenerateTriangleError):
                min_angle_deg(p, q, r)


def _angle_or_error(f, a, b, c):
    """f's answer as its exact bits, or the error it raised."""
    try:
        return f(a, b, c).hex()
    except DegenerateTriangleError:
        return "DegenerateTriangleError"


# coordinates of every magnitude from 1e-300 to 1e300 in one triangle, so
# that products underflow to signed zeros or overflow to infinities
_wide = st.one_of(
    st.builds(lambda m, e: m * 10.0 ** e,
              st.floats(-1.0, 1.0), st.integers(-300, 300)),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
)
# small grid triangles, scaled by the exact factor 2**-520 below
_grid = st.integers(-4, 4).map(float)


class TestMinAngleBits:
    """``min_angle_deg`` computes its three vertex angles inline; it must
    give the bits of the three separate vertex-angle calls it replaced
    (``oracles.min_angle_deg_oracle``), and raise where they raised.  So
    must its core ``_proper_min_angle_deg``, which the mesh calls without
    the degeneracy test, on every triangle that is not collinear."""

    @staticmethod
    def assert_bits(a, b, c):
        want = _angle_or_error(min_angle_deg_oracle, a, b, c)
        assert _angle_or_error(min_angle_deg, a, b, c) == want
        if orient_oracle(a, b, c):
            assert _angle_or_error(_proper_min_angle_deg, a, b, c) == want

    @settings(derandomize=True, database=None, max_examples=1000, deadline=None)
    @given(st.lists(_wide, min_size=6, max_size=6))
    @example([0.0, 0.0, 1e300, 1e300, -1e300, 1e300])  # dot products overflow
    def test_mixed_magnitudes(self, xs):
        a, b, c = Point(*xs[0:2]), Point(*xs[2:4]), Point(*xs[4:6])
        for p, q, r in ((a, b, c), (b, c, a), (a, c, b)):
            self.assert_bits(p, q, r)

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(st.lists(_grid, min_size=6, max_size=6),
           st.sampled_from([1.0, 2.0 ** -520, 2.0 ** 500]))
    def test_scaled_grid_triangles(self, xs, scale):
        a, b, c = (Point(xs[i] * scale, xs[i + 1] * scale) for i in (0, 2, 4))
        self.assert_bits(a, b, c)

    def test_every_triangle_of_the_pav_floor_mesh(self):
        out = ruppert(pav(1e-3), RefinementConfig(31.0, max_insertions=40000))
        assert out.status == DIVERGENCE_FLOOR_HIT
        tri = out.triangulation
        assert len(tri.triangles) > 30000
        for tid in tri.triangles:
            pts = tri.triangle_points(tid)
            want = min_angle_deg_oracle(*pts)
            assert min_angle_deg(*pts).hex() == want.hex()
            assert tri.min_angle(tid).hex() == want.hex()


class TestEncroaches:
    def test_point_near_midpoint(self):
        a, b = Point(0, 0), Point(2, 0)
        p = Point(1.0, 0.5)  # half the radius above the midpoint
        assert encroaches(p, a, b, closed=False)
        assert encroaches(p, a, b, closed=True)

    def test_boundary_point_open_vs_closed(self):
        apex = Point(0.0, 0.0)
        b = Point(math.sqrt(2), 0.0)
        a = Point(math.cos(math.radians(105)), math.sin(math.radians(105)))
        cc = circumcenter(apex, a, b)
        assert not encroaches(cc, apex, b, closed=False)
        assert encroaches(cc, apex, b, closed=True)

    def test_fan_triangle_circumcenter_encroaches_long_segment(self):
        # circumcenter of the right triangle with legs 2 and 2**0.25 lies
        # at distance 2**-0.75 < 1 from the long segment's midpoint
        c = Point(1.0, 2 ** -0.75)
        assert encroaches(c, Point(0, 0), Point(2, 0), closed=False)
        assert math.dist(c, Point(1, 0)) == pytest.approx(2 ** -0.75, abs=1e-15)

    def test_open_implies_closed_random(self):
        rng = random.Random(31)
        for _ in range(2000):
            a = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if a == b:
                continue
            p = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if p == a or p == b:
                continue
            if encroaches(p, a, b, closed=False):
                assert encroaches(p, a, b, closed=True)

    def test_agrees_with_rational_oracle_off_band(self):
        rng = random.Random(77)
        for _ in range(5000):
            a = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            b = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            if a == b:
                continue
            p = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            if p == a or p == b:
                continue
            want = in_diametral_disk_oracle(p, a, b)
            if want > 0:
                assert encroaches(Point(*p), Point(*a), Point(*b), closed=False)
            elif want < 0:
                assert not encroaches(Point(*p), Point(*a), Point(*b), closed=True)

    def test_endpoint_raises(self):
        with pytest.raises(ValueError):
            encroaches(Point(0, 0), Point(0, 0), Point(1, 0))
