"""Planar geometric predicates and constructions with exact sign decisions.

The sign predicates (``orient2d``, ``incircle``) evaluate a cheap
floating-point expression first and fall back to exact rational
arithmetic whenever the result lands inside the filter's error bound,
so callers never see a sign that rounding flipped.
"""

from __future__ import annotations

import math
from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "Point",
    "Orientation",
    "CircleSide",
    "DegenerateTriangleError",
    "orient2d",
    "orient_sign",
    "incircle",
    "incircle_sign",
    "circumcenter",
    "min_angle_deg",
    "encroaches",
]


class Point(NamedTuple):
    x: float
    y: float


class Orientation(IntEnum):
    CW = -1
    COLLINEAR = 0
    CCW = 1


class CircleSide(IntEnum):
    OUTSIDE = -1
    ON = 0
    INSIDE = 1


class DegenerateTriangleError(ValueError):
    """A construction that needs a proper triangle got collinear points."""


_EPS = 1.1102230246251565e-16  # 2**-53
_CCW_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_INCIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS
# The bounds above cover rounding relative to the products they sum, but a
# product that underflows is off by up to 2**-1075 absolutely (half the
# smallest subnormal); when every product underflows, both sides of the
# filter test are 0.0.  In orient_sign two such errors enter det directly,
# so once detsum exceeds this floor they stay below 2**-173 of it, far inside
# the bounds' eps**2 slack (2**-106); at or below it the exact path decides,
# unless each product has a zero factor and so is exactly 0.0 (coincident or
# axis-aligned points, common in inputs).
# In incircle_sign an underflowed cross product or lift is also multiplied
# by a lift or a cross product, each at most alift + blift + clift (since
# |xy| <= (x*x + y*y) / 2), so there the floor is scaled by 1 + that sum.
_UNDERFLOW_FLOOR = 2.0 ** -900

# Relative dead band within which a point counts as lying exactly on a
# diametral circle.  Constructed query points (circumcenters, midpoints)
# carry rounding of order 1e-16 relative, so a raw sign there would be
# noise; anything within the band is classified ON.
_BOUNDARY_BAND = 1e-12


def orient_sign(ax: float, ay: float, bx: float, by: float,
                cx: float, cy: float) -> int:
    """Exact sign (+1/0/-1) of the doubled signed area of triangle abc."""
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if (
        detsum > _UNDERFLOW_FLOOR
        or ((ax == cx or by == cy) and (ay == cy or bx == cx))
    ) and abs(det) >= _CCW_BOUND * detsum:
        return (det > 0.0) - (det < 0.0)
    return _orient_exact(ax, ay, bx, by, cx, cy)


def _exact_area(ax, ay, bx, by, cx, cy) -> Fraction:
    """The doubled signed area of triangle abc, exactly."""
    ax, ay = Fraction(ax), Fraction(ay)
    return (Fraction(bx) - ax) * (Fraction(cy) - ay) - (
        Fraction(by) - ay) * (Fraction(cx) - ax)


def _orient_exact(ax, ay, bx, by, cx, cy) -> int:
    det = _exact_area(ax, ay, bx, by, cx, cy)
    return (det > 0) - (det < 0)


def orient2d(p: Point, q: Point, r: Point) -> Orientation:
    """Orientation of the triangle p, q, r (exact decision)."""
    return Orientation(orient_sign(p[0], p[1], q[0], q[1], r[0], r[1]))


def incircle_sign(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    """Exact sign of the incircle determinant for CCW triangle abc.

    +1 when d is strictly inside the circumcircle of (a, b, c), -1 when
    strictly outside, 0 when cocircular.  Callers must pass abc in CCW
    order (``incircle`` below normalizes).
    """
    adx = ax - dx
    ady = ay - dy
    bdx = bx - dx
    bdy = by - dy
    cdx = cx - dx
    cdy = cy - dy

    bdxcdy = bdx * cdy
    cdxbdy = cdx * bdy
    alift = adx * adx + ady * ady

    cdxady = cdx * ady
    adxcdy = adx * cdy
    blift = bdx * bdx + bdy * bdy

    adxbdy = adx * bdy
    bdxady = bdx * ady
    clift = cdx * cdx + cdy * cdy

    det = (
        alift * (bdxcdy - cdxbdy)
        + blift * (cdxady - adxcdy)
        + clift * (adxbdy - bdxady)
    )
    permanent = (
        (abs(bdxcdy) + abs(cdxbdy)) * alift
        + (abs(cdxady) + abs(adxcdy)) * blift
        + (abs(adxbdy) + abs(bdxady)) * clift
    )
    if (permanent > _UNDERFLOW_FLOOR * (1.0 + alift + blift + clift)
            and abs(det) >= _INCIRCLE_BOUND * permanent):
        return (det > 0.0) - (det < 0.0)
    return _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy)


def _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    adx = Fraction(ax) - Fraction(dx)
    ady = Fraction(ay) - Fraction(dy)
    bdx = Fraction(bx) - Fraction(dx)
    bdy = Fraction(by) - Fraction(dy)
    cdx = Fraction(cx) - Fraction(dx)
    cdy = Fraction(cy) - Fraction(dy)
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    return (det > 0) - (det < 0)


def incircle(a: Point, b: Point, c: Point, d: Point) -> CircleSide:
    """Position of d relative to the circumcircle of triangle abc.

    The triangle may be given in either orientation; collinear abc is an
    error rather than a silent sign.
    """
    orient = orient_sign(a[0], a[1], b[0], b[1], c[0], c[1])
    if orient == 0:
        raise DegenerateTriangleError(
            "incircle needs a non-degenerate triangle, got collinear points"
        )
    if orient < 0:
        b, c = c, b
    return CircleSide(
        incircle_sign(a[0], a[1], b[0], b[1], c[0], c[1], d[0], d[1])
    )


def circumcenter(a: Point, b: Point, c: Point) -> Point:
    """Circumcenter of triangle abc; raises on collinear input, and on a
    triangle whose centre float arithmetic cannot represent (a float
    determinant of zero, or a non-finite centre: coordinates of wildly
    different or huge magnitudes)."""
    if orient_sign(a[0], a[1], b[0], b[1], c[0], c[1]) == 0:
        raise DegenerateTriangleError("collinear points have no circumcenter")
    bx = b[0] - a[0]
    by = b[1] - a[1]
    cx = c[0] - a[0]
    cy = c[1] - a[1]
    d = 2.0 * (bx * cy - by * cx)
    if d == 0.0:
        raise DegenerateTriangleError(
            "triangle is too thin for a float circumcenter"
        )
    bl = bx * bx + by * by
    cl = cx * cx + cy * cy
    x = a[0] + (cy * bl - by * cl) / d
    y = a[1] + (bx * cl - cx * bl) / d
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DegenerateTriangleError("circumcenter is not a finite point")
    return Point(x, y)


def min_angle_deg(a: Point, b: Point, c: Point) -> float:
    """Smallest interior angle of triangle abc, in degrees; raises when
    float arithmetic cannot give the angles."""
    if orient_sign(a[0], a[1], b[0], b[1], c[0], c[1]) == 0:
        raise DegenerateTriangleError("degenerate triangle has no angles")
    return _proper_min_angle_deg(a, b, c)


def _proper_min_angle_deg(a: Point, b: Point, c: Point) -> float:
    """``min_angle_deg`` of a triangle known not to be degenerate, such as
    a live triangle of a mesh, which is strictly CCW; raises only when
    float arithmetic cannot give the angles."""
    ax, ay = a[0], a[1]
    bx, by = b[0], b[1]
    cx, cy = c[0], c[1]
    # the angle at each vertex between its two outgoing edges; each
    # difference is its own subtraction, because negating b - a gives
    # -0.0 where a - b gives +0.0, and atan2(0.0, -0.0) is pi
    abx = bx - ax
    aby = by - ay
    acx = cx - ax
    acy = cy - ay
    bcx = cx - bx
    bcy = cy - by
    bax = ax - bx
    bay = ay - by
    cax = ax - cx
    cay = ay - cy
    cbx = bx - cx
    cby = by - cy
    at_a = math.atan2(abs(abx * acy - aby * acx), abx * acx + aby * acy)
    at_b = math.atan2(abs(bcx * bay - bcy * bax), bcx * bax + bcy * bay)
    at_c = math.atan2(abs(cax * cby - cay * cbx), cax * cbx + cay * cby)
    if math.isnan(at_a + at_b + at_c):  # a product overflowed
        raise DegenerateTriangleError("triangle angles overflow float range")
    return math.degrees(min(at_a, at_b, at_c))


def encroaches(p: Point, a: Point, b: Point, closed: bool = False) -> bool:
    """Whether p lies inside the diametral circle of segment ab.

    With ``closed=False`` only the open disk counts; with ``closed=True``
    the boundary circle counts as well.  Points within a relative 1e-12
    band of the circle are treated as exactly on it, so constructed
    points (midpoints, circumcenters) classify stably.
    """
    if (p[0] == a[0] and p[1] == a[1]) or (p[0] == b[0] and p[1] == b[1]):
        raise ValueError("encroachment query point coincides with an endpoint")
    pax = a[0] - p[0]
    pay = a[1] - p[1]
    pbx = b[0] - p[0]
    pby = b[1] - p[1]
    dot = pax * pbx + pay * pby
    scale = max(pax * pax + pay * pay, pbx * pbx + pby * pby)
    if abs(dot) <= _BOUNDARY_BAND * scale:
        return closed
    return dot < 0.0
