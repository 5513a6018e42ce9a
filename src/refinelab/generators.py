"""Constructors for the adversarial refinement configurations.

Every generator returns a PSLG whose vertices are laid out apex-first
(vertex 0 is the shared apex, then the fan tips in lineage order, then
the four enclosure corners), so tests and reports can address the
designed triangles by index.

Perturbation conventions (``delta`` is dimensionless):

* ``pav``: the angle between the two segments is narrowed by ``delta``
  radians.  At ``delta=0`` the skinny triangle's circumcenter lies
  exactly on the diametral circle of the longer segment; a positive
  ``delta`` moves it inside.  ``geom.encroaches`` treats a relative
  1e-12 band around the circle as on it, so the encroachment is strict
  only once ``delta`` clears that band: ruppert at 31 deg terminates on
  ``pav(3e-13)`` and diverges on ``pav(1e-12)``.
* ``example2``: the two segments that play the "longer side" role in
  the spiral's boundary-tight steps are stretched by ``1+delta``, which
  preserves the spiral's exact self-similarity while moving both
  boundary encroachments inside the circle.  They are strict once
  ``delta`` clears the same band: ``example2(delta=1e-12)`` still
  terminates at 30 and 31 deg, ``delta=1e-9`` diverges.

The balance system behind ``example2_optimized`` lives here too.  Its four
equations tie together the spiral configuration's shape parameters
(theta, a) and the two designed skinny angles (alpha1, alpha2): one
equation keeps the wide-wedge circumcenter exactly on the longer
segment's diametral circle, two express the designed angles in terms of
(theta, a), and the last balances the angles.  Solving it
(``solve_optimum``) from the unbalanced starting point yields the
configuration whose worst designed angle is as small as possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geom import Point, min_angle_deg
from .pslg import Pslg, Segment

__all__ = [
    "ExampleConfig",
    "PAV",
    "PINWHEEL",
    "EXAMPLE2",
    "EXAMPLE2_OPT",
    "pav",
    "pinwheel",
    "example2",
    "example2_optimized",
    "enclose",
    "build_example",
    "predicted_skinny_angle_deg",
    "OptimumSolution",
    "ConvergenceError",
    "residuals",
    "jacobian",
    "solve_optimum",
]

PAV = "PAV"
PINWHEEL = "PINWHEEL"
EXAMPLE2 = "EXAMPLE2"
EXAMPLE2_OPT = "EXAMPLE2_OPT"

_SQRT2 = math.sqrt(2.0)

# exact unit vectors for axis-aligned directions
_AXIS_UNITS = {0: (1.0, 0.0), 90: (0.0, 1.0), 180: (-1.0, 0.0), 270: (0.0, -1.0)}


@dataclass(frozen=True)
class ExampleConfig:
    family: str
    n: int = 4
    delta: float = 0.0
    theta_deg: float = 75.0
    a: float = 1.0
    enclosure_scale: float = 4.0

    def __post_init__(self):
        if self.family not in (PAV, PINWHEEL, EXAMPLE2, EXAMPLE2_OPT):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == PINWHEEL and self.n not in (3, 4, 5):
            raise ValueError("pinwheel supports 3, 4 or 5 segments")
        # written to be false for NaN, which fails every comparison
        if not 0.0 <= self.delta < math.inf:
            raise ValueError("delta must be finite and non-negative")
        if not self.enclosure_scale >= 3:
            raise ValueError("enclosure scale must be at least 3")


def _unit(angle_deg: float) -> tuple[float, float]:
    """Unit vector at angle_deg, which lies in [0, 360)."""
    if angle_deg in _AXIS_UNITS:
        return _AXIS_UNITS[angle_deg]
    r = math.radians(angle_deg)
    return (math.cos(r), math.sin(r))


def _fan(arms: list[tuple[float, float]]) -> Pslg:
    """PSLG of segments from the origin: (length, direction degrees)."""
    vertices = [Point(0.0, 0.0)]
    segments = []
    for i, (length, ang) in enumerate(arms):
        ux, uy = _unit(ang)
        vertices.append(Point(length * ux, length * uy))
        segments.append(Segment(0, i + 1, i))
    return Pslg(tuple(vertices), tuple(segments))


def _distance(ax: float, ay: float, bx: float, by: float) -> float:
    """Float distance between two points as ``sqrt(dx*dx + dy*dy)``;
    enclose's diameter is defined by this rounding, not by
    ``math.hypot``'s."""
    dx = ax - bx
    dy = ay - by
    return math.sqrt(dx * dx + dy * dy)


def enclose(p: Pslg, scale: float = ExampleConfig.enclosure_scale) -> Pslg:
    """Wrap a configuration in an axis-aligned square of constraints.

    The side is scale times the configuration diameter, rounded up to a
    power of two so enclosure coordinates behave exactly under halving.

    The diameter is the largest float distance over all vertex pairs, but
    most pairs are never measured.  With the bounding box [lox, hix] x
    [loy, hiy], vertex i gets the reach ``sqrt(rx*rx + ry*ry)``, where
    ``rx = max(x - lox, hix - x)`` and ``ry`` likewise.  Every other x
    lies in [lox, hix], and rounding is monotone and symmetric, so the
    rounded difference of the two x has magnitude at most ``rx``; the
    same holds in y, and squaring, adding and the square root are
    monotone too.  So no float distance from vertex i exceeds its reach,
    exactly, with no tolerance, also where products underflow or
    overflow; non-finite vertices are rejected first, so no NaN enters
    the comparisons.  Vertices are visited in decreasing reach and a row stops
    at the first reach below the diameter found so far; the maximum of
    the same floats does not depend on their order, so the result is
    that of the all-pairs loop.  A cloud needs a few dozen distances;
    points on a circle, whose every reach is at least the diameter,
    still need all pairs.
    """
    if not scale >= 3:
        raise ValueError("enclosure scale must be at least 3")
    for i, v in enumerate(p.vertices):
        if not (math.isfinite(v.x) and math.isfinite(v.y)):
            raise ValueError(f"vertex {i} at ({v.x}, {v.y}) is not finite")
    xs = [v.x for v in p.vertices]
    ys = [v.y for v in p.vertices]
    lox, hix, loy, hiy = min(xs), max(xs), min(ys), max(ys)
    cx = (lox + hix) / 2.0
    cy = (loy + hiy) / 2.0
    reach = []
    for x, y in zip(xs, ys):
        rx = max(x - lox, hix - x)
        ry = max(y - loy, hiy - y)
        reach.append(math.sqrt(rx * rx + ry * ry))
    order = sorted(range(len(xs)), key=reach.__getitem__, reverse=True)
    diam = 0.0
    for k, i in enumerate(order):
        if reach[i] < diam:
            break
        for j in order[k + 1:]:
            if reach[j] < diam:
                break
            diam = max(diam, _distance(xs[i], ys[i], xs[j], ys[j]))
    if diam == 0.0:
        raise ValueError("configuration has no extent to enclose")
    if not scale * diam <= 2.0 ** 1023:
        raise ValueError(
            f"enclosure scale {scale} makes a side larger than a float holds"
        )
    # every vertex lies within diam / 2 of (cx, cy) on each axis, and
    # half >= scale * diam / 2 >= 1.5 * diam, so the square clears them
    half = 2.0 ** math.ceil(math.log2(scale * diam)) / 2.0
    if not all(map(math.isfinite, (cx - half, cx + half, cy - half, cy + half))):
        raise ValueError(
            f"enclosure corners overflow: centre ({cx}, {cy}), half side {half}"
        )
    base = len(p.vertices)
    corners = (
        Point(cx - half, cy - half),
        Point(cx + half, cy - half),
        Point(cx + half, cy + half),
        Point(cx - half, cy + half),
    )
    nseg = len(p.segments)
    sides = tuple(
        Segment(base + k, base + (k + 1) % 4, nseg + k) for k in range(4)
    )
    return Pslg(p.vertices + corners, p.segments + sides, p.holes)


def pav(delta: float = ExampleConfig.delta,
        enclosure_scale: float = ExampleConfig.enclosure_scale) -> Pslg:
    """Two segments of lengths sqrt(2) and 1 meeting at 105 deg - delta rad."""
    if not 0.0 <= delta < math.inf:
        raise ValueError("delta must be finite and non-negative")
    psi = math.radians(105.0) - delta
    core = Pslg(
        (
            Point(0.0, 0.0),
            Point(_SQRT2, 0.0),
            Point(math.cos(psi), math.sin(psi)),
        ),
        (Segment(0, 1, 0), Segment(0, 2, 1)),
    )
    return enclose(core, enclosure_scale)


def pinwheel(n: int, enclosure_scale: float = ExampleConfig.enclosure_scale) -> Pslg:
    """Fan of n segments at equal angles, lengths 2**((n-i)/n)."""
    if n not in (3, 4, 5):
        raise ValueError("pinwheel supports 3, 4 or 5 segments")
    arms = [(2.0 ** ((n - i) / n), i * (360.0 / n)) for i in range(n)]
    return enclose(_fan(arms), enclosure_scale)


def example2(theta_deg: float = ExampleConfig.theta_deg, a: float = ExampleConfig.a,
             delta: float = ExampleConfig.delta,
             enclosure_scale: float = ExampleConfig.enclosure_scale) -> Pslg:
    """Four-segment spiral configuration.

    Segments from the apex: length 1+delta at 0 deg, 2a at theta,
    sqrt(2)(1+delta) at 180 deg, and a*sqrt(2) at 180+theta.  One spiral
    revolution halves all four lengths; the two boundary-tight steps
    become strict encroachments once delta clears the relative 1e-12
    band of ``geom.encroaches`` (1e-9 does, 1e-12 does not).
    """
    if not 0.0 <= delta < math.inf:
        raise ValueError("delta must be finite and non-negative")
    theta = math.radians(theta_deg)
    if not 60.0 < theta_deg < 120.0:
        raise ValueError(
            f"theta={theta_deg} deg leaves an input angle of "
            f"{min(theta_deg, 180.0 - theta_deg)} deg <= 60 deg"
        )
    if not a > 0:
        raise ValueError("a must be positive")
    # wide-wedge steps: circumcenter must reach the diametral circle of
    # the longer side, i.e. sqrt(2)(1+delta)/a >= 1/(sin t - cos t)
    if _SQRT2 * (1.0 + delta) * (math.sin(theta) - math.cos(theta)) < a - 1e-9:
        raise ValueError(
            "encroachment chain broken: the wide-wedge circumcenter cannot "
            "reach the diametral circle of the longer segment"
        )
    # narrow-wedge steps: ratio 2a/(1+delta) against 1/(sin t + cos t)
    if 2.0 * a * (math.sin(theta) + math.cos(theta)) <= (1.0 + delta):
        raise ValueError(
            "encroachment chain broken: the narrow-wedge circumcenter cannot "
            "reach the diametral circle of the longer segment"
        )
    arms = [
        (1.0 + delta, 0.0),
        (2.0 * a, theta_deg),
        (_SQRT2 * (1.0 + delta), 180.0),
        (a * _SQRT2, 180.0 + theta_deg),
    ]
    return enclose(_fan(arms), enclosure_scale)


def example2_optimized(
        delta: float = ExampleConfig.delta,
        enclosure_scale: float = ExampleConfig.enclosure_scale) -> Pslg:
    """example2 at the balanced parameters found by ``solve_optimum``."""
    opt = solve_optimum()
    return example2(opt.theta_deg, opt.a, delta, enclosure_scale)


_SOLVE_TOL = 1e-13  # solve_optimum's target residual 2-norm


class ConvergenceError(RuntimeError):
    def __init__(self, message: str, residual_norm: float):
        super().__init__(message)
        self.residual_norm = residual_norm


@dataclass(frozen=True)
class OptimumSolution:
    theta_deg: float
    a: float
    alpha1_deg: float
    alpha2_deg: float
    residual_norm: float
    iterations: int


def _check_domain(theta: float, a: float, alpha1: float, alpha2: float) -> None:
    if not 0.0 < theta < math.pi / 2:
        raise ValueError("theta must lie in (0, pi/2)")
    if a <= 0.0:
        raise ValueError("a must be positive")
    if not (0.0 < alpha1 < math.pi / 2 and 0.0 < alpha2 < math.pi / 2):
        raise ValueError("alpha1 and alpha2 must lie in (0, pi/2)")


def residuals(theta: float, a: float, alpha1: float, alpha2: float
              ) -> tuple[float, float, float, float]:
    """The four balance equations, angles in radians."""
    _check_domain(theta, a, alpha1, alpha2)
    q = math.sqrt(4.0 * a * a + 1.0 - 4.0 * a * math.cos(theta))
    r1 = math.sin(theta) - math.cos(theta) - a / _SQRT2
    r2 = math.cos(theta) - 2.0 * a + math.cos(alpha1) * q
    r3 = math.sin(theta) - math.tan(alpha2) * (math.cos(theta) + _SQRT2 / a)
    r4 = alpha1 - alpha2
    return (r1, r2, r3, r4)


def jacobian(theta: float, a: float, alpha1: float, alpha2: float
             ) -> list[list[float]]:
    """Analytic Jacobian of :func:`residuals` wrt (theta, a, alpha1, alpha2)."""
    _check_domain(theta, a, alpha1, alpha2)
    st, ct = math.sin(theta), math.cos(theta)
    q = math.sqrt(4.0 * a * a + 1.0 - 4.0 * a * ct)
    dq_dtheta = 2.0 * a * st / q
    dq_da = (4.0 * a - 2.0 * ct) / q
    sec2 = 1.0 / math.cos(alpha2) ** 2
    return [
        [ct + st, -1.0 / _SQRT2, 0.0, 0.0],
        [-st + math.cos(alpha1) * dq_dtheta,
         -2.0 + math.cos(alpha1) * dq_da,
         -math.sin(alpha1) * q,
         0.0],
        [ct + math.tan(alpha2) * st,
         math.tan(alpha2) * _SQRT2 / (a * a),
         0.0,
         -sec2 * (ct + _SQRT2 / a)],
        [0.0, 0.0, 1.0, -1.0],
    ]


def _solve4(m: list[list[float]], rhs: list[float]) -> list[float]:
    """Gaussian elimination with partial pivoting on a 4x4 system."""
    n = 4
    aug = [row[:] + [rhs[i]] for i, row in enumerate(m)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[piv][col]) == 0.0:
            raise ConvergenceError("singular Jacobian", float("nan"))
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1.0 / aug[col][col]
        for r in range(n):
            if r == col:
                continue
            f = aug[r][col] * inv
            if f:
                for c in range(col, n + 1):
                    aug[r][c] -= f * aug[col][c]
    return [aug[i][4] / aug[i][i] for i in range(n)]


def _norm2(v) -> float:
    return math.sqrt(sum(x * x for x in v))


def solve_optimum(
    guess_deg: tuple[float, float, float, float] = (75.0, 1.0, 29.0, 30.0),
    max_iter: int = 100,
) -> OptimumSolution:
    """Damped Newton iteration on the balance system.

    The guess is (theta in degrees, a, alpha1 in degrees, alpha2 in
    degrees); convergence means a residual 2-norm below ``_SOLVE_TOL``.
    """
    x = [
        math.radians(guess_deg[0]),
        guess_deg[1],
        math.radians(guess_deg[2]),
        math.radians(guess_deg[3]),
    ]
    r = list(residuals(*x))
    rn = _norm2(r)
    iterations = 0
    while rn >= _SOLVE_TOL:
        if iterations >= max_iter:
            raise ConvergenceError(
                f"no convergence in {max_iter} iterations (residual {rn:.3e})", rn
            )
        iterations += 1
        step = _solve4(jacobian(*x), [-v for v in r])
        lam = 1.0
        for _ in range(30):
            cand = [x[i] + lam * step[i] for i in range(4)]
            try:
                cr = list(residuals(*cand))
            except ValueError:
                lam *= 0.5
                continue
            crn = _norm2(cr)
            if crn < rn:
                x, r, rn = cand, cr, crn
                break
            lam *= 0.5
        else:
            raise ConvergenceError(
                f"damping failed at residual norm {rn:.3e}", rn
            )
    return OptimumSolution(
        theta_deg=math.degrees(x[0]),
        a=x[1],
        alpha1_deg=math.degrees(x[2]),
        alpha2_deg=math.degrees(x[3]),
        residual_norm=rn,
        iterations=iterations,
    )


def build_example(cfg: ExampleConfig) -> Pslg:
    if cfg.family == PAV:
        return pav(cfg.delta, cfg.enclosure_scale)
    if cfg.family == PINWHEEL:
        return pinwheel(cfg.n, cfg.enclosure_scale)
    if cfg.family == EXAMPLE2:
        return example2(cfg.theta_deg, cfg.a, cfg.delta, cfg.enclosure_scale)
    return example2_optimized(cfg.delta, cfg.enclosure_scale)


def predicted_skinny_angle_deg(p: Pslg, family: str,
                               n: int = ExampleConfig.n) -> float:
    """Minimum angle of the designed trigger triangle, from the layout."""
    v = p.vertices
    if family == PAV:
        return min_angle_deg(v[0], v[1], v[2])
    if family == PINWHEEL:
        return min_angle_deg(v[0], v[1], v[n])
    # spiral family: the worse of the two sustained trigger shapes (the
    # second one appears once the upper segment has split at its midpoint)
    mid_w = Point(v[2].x / 2.0, v[2].y / 2.0)
    return max(
        min_angle_deg(v[0], v[1], v[2]),
        min_angle_deg(v[0], mid_w, v[3]),
    )
