"""Seeded inputs for the benchmark workloads.

The adversarial families (pav, pinwheel, the spiral) are fixed shapes and
take no seed.  The ``mesh`` workload meshes a cloud of isolated "Gabriel
sticks": segments at random positions, orientations and lengths whose
closed diametral disks hold no other vertex.  A Gabriel segment is already
an edge of the Delaunay triangulation of the input vertices, and the
enclosure square from ``generators.enclose`` is axis-aligned with
power-of-two sides; together they keep the inputs clear of two CDT faults
that non-Delaunay input segments and slanted boundary segments hit (see
README.md).
"""

from __future__ import annotations

import math
import random

from refinelab.generators import enclose
from refinelab.geom import Point
from refinelab.pslg import Pslg, Segment

# density and shape of a stick cloud
STICK_LEN = (0.5, 3.0)  # uniform length range
STICK_AREA = 16.0  # square units of the cloud's square per stick
DISK_MARGIN = 1.05  # other vertices stay beyond 1.05 x the diametral radius
STICK_GAP = 0.25  # minimum distance between two sticks


def _seg_dist(a, b, c, d) -> float:
    """Distance between two non-crossing segments ab and cd."""

    def pt(p, u, v):
        ux, uy = v[0] - u[0], v[1] - u[1]
        t = ((p[0] - u[0]) * ux + (p[1] - u[1]) * uy) / (ux * ux + uy * uy)
        t = min(1.0, max(0.0, t))
        return math.hypot(p[0] - u[0] - t * ux, p[1] - u[1] - t * uy)

    return min(pt(a, c, d), pt(b, c, d), pt(c, a, b), pt(d, a, b))


def _crosses(a, b, c, d) -> bool:
    def side(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    return (side(a, b, c) > 0) != (side(a, b, d) > 0) and (
        side(c, d, a) > 0
    ) != (side(c, d, b) > 0)


def _conflict(a, b, c, d) -> bool:
    """Whether stick ab and stick cd break the Gabriel or spacing rule."""
    mab = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    mcd = ((c[0] + d[0]) / 2, (c[1] + d[1]) / 2)
    rab = 0.5 * math.dist(a, b) * DISK_MARGIN
    rcd = 0.5 * math.dist(c, d) * DISK_MARGIN
    return (
        min(math.dist(c, mab), math.dist(d, mab)) <= rab
        or min(math.dist(a, mcd), math.dist(b, mcd)) <= rcd
        or _crosses(a, b, c, d)
        or _seg_dist(a, b, c, d) < STICK_GAP
    )


def gabriel_sticks(seed, n: int, scale: float = 3.0) -> Pslg:
    """``n`` isolated Gabriel segments, enclosed; same seed, same PSLG.

    ``seed`` is anything ``random.Random`` accepts (an int or a string).
    """
    rng = random.Random(seed)
    side = math.sqrt(n * STICK_AREA)
    lo, hi = STICK_LEN
    cell = hi + STICK_GAP
    grid: dict[tuple[int, int], list[int]] = {}
    sticks: list[tuple[tuple[float, float], tuple[float, float]]] = []
    while len(sticks) < n:
        length = rng.uniform(lo, hi)
        theta = rng.uniform(0.0, math.pi)
        cx = rng.uniform(hi, side - hi)
        cy = rng.uniform(hi, side - hi)
        dx = 0.5 * length * math.cos(theta)
        dy = 0.5 * length * math.sin(theta)
        a, b = (cx - dx, cy - dy), (cx + dx, cy + dy)
        gx, gy = int(cx // cell), int(cy // cell)
        near = (
            k for i in range(gx - 2, gx + 3) for j in range(gy - 2, gy + 3)
            for k in grid.get((i, j), ())
        )
        if not any(_conflict(a, b, *sticks[k]) for k in near):
            grid.setdefault((gx, gy), []).append(len(sticks))
            sticks.append((a, b))
    vertices = tuple(Point(*p) for ab in sticks for p in ab)
    segments = tuple(Segment(2 * k, 2 * k + 1, k) for k in range(n))
    return enclose(Pslg(vertices, segments), scale)
