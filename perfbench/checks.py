"""Correctness checks on the program's outputs, written apart from it.

Every check here recomputes a property from the output itself (mesh
files, report, trace) with the benchmark's own arithmetic; none compares
against a stored copy of an earlier output.  Each returns a list of
problems, empty when the output is correct.

Exactness: float coordinates are dyadic rationals, so scaling all of them
by one power of two turns them into integers.  Orientation, area and
diametral-circle tests are then exact integer arithmetic.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from fractions import Fraction

SPLIT = "SEGMENT_SPLIT"
INSERT = "CIRCUMCENTER_INSERT"

# a vertex counts as lying on an input segment when it is this close to
# the segment's line, relative to the segment's length
ON_SEGMENT_TOL = 1e-9
# split_subsegment inserts the rounded float midpoint, so a subsegment's
# length matches root / 2**k to rounding, not bit for bit
LENGTH_TOL = 1e-9
# law-of-cosines angles agree with the engine's atan2 angles to ~1e-12 deg
ANGLE_TOL_DEG = 1e-9


# -- mesh ---------------------------------------------------------------------


def to_integers(points):
    """Scale float points by one power of two into exact integer pairs."""
    ratios = [(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in points]
    den = 1
    for (_, dx), (_, dy) in ratios:
        den = max(den, dx, dy)
    return [
        (nx * (den // dx), ny * (den // dy)) for (nx, dx), (ny, dy) in ratios
    ], den


def check_tiling(points, triangles, square_area):
    """Every triangle is positively oriented and the areas tile the square."""
    ints, den = to_integers(points)
    problems = []
    total = 0
    for k, (a, b, c) in enumerate(triangles):
        (ax, ay), (bx, by), (cx, cy) = ints[a], ints[b], ints[c]
        twice = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
        if twice <= 0:
            problems.append(f"triangle {k} {a, b, c} is not positively oriented")
        total += twice
    if Fraction(total, 2 * den * den) != Fraction(square_area):
        problems.append(
            f"triangle areas sum to {total / (2 * den * den)!r}, "
            f"not the enclosure area {square_area!r}"
        )
    return problems


def _grid(points, cell):
    grid = defaultdict(list)
    for i, (x, y) in enumerate(points):
        grid[(math.floor(x / cell), math.floor(y / cell))].append(i)
    return grid


def _near(grid, cell, x0, y0, x1, y1):
    for i in range(math.floor(x0 / cell), math.floor(x1 / cell) + 1):
        for j in range(math.floor(y0 / cell), math.floor(y1 / cell) + 1):
            yield from grid.get((i, j), ())


def subsegments(points, triangles, segments, cell):
    """Split each input segment into the mesh edges lying along it.

    ``segments`` are (a, b) index pairs into ``points`` for the input
    segments.  Returns ([(root_length, u, v), ...], problems).
    """
    edges = set()
    for a, b, c in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            edges.add((u, v) if u < v else (v, u))
    grid = _grid(points, cell)
    out, problems = [], []
    for a, b in segments:
        (ax, ay), (bx, by) = points[a], points[b]
        dx, dy = bx - ax, by - ay
        root = math.hypot(dx, dy)
        along = []
        for w in _near(grid, cell, min(ax, bx), min(ay, by), max(ax, bx), max(ay, by)):
            wx, wy = points[w]
            if abs((wx - ax) * dy - (wy - ay) * dx) > ON_SEGMENT_TOL * root * root:
                continue
            t = ((wx - ax) * dx + (wy - ay) * dy) / (root * root)
            if -ON_SEGMENT_TOL <= t <= 1 + ON_SEGMENT_TOL:
                along.append((t, w))
        along.sort()
        chain = [w for _, w in along]
        if not chain or chain[0] != a or chain[-1] != b:
            problems.append(f"segment {a}-{b}: endpoints missing from the mesh")
            continue
        for u, v in zip(chain, chain[1:]):
            if ((u, v) if u < v else (v, u)) not in edges:
                problems.append(f"subsegment {u}-{v} of {a}-{b} is not a mesh edge")
            out.append((root, u, v))
    return out, problems


def check_subsegment_lengths(points, subsegs):
    """Every subsegment is its root segment's length over a power of two."""
    problems = []
    for root, u, v in subsegs:
        length = math.dist(points[u], points[v])
        k = round(math.log2(root / length))
        if k < 0 or abs(math.ldexp(length, k) - root) > LENGTH_TOL * root:
            problems.append(
                f"subsegment {u}-{v} has length {length!r}, not "
                f"{root!r} / 2**k"
            )
    return problems


def check_diametral_empty(points, subsegs, cell):
    """No vertex lies strictly inside a subsegment's diametral circle."""
    ints, _ = to_integers(points)
    grid = _grid(points, cell)
    problems = []
    for _, u, v in subsegs:
        (ux, uy), (vx, vy) = points[u], points[v]
        r = 0.5 * math.dist(points[u], points[v]) * (1 + 1e-9)
        mx, my = 0.5 * (ux + vx), 0.5 * (uy + vy)
        (iux, iuy), (ivx, ivy) = ints[u], ints[v]
        for w in _near(grid, cell, mx - r, my - r, mx + r, my + r):
            if w == u or w == v:
                continue
            wx, wy = ints[w]
            if (wx - iux) * (wx - ivx) + (wy - iuy) * (wy - ivy) < 0:
                problems.append(
                    f"vertex {w} lies inside the diametral circle of {u}-{v}"
                )
    return problems


def min_angles_deg(points, triangles):
    """Each triangle's smallest angle by the law of cosines, in degrees."""
    out = []
    for a, b, c in triangles:
        pa, pb, pc = points[a], points[b], points[c]
        sides = sorted((math.dist(pb, pc), math.dist(pa, pc), math.dist(pa, pb)))
        short, s1, s2 = sides
        cos_a = (s1 * s1 + s2 * s2 - short * short) / (2.0 * s1 * s2)
        out.append(math.degrees(math.acos(min(1.0, max(-1.0, cos_a)))))
    return out


def skinny_triangles(points, triangles, alpha_deg):
    """Indices of triangles whose smallest angle is below alpha."""
    return [
        k for k, ang in enumerate(min_angles_deg(points, triangles))
        if ang < alpha_deg - ANGLE_TOL_DEG
    ]


# -- the .node / .ele files ------------------------------------------------------


def read_node(text):
    lines = text.split("\n")
    n = int(lines[0].split()[0])
    pts = []
    for line in lines[1 : n + 1]:
        _, x, y = line.split()[:3]
        pts.append((float(x), float(y)))
    return pts


def read_ele(text):
    lines = text.split("\n")
    n = int(lines[0].split()[0])
    return [tuple(map(int, line.split()[1:4])) for line in lines[1 : n + 1]]


# -- cascade report and trace -------------------------------------------------


def record_splits(trace_lines):
    """Splits that set a new minimum subsegment length, in trace order."""
    records, best = [], math.inf
    for e in trace_lines:
        if e["kind"] == SPLIT and e["length"] < best:
            records.append(e)
            best = e["length"]
    return records


def check_cascade(exit_code, report, trace_text, arms):
    """A diverging cascade as the paper describes it, from report and trace."""
    problems = []
    if exit_code != 0:
        problems.append(f"refine exited with code {exit_code}")
    verdict = report.get("verdict", {})
    if verdict.get("status") != "DIVERGING":
        problems.append(f"verdict {verdict.get('status')}, not DIVERGING")
        return problems
    cycle = verdict.get("lineage_cycle") or []
    if len(cycle) != arms:
        problems.append(f"lineage cycle {cycle} does not have period {arms}")
    want = 2.0 ** (-1.0 / arms)
    ratio = verdict.get("decay_ratio")
    if ratio is None or abs(ratio - want) > 0.01 * want:
        problems.append(f"decay ratio {ratio} not within 1% of 2^(-1/{arms})")
    events = [json.loads(line) for line in trace_text.splitlines() if line]
    records = record_splits(events)
    tail = records[-(3 * arms + 1):]
    if len(tail) < 3 * arms + 1:
        problems.append(f"only {len(records)} record splits")
    for e0, e1 in zip(tail, tail[arms:]):
        if e1["lineage"] != e0["lineage"] or e1["length"] != e0["length"] / 2.0:
            problems.append(
                f"record split {e1['seq']} is not an exact halving of "
                f"record split {e0['seq']} one revolution earlier"
            )
            break
    inserted = sum(1 for e in events if e["kind"] in (SPLIT, INSERT))
    if report.get("insertions") != inserted:
        problems.append(
            f"report says {report.get('insertions')} insertions, the trace "
            f"has {inserted} split and insert lines"
        )
    return problems


# -- scans -----------------------------------------------------------------------


def check_threshold(name, threshold_deg, want_deg, tol_deg):
    if abs(threshold_deg - want_deg) <= tol_deg:
        return []
    return [
        f"{name}: threshold {threshold_deg:.4f} deg outside "
        f"{want_deg:.2f} +/- {tol_deg}"
    ]
