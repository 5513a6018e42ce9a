"""Each output check accepts a correct output and rejects a corrupted one.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

(from the root of a checkout; a few seconds).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from inputs import gabriel_sticks  # noqa: E402
from refinelab import generators, refine  # noqa: E402


class TilingTest(unittest.TestCase):
    def setUp(self):
        self.p = gabriel_sticks("test", 12)
        out = refine.chew2(self.p, refine.RefinementConfig(alpha_deg=26.0))
        self.pts, self.tris = workloads.mesh_arrays(out.triangulation)
        self.area = workloads._square(self.p)

    def test_correct_mesh_passes(self):
        self.assertEqual(checks.check_tiling(self.pts, self.tris, self.area), [])

    def test_dropped_triangle(self):
        bad = checks.check_tiling(self.pts, self.tris[1:], self.area)
        self.assertTrue(any("areas sum" in p for p in bad))

    def test_flipped_triangle(self):
        a, b, c = self.tris[0]
        bad = checks.check_tiling(self.pts, [(a, c, b)] + self.tris[1:], self.area)
        self.assertTrue(any("not positively oriented" in p for p in bad))

    def test_corner_moved_by_one_ulp(self):
        # interior vertices cancel out of the area sum; the boundary does not
        pts = list(self.pts)
        corner = len(self.p.vertices) - 4
        x, y = pts[corner]
        pts[corner] = (math.nextafter(x, -math.inf), y)
        bad = checks.check_tiling(pts, self.tris, self.area)
        self.assertTrue(any("areas sum" in p for p in bad))


class SubsegmentTest(unittest.TestCase):
    def setUp(self):
        p = gabriel_sticks("test", 12)
        self.segments = [(s.a, s.b) for s in p.segments]
        out = refine.ruppert(p, refine.RefinementConfig(alpha_deg=20.0))
        self.pts, self.tris = workloads.mesh_arrays(out.triangulation)

    def test_correct_mesh_passes(self):
        subs, bad = checks.subsegments(self.pts, self.tris, self.segments, 4.0)
        self.assertEqual(bad, [])
        self.assertGreater(len(subs), len(self.segments))
        self.assertEqual(checks.check_subsegment_lengths(self.pts, subs), [])
        self.assertEqual(checks.check_diametral_empty(self.pts, subs, 4.0), [])

    def _split_vertex(self):
        subs, _ = checks.subsegments(self.pts, self.tris, self.segments, 4.0)
        ends = {w for s in self.segments for w in s}
        for _, u, v in subs:
            if v not in ends:
                return u, v
        self.fail("no split subsegment")

    def test_midpoint_moved_along_segment(self):
        u, v = self._split_vertex()
        pts = list(self.pts)
        (ux, uy), (vx, vy) = pts[u], pts[v]
        pts[v] = (ux + 0.9 * (vx - ux), uy + 0.9 * (vy - uy))
        subs, _ = checks.subsegments(pts, self.tris, self.segments, 4.0)
        self.assertNotEqual(checks.check_subsegment_lengths(pts, subs), [])

    def test_vertex_inside_diametral_circle(self):
        u, v = self._split_vertex()
        pts = list(self.pts)
        (ux, uy), (vx, vy) = pts[u], pts[v]
        # a point just off the subsegment's middle
        pts.append((0.5 * (ux + vx) + 1e-3 * (uy - vy), 0.5 * (uy + vy) + 1e-3 * (vx - ux)))
        subs, _ = checks.subsegments(self.pts, self.tris, self.segments, 4.0)
        bad = checks.check_diametral_empty(pts, subs, 4.0)
        self.assertTrue(any(f"vertex {len(pts) - 1}" in p for p in bad))

    def test_missing_subsegment_edge(self):
        u, v = self._split_vertex()
        tris = [t for t in self.tris if not (u in t and v in t)]
        _, bad = checks.subsegments(self.pts, tris, self.segments, 4.0)
        self.assertTrue(any("not a mesh edge" in p for p in bad))


class AngleTest(unittest.TestCase):
    def test_law_of_cosines(self):
        pts = [(0.0, 0.0), (math.sqrt(3.0), 0.0), (0.0, 1.0)]  # 30-60-90
        (ang,) = checks.min_angles_deg(pts, [(0, 1, 2)])
        self.assertAlmostEqual(ang, 30.0, places=9)
        self.assertEqual(checks.skinny_triangles(pts, [(0, 1, 2)], 30.0), [])
        self.assertEqual(checks.skinny_triangles(pts, [(0, 1, 2)], 30.1), [0])

    def test_ruppert_mesh_with_dropped_skinny_triangle(self):
        # the fixed ruppert inputs of the mesh workload end with triangles
        # below alpha: the fault those operations are counted failed for
        p = gabriel_sticks(workloads.RUPPERT_SETS[0], workloads.STICKS)
        out = refine.ruppert(p, refine.RefinementConfig(alpha_deg=20.0))
        self.assertEqual(out.status, refine.TERMINATED)
        pts, tris = workloads.mesh_arrays(out.triangulation)
        self.assertNotEqual(checks.skinny_triangles(pts, tris, 20.0), [])


class ThresholdTest(unittest.TestCase):
    def test_shifted_threshold(self):
        for name, _, _, _, _, _, want, tol in workloads.SCANS:
            self.assertEqual(checks.check_threshold(name, want, want, tol), [])
            self.assertEqual(checks.check_threshold(name, want + 0.1, want, tol), [])
            shift = 0.3 if tol < 0.3 else 0.6
            self.assertNotEqual(
                checks.check_threshold(name, want + shift, want, tol), []
            )
            self.assertNotEqual(
                checks.check_threshold(name, want - shift, want, tol), []
            )


class CascadeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.dir = tempfile.mkdtemp()
        op = workloads._cascade_op(
            cls.dir, "pinwheel4", generators.pinwheel(4), 4, "ruppert", 31.0, None
        )
        with contextlib.redirect_stdout(io.StringIO()):
            cls.code = op.run()
        cls.good = op.check(cls.code)
        prefix = os.path.join(cls.dir, "pinwheel4-ruppert")
        with open(prefix + ".report.json") as f:
            cls.report = json.load(f)
        with open(prefix + ".trace.jsonl") as f:
            cls.trace = f.read()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir)

    def check(self, code=None, report=None, trace=None, arms=4):
        return checks.check_cascade(
            self.code if code is None else code,
            self.report if report is None else report,
            self.trace if trace is None else trace,
            arms,
        )

    def test_correct_output_passes(self):
        self.assertEqual(self.good.problems, [])
        self.assertEqual(self.check(), [])

    def test_exit_code(self):
        self.assertNotEqual(self.check(code=1), [])

    def test_wrong_period(self):
        self.assertNotEqual(self.check(arms=2), [])

    def test_wrong_decay_ratio(self):
        report = json.loads(json.dumps(self.report))
        report["verdict"]["decay_ratio"] *= 1.02
        self.assertNotEqual(self.check(report=report), [])

    def test_insertions_mismatch(self):
        report = dict(self.report, insertions=self.report["insertions"] + 1)
        self.assertNotEqual(self.check(report=report), [])

    def test_halving_broken(self):
        events = [json.loads(line) for line in self.trace.splitlines()]
        last = checks.record_splits(events)[-1]
        # one ulp short of an exact halving
        events[last["seq"]]["length"] = math.nextafter(last["length"], 0.0)
        trace = "\n".join(json.dumps(e) for e in events) + "\n"
        bad = self.check(trace=trace)
        self.assertTrue(any("exact halving" in p for p in bad))


if __name__ == "__main__":
    unittest.main()
