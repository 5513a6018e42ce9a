"""The two refinement engines, instrumented with a full event trace.

Both engines drive the same constrained Delaunay structure but differ in
how a skinny triangle's circumcenter is rejected:

* the conforming engine (``ruppert``) first splits every subsegment that
  an existing vertex encroaches, and rejects a candidate circumcenter
  whenever it falls inside any subsegment's diametral circle.  It needs
  no visibility test: skinny triangles wait until no subsegment is
  encroached, and then a circumcenter hidden behind a subsegment lies in
  its diametral circle (Ruppert's lemma; Shewchuk 2002);
* the constrained engine (``chew2``) never maintains conforming
  subsegments; a circumcenter is rejected only when a subsegment blocks
  the straight path from its triangle, in which case the blocking
  subsegment is split and every free vertex inside its closed diametral
  disk is deleted first.

Queue discipline: encroached subsegments in FIFO order, then skinny
triangles worst-first with ties broken by creation order.  Runs are
deterministic: identical inputs give bit-identical traces.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .cdt import CIRCUMCENTER, Triangulation
from .geom import Point, circumcenter, encroaches
from .pslg import Pslg

__all__ = [
    "SEGMENT_SPLIT",
    "CIRCUMCENTER_INSERT",
    "CIRCUMCENTER_REJECTED_FOR_ENCROACHMENT",
    "VERTEX_DELETED",
    "TERMINATED",
    "BUDGET_EXHAUSTED",
    "DIVERGENCE_FLOOR_HIT",
    "RefinementConfig",
    "TraceEvent",
    "RefinementTrace",
    "RefinementOutcome",
    "ruppert",
    "chew2",
    "audit",
    "EngineError",
]

SEGMENT_SPLIT = "SEGMENT_SPLIT"
CIRCUMCENTER_INSERT = "CIRCUMCENTER_INSERT"
CIRCUMCENTER_REJECTED_FOR_ENCROACHMENT = "CIRCUMCENTER_REJECTED_FOR_ENCROACHMENT"
VERTEX_DELETED = "VERTEX_DELETED"

TERMINATED = "TERMINATED"
BUDGET_EXHAUSTED = "BUDGET_EXHAUSTED"
DIVERGENCE_FLOOR_HIT = "DIVERGENCE_FLOOR_HIT"

RUPPERT = "RUPPERT"
CHEW2 = "CHEW2"


class EngineError(RuntimeError):
    pass


@dataclass(frozen=True)
class RefinementConfig:
    alpha_deg: float
    max_insertions: int = 10000
    min_length_ratio: float = 2.0 ** -12
    closed_diametral: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha_deg < 60.0:
            raise ValueError("alpha_deg must lie in (0, 60)")
        if self.max_insertions < 1:
            raise ValueError("max_insertions must be at least 1")
        if not 0.0 < self.min_length_ratio < 1.0:
            raise ValueError("min_length_ratio must lie in (0, 1)")


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    kind: str
    lineage: Optional[int]
    length: Optional[float]
    min_angle_deg: Optional[float]
    x: Optional[float]
    y: Optional[float]

    def to_json(self) -> str:
        return json.dumps(
            {
                "seq": self.seq,
                "kind": self.kind,
                "lineage": self.lineage,
                "length": self.length,
                "min_angle_deg": self.min_angle_deg,
                "x": self.x,
                "y": self.y,
            },
            sort_keys=True,
        )


@dataclass(frozen=True)
class RefinementTrace:
    events: tuple[TraceEvent, ...]

    def splits(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == SEGMENT_SPLIT]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def to_jsonl(self) -> str:
        return "\n".join(e.to_json() for e in self.events) + (
            "\n" if self.events else ""
        )

    @staticmethod
    def from_jsonl(text: str) -> "RefinementTrace":
        events = []
        for line in text.splitlines():
            if not line.strip():
                continue
            d = json.loads(line)
            events.append(
                TraceEvent(
                    d["seq"], d["kind"], d["lineage"], d["length"],
                    d["min_angle_deg"], d["x"], d["y"],
                )
            )
        return RefinementTrace(tuple(events))


@dataclass
class RefinementOutcome:
    status: str
    triangulation: Triangulation
    trace: RefinementTrace
    insertions: int
    config: RefinementConfig
    algorithm: str


def encroached_subsegs(tri: Triangulation, p: Point, closed: bool):
    """Yield, in ``tri.subsegments`` order, each subsegment whose
    diametral circle holds p; one with an endpoint at p is skipped."""
    px, py = p
    pts = tri.points
    for key, rec in tri.subsegments.items():
        a = pts[key[0]]
        b = pts[key[1]]
        # cheap reject: outside the diametral disk's padded bounding box
        r = rec.length * 0.5000005
        dx = px - (a[0] + b[0]) * 0.5
        if dx > r or -dx > r:
            continue
        dy = py - (a[1] + b[1]) * 0.5
        if dy > r or -dy > r:
            continue
        if (px == a[0] and py == a[1]) or (px == b[0] and py == b[1]):
            continue
        if encroaches(p, a, b, closed=closed):
            yield key


def encroaching_vertices(tri: Triangulation, key: tuple[int, int],
                         closed: bool, tag: Optional[str] = None):
    """Yield, in vertex-id order, each alive vertex (with the given tag, if
    one is given) other than key's endpoints that lies in key's diametral
    circle.  Endpoints are skipped by coordinates: no two alive vertices
    coincide."""
    pts = tri.points
    alive = tri.alive
    tags = tri.tags
    a = pts[key[0]]
    b = pts[key[1]]
    mx = (a[0] + b[0]) * 0.5
    my = (a[1] + b[1]) * 0.5
    r = tri.subsegments[key].length * 0.5000005
    for vid in range(len(pts)):
        if not alive[vid] or (tag is not None and tags[vid] != tag):
            continue
        px, py = p = pts[vid]
        dx = px - mx
        if dx > r or -dx > r:
            continue
        dy = py - my
        if dy > r or -dy > r:
            continue
        if (px == a[0] and py == a[1]) or (px == b[0] and py == b[1]):
            continue
        if encroaches(p, a, b, closed=closed):
            yield vid


class _Run:
    def __init__(self, pslg: Pslg, cfg: RefinementConfig, algorithm: str):
        self.cfg = cfg
        self.algorithm = algorithm
        self.tri = Triangulation.build(pslg)
        if not self.tri.subsegments:
            raise EngineError("refinement needs at least one constraint segment")
        self.initial_min_len = min(
            s.length for s in self.tri.subsegments.values()
        )
        self.floor_len = cfg.min_length_ratio * self.initial_min_len
        self.events: list[TraceEvent] = []
        self.insertions = 0
        self.floor_hit = False
        self._heap: list[tuple[float, int, int]] = []
        self._hseq = 0
        self._seg_queue: deque[tuple[int, int]] = deque()
        self._queued: set[tuple[int, int]] = set()
        # seed in vertex-triple order: triangle numbering is an internal
        # artifact, vertex ids are reproducible
        for tid in sorted(self.tri.triangles, key=self.tri.triangles.get):
            self._consider_triangle(tid)

    # -- queues ---------------------------------------------------------------

    def _consider_triangle(self, tid: int) -> None:
        ma = self.tri.min_angle(tid)
        if ma < self.cfg.alpha_deg:
            heapq.heappush(self._heap, (ma, self._hseq, tid))
            self._hseq += 1

    def _pop_skinny(self) -> Optional[int]:
        while self._heap:
            _, _, tid = heapq.heappop(self._heap)
            if tid in self.tri.triangles:
                return tid
        return None

    def _queue_subseg(self, key: tuple[int, int]) -> None:
        if key not in self._queued:
            self._queued.add(key)
            self._seg_queue.append(key)

    def _scan_new_vertex(self, vid: int) -> None:
        """Queue every subsegment the fresh vertex encroaches (rule 1)."""
        p = self.tri.points[vid]
        for key in encroached_subsegs(self.tri, p, self.cfg.closed_diametral):
            self._queue_subseg(key)

    def _scan_new_subseg(self, key: tuple[int, int]) -> None:
        """Queue the new subsegment if any existing vertex encroaches it."""
        closed = self.cfg.closed_diametral
        if next(encroaching_vertices(self.tri, key, closed), None) is not None:
            self._queue_subseg(key)

    # -- events ---------------------------------------------------------------

    def _emit(self, kind: str, lineage=None, length=None, min_angle=None,
              x=None, y=None) -> None:
        self.events.append(
            TraceEvent(len(self.events), kind, lineage, length, min_angle, x, y)
        )

    # -- mesh operations --------------------------------------------------------

    def _split(self, key: tuple[int, int], rescan_vertices: bool) -> None:
        rec = self.tri.subsegments[key]
        mid_vid, children, res = self.tri.split_subsegment(*key)
        self.insertions += 1
        mid = self.tri.points[mid_vid]
        self._emit(
            SEGMENT_SPLIT,
            lineage=rec.lineage,
            length=rec.length,
            x=mid.x,
            y=mid.y,
        )
        for tid in res.created:
            self._consider_triangle(tid)
        if rescan_vertices:
            self._scan_new_vertex(mid_vid)
            for child in children:
                self._scan_new_subseg(child)
        if rec.length / 2.0 < self.floor_len:
            self.floor_hit = True

    def _insert_circumcenter(self, c: Point, start: int,
                             min_angle: float) -> None:
        res = self.tri.insert_vertex(c, CIRCUMCENTER, start=start)
        self.insertions += 1
        self._emit(CIRCUMCENTER_INSERT, min_angle=min_angle, x=c.x, y=c.y)
        for tid in res.created:
            self._consider_triangle(tid)
        if self.algorithm == RUPPERT:
            self._scan_new_vertex(res.vertex)

    def _budget_left(self) -> bool:
        return self.insertions < self.cfg.max_insertions

    def _finish(self, status: str) -> RefinementOutcome:
        return RefinementOutcome(
            status=status,
            triangulation=self.tri,
            trace=RefinementTrace(tuple(self.events)),
            insertions=self.insertions,
            config=self.cfg,
            algorithm=self.algorithm,
        )

    # -- engines ------------------------------------------------------------------

    def run_ruppert(self) -> RefinementOutcome:
        for key in self.tri.subsegments:
            self._scan_new_subseg(key)
        while True:
            if self.floor_hit:
                return self._finish(DIVERGENCE_FLOOR_HIT)
            if not self._budget_left():
                return self._finish(BUDGET_EXHAUSTED)
            if self._seg_queue:
                key = self._seg_queue.popleft()
                self._queued.discard(key)
                if key not in self.tri.subsegments:
                    continue
                self._split(key, rescan_vertices=True)
                continue
            tid = self._pop_skinny()
            if tid is None:
                return self._finish(TERMINATED)
            self._process_skinny_ruppert(tid)

    def _process_skinny_ruppert(self, tid: int) -> None:
        pa, pb, pc = self.tri.triangle_points(tid)
        ma = self.tri.min_angle(tid)
        c = circumcenter(pa, pb, pc)
        closed = self.cfg.closed_diametral
        encroached = list(encroached_subsegs(self.tri, c, closed))
        if encroached:
            self._emit(
                CIRCUMCENTER_REJECTED_FOR_ENCROACHMENT,
                lineage=self.tri.subsegments[encroached[0]].lineage,
                min_angle=ma,
                x=c.x,
                y=c.y,
            )
            for key in encroached:
                if (
                    key in self.tri.subsegments
                    and not self.floor_hit
                    and self._budget_left()
                ):
                    self._split(key, rescan_vertices=True)
        else:
            self._insert_circumcenter(c, tid, ma)

    def run_chew2(self) -> RefinementOutcome:
        while True:
            if self.floor_hit:
                return self._finish(DIVERGENCE_FLOOR_HIT)
            if not self._budget_left():
                return self._finish(BUDGET_EXHAUSTED)
            tid = self._pop_skinny()
            if tid is None:
                return self._finish(TERMINATED)
            self._process_skinny_chew2(tid)

    def _process_skinny_chew2(self, tid: int) -> None:
        pa, pb, pc = self.tri.triangle_points(tid)
        ma = self.tri.min_angle(tid)
        c = circumcenter(pa, pb, pc)
        g = Point((pa.x + pb.x + pc.x) / 3.0, (pa.y + pb.y + pc.y) / 3.0)
        blocked = self.tri.first_constraint_crossing(g, c)
        if blocked is None:
            self._insert_circumcenter(c, tid, ma)
            return
        rec = self.tri.subsegments[blocked]
        self._emit(
            CIRCUMCENTER_REJECTED_FOR_ENCROACHMENT,
            lineage=rec.lineage,
            min_angle=ma,
            x=c.x,
            y=c.y,
        )
        doomed = list(
            encroaching_vertices(self.tri, blocked, True, CIRCUMCENTER)
        )
        for vid in doomed:
            p = self.tri.points[vid]
            res = self.tri.delete_vertex(vid)
            self._emit(VERTEX_DELETED, x=p.x, y=p.y)
            for t in res.created:
                self._consider_triangle(t)
        self._split(blocked, rescan_vertices=False)


def ruppert(pslg: Pslg, cfg: RefinementConfig) -> RefinementOutcome:
    """Conforming-Delaunay refinement with diametral-circle encroachment."""
    return _Run(pslg, cfg, RUPPERT).run_ruppert()


def chew2(pslg: Pslg, cfg: RefinementConfig) -> RefinementOutcome:
    """Constrained-Delaunay refinement with free-vertex deletion."""
    return _Run(pslg, cfg, CHEW2).run_chew2()


def audit(outcome: RefinementOutcome, cfg: Optional[RefinementConfig] = None
          ) -> list[str]:
    """Verify the outcome's postconditions and trace invariants.

    Termination means no skinny triangle remains; only the conforming
    engine additionally guarantees that no subsegment is encroached (the
    constrained engine leaves diametral circles non-empty by design).
    """
    cfg = cfg or outcome.config
    problems: list[str] = []
    tri = outcome.triangulation

    if outcome.status == TERMINATED and outcome.algorithm == RUPPERT:
        for key in tri.subsegments:
            for vid in encroaching_vertices(tri, key, cfg.closed_diametral):
                problems.append(
                    f"terminated with vertex {vid} encroaching subsegment {key}"
                )
    if outcome.status == TERMINATED:
        for tid in tri.triangles:
            ma = tri.min_angle(tid)
            if ma < cfg.alpha_deg:
                problems.append(
                    f"terminated with skinny triangle {tid} (min angle {ma:.4f})"
                )

    # every split length must be the lineage root halved k times exactly
    roots = tri.lineage_root_length
    for e in outcome.trace.splits():
        root = roots.get(e.lineage)
        if root is None:
            problems.append(f"split event {e.seq} has unknown lineage {e.lineage}")
            continue
        ratio = root / e.length
        k = round(ratio).bit_length() - 1 if ratio >= 1 else -1
        if k < 0 or e.length * (2.0 ** k) != root:
            problems.append(
                f"split event {e.seq} length {e.length} is not an exact "
                f"halving of lineage {e.lineage} root {root}"
            )
    return problems
