"""The two refinement engines, instrumented with a full event trace.

Both engines drive the same constrained Delaunay structure through one
loop and one skinny-triangle step, but differ in what rejects a skinny
triangle's circumcenter:

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

Queue discipline: every split is a pop from one FIFO queue of
subsegments, which is emptied before the next skinny triangle is taken;
skinny triangles come worst-first with ties broken by creation order.  A
rejected circumcenter queues the subsegments that rejected it; a
subsegment already queued keeps its place.  A split whose halves are
shorter than the floor ends the run at once, even when it also spends
the last of the budget.  An optional ``stop`` hook is then called with
each split event that did not hit the floor, and ends the run
``STOPPED`` when it returns true; the threshold scan passes one to end
a probe at its first DIVERGING verdict.  The conforming engine tests
each new vertex and each new subsegment once: a circumcenter before it
is inserted, a split midpoint and its two halves right after the split.
Runs are deterministic: identical inputs give bit-identical traces.

The prefix lemma.  The angle ``alpha_deg`` is read in one place only: a
triangle is queued when its minimum angle is below it.  Take a < b:
every triangle the run at b queues and the run at a does not has a
minimum angle of at least a, above every entry both queue.  While the
run at a has anything queued, both runs pop the same entries in the same
order.  So the run at a is a prefix of the run at b: it ends TERMINATED
just before the first circumcenter inserted or rejected at an angle of
at least a (the run at b went on, so the budget was not spent there),
and with no such event it is the run at b, status included.  The
threshold scan reads all its probes from one run on this lemma.
"""

from __future__ import annotations

import heapq
import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

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
    "STOPPED",
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
STOPPED = "STOPPED"

RUPPERT = "RUPPERT"
CHEW2 = "CHEW2"


class EngineError(RuntimeError):
    pass


# one encoder for every event's kind and non-finite floats; json.dumps
# would build one per call
_encode = json.JSONEncoder(sort_keys=True).encode


def _num(v) -> str:
    """A field as json.dumps writes it: null, or the number's repr (the
    encoder's NaN, Infinity or -Infinity for a non-finite float)."""
    if v is None:
        return "null"
    if v - v == 0:  # false for inf and nan
        return repr(v)
    return _encode(v)


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


class TraceEvent(NamedTuple):
    seq: int
    kind: str
    lineage: Optional[int]
    length: Optional[float]
    min_angle_deg: Optional[float]
    x: Optional[float]
    y: Optional[float]

    def to_json(self) -> str:
        # json.dumps(self._asdict(), sort_keys=True), without building a dict
        return (
            f'{{"kind": {_encode(self.kind)}, "length": {_num(self.length)}, '
            f'"lineage": {_num(self.lineage)}, '
            f'"min_angle_deg": {_num(self.min_angle_deg)}, '
            f'"seq": {_num(self.seq)}, "x": {_num(self.x)}, "y": {_num(self.y)}}}'
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

    def to_jsonl(self, out) -> None:
        """Write one JSON line per event into the open text stream ``out``."""
        out.writelines(e.to_json() + "\n" for e in self.events)

    @staticmethod
    def from_jsonl(text: str) -> "RefinementTrace":
        """Read what ``to_jsonl`` wrote; blank lines are skipped.  Raises
        ``ValueError`` naming the 1-based line number when a line is not
        a JSON object or lacks one of ``TraceEvent``'s fields."""
        events = []
        for n, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                d = json.loads(line)
            except ValueError as e:
                raise ValueError(f"trace line {n} is not JSON: {e}") from None
            if not isinstance(d, dict):
                raise ValueError(f"trace line {n} is not a JSON object")
            try:
                events.append(TraceEvent(*(d[f] for f in TraceEvent._fields)))
            except KeyError as e:
                raise ValueError(f"trace line {n} has no {e} key") from None
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
    for key in tri.subsegs_near(p):
        a = pts[key[0]]
        b = pts[key[1]]
        if (px == a[0] and py == a[1]) or (px == b[0] and py == b[1]):
            continue
        if encroaches(p, a, b, closed=closed):
            yield key


def encroaching_vertices(tri: Triangulation, key: tuple[int, int],
                         closed: bool, tag: Optional[str] = None):
    """Yield, in vertex-id order, each alive vertex (with the given tag, if
    one is given) other than key's endpoints that lies in key's diametral
    circle."""
    pts = tri.points
    tags = tri.tags
    a = pts[key[0]]
    b = pts[key[1]]
    for vid in tri.vertices_near(key):
        if tag is None or tags[vid] == tag:
            if encroaches(pts[vid], a, b, closed=closed):
                yield vid


class _Run:
    def __init__(self, pslg: Pslg, cfg: RefinementConfig, algorithm: str):
        self.cfg = cfg
        self.algorithm = algorithm
        self.tri = Triangulation.build(pslg)
        if not self.tri.subsegments:
            raise EngineError("refinement needs at least one constraint segment")
        self.floor_len = cfg.min_length_ratio * min(
            s.length for s in self.tri.subsegments.values()
        )
        self.events: list[TraceEvent] = []
        self.insertions = 0
        self._heap: list[tuple[float, int, int]] = []
        self._hseq = 0
        # FIFO of subsegments to split; a queued key keeps its place
        self._seg_queue: OrderedDict[tuple[int, int], None] = OrderedDict()
        # seed in vertex-triple order: triangle numbering is an internal
        # artifact, vertex ids are reproducible
        self._consider_triangles(
            sorted(self.tri.triangles, key=self.tri.triangles.get))

    # -- queues ---------------------------------------------------------------

    def _consider_triangles(self, tids) -> None:
        """Queue each skinny triangle of tids, in order."""
        min_angle, alpha = self.tri.min_angle, self.cfg.alpha_deg
        heap, seq = self._heap, self._hseq
        for tid in tids:
            ma = min_angle(tid)
            if ma < alpha:
                heapq.heappush(heap, (ma, seq, tid))
                seq += 1
        self._hseq = seq

    def _scan_new_subseg(self, key: tuple[int, int]) -> None:
        """Queue the new subsegment if any existing vertex encroaches it."""
        closed = self.cfg.closed_diametral
        if next(encroaching_vertices(self.tri, key, closed), None) is not None:
            self._seg_queue.setdefault(key)

    # -- events ---------------------------------------------------------------

    def _emit(self, kind: str, lineage=None, length=None, min_angle=None,
              x=None, y=None) -> None:
        self.events.append(
            TraceEvent(len(self.events), kind, lineage, length, min_angle, x, y)
        )

    # -- mesh operations --------------------------------------------------------

    def _split(self, key: tuple[int, int]) -> float:
        """Split the subsegment and return its children's length."""
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
        self._consider_triangles(res.created)
        if self.algorithm == RUPPERT:
            closed = self.cfg.closed_diametral
            for other in encroached_subsegs(self.tri, mid, closed):
                self._seg_queue.setdefault(other)
            for child in children:
                self._scan_new_subseg(child)
        return self.tri.subsegments[children[0]].length

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

    def run(self, stop: Optional[Callable[[TraceEvent], bool]] = None
            ) -> RefinementOutcome:
        if self.algorithm == RUPPERT:
            for key in self.tri.subsegments:
                self._scan_new_subseg(key)
        while self.insertions < self.cfg.max_insertions:
            if self._seg_queue:
                key, _ = self._seg_queue.popitem(last=False)
                if self._split(key) < self.floor_len:
                    return self._finish(DIVERGENCE_FLOOR_HIT)
                if stop is not None and stop(self.events[-1]):
                    return self._finish(STOPPED)
            elif not self._heap:
                return self._finish(TERMINATED)
            else:
                ma, _, tid = heapq.heappop(self._heap)
                if tid in self.tri.triangles:  # else an earlier step removed it
                    self._process_skinny(tid, ma)
        return self._finish(BUDGET_EXHAUSTED)

    def _process_skinny(self, tid: int, ma: float) -> None:
        """Insert the triangle's circumcenter unless a subsegment blocks it;
        otherwise queue the blockers to be split."""
        pa, pb, pc = self.tri.triangle_points(tid)
        c = circumcenter(pa, pb, pc)
        if self.algorithm == RUPPERT:
            # blocked by every subsegment whose diametral circle holds c
            closed = self.cfg.closed_diametral
            blockers = list(encroached_subsegs(self.tri, c, closed))
        else:
            # blocked by the first subsegment between the triangle and c
            g = Point((pa.x + pb.x + pc.x) / 3.0, (pa.y + pb.y + pc.y) / 3.0)
            crossed = self.tri.first_constraint_crossing(g, c, tid)
            blockers = [] if crossed is None else [crossed]
        if not blockers:
            res = self.tri.insert_vertex(c, CIRCUMCENTER, start=tid)
            self.insertions += 1
            self._emit(CIRCUMCENTER_INSERT, min_angle=ma, x=c.x, y=c.y)
            self._consider_triangles(res.created)
            return
        self._emit(
            CIRCUMCENTER_REJECTED_FOR_ENCROACHMENT,
            lineage=self.tri.subsegments[blockers[0]].lineage,
            min_angle=ma,
            x=c.x,
            y=c.y,
        )
        if self.algorithm == CHEW2:
            doomed = list(
                encroaching_vertices(self.tri, blockers[0], True, CIRCUMCENTER)
            )
            for vid in doomed:
                p = self.tri.points[vid]
                res = self.tri.delete_vertex(vid)
                self._emit(VERTEX_DELETED, x=p.x, y=p.y)
                self._consider_triangles(res.created)
        for key in blockers:
            self._seg_queue.setdefault(key)


def ruppert(pslg: Pslg, cfg: RefinementConfig, stop=None) -> RefinementOutcome:
    """Conforming-Delaunay refinement with diametral-circle encroachment."""
    return _Run(pslg, cfg, RUPPERT).run(stop)


def chew2(pslg: Pslg, cfg: RefinementConfig, stop=None) -> RefinementOutcome:
    """Constrained-Delaunay refinement with free-vertex deletion."""
    return _Run(pslg, cfg, CHEW2).run(stop)


def audit(outcome: RefinementOutcome) -> list[str]:
    """Verify the outcome's postconditions and trace invariants.

    Termination means no skinny triangle remains; only the conforming
    engine additionally guarantees that no subsegment is encroached (the
    constrained engine leaves diametral circles non-empty by design).
    """
    cfg = outcome.config
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
