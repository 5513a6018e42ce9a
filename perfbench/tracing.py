"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public calls into each layer of refinelab:
predicate lookups in ``cdt``, ``pslg`` and ``refine`` are counted, and
calls into ``pslg.validate``, the ``Triangulation`` operations, the
engines, ``analysis`` and the ``cli`` writers become spans.  A span is
[name, start, end, parent index, extra]; spans are kept in memory and
written out once the traced round is over.  ``uninstall`` restores every
original, so the untraced rounds run the program exactly as shipped.
"""

from __future__ import annotations

import copy
import itertools
import json
import statistics
import time

import refinelab.analysis as analysis
import refinelab.cdt as cdt
import refinelab.cli as cli
import refinelab.geom as geom
import refinelab.pslg as pslg
import refinelab.refine as refine

SPLIT = "SEGMENT_SPLIT"
INSERT = "CIRCUMCENTER_INSERT"
REJECTED = "CIRCUMCENTER_REJECTED_FOR_ENCROACHMENT"
DELETED = "VERTEX_DELETED"


class _EngineRun:
    """What a traced engine call leaves behind for the layer metrics."""

    __slots__ = ("status", "insertions", "counts", "trace")

    def __init__(self, outcome):
        self.status = outcome.status
        self.insertions = outcome.insertions
        self.counts = outcome.trace.counts()
        self.trace = outcome.trace


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._counters: dict[str, list] = {}
        self._undo: list[tuple] = []

    # -- wrapping ---------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _count(self, key, owner, attr):
        fn = getattr(owner, attr)
        tick = itertools.count()
        self._counters.setdefault(key, []).append(tick)

        def counted(*args, **kwargs):
            next(tick)
            return fn(*args, **kwargs)

        self._patch(owner, attr, counted)

    def _span(self, name, owner, attr, extra=None, static=False):
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extra is not None:
                rec[4] = extra(result)
            return result

        self._patch(owner, attr, staticmethod(traced) if static else traced)

    def install(self) -> None:
        T = cdt.Triangulation
        self._count("geom.orient_calls", cdt, "orient_sign")
        self._count("geom.orient_calls", pslg, "orient_sign")
        self._count("geom.incircle_calls", cdt, "incircle_sign")
        self._count("geom.encroaches_calls", refine, "encroaches")
        self._count("geom.exact_fallbacks", geom, "_orient_exact")
        self._count("geom.exact_fallbacks", geom, "_incircle_exact")
        self._span("pslg.validate", cdt, "validate")
        self._span("cdt.build", T, "build", static=True)
        self._span("cdt.insert", T, "insert_vertex", extra=lambda r: len(r.removed))
        self._span("cdt.locate", T, "locate")
        self._span("cdt.split", T, "split_subsegment")
        self._span("cdt.delete", T, "delete_vertex")
        self._span("cdt.crossing", T, "first_constraint_crossing")
        for module in (refine, analysis, cli):
            for engine in ("ruppert", "chew2"):
                self._span("refine.engine", module, engine, extra=_EngineRun)
        self._span("analysis.scan", analysis, "threshold_scan",
                   extra=lambda r: len(r.probes))
        self._span("analysis.classify", analysis, "classify")
        self._span("cli.refine", cli, "main")
        self._span("cli.report", cli, "run_report")
        self._span("cli.trace_write", refine.RefinementTrace, "to_jsonl")
        self._span("cli.mesh_write", cli, "write_node")
        self._span("cli.mesh_write", cli, "write_ele")
        self._span("cli.svg", cli, "mesh_to_svg")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def count(self, key) -> int:
        # next() on a copy reads a counter without advancing it
        return sum(next(copy.copy(tick)) for tick in self._counters.get(key, ()))

    def write(self, path) -> None:
        """One JSON line per span: id, name, start and end in us, parent."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                f.write(json.dumps([
                    i, name, round((start - t0) * 1e6, 3),
                    round((end - t0) * 1e6, 3), parent,
                ]) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metric values of everything recorded so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        by_name: dict[str, list[int]] = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            by_name.setdefault(name, []).append(i)
            if parent >= 0:
                child[parent] += end - start

        def durs(name):
            return [spans[i][2] - spans[i][1] for i in by_name.get(name, ())]

        def total(name):
            return sum(durs(name))

        def us(name, q):
            return percentile([d * 1e6 for d in durs(name)], q)

        engines = by_name.get("refine.engine", [])
        runs = [spans[i][4] for i in engines]
        events = {}
        for run in runs:
            for kind, n in run.counts.items():
                events[kind] = events.get(kind, 0) + n
        rejected = events.get(REJECTED, 0)
        processed = rejected + events.get(INSERT, 0)
        inserts = by_name.get("cdt.insert", [])
        scans = by_name.get("analysis.scan", [])
        scan_set = set(scans)
        probe_runs = [i for i in engines if spans[i][3] in scan_set]
        m = {
            "geom.orient_calls": self.count("geom.orient_calls"),
            "geom.incircle_calls": self.count("geom.incircle_calls"),
            "geom.encroaches_calls": self.count("geom.encroaches_calls"),
            "geom.exact_fallbacks": self.count("geom.exact_fallbacks"),
            "pslg.validate_s": total("pslg.validate"),
            "cdt.build_s": total("cdt.build") - sum(
                spans[i][2] - spans[i][1] for i in by_name.get("pslg.validate", ())
                if spans[i][3] >= 0 and spans[spans[i][3]][0] == "cdt.build"
            ),
            "cdt.insert_calls": len(inserts),
            "cdt.insert_us.p50": us("cdt.insert", 50),
            "cdt.insert_us.p99": us("cdt.insert", 99),
            "cdt.locate_us.p50": us("cdt.locate", 50),
            "cdt.cavity_tris.mean": (
                statistics.fmean(spans[i][4] for i in inserts) if inserts else 0.0
            ),
            "cdt.split_calls": len(by_name.get("cdt.split", ())),
            "cdt.split_us.p50": us("cdt.split", 50),
            "cdt.delete_calls": len(by_name.get("cdt.delete", ())),
            "cdt.delete_us.p50": us("cdt.delete", 50),
            "cdt.crossing_calls": len(by_name.get("cdt.crossing", ())),
            "cdt.crossing_us.p50": us("cdt.crossing", 50),
            "refine.engine_s": total("refine.engine"),
            "refine.self_s": sum(spans[i][2] - spans[i][1] - child[i] for i in engines),
            "refine.cost_growth": self._cost_growth(engines, by_name),
            "refine.reject_ratio": rejected / processed if processed else 0.0,
            "refine.events.split": events.get(SPLIT, 0),
            "refine.events.circumcenter": events.get(INSERT, 0),
            "refine.events.rejected": rejected,
            "refine.events.deleted": events.get(DELETED, 0),
            "analysis.probes": sum(spans[i][4] for i in scans),
            "analysis.retries": len(probe_runs) - sum(spans[i][4] for i in scans),
            "analysis.classify_s": total("analysis.classify"),
            "analysis.insertions_after_verdict": sum(
                insertions_after_verdict(spans[i][4]) for i in probe_runs
            ),
            "cli.report_s": total("cli.report"),
            "cli.trace_write_s": total("cli.trace_write"),
            "cli.mesh_write_s": total("cli.mesh_write"),
            "cli.svg_s": total("cli.svg"),
        }
        return m

    def _cost_growth(self, engines, by_name) -> float:
        """Median gap between insertions, last quarter over first quarter,
        in the engine run with the most insertions."""
        if not engines:
            return 0.0
        spans = self.spans
        longest = max(engines, key=lambda i: spans[i][4].insertions)
        ends = sorted(
            spans[i][2]
            for name in ("cdt.split", "cdt.insert")
            for i in by_name.get(name, ())
            if spans[i][3] == longest
        )
        gaps = [b - a for a, b in zip(ends, ends[1:])]
        q = len(gaps) // 4
        if q == 0:
            return 0.0
        return statistics.median(gaps[-q:]) / statistics.median(gaps[:q])


def percentile(samples, q):
    """The q-th percentile; 0.0 when fewer than ten samples lie beyond it."""
    if len(samples) * (100 - q) < 1000:
        return 0.0
    return statistics.quantiles(samples, n=100)[q - 1]


class _Prefix:
    """Stand-in outcome holding a prefix of a trace's record splits."""

    def __init__(self, status, events):
        self.status = status
        self.trace = refine.RefinementTrace(tuple(events))


def insertions_after_verdict(run: _EngineRun) -> int:
    """Insertions made after ``classify`` would first have said DIVERGING.

    The verdict depends only on the record splits (and on the status not
    being TERMINATED), so it is re-judged on each record prefix.
    """
    if analysis.classify(_Prefix(run.status, run.trace.events)).status != "DIVERGING":
        return 0
    records = analysis.cascade_splits(run)
    for k in range(1, len(records) + 1):
        if analysis.classify(_Prefix(run.status, records[:k])).status == "DIVERGING":
            seq = records[k - 1].seq
            done = sum(
                1 for e in run.trace.events[: seq + 1] if e.kind in (SPLIT, INSERT)
            )
            return run.insertions - done
    return 0
