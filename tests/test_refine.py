import math

import pytest

from refinelab.cdt import CIRCUMCENTER
from refinelab.geom import Point, encroaches
from refinelab.pslg import Pslg, Segment
from refinelab.generators import example2, pav, pinwheel
from refinelab.refine import (
    BUDGET_EXHAUSTED,
    CIRCUMCENTER_INSERT,
    CIRCUMCENTER_REJECTED_FOR_ENCROACHMENT,
    DIVERGENCE_FLOOR_HIT,
    SEGMENT_SPLIT,
    TERMINATED,
    RefinementConfig,
    RefinementTrace,
    TraceEvent,
    audit,
    chew2,
    ruppert,
)
from refinelab.analysis import cascade_splits


def square_pslg(side=4.0):
    return Pslg(
        vertices=(
            Point(0, 0), Point(side, 0), Point(side, side), Point(0, side),
        ),
        segments=(
            Segment(0, 1), Segment(1, 2), Segment(2, 3), Segment(3, 0),
        ),
    )


def transform_pslg(p, f):
    return Pslg(
        tuple(Point(*f(v)) for v in p.vertices),
        p.segments,
        tuple(Point(*f(h)) for h in p.holes),
    )


class TestBasics:
    def test_square_terminates_ruppert(self):
        out = ruppert(square_pslg(), RefinementConfig(alpha_deg=20))
        assert out.status == TERMINATED
        assert audit(out) == []

    def test_square_terminates_chew2(self):
        out = chew2(square_pslg(), RefinementConfig(alpha_deg=25))
        assert out.status == TERMINATED
        assert audit(out) == []

    def test_budget_exhaustion(self):
        out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=31, max_insertions=5))
        assert out.status == BUDGET_EXHAUSTED
        assert out.insertions == 5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RefinementConfig(alpha_deg=0.0)
        with pytest.raises(ValueError):
            RefinementConfig(alpha_deg=60.0)
        with pytest.raises(ValueError):
            RefinementConfig(alpha_deg=20, max_insertions=0)
        with pytest.raises(ValueError):
            RefinementConfig(alpha_deg=20, min_length_ratio=1.5)


@pytest.fixture(scope="module")
def run31():
    return ruppert(pinwheel(4), RefinementConfig(alpha_deg=31))


class TestPinwheelCascade:
    def test_floor_hit(self, run31):
        assert run31.status == DIVERGENCE_FLOOR_HIT

    def test_records_decay_by_quarter_power(self, run31):
        rec = cascade_splits(run31)
        assert len(rec) >= 20
        tail = rec[-12:]
        for a, b in zip(tail, tail[1:]):
            assert b.length / a.length == pytest.approx(2 ** -0.25, rel=1e-12)

    def test_records_cycle_lineages_in_fan_order(self, run31):
        rec = cascade_splits(run31)
        tail = [e.lineage for e in rec[-12:]]
        for i in range(len(tail) - 4):
            assert tail[i + 4] == tail[i]
            assert tail[i + 1] == (tail[i] + 1) % 4
        assert set(tail) == {0, 1, 2, 3}

    def test_per_revolution_halving_exact(self, run31):
        rec = cascade_splits(run31)
        tail = rec[-13:]
        for a, b in zip(tail, tail[4:]):
            assert b.length == a.length / 2.0

    def test_terminates_at_20(self):
        out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=20))
        assert out.status == TERMINATED
        assert audit(out) == []

    def test_pinwheel3_terminates_at_25(self):
        out = ruppert(pinwheel(3), RefinementConfig(alpha_deg=25))
        assert out.status == TERMINATED
        assert audit(out) == []


class TestChew2:
    def test_diverges_on_pinwheel4(self):
        out = chew2(pinwheel(4), RefinementConfig(alpha_deg=31))
        assert out.status == DIVERGENCE_FLOOR_HIT
        rec = cascade_splits(out)
        tail = rec[-12:]
        for a, b in zip(tail, tail[1:]):
            assert b.length / a.length == pytest.approx(2 ** -0.25, rel=1e-12)

    def test_deletes_free_vertices_in_cascade(self):
        out = chew2(pinwheel(4), RefinementConfig(alpha_deg=31))
        counts = out.trace.counts()
        assert counts.get("VERTEX_DELETED", 0) >= counts[SEGMENT_SPLIT] // 2

    def test_terminates_on_perturbed_pav(self):
        out = chew2(pav(1e-3), RefinementConfig(alpha_deg=30.5))
        assert out.status == TERMINATED
        assert audit(out) == []


class TestPavBoundary:
    def test_open_diametral_no_config_split(self):
        out = ruppert(
            pav(0.0), RefinementConfig(alpha_deg=30.5, closed_diametral=False)
        )
        assert out.status == TERMINATED
        config_splits = [e for e in out.trace.splits() if e.lineage in (0, 1)]
        assert config_splits == []

    def test_closed_diametral_splits_and_cascades(self):
        out = ruppert(
            pav(0.0), RefinementConfig(alpha_deg=30.5, closed_diametral=True)
        )
        assert out.status == DIVERGENCE_FLOOR_HIT
        config_splits = [e for e in out.trace.splits() if e.lineage in (0, 1)]
        assert len(config_splits) >= 8

    def test_perturbed_diverges_open(self):
        out = ruppert(pav(1e-3), RefinementConfig(alpha_deg=30.5))
        assert out.status in (DIVERGENCE_FLOOR_HIT, BUDGET_EXHAUSTED)
        rec = cascade_splits(out)
        tail = rec[-10:]
        for a, b in zip(tail, tail[1:]):
            assert b.length / a.length == pytest.approx(2 ** -0.5, rel=1e-12)


class TestDeterminismAndEquivariance:
    def test_bit_identical_reruns(self):
        cfg = RefinementConfig(alpha_deg=31)
        a = ruppert(pinwheel(4), cfg)
        b = ruppert(pinwheel(4), cfg)
        assert a.trace.to_jsonl() == b.trace.to_jsonl()
        c = chew2(pinwheel(4), cfg)
        d = chew2(pinwheel(4), cfg)
        assert c.trace.to_jsonl() == d.trace.to_jsonl()

    @pytest.mark.parametrize(
        "transform",
        [lambda v: (-v[1], v[0]), lambda v: (8.0 * v[0], 8.0 * v[1])],
        ids=["rot90", "scale8"],
    )
    def test_exact_transform_equivariance(self, transform):
        cfg = RefinementConfig(alpha_deg=31, max_insertions=2000)
        base = ruppert(pinwheel(4), cfg)
        moved = ruppert(transform_pslg(pinwheel(4), transform), cfg)
        assert len(base.trace.events) == len(moved.trace.events)
        scale = abs(transform((1.0, 0.0))[0]) or abs(transform((1.0, 0.0))[1])
        for e1, e2 in zip(base.trace.events, moved.trace.events):
            assert e1.kind == e2.kind
            assert e1.lineage == e2.lineage
            if e1.length is not None:
                assert e2.length == e1.length * scale
            if e1.x is not None:
                tx, ty = transform((e1.x, e1.y))
                assert (tx, ty) == (e2.x, e2.y)

    def test_enclosure_scale_does_not_disturb_cascade(self):
        cfg = RefinementConfig(alpha_deg=31)
        t4 = ruppert(pinwheel(4, enclosure_scale=4.0), cfg)
        t8 = ruppert(pinwheel(4, enclosure_scale=8.0), cfg)

        def config_splits(out):
            return [
                (e.lineage, e.length, e.x, e.y)
                for e in out.trace.splits()
                if e.lineage < 4
            ]

        a, b = config_splits(t4), config_splits(t8)
        assert a[:16] == b[:16]


class TestTraceAndAudit:
    def test_trace_serialization_round_trip(self):
        out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=31, max_insertions=50))
        text = out.trace.to_jsonl()
        back = RefinementTrace.from_jsonl(text)
        assert back == out.trace

    def test_rejected_event_precedes_split(self):
        out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=31))
        ev = out.trace.events
        for i, e in enumerate(ev):
            if e.kind == CIRCUMCENTER_REJECTED_FOR_ENCROACHMENT and e.lineage is not None:
                nxt = [x for x in ev[i + 1 : i + 4] if x.kind == SEGMENT_SPLIT]
                assert nxt, f"rejection at seq {e.seq} not followed by a split"
                break
        else:
            pytest.fail("no rejection event found")

    def test_audit_accepts_clean_runs(self):
        out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=31))
        assert audit(out) == []
        out = chew2(pinwheel(4), RefinementConfig(alpha_deg=31))
        assert audit(out) == []

    def test_audit_flags_non_halving_split(self):
        out = ruppert(square_pslg(), RefinementConfig(alpha_deg=20))
        bad = TraceEvent(
            seq=len(out.trace.events),
            kind=SEGMENT_SPLIT,
            lineage=0,
            length=1.7,
            min_angle_deg=None,
            x=0.0,
            y=0.0,
        )
        out.trace = RefinementTrace(out.trace.events + (bad,))
        problems = audit(out)
        assert len(problems) == 1
        assert "halving" in problems[0]

    def test_audit_flags_encroaching_vertex(self):
        out = ruppert(square_pslg(), RefinementConfig(alpha_deg=20))
        tri = out.triangulation
        u, v = min(tri.subsegments)
        rec = tri.subsegments[(u, v)]
        a, b = tri.points[u], tri.points[v]
        # inside the subsegment's diametral circle, a quarter of its length
        # from the midpoint towards the square's centre
        mx, my = (a.x + b.x) / 2, (a.y + b.y) / 2
        d = math.hypot(2.0 - mx, 2.0 - my)
        p = Point(mx + 0.25 * rec.length * (2.0 - mx) / d,
                  my + 0.25 * rec.length * (2.0 - my) / d)
        vid = tri.insert_vertex(p, CIRCUMCENTER).vertex
        # brute force: every alive vertex against every subsegment
        expected = [
            f"terminated with vertex {w} encroaching subsegment {key}"
            for key in tri.subsegments
            for w in range(len(tri.points))
            if tri.alive[w] and w not in key
            and encroaches(tri.points[w], tri.points[key[0]],
                           tri.points[key[1]])
        ]
        got = [m for m in audit(out) if "encroaching" in m]
        assert got == expected
        assert any(f"vertex {vid} " in m for m in got)

    def test_audit_verifies_cascade_lengths_from_geometry(self):
        out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=31))
        rec = cascade_splits(out)[-9:]
        assert len(rec) == 9
        # recompute each split length from the midpoint coordinates: the
        # fan cascade splits apex-side children, so the midpoint sits at
        # a quarter of the parent from the apex
        for e in rec:
            r = math.hypot(e.x, e.y)
            assert 4.0 * r / 2.0 == pytest.approx(e.length, rel=1e-12)

    def test_insertions_counted(self):
        out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=31, max_insertions=40))
        counts = out.trace.counts()
        total = counts.get(SEGMENT_SPLIT, 0) + counts.get(CIRCUMCENTER_INSERT, 0)
        assert total == out.insertions == 40


class TestExample2Spiral:
    def test_unbalanced_diverges_halfway_over_30(self):
        out = ruppert(example2(75.0, 1.0, 1e-3), RefinementConfig(alpha_deg=30.5))
        assert out.status == DIVERGENCE_FLOOR_HIT
        rec = cascade_splits(out)
        tail = rec[-13:]
        for a, b in zip(tail, tail[4:]):
            assert b.length == a.length / 2.0

    def test_unbalanced_terminates_below_29(self):
        out = ruppert(example2(75.0, 1.0, 1e-3), RefinementConfig(alpha_deg=28.9))
        assert out.status == TERMINATED
