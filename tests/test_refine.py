import functools
import json
import math
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import refinelab
from refinelab import cdt, refine
from refinelab.cdt import CIRCUMCENTER, SEGMENT_MIDPOINT, Triangulation
from refinelab.geom import Point, encroaches, min_angle_deg
from refinelab.pslg import Pslg, Segment
from refinelab.generators import (
    enclose,
    example2,
    example2_optimized,
    pav,
    pinwheel,
)
from refinelab.refine import (
    BUDGET_EXHAUSTED,
    CIRCUMCENTER_INSERT,
    CIRCUMCENTER_REJECTED_FOR_ENCROACHMENT,
    DIVERGENCE_FLOOR_HIT,
    SEGMENT_SPLIT,
    STOPPED,
    TERMINATED,
    RefinementConfig,
    RefinementTrace,
    TraceEvent,
    audit,
    chew2,
    ruppert,
)
from refinelab.analysis import DIVERGING, cascade_splits, classify


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

    @pytest.mark.parametrize("engine", [ruppert, chew2])
    def test_no_segments_is_engine_error(self, engine):
        p = Pslg((Point(0, 0), Point(1, 0), Point(0, 1)), ())
        with pytest.raises(refine.EngineError, match="at least one constraint"):
            engine(p, RefinementConfig(alpha_deg=20))

    def test_budget_exhaustion(self):
        out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=31, max_insertions=5))
        assert out.status == BUDGET_EXHAUSTED
        assert out.insertions == 5

    @pytest.mark.parametrize("engine, floor_at", [(ruppert, 732), (chew2, 827)])
    def test_floor_wins_over_budget_on_the_same_split(self, engine, floor_at):
        # the split that goes below the floor is also the budget's last
        # insertion: the run reports the floor; one insertion less and the
        # budget runs out first
        out = engine(pinwheel(4), RefinementConfig(
            alpha_deg=31, max_insertions=floor_at))
        assert (out.status, out.insertions) == (DIVERGENCE_FLOOR_HIT, floor_at)
        assert out.trace.events[-1].kind == SEGMENT_SPLIT
        out = engine(pinwheel(4), RefinementConfig(
            alpha_deg=31, max_insertions=floor_at - 1))
        assert (out.status, out.insertions) == (BUDGET_EXHAUSTED, floor_at - 1)

    @pytest.mark.parametrize("engine", [ruppert, chew2])
    def test_stop_hook_sees_each_split_before_the_floor(self, engine):
        # a hook that never stops leaves the run as it was; the split that
        # hits the floor ends the run before the hook is called
        cfg = RefinementConfig(alpha_deg=31)
        full = engine(pinwheel(4), cfg)
        seen = []
        out = engine(pinwheel(4), cfg, stop=lambda e: seen.append(e) and False)
        assert out.status == full.status == DIVERGENCE_FLOOR_HIT
        assert out.trace == full.trace
        assert seen == full.trace.splits()[:-1]

    @pytest.mark.parametrize("engine", [ruppert, chew2])
    def test_stop_hook_ends_the_run_after_its_split(self, engine):
        cfg = RefinementConfig(alpha_deg=31)
        full = engine(pinwheel(4), cfg)
        third = full.trace.splits()[2]
        out = engine(pinwheel(4), cfg, stop=lambda e: e.seq == third.seq)
        assert out.status == STOPPED
        assert out.trace.events == full.trace.events[:third.seq + 1]
        assert out.insertions == sum(
            e.kind in (SEGMENT_SPLIT, CIRCUMCENTER_INSERT) for e in out.trace.events
        )

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

    def test_terminates_at_20_scaled_toward_underflow(self):
        # scaling by a power of two is exact, so the run must not change;
        # at 2**-300 the degree-four incircle products underflow to 0.0
        p = pinwheel(4)
        tiny = Pslg(
            tuple(Point(v.x * 2.0 ** -300, v.y * 2.0 ** -300) for v in p.vertices),
            p.segments,
            tuple(Point(h.x * 2.0 ** -300, h.y * 2.0 ** -300) for h in p.holes),
        )
        base = ruppert(p, RefinementConfig(alpha_deg=20))
        out = ruppert(tiny, RefinementConfig(alpha_deg=20))
        assert (out.status, out.insertions) == (base.status, base.insertions) == (
            TERMINATED, 13)
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

    @pytest.mark.parametrize("delta,verdict", [
        (3e-13, TERMINATED),
        (1e-12, DIVERGING),
    ])
    def test_diametral_dead_band(self, delta, verdict):
        # encroaches() puts a relative 1e-12 band around the diametral
        # circle on it: a narrower perturbation is not an encroachment
        out = ruppert(pav(delta), RefinementConfig(alpha_deg=31, max_insertions=2000))
        assert classify(out).status == verdict


class TestDeterminismAndEquivariance:
    def test_bit_identical_reruns(self):
        cfg = RefinementConfig(alpha_deg=31)
        a = ruppert(pinwheel(4), cfg)
        b = ruppert(pinwheel(4), cfg)
        assert oracles.written(a.trace.to_jsonl) == oracles.written(b.trace.to_jsonl)
        c = chew2(pinwheel(4), cfg)
        d = chew2(pinwheel(4), cfg)
        assert oracles.written(c.trace.to_jsonl) == oracles.written(d.trace.to_jsonl)

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

    def test_trace_bytes_do_not_depend_on_hash_seed(self):
        script = (
            "import hashlib, math\n"
            "from oracles import written\n"
            "from refinelab.generators import enclose, pinwheel\n"
            "from refinelab.geom import Point\n"
            "from refinelab.pslg import Pslg, Segment\n"
            "from refinelab.refine import RefinementConfig, chew2, ruppert\n"
            "t = math.radians(20)\n"
            "wedge = enclose(Pslg((Point(0.0, 0.0), Point(1.0, 0.0),\n"
            "    Point(math.cos(t), math.sin(t))), (Segment(0, 1), Segment(0, 2))))\n"
            "h = hashlib.sha256()\n"
            "h.update(written(ruppert(wedge, RefinementConfig(alpha_deg=25))"
            ".trace.to_jsonl).encode())\n"
            "h.update(written(chew2(pinwheel(4), RefinementConfig(alpha_deg=31, "
            "max_insertions=500)).trace.to_jsonl).encode())\n"
            "print(h.hexdigest())\n"
        )
        path = os.pathsep.join((os.path.dirname(os.path.dirname(refinelab.__file__)),
                                os.path.dirname(oracles.__file__)))
        digests = set()
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
            done = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True,
                text=True, check=True, timeout=120,
            )
            digests.add(done.stdout.strip())
        assert len(digests) == 1 and len(digests.pop()) == 64


def _events(finite):
    """Trace events whose optional fields are None, ints or floats: the
    signed zeros, subnormals and extremes, and, unless ``finite``, NaN
    and the infinities."""
    specials = () if finite else (math.nan, math.inf, -math.inf)
    field = st.one_of(
        st.none(), st.integers(),
        st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1.7976931348623157e308, -1.7976931348623157e308)
                        + specials),
        st.floats(allow_nan=not finite, allow_infinity=not finite),
    )
    kind = st.one_of(
        st.sampled_from((SEGMENT_SPLIT, CIRCUMCENTER_INSERT,
                         CIRCUMCENTER_REJECTED_FOR_ENCROACHMENT,
                         refine.VERTEX_DELETED)),
        st.text(max_size=8),
    )
    return st.builds(TraceEvent, st.integers(min_value=0), kind,
                     field, field, field, field, field)


class TestTraceAndAudit:
    def test_trace_serialization_round_trip(self):
        out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=31, max_insertions=50))
        text = oracles.written(out.trace.to_jsonl)
        back = RefinementTrace.from_jsonl(text)
        assert back == out.trace

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(_events(finite=False))
    def test_event_line_is_json_dumps_of_its_fields(self, e):
        assert e.to_json() == json.dumps(e._asdict(), sort_keys=True)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.lists(_events(finite=True), max_size=20))
    def test_finite_trace_round_trips(self, events):
        t = RefinementTrace(tuple(events))
        text = oracles.written(t.to_jsonl)
        back = RefinementTrace.from_jsonl(text)
        assert back == t
        assert oracles.written(back.to_jsonl) == text  # the sign of a zero survives too

    def test_trace_line_without_a_field_names_its_line(self):
        out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=31, max_insertions=5))
        lines = oracles.written(out.trace.to_jsonl).splitlines()
        lines[2] = lines[2].replace('"lineage"', '"lineage_id"')
        with pytest.raises(ValueError, match="^trace line 3 has no 'lineage' key$"):
            RefinementTrace.from_jsonl("\n".join(lines))

    @pytest.mark.parametrize("bad", ['{"seq": 0,', "SEGMENT_SPLIT", "[0, 1]"],
                             ids=["truncated", "not-json", "not-an-object"])
    def test_trace_line_that_is_not_a_json_object_names_its_line(self, bad):
        out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=31, max_insertions=5))
        # blank lines count, so the number is the line an editor shows
        text = oracles.written(out.trace.to_jsonl) + "\n" + bad + "\n"
        n = len(out.trace.events) + 2
        with pytest.raises(ValueError, match=f"^trace line {n} is not"):
            RefinementTrace.from_jsonl(text)

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

    def test_audit_flags_skinny_triangle(self):
        # a TERMINATED outcome over the unrefined mesh, which has triangles
        # below 31 degrees; chew2's audit tests no encroachment
        tri = Triangulation.build(pinwheel(4))
        cfg = RefinementConfig(alpha_deg=31)
        out = refine.RefinementOutcome(TERMINATED, tri, RefinementTrace(()), 0,
                                       cfg, refine.CHEW2)
        expected = [
            f"terminated with skinny triangle {tid} (min angle {ma:.4f})"
            for tid in tri.triangles
            for ma in [min_angle_deg(*tri.triangle_points(tid))] if ma < 31
        ]
        assert expected
        assert audit(out) == expected

    def test_audit_flags_unknown_lineage(self):
        out = ruppert(square_pslg(), RefinementConfig(alpha_deg=20))
        seq = len(out.trace.events)
        stray = TraceEvent(seq, SEGMENT_SPLIT, 99, 1.0, None, 0.0, 0.0)
        out.trace = RefinementTrace(out.trace.events + (stray,))
        assert audit(out) == [f"split event {seq} has unknown lineage 99"]

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

    def test_one_encroachment_query_per_new_vertex(self, monkeypatch):
        # a split midpoint is tested when it is made, a circumcenter
        # before it is inserted or rejected, and neither ever again
        calls = 0
        query = refine.encroached_subsegs

        def counted(*args):
            nonlocal calls
            calls += 1
            return query(*args)

        monkeypatch.setattr(refine, "encroached_subsegs", counted)
        out = ruppert(pav(1e-3), RefinementConfig(alpha_deg=31, max_insertions=2000))
        counts = out.trace.counts()
        tested = sum(counts.get(k, 0) for k in (
            CIRCUMCENTER_INSERT, CIRCUMCENTER_REJECTED_FOR_ENCROACHMENT,
            SEGMENT_SPLIT,
        ))
        assert calls == tested


@st.composite
def enclosed_fans(draw):
    """2 to 5 arms from the origin, pairwise at least 60 degrees apart,
    with lengths in [0.5, 2] to three decimals, enclosed at scale 3."""
    k = draw(st.integers(2, 5))
    spare = 360 - 60 * k
    # arm i sits 60 i degrees plus a non-decreasing extra past arm 0
    extras = sorted(draw(st.lists(st.integers(0, spare), min_size=k - 1,
                                  max_size=k - 1)))
    start = draw(st.integers(0, 359))
    dirs = [start] + [start + 60 * i + e for i, e in enumerate(extras, 1)]
    lengths = draw(st.lists(st.integers(500, 2000), min_size=k, max_size=k))
    tips = tuple(
        Point(n / 1000 * math.cos(math.radians(d)),
              n / 1000 * math.sin(math.radians(d)))
        for n, d in zip(lengths, dirs)
    )
    return enclose(Pslg(
        (Point(0.0, 0.0),) + tips,
        tuple(Segment(0, i) for i in range(1, k + 1)),
    ), 3.0)


class TestChew2Guarantee:
    # inside chew2's termination guarantee: no input angle below 60 deg
    # and alpha at most 26.5 deg (Shewchuk 2002)
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(p=enclosed_fans())
    def test_terminates_clean_on_enclosed_fans(self, p):
        for alpha in (20, 25):
            out = chew2(p, RefinementConfig(alpha_deg=alpha, max_insertions=3000))
            assert out.status == TERMINATED
            assert audit(out) == []
            assert out.triangulation.check() == []


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


# the five ``refinelab refine`` runs of the benchmark's cascade workload,
# each to the floor or its budget: input, engine, alpha and budget
# (10,000 is refine's default)
CASCADE_RUNS = {
    "pav-ruppert-31": (lambda: pav(1e-3), ruppert, 31.0, 40000),
    "pinwheel4-ruppert-31": (lambda: pinwheel(4), ruppert, 31.0, 10000),
    "pinwheel4-chew2-31": (lambda: pinwheel(4), chew2, 31.0, 10000),
    "spiral-opt-ruppert-30":
        (lambda: example2_optimized(1e-3), ruppert, 30.0, 10000),
    "pinwheel5-ruppert-34": (lambda: pinwheel(5), ruppert, 34.0, 10000),
}


class TestDivergentMeshesAudited:
    @pytest.mark.parametrize("run", CASCADE_RUNS)
    def test_final_mesh_passes_check_and_audit(self, run):
        make, engine, alpha, budget = CASCADE_RUNS[run]
        out = engine(make(), RefinementConfig(alpha_deg=alpha,
                                              max_insertions=budget))
        assert out.status in (DIVERGENCE_FLOOR_HIT, BUDGET_EXHAUSTED)
        assert out.triangulation.check() == []
        assert audit(out) == []


@functools.lru_cache(maxsize=None)
def stopped_mesh(family, engine, budget):
    """The triangulation of a diverging run cut off after ``budget``
    insertions: splits have happened, and deletions too under chew2."""
    p, alpha = {"pinwheel5": (pinwheel(5), 34.0), "pav": (pav(1e-3), 33.0)}[family]
    run = {"ruppert": ruppert, "chew2": chew2}[engine]
    return run(p, RefinementConfig(alpha_deg=alpha, max_insertions=budget)
               ).triangulation


def _recorded(calls):
    def record(p, a, b, closed=False):
        calls.append((tuple(p), tuple(a), tuple(b), closed))
        return encroaches(p, a, b, closed=closed)
    return record


@st.composite
def query_point(draw, tri):
    """A random point over the mesh, a vertex, a subsegment midpoint, a
    dyadic point on the cell boundaries of a drawn power-of-two grid,
    or a point on or just past a padded diametral box's edge."""
    pts = tri.points
    keys = list(tri.subsegments)
    key = draw(st.sampled_from(keys))
    a, b = pts[key[0]], pts[key[1]]
    mx, my = (a[0] + b[0]) * 0.5, (a[1] + b[1]) * 0.5
    kind = draw(st.sampled_from(["random", "vertex", "midpoint", "dyadic",
                                 "box-edge"]))
    if kind == "random":
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        return Point(draw(st.floats(min(xs) - 1, max(xs) + 1)),
                     draw(st.floats(min(ys) - 1, max(ys) + 1)))
    if kind == "vertex":
        return pts[draw(st.sampled_from(
            [v for v, ok in enumerate(tri.alive) if ok]))]
    if kind == "midpoint":
        return Point(mx, my)
    if kind == "dyadic":
        side = 2.0 ** draw(st.integers(-14, 3))
        return Point(
            (math.floor(mx / side) + draw(st.integers(-1, 2))) * side,
            (math.floor(my / side) + draw(st.integers(-1, 2))) * side,
        )
    r = tri.subsegments[key].length * 0.5000005

    def edge(m):
        return draw(st.sampled_from([
            m - r, m + r, math.nextafter(m - r, -math.inf),
            math.nextafter(m + r, math.inf), m,
        ]))
    return Point(edge(mx), edge(my))


class TestLocalQueries:
    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(data=st.data())
    def test_queries_match_whole_mesh_scans(self, data):
        tri = stopped_mesh(
            data.draw(st.sampled_from(["pinwheel5", "pav"])),
            data.draw(st.sampled_from(["ruppert", "chew2"])),
            data.draw(st.sampled_from([3, 20, 80, 250, 600])),
        )
        p = data.draw(query_point(tri))
        closed = data.draw(st.booleans())
        tag = data.draw(st.sampled_from([None, CIRCUMCENTER]))
        # same answers in the same order, through the same encroaches calls
        got, want = [], []
        with mock.patch.object(refine, "encroaches", _recorded(got)), \
                mock.patch.object(oracles, "encroaches", _recorded(want)):
            hits = list(refine.encroached_subsegs(tri, p, closed))
            assert hits == oracles.encroached_subsegs_oracle(tri, p, closed)
            key = data.draw(st.sampled_from(list(tri.subsegments)))
            for k in [key] + hits:
                assert list(refine.encroaching_vertices(tri, k, closed, tag)) \
                    == oracles.encroaching_vertices_oracle(tri, k, closed, tag)
        assert got == want

    def test_stopped_meshes_have_splits_and_deletions(self):
        for family in ("pinwheel5", "pav"):
            tri = stopped_mesh(family, "chew2", 20)
            assert not all(tri.alive)
            assert any(tag == SEGMENT_MIDPOINT for tag in tri.tags)

    def test_crossing_walk_answers_without_the_index(self, monkeypatch):
        # chew2's visibility queries on these inputs start inside a
        # triangle and cross only edge interiors, so the walk alone answers
        # them; the scan fallback is for degenerate paths
        queries = fallbacks = 0
        walk = Triangulation.first_constraint_crossing
        beyond = Triangulation._crossing_beyond

        def query(tri, *args):
            nonlocal queries
            queries += 1
            return walk(tri, *args)

        def fallback(tri, *args):
            nonlocal fallbacks
            fallbacks += 1
            return beyond(tri, *args)

        monkeypatch.setattr(Triangulation, "first_constraint_crossing", query)
        monkeypatch.setattr(Triangulation, "_crossing_beyond", fallback)
        for pslg, alpha in ((pinwheel(4), 31), (pav(1e-3), 31), (pinwheel(5), 34)):
            chew2(pslg, RefinementConfig(alpha_deg=alpha))
        assert queries > 2000
        assert fallbacks == 0

    def test_cost_per_insertion_stays_flat(self, monkeypatch):
        # the candidates the queries examine between one new vertex and the
        # next: every box test (point queries, and the filtering of a split
        # subsegment's vertices into its halves) and every vertex that a
        # vertex query lists
        examined = 0
        at_vertex = []
        in_box = cdt._in_box
        add_vertex = Triangulation._add_vertex
        vertices_near = Triangulation.vertices_near

        def box_test(*args):
            nonlocal examined
            examined += 1
            return in_box(*args)

        def vertex_query(tri, key):
            nonlocal examined
            out = vertices_near(tri, key)
            examined += len(out)
            return out

        def new_vertex(tri, *args):
            at_vertex.append(examined)
            return add_vertex(tri, *args)

        monkeypatch.setattr(cdt, "_in_box", box_test)
        monkeypatch.setattr(Triangulation, "vertices_near", vertex_query)
        monkeypatch.setattr(Triangulation, "_add_vertex", new_vertex)
        out = ruppert(pav(1e-3), RefinementConfig(alpha_deg=31, max_insertions=20000))
        tri = out.triangulation
        assert out.status == DIVERGENCE_FLOOR_HIT and out.insertions > 16000
        at_vertex.append(examined)
        # at_vertex[i] is the count when the i-th vertex of the run was
        # made; the build's input and super vertices come first
        costs = [b - a for a, b in zip(at_vertex, at_vertex[1:])][-out.insertions:]
        early = sum(costs[:2500]) / 2500
        late = sum(costs[10000:]) / len(costs[10000:])
        assert late <= 2 * early
        # a whole-mesh scan examines every subsegment for each point and
        # every alive vertex for each subsegment
        assert max(early, late) < 0.05 * len(tri.subsegments) < sum(tri.alive)
