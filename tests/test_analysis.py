import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from refinelab import analysis
from refinelab.analysis import (
    DIVERGING,
    INCONCLUSIVE,
    CascadeChecker,
    ConvergenceError,
    DivergenceVerdict,
    ScanError,
    ScanProbe,
    cascade_splits,
    classify,
    jacobian,
    residuals,
    solve_optimum,
    threshold_scan,
)
from refinelab.generators import (
    EXAMPLE2,
    EXAMPLE2_OPT,
    ExampleConfig,
    PAV,
    PINWHEEL,
    enclose,
    example2,
    example2_optimized,
    pav,
    pinwheel,
)
from refinelab.geom import Point
from refinelab.pslg import Pslg, Segment
from refinelab.refine import (
    BUDGET_EXHAUSTED,
    CIRCUMCENTER_INSERT,
    DIVERGENCE_FLOOR_HIT,
    SEGMENT_SPLIT,
    STOPPED,
    TERMINATED,
    RefinementConfig,
    RefinementOutcome,
    RefinementTrace,
    TraceEvent,
    chew2,
    ruppert,
)

from oracles import threshold_scan_oracle


class TestResiduals:
    def test_printed_solution_nearly_balances(self):
        r = residuals(
            math.radians(74.51), 0.985, math.radians(29.51), math.radians(29.51)
        )
        for v in r:
            assert abs(v) < 1e-3

    def test_unbalanced_start(self):
        r = residuals(math.radians(75), 1.0, math.radians(29), math.radians(30))
        # the first and third equations are exact identities at (75, 1)
        assert abs(r[0]) < 1e-12
        assert abs(r[2]) < 1e-12
        # the imbalance shows up in the second and fourth
        assert 1e-4 < abs(r[1]) < 1e-3
        assert r[3] == math.radians(29) - math.radians(30)

    def test_equal_alphas_zero_last_residual(self):
        r = residuals(math.radians(70), 0.9, 0.5, 0.5)
        assert r[3] == 0.0

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            residuals(-0.1, 1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            residuals(1.0, -1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            residuals(1.0, 1.0, 1.6, 0.5)

    def test_jacobian_matches_central_differences(self):
        rng = random.Random(42)
        for _ in range(20):
            x = [
                rng.uniform(1.0, 1.5),       # theta
                rng.uniform(0.7, 1.3),       # a
                rng.uniform(0.3, 0.7),       # alpha1
                rng.uniform(0.3, 0.7),       # alpha2
            ]
            jac = jacobian(*x)
            h = 1e-6
            for col in range(4):
                hi = x[:]
                lo = x[:]
                hi[col] += h
                lo[col] -= h
                fd = [
                    (a - b) / (2 * h)
                    for a, b in zip(residuals(*hi), residuals(*lo))
                ]
                for row in range(4):
                    assert jac[row][col] == pytest.approx(
                        fd[row], rel=1e-6, abs=1e-7
                    )


class TestSolver:
    def test_from_standard_guess(self):
        opt = solve_optimum((75.0, 1.0, 29.0, 30.0))
        assert opt.theta_deg == pytest.approx(74.51, abs=0.01)
        assert opt.a == pytest.approx(0.985, abs=0.001)
        assert opt.alpha1_deg == pytest.approx(29.51, abs=0.01)
        assert opt.alpha2_deg == pytest.approx(opt.alpha1_deg, abs=1e-10)
        assert opt.residual_norm < 1e-12

    def test_alphas_equal_to_tolerance(self):
        opt = solve_optimum()
        assert abs(
            math.radians(opt.alpha1_deg) - math.radians(opt.alpha2_deg)
        ) < 1e-12

    def test_restart_from_solution_is_immediate(self):
        opt = solve_optimum()
        again = solve_optimum(
            (opt.theta_deg, opt.a, opt.alpha1_deg, opt.alpha2_deg)
        )
        assert again.iterations <= 2
        assert again.theta_deg == pytest.approx(opt.theta_deg, abs=1e-9)

    def test_basin_from_perturbed_guess(self):
        ref = solve_optimum()
        opt = solve_optimum((76.0, 0.9, 28.0, 31.0))
        assert opt.theta_deg == pytest.approx(ref.theta_deg, abs=1e-6)
        assert opt.a == pytest.approx(ref.a, abs=1e-8)

    def test_step_that_raises_the_residual_is_halved(self, monkeypatch):
        ref = solve_optimum()
        norms = []  # of every point tried, except where residuals raised

        def recorded(*x):
            r = residuals(*x)
            norms.append(analysis._norm2(r))
            return r

        monkeypatch.setattr(analysis, "residuals", recorded)
        opt = solve_optimum((70.0, 2.5, 20.0, 20.0))
        # each accepted point has a lower norm than the one before it, and
        # the first rejected trial of a step does not
        assert any(b >= a for a, b in zip(norms, norms[1:]))
        assert opt.theta_deg == pytest.approx(ref.theta_deg, abs=1e-9)

    def test_hopeless_guess_raises(self):
        with pytest.raises((ConvergenceError, ValueError)):
            solve_optimum((89.0, 5.0, 1.0, 55.0), max_iter=5)


class TestClassify:
    def test_pinwheel4_diverging(self):
        out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=31))
        v = classify(out)
        assert v.status == DIVERGING
        assert v.decay_ratio == pytest.approx(2 ** -0.25, rel=0.01)
        assert v.lineage_cycle is not None
        assert len(v.lineage_cycle) == 4
        assert sorted(v.lineage_cycle) == [0, 1, 2, 3]

    def test_pav_diverging_period_two(self):
        out = ruppert(pav(1e-3), RefinementConfig(alpha_deg=30.5))
        v = classify(out)
        assert v.status == DIVERGING
        assert v.decay_ratio == pytest.approx(2 ** -0.5, rel=0.01)
        assert len(v.lineage_cycle) == 2
        assert sorted(v.lineage_cycle) == [0, 1]

    def test_terminated_passthrough(self):
        out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=20))
        assert classify(out).status == TERMINATED

    def test_budget_without_cascade_is_inconclusive(self):
        out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=31, max_insertions=6))
        assert classify(out).status == INCONCLUSIVE

    @pytest.mark.parametrize(
        "lineages,ratio,status",
        [
            (list(range(13)), 0.5, INCONCLUSIVE),
            ([i % 2 for i in range(13)], 0.6, INCONCLUSIVE),
            ([i % 2 for i in range(13)], 0.5, DIVERGING),
        ],
        ids=["no-period", "ratio-0.6", "halving"],
    )
    def test_synthetic_record_tails(self, lineages, ratio, status):
        # 13 record splits whose length falls by `ratio` every two events
        events = tuple(
            TraceEvent(i, SEGMENT_SPLIT, lin, ratio ** (i / 2), None, None, None)
            for i, lin in enumerate(lineages)
        )
        out = RefinementOutcome(
            BUDGET_EXHAUSTED, None, RefinementTrace(events), len(events),
            RefinementConfig(alpha_deg=30), "RUPPERT",
        )
        v = classify(out)
        assert v.status == status
        if status == DIVERGING:
            assert v.decay_ratio == pytest.approx(2 ** -0.5)
            assert v.lineage_cycle == (0, 1)

    def test_checker_matches_classify_on_every_prefix(self):
        out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=31))
        checker = CascadeChecker()
        for e in out.trace.splits():
            diverging = checker.feed(e)
            prefix = RefinementOutcome(
                BUDGET_EXHAUSTED, None, RefinementTrace(out.trace.events[:e.seq + 1]),
                0, out.config, out.algorithm,
            )
            assert checker.verdict == classify(prefix)
            assert diverging == (checker.verdict.status == DIVERGING)
        assert checker.records == cascade_splits(out)

    def test_cycle_starts_at_its_smallest_lineage(self):
        # the same cascade read at every phase reports one cycle
        events = [
            TraceEvent(i, SEGMENT_SPLIT, (i + 3) % 5, 2.0 ** (-i / 5), None,
                       None, None)
            for i in range(20)
        ]
        cycles = set()
        for end in range(13, 18):
            out = RefinementOutcome(
                BUDGET_EXHAUSTED, None, RefinementTrace(tuple(events[:end])), end,
                RefinementConfig(alpha_deg=30), "RUPPERT",
            )
            cycles.add(classify(out).lineage_cycle)
        assert cycles == {(0, 1, 2, 3, 4)}

    def test_record_subsequence_is_strictly_decreasing(self):
        out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=31))
        rec = cascade_splits(out)
        for a, b in zip(rec, rec[1:]):
            assert b.length < a.length


class TestThresholdScan:
    def test_pinwheel4_ruppert(self):
        res = threshold_scan(
            ExampleConfig(family=PINWHEEL, n=4), "RUPPERT", 25.0, 35.0, tol=0.1
        )
        assert res.threshold_deg == pytest.approx(
            math.degrees(math.atan(2 ** -0.75)), abs=0.2
        )
        assert res.hi - res.lo <= 0.1
        # post-hoc bracket verification
        lo_run = ruppert(pinwheel(4), RefinementConfig(alpha_deg=res.threshold_deg - 0.1))
        hi_run = ruppert(pinwheel(4), RefinementConfig(alpha_deg=res.threshold_deg + 0.1))
        assert classify(lo_run).status == TERMINATED
        assert classify(hi_run).status == DIVERGING

    def test_chew2_scan_matches_ruppert_on_pinwheel4(self):
        res = threshold_scan(
            ExampleConfig(family=PINWHEEL, n=4), "CHEW2", 25.0, 35.0, tol=0.1
        )
        assert res.threshold_deg == pytest.approx(30.74, abs=0.2)

    def test_accepts_raw_pslg(self):
        res = threshold_scan(pinwheel(4), "RUPPERT", 25.0, 35.0, tol=0.5)
        assert res.threshold_deg == pytest.approx(30.74, abs=0.5)

    def test_invalid_bracket_rejected(self):
        with pytest.raises(ScanError):
            threshold_scan(ExampleConfig(family=PINWHEEL, n=4), "RUPPERT", 35.0, 25.0)

    def test_unscannable_target_rejected(self):
        with pytest.raises(TypeError, match="cannot scan a str"):
            threshold_scan("pinwheel4", "RUPPERT", 25.0, 35.0)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ScanError, match="unknown algorithm 'DELAUNAY'"):
            threshold_scan(pinwheel(4), "DELAUNAY", 25.0, 35.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, 1e-300])
    def test_bad_tol_rejected_before_any_probe(self, monkeypatch, tol):
        probes = []
        monkeypatch.setattr(analysis, "ruppert", lambda *args: probes.append(args))
        with pytest.raises(ScanError, match="tolerance must be positive"):
            threshold_scan(pinwheel(4), "RUPPERT", 25.0, 35.0, tol=tol)
        assert probes == []

    def test_smallest_tolerance_ends_at_adjacent_floats(self, monkeypatch):
        # a stand-in engine whose runs diverge exactly above 30.1 degrees:
        # a probe below the run's one skinny triangle at 30.1 ends before it
        skinny = TraceEvent(0, CIRCUMCENTER_INSERT, None, None, 30.1, 0.0, 0.0)

        def engine(pslg, cfg, stop=None):
            return SimpleNamespace(
                alpha=cfg.alpha_deg, status="", insertions=0,
                trace=SimpleNamespace(splits=list, events=(skinny,)),
            )

        def verdict(outcome):
            return DivergenceVerdict(
                DIVERGING if outcome.alpha > 30.1 else TERMINATED
            )

        monkeypatch.setattr(analysis, "ruppert", engine)
        monkeypatch.setattr(analysis, "classify", verdict)
        res = threshold_scan(pinwheel(4), "RUPPERT", 25.0, 35.0, tol=math.ulp(35.0))
        assert res.lo <= 30.1 < res.hi
        assert res.hi - res.lo <= math.ulp(35.0)

    def test_non_terminating_lo_rejected(self):
        with pytest.raises(ScanError, match="does not terminate"):
            threshold_scan(
                ExampleConfig(family=PINWHEEL, n=4), "RUPPERT", 31.0, 35.0
            )

    def test_non_diverging_hi_rejected(self):
        with pytest.raises(ScanError, match="does not diverge"):
            threshold_scan(
                ExampleConfig(family=PINWHEEL, n=4), "RUPPERT", 20.0, 25.0
            )

    def test_inconclusive_probe_names_its_run(self):
        with pytest.raises(ScanError, match=r"^probe at alpha=35\.0000 is "
                           "inconclusive: BUDGET_EXHAUSTED after 48 insertions$"):
            threshold_scan(
                ExampleConfig(family=PINWHEEL, n=4), "RUPPERT", 25.0, 35.0,
                tol=0.1, budget=48,
            )

    def test_probe_records(self):
        res = threshold_scan(
            ExampleConfig(family=PAV, delta=1e-3), "RUPPERT", 28.0, 31.0, tol=0.25
        )
        assert res.threshold_deg == pytest.approx(30.0, abs=0.25)
        assert res.probes[0].alpha_deg == 28.0
        assert res.probes[1].alpha_deg == 31.0
        assert all(
            p.verdict.status in (TERMINATED, DIVERGING) for p in res.probes
        )


# the five acceptance scans: target, engine, bracket and tolerance
ACCEPTANCE_SCANS = [
    (ExampleConfig(family=PINWHEEL, n=4), "RUPPERT", 25.0, 35.0, 0.1),
    (ExampleConfig(family=PINWHEEL, n=4), "CHEW2", 25.0, 35.0, 0.1),
    (ExampleConfig(family=PAV, delta=1e-3), "RUPPERT", 25.0, 32.0, 0.1),
    (ExampleConfig(family=EXAMPLE2_OPT, delta=1e-3), "RUPPERT", 25.0, 32.0, 0.1),
    (ExampleConfig(family=PINWHEEL, n=5), "RUPPERT", 30.0, 36.0, 0.2),
]
ACCEPTANCE_IDS = ["pinwheel4-ruppert", "pinwheel4-chew2", "pav-ruppert",
                  "spiral-opt-ruppert", "pinwheel5-ruppert"]


class TestProbesReadFromOneRun:
    """``threshold_scan`` runs the engine at ``hi`` only and reads every
    probe from that run; ``oracles.threshold_scan_oracle`` runs every
    probe, and the two must agree on every field of every probe."""

    @pytest.mark.parametrize("args", ACCEPTANCE_SCANS + [
        (ExampleConfig(family=PAV, delta=1e-3), "RUPPERT", 28.0, 31.0, 0.25),
        (ExampleConfig(family=PINWHEEL, n=5), "CHEW2", 28.0, 38.0, 0.05),
        # the run at hi diverges with 190 of its 192 insertions
        (ExampleConfig(family=EXAMPLE2, delta=1e-3), "RUPPERT", 25.0, 32.0, 0.1,
         192),
        # about 50 probes, down to adjacent floats
        (ExampleConfig(family=PINWHEEL, n=4), "RUPPERT", 25.0, 35.0,
         math.ulp(35.0)),
    ], ids=ACCEPTANCE_IDS + ["pav-28-31", "pinwheel5-chew2", "hi-budget-192", "ulp"])
    def test_scan_equals_oracle(self, args):
        assert threshold_scan(*args) == threshold_scan_oracle(*args)

    @pytest.mark.parametrize("args, message", [
        ((ExampleConfig(family=PINWHEEL, n=4), "RUPPERT", 31.0, 35.0),
         "does not terminate"),
        ((ExampleConfig(family=PINWHEEL, n=4), "RUPPERT", 20.0, 25.0),
         "does not diverge"),
        # lo terminates, hi spends its budget without a verdict
        ((ExampleConfig(family=PINWHEEL, n=4), "RUPPERT", 25.0, 35.0, 0.1,
          48), "is inconclusive: BUDGET_EXHAUSTED after 48 insertions"),
        # chew2 never diverges on pinwheel(3): hi stays inconclusive
        ((ExampleConfig(family=PINWHEEL, n=3), "CHEW2", 20.0, 40.0, 0.05,
          4000), "is inconclusive"),
    ], ids=["lo-terminates-not", "hi-diverges-not", "budget-48", "pinwheel3-chew2"])
    def test_error_equals_oracle(self, args, message):
        with pytest.raises(ScanError, match=message) as got:
            threshold_scan(*args)
        with pytest.raises(ScanError) as want:
            threshold_scan_oracle(*args)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("args", ACCEPTANCE_SCANS, ids=ACCEPTANCE_IDS)
    def test_threshold_brackets_the_last_skinny_angle(self, args):
        # the probes at and below the largest angle of a popped skinny
        # triangle in the run at hi terminate, and those above it diverge
        target, alg, lo, hi, _ = args
        engine = ruppert if alg == "RUPPERT" else chew2
        run = engine(analysis._as_pslg(target), RefinementConfig(alpha_deg=hi),
                     stop=CascadeChecker().feed)
        worst = max(e.min_angle_deg for e in run.trace.events
                    if e.min_angle_deg is not None)
        res = threshold_scan(*args)
        assert res.exact_deg == worst
        assert res.lo <= worst < res.hi


def _perturbed_pinwheel(n, turns, stretches):
    """pinwheel(n) with arm i turned by turns[i] degrees and its length
    scaled by 1 + stretches[i]."""
    arms = [Point(0.0, 0.0)]
    for i in range(n):
        r = 2.0 ** ((n - i) / n) * (1.0 + stretches[i])
        d = math.radians(i * 360.0 / n + turns[i])
        arms.append(Point(r * math.cos(d), r * math.sin(d)))
    return enclose(Pslg(tuple(arms), tuple(Segment(0, i + 1, i) for i in range(n))))


@st.composite
def scan_inputs(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from([
            pinwheel(3), pinwheel(4), pinwheel(5), pav(), pav(1e-3),
            example2(75.0, 1.0, 1e-3), example2_optimized(1e-3),
        ]))
    n = draw(st.integers(3, 5))
    eps = st.floats(-0.02, 0.02)
    return _perturbed_pinwheel(n, draw(st.lists(eps, min_size=n, max_size=n)),
                               draw(st.lists(eps, min_size=n, max_size=n)))


class TestRunBelowIsAPrefix:
    # the lemma behind threshold_scan, over all four ways a run can end;
    # the explicit examples end the run below in each of them
    def test_lower_angle_runs_a_prefix(self):
        endings = set()

        @settings(derandomize=True, database=None, max_examples=100, deadline=None)
        @given(p=scan_inputs(), engine=st.sampled_from([ruppert, chew2]),
               below=st.floats(26.0, 38.0), gap=st.floats(0.0, 6.0),
               budget=st.sampled_from([15, 100, 700]),
               ratio=st.sampled_from([2.0 ** -12, 2.0 ** -4, 0.3]),
               stopping=st.booleans())
        @example(pinwheel(4), ruppert, 29.0, 5.0, 700, 2.0 ** -12, True)
        @example(pinwheel(4), ruppert, 33.0, 2.0, 700, 2.0 ** -12, True)
        @example(pav(1e-3), ruppert, 31.0, 3.0, 100, 2.0 ** -12, True)
        @example(pinwheel(4), chew2, 33.0, 2.0, 700, 0.3, False)
        def prop(p, engine, below, gap, budget, ratio, stopping):
            above = below + gap
            if above == below:
                return

            def run(alpha):
                cfg = RefinementConfig(alpha_deg=alpha, max_insertions=budget,
                                       min_length_ratio=ratio)
                return engine(p, cfg, stop=CascadeChecker().feed if stopping
                              else None)

            real, run_above = run(below), run(above)
            events = real.trace.events
            assert run_above.trace.events[:len(events)] == events
            probe_at, _ = analysis._prefix_probes(run_above)
            assert probe_at(below) == ScanProbe(
                below, real.status, classify(real), real.insertions,
                len(real.trace.splits()))
            endings.add(real.status)

        prop()
        assert endings == {TERMINATED, STOPPED, BUDGET_EXHAUSTED,
                           DIVERGENCE_FLOOR_HIT}
