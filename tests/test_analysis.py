import math
import random
from types import SimpleNamespace

import pytest

from refinelab import analysis
from refinelab.analysis import (
    DIVERGING,
    INCONCLUSIVE,
    TERMINATED_V,
    CascadeChecker,
    ConvergenceError,
    DivergenceVerdict,
    ScanError,
    cascade_splits,
    classify,
    jacobian,
    residuals,
    solve_optimum,
    threshold_scan,
)
from refinelab.generators import ExampleConfig, PAV, PINWHEEL, pav, pinwheel
from refinelab.refine import (
    BUDGET_EXHAUSTED,
    SEGMENT_SPLIT,
    RefinementConfig,
    RefinementOutcome,
    RefinementTrace,
    TraceEvent,
    ruppert,
)


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
        assert classify(out).status == TERMINATED_V

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
        assert classify(lo_run).status == TERMINATED_V
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

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, 1e-300])
    def test_bad_tol_rejected_before_any_probe(self, monkeypatch, tol):
        probes = []
        monkeypatch.setattr(analysis, "ruppert", lambda *args: probes.append(args))
        with pytest.raises(ScanError, match="tolerance must be positive"):
            threshold_scan(pinwheel(4), "RUPPERT", 25.0, 35.0, tol=tol)
        assert probes == []

    def test_smallest_tolerance_ends_at_adjacent_floats(self, monkeypatch):
        # a stand-in engine whose runs diverge exactly above 30.1 degrees
        def engine(pslg, cfg, stop=None):
            return SimpleNamespace(
                alpha=cfg.alpha_deg, status="", insertions=0,
                trace=SimpleNamespace(splits=list),
            )

        def verdict(outcome):
            return DivergenceVerdict(
                DIVERGING if outcome.alpha > 30.1 else TERMINATED_V
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

    def test_inconclusive_probe_widens_budget_once_then_errors(self):
        with pytest.raises(ScanError, match="inconclusive after widening"):
            threshold_scan(
                ExampleConfig(family=PINWHEEL, n=4), "RUPPERT", 25.0, 35.0,
                tol=0.1,
                base_cfg=RefinementConfig(alpha_deg=25.0, max_insertions=12),
            )

    def test_probe_records(self):
        res = threshold_scan(
            ExampleConfig(family=PAV, delta=1e-3), "RUPPERT", 28.0, 31.0, tol=0.25
        )
        assert res.threshold_deg == pytest.approx(30.0, abs=0.25)
        assert res.probes[0].alpha_deg == 28.0
        assert res.probes[1].alpha_deg == 31.0
        assert all(
            p.verdict.status in (TERMINATED_V, DIVERGING) for p in res.probes
        )
