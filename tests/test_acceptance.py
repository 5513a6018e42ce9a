"""Acceptance suite: every headline claim at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in
captured output), and fails loudly if the claim does not hold.
"""

import math
import random

from refinelab.analysis import (
    DIVERGING,
    CascadeChecker,
    cascade_splits,
    classify,
    solve_optimum,
    threshold_scan,
)
from refinelab.cdt import CIRCUMCENTER, Triangulation, TriangulationError, DuplicateVertexError
from refinelab.geom import Point, circumcenter, encroaches, min_angle_deg, incircle, orient2d
from refinelab.generators import (
    EXAMPLE2_OPT,
    PAV,
    PINWHEEL,
    ExampleConfig,
    build_example,
    example2_optimized,
    pav,
    pinwheel,
)
from refinelab.pslg import Pslg, Segment
from refinelab.refine import (
    DIVERGENCE_FLOOR_HIT,
    TERMINATED,
    RefinementConfig,
    chew2,
    ruppert,
)

from oracles import (constrained_delaunay_violations, incircle_oracle, orient_oracle,
                     written)


def report(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")


def test_criterion_1_skinny_angle_formula():
    p = pinwheel(4)
    got = min_angle_deg(p.vertices[0], p.vertices[1], p.vertices[4])
    want = math.degrees(math.atan(2.0 ** -0.75))
    ok = abs(got - want) < 1e-9
    report(1, ok, f"pinwheel-4 skinny angle {got:.10f} vs arctan 2^-3/4 = {want:.10f}")
    assert ok


def test_criterion_2_pav_boundary_case():
    p = pav(0.0)
    apex, long_tip, unit_tip = p.vertices[0], p.vertices[1], p.vertices[2]
    cc = circumcenter(apex, unit_tip, long_tip)
    dist = math.dist(cc, Point(long_tip.x / 2, long_tip.y / 2))
    on_circle = abs(dist - math.sqrt(2) / 2) < 1e-12

    open_run = ruppert(p, RefinementConfig(alpha_deg=30.5, closed_diametral=False))
    open_ok = (
        open_run.status == TERMINATED
        and not [e for e in open_run.trace.splits() if e.lineage in (0, 1)]
    )
    closed_run = ruppert(p, RefinementConfig(alpha_deg=30.5, closed_diametral=True))
    closed_ok = bool([e for e in closed_run.trace.splits() if e.lineage == 0])

    ok = on_circle and open_ok and closed_ok
    report(
        2, ok,
        f"circumcenter-midpoint distance {dist:.15f} (sqrt2/2 to 1e-12); "
        f"open split: no, closed split: yes",
    )
    assert on_circle
    assert open_ok
    assert closed_ok


def test_criterion_3_cascade_reproduction():
    out = ruppert(pinwheel(4), RefinementConfig(alpha_deg=31))
    verdict = classify(out)
    rec = cascade_splits(out)
    tail = rec[-13:]
    halving_exact = all(
        b.length == a.length / 2.0 for a, b in zip(tail, tail[4:])
    )
    ok = (
        out.status == DIVERGENCE_FLOOR_HIT
        and verdict.status == DIVERGING
        and verdict.lineage_cycle is not None
        and len(verdict.lineage_cycle) == 4
        and abs(verdict.decay_ratio - 2.0 ** -0.25) <= 0.01 * 2.0 ** -0.25
        and halving_exact
    )
    report(
        3, ok,
        f"status {out.status}, cycle {verdict.lineage_cycle}, "
        f"decay {verdict.decay_ratio:.6f} (2^-1/4 = {2.0 ** -0.25:.6f}), "
        f"per-revolution halving exact: {halving_exact}",
    )
    assert ok


def test_criterion_4_guarantee_regression():
    cases = {
        "pav": pav(0.0),
        "pav-perturbed": pav(1e-3),
        "pinwheel-3": pinwheel(3),
        "pinwheel-4": pinwheel(4),
        "pinwheel-5": pinwheel(5),
        "spiral-optimized": example2_optimized(1e-3),
    }
    results = {}
    for name, pslg in cases.items():
        out = ruppert(pslg, RefinementConfig(alpha_deg=20.0))
        results[name] = (out.status, out.insertions)
    ok = all(
        status == TERMINATED and ins <= 10000
        for status, ins in results.values()
    )
    report(4, ok, f"ruppert at 20 deg: {results}")
    assert ok


def test_criterion_5_pinwheel3_negative_control():
    p = pinwheel(3)
    apex, longest, shortest = p.vertices[0], p.vertices[1], p.vertices[3]
    cc = circumcenter(apex, longest, shortest)
    no_encroach = not encroaches(cc, apex, longest, closed=True)
    out = ruppert(p, RefinementConfig(alpha_deg=25.0))
    ok = no_encroach and out.status == TERMINATED
    report(
        5, ok,
        f"initial circumcenter encroaches longest: {not no_encroach}; "
        f"ruppert at 25 deg: {out.status} ({out.insertions} insertions)",
    )
    assert ok


def test_criterion_6_threshold_scans():
    plan = [
        ("pinwheel-4/ruppert", ExampleConfig(family=PINWHEEL, n=4),
         "RUPPERT", 25.0, 35.0, 0.1, 30.74, 0.2),
        ("pinwheel-4/chew2", ExampleConfig(family=PINWHEEL, n=4),
         "CHEW2", 25.0, 35.0, 0.1, 30.74, 0.2),
        ("pav(1e-3)/ruppert", ExampleConfig(family=PAV, delta=1e-3),
         "RUPPERT", 25.0, 32.0, 0.1, 30.0, 0.2),
        ("spiral-opt(1e-3)/ruppert", ExampleConfig(family=EXAMPLE2_OPT, delta=1e-3),
         "RUPPERT", 25.0, 32.0, 0.1, 29.51, 0.2),
        ("pinwheel-5/ruppert", ExampleConfig(family=PINWHEEL, n=5),
         "RUPPERT", 30.0, 36.0, 0.2, 33.6, 0.5),
    ]
    lines = []
    ok = True
    for name, cfg, alg, lo, hi, tol, want, slack in plan:
        res = threshold_scan(cfg, alg, lo, hi, tol)
        good = abs(res.threshold_deg - want) <= slack
        ok = ok and good
        lines.append(f"{name}: {res.threshold_deg:.3f} (want {want} +/- {slack})")
    report(6, ok, "; ".join(lines))
    assert ok


def test_criterion_6_thresholds_are_bit_identical():
    # the exact bisection results: any change to a probe's verdict moves one
    plan = [
        (ExampleConfig(family=PINWHEEL, n=4), "RUPPERT", 25.0, 35.0, 0.1,
         30.7421875),
        (ExampleConfig(family=PINWHEEL, n=4), "CHEW2", 25.0, 35.0, 0.1,
         30.7421875),
        (ExampleConfig(family=PAV, delta=1e-3), "RUPPERT", 25.0, 32.0, 0.1,
         30.00390625),
        (ExampleConfig(family=EXAMPLE2_OPT, delta=1e-3), "RUPPERT", 25.0, 32.0,
         0.1, 29.51171875),
        (ExampleConfig(family=PINWHEEL, n=5), "RUPPERT", 30.0, 36.0, 0.2,
         33.65625),
    ]
    got = [threshold_scan(cfg, alg, lo, hi, tol).threshold_deg
           for cfg, alg, lo, hi, tol, _ in plan]
    assert got == [want for *_, want in plan]


def test_criterion_6_exact_thresholds_are_bit_identical():
    # M, the largest angle of a circumcenter event in the run at hi: a run
    # at M terminates, and a run one float above M diverges
    plan = [
        (ExampleConfig(family=PINWHEEL, n=4), "RUPPERT", 25.0, 35.0, 0.1,
         30.735867102360004),
        (ExampleConfig(family=PINWHEEL, n=4), "CHEW2", 25.0, 35.0, 0.1,
         30.735867102360004),
        (ExampleConfig(family=PAV, delta=1e-3), "RUPPERT", 25.0, 32.0, 0.1,
         30.02096889953196),
        (ExampleConfig(family=EXAMPLE2_OPT, delta=1e-3), "RUPPERT", 25.0, 32.0,
         0.1, 29.533853414338036),
        (ExampleConfig(family=PINWHEEL, n=5), "RUPPERT", 30.0, 36.0, 0.2,
         33.588398896272096),
    ]
    for cfg, alg, lo, hi, tol, want in plan:
        exact = threshold_scan(cfg, alg, lo, hi, tol).exact_deg
        assert exact == want
        engine = ruppert if alg == "RUPPERT" else chew2
        verdicts = [
            classify(engine(build_example(cfg), RefinementConfig(alpha_deg=alpha),
                            stop=CascadeChecker().feed)).status
            for alpha in (exact, math.nextafter(exact, 60.0))
        ]
        assert verdicts == [TERMINATED, DIVERGING]


def test_criterion_7_asymmetry():
    p = pav(1e-3)
    cfg = RefinementConfig(alpha_deg=30.5)
    chew_run = chew2(p, cfg)
    rup_run = ruppert(p, cfg)
    rup_verdict = classify(rup_run)
    ok = chew_run.status == TERMINATED and rup_verdict.status == DIVERGING
    report(
        7, ok,
        f"pav(1e-3) at 30.5 deg: chew2 {chew_run.status} "
        f"({chew_run.insertions} insertions), ruppert {rup_verdict.status} "
        f"(decay {rup_verdict.decay_ratio and round(rup_verdict.decay_ratio, 6)})",
    )
    assert ok


def test_criterion_8_solver_reproduction():
    opt = solve_optimum((75.0, 1.0, 29.0, 30.0))
    ok = (
        abs(opt.theta_deg - 74.51) <= 0.01
        and abs(opt.a - 0.985) <= 0.001
        and abs(opt.alpha1_deg - 29.51) <= 0.01
        and abs(opt.alpha2_deg - 29.51) <= 0.01
        and opt.residual_norm < 1e-12
    )
    report(
        8, ok,
        f"theta {opt.theta_deg:.4f}, a {opt.a:.6f}, alpha {opt.alpha1_deg:.4f}, "
        f"residual {opt.residual_norm:.2e}, {opt.iterations} iterations",
    )
    assert ok


def test_criterion_9_property_suites():
    # predicates against the exact rational oracle
    rng = random.Random(90210)
    agree = 0
    for _ in range(100_000):
        pts = [(rng.uniform(-8, 8), rng.uniform(-8, 8)) for _ in range(3)]
        if int(orient2d(*map(Point._make, pts))) != orient_oracle(*pts):
            break
        agree += 1
    orient_ok = agree == 100_000

    incircle_agree = 0
    trials = 0
    while trials < 10_000:
        pts = [(rng.uniform(-8, 8), rng.uniform(-8, 8)) for _ in range(4)]
        if orient_oracle(*pts[:3]) == 0:
            continue
        trials += 1
        if int(incircle(*map(Point._make, pts))) == incircle_oracle(*pts):
            incircle_agree += 1
    incircle_ok = incircle_agree == 10_000

    # 200-insertion CDT run against the brute-force constrained oracle
    sq = Pslg(
        vertices=(Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)),
        segments=(Segment(0, 1), Segment(1, 2), Segment(2, 3), Segment(3, 0)),
    )
    tri = Triangulation.build(sq)
    n = 0
    while n < 200:
        q = Point(rng.uniform(0.2, 9.8), rng.uniform(0.2, 9.8))
        try:
            tri.insert_vertex(q, CIRCUMCENTER)
        except (DuplicateVertexError, TriangulationError):
            continue
        n += 1
    pts = {i: tuple(p) for i in range(len(tri.points)) for p in [tri.points[i]] if tri.alive[i]}
    cdt_ok = (
        constrained_delaunay_violations(
            pts, list(tri.triangles.values()), list(tri.subsegments)
        )
        == []
    )

    # determinism and exact-transform equivariance of refinement traces
    cfg = RefinementConfig(alpha_deg=31)
    a = ruppert(pinwheel(4), cfg)
    b = ruppert(pinwheel(4), cfg)
    determinism_ok = written(a.trace.to_jsonl) == written(b.trace.to_jsonl)

    base = pinwheel(4)
    rot = Pslg(
        tuple(Point(-v.y, v.x) for v in base.vertices), base.segments, base.holes
    )
    c = ruppert(rot, cfg)
    equivariance_ok = len(a.trace.events) == len(c.trace.events) and all(
        e1.kind == e2.kind
        and e1.lineage == e2.lineage
        and e1.length == e2.length
        and (e1.x is None or (-e1.y, e1.x) == (e2.x, e2.y))
        for e1, e2 in zip(a.trace.events, c.trace.events)
    )

    ok = orient_ok and incircle_ok and cdt_ok and determinism_ok and equivariance_ok
    report(
        9, ok,
        f"orient oracle {agree}/100000, incircle oracle {incircle_agree}/10000, "
        f"CDT-200 oracle clean: {cdt_ok}, determinism: {determinism_ok}, "
        f"equivariance: {equivariance_ok}",
    )
    assert ok
