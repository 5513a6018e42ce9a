"""The three workloads: their inputs, operations and output checks.

An operation is one call a user of refinelab makes and waits for: a
threshold scan (``scan``), a ``refinelab refine`` run (``cascade``) or an
engine run to termination (``mesh``).  ``build`` makes every input (the
set-up) and returns the operations in their fixed order plus one warm-up
operation.  Each operation's ``check`` runs outside the timed region and
returns a ``Checked``.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import refinelab.analysis as analysis
import refinelab.cli as cli
import refinelab.generators as generators
import refinelab.refine as refine
from refinelab.pslg import write_poly

import checks
from inputs import gabriel_sticks

@dataclass
class Checked:
    insertions: int
    problems: list = field(default_factory=list)
    # the operation failed: a fault in the program, not a wrong answer
    failed: bool = False
    bytes_written: int = 0


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Checked]


# -- scan ----------------------------------------------------------------------

PINWHEEL4_DEG = math.degrees(math.atan(2.0 ** -0.75))  # 30.74

# the acceptance scans: target, engine, bracket, tolerance, paper value
SCANS = (
    ("pinwheel-4/ruppert", dict(family=generators.PINWHEEL, n=4),
     analysis.RUPPERT, 25.0, 35.0, 0.1, PINWHEEL4_DEG, 0.2),
    ("pinwheel-4/chew2", dict(family=generators.PINWHEEL, n=4),
     analysis.CHEW2, 25.0, 35.0, 0.1, PINWHEEL4_DEG, 0.2),
    ("pav(1e-3)/ruppert", dict(family=generators.PAV, delta=1e-3),
     analysis.RUPPERT, 25.0, 32.0, 0.1, 30.0, 0.2),
    ("spiral-opt(1e-3)/ruppert", dict(family=generators.EXAMPLE2_OPT, delta=1e-3),
     analysis.RUPPERT, 25.0, 32.0, 0.1, 29.51, 0.2),
    ("pinwheel-5/ruppert", dict(family=generators.PINWHEEL, n=5),
     analysis.RUPPERT, 30.0, 36.0, 0.2, 33.6, 0.5),
)


def _scan_op(name, family, alg, lo, hi, tol, want, slack) -> Op:
    target = generators.ExampleConfig(**family)

    def run():
        return analysis.threshold_scan(target, alg, lo, hi, tol)

    def check(res):
        return Checked(
            insertions=sum(p.insertions for p in res.probes),
            problems=checks.check_threshold(name, res.threshold_deg, want, slack),
        )

    return Op(name, run, check)


def _build_scan(seed, workdir):
    ops = [_scan_op(*s) for s in SCANS]
    return ops, ops[3]


# -- cascade -------------------------------------------------------------------

# family, arms (input segments besides the enclosure), engine, alpha, budget
CASCADES = (
    ("pav", lambda: generators.pav(1e-3), 2, "ruppert", 31.0, 40000),
    ("pinwheel4", lambda: generators.pinwheel(4), 4, "ruppert", 31.0, None),
    ("pinwheel4", lambda: generators.pinwheel(4), 4, "chew2", 31.0, None),
    ("spiral-opt", lambda: generators.example2_optimized(1e-3), 4, "ruppert",
     30.0, None),
    ("pinwheel5", lambda: generators.pinwheel(5), 5, "ruppert", 34.0, None),
)


ARTIFACTS = ("report.json", "trace.jsonl", "node", "ele", "svg")


def _square(p):
    """Exact area of the enclosure (the last four input vertices)."""
    c0, c1, c2, _ = p.vertices[-4:]
    return (Fraction(c1.x) - Fraction(c0.x)) * (Fraction(c2.y) - Fraction(c1.y))


def _cascade_op(workdir, family, p, arms, alg, alpha, budget) -> Op:
    poly = os.path.join(workdir, f"{family}.poly")
    if not os.path.exists(poly):
        with open(poly, "w") as f:
            f.write(write_poly(p))
    prefix = os.path.join(workdir, f"{family}-{alg}")
    argv = ["refine", poly, "--alg", alg, "--alpha", str(alpha),
            "--no-timestamp", "--out-prefix", prefix]
    if budget:
        argv += ["--budget", str(budget)]
    area = _square(p)
    segments = [(s.a, s.b) for s in p.segments]
    cell = float(area) ** 0.5 / 64.0

    def run():
        return cli.main(argv)

    def check(code):
        size = sum(os.path.getsize(f"{prefix}.{ext}") for ext in ARTIFACTS)
        texts = {}
        for ext in ARTIFACTS[:4]:
            with open(f"{prefix}.{ext}") as f:
                texts[ext] = f.read()
        report = json.loads(texts["report.json"])
        problems = checks.check_cascade(code, report, texts["trace.jsonl"], arms)
        pts = checks.read_node(texts["node"])
        tris = checks.read_ele(texts["ele"])
        problems += checks.check_tiling(pts, tris, area)
        # .node keeps vertex order, and input vertices come first
        subs, bad = checks.subsegments(pts, tris, segments, cell)
        problems += bad + checks.check_subsegment_lengths(pts, subs)
        return Checked(report.get("insertions", 0), problems, bytes_written=size)

    return Op(f"{family}/{alg}@{alpha:g}", run, check)


def _build_cascade(seed, workdir):
    ops = [
        _cascade_op(workdir, fam, make(), arms, alg, a, b)
        for fam, make, arms, alg, a, b in CASCADES
    ]
    return ops, ops[3]


# -- mesh ------------------------------------------------------------------------

STICKS = 400
# ruppert runs on fixed stick sets: every one of them ends TERMINATED with
# a skinny triangle (the dropped-triangle fault in _process_skinny_ruppert),
# so they count as failed operations in every run, whatever the seed
RUPPERT_SETS = ("mesh:fixed:0", "mesh:fixed:1")
CHEW2_SETS = 4
RUPPERT_ALPHA = 20.0  # Ruppert's guarantee: alpha <= 20.7
CHEW2_ALPHA = 26.0  # Chew's second algorithm: alpha <= about 26.5


def mesh_arrays(tri):
    """Alive vertices (renumbered) and triangles of a Triangulation."""
    alive = [i for i, ok in enumerate(tri.alive) if ok]
    index = {v: k for k, v in enumerate(alive)}
    pts = [tuple(tri.points[v]) for v in alive]
    return pts, [tuple(index[v] for v in t) for t in tri.triangles.values()]


def _mesh_op(name, p, alg, alpha) -> Op:
    cfg = refine.RefinementConfig(alpha_deg=alpha)
    area = _square(p)
    segments = [(s.a, s.b) for s in p.segments]

    def run():
        return getattr(refine, alg)(p, cfg)

    def check(out):
        pts, tris = mesh_arrays(out.triangulation)
        problems = []
        if out.status != refine.TERMINATED:
            problems.append(f"{name}: status {out.status}, not TERMINATED")
        problems += checks.check_tiling(pts, tris, area)
        subs, bad = checks.subsegments(pts, tris, segments, 4.0)
        problems += bad + checks.check_subsegment_lengths(pts, subs)
        if alg == "ruppert":
            problems += checks.check_diametral_empty(pts, subs, 4.0)
        skinny = checks.skinny_triangles(pts, tris, alpha)
        return Checked(out.insertions, problems, failed=bool(skinny))

    return Op(name, run, check)


def _build_mesh(seed, workdir):
    ops = [
        _mesh_op(f"{key}/ruppert@{RUPPERT_ALPHA:g}",
                 gabriel_sticks(key, STICKS), "ruppert", RUPPERT_ALPHA)
        for key in RUPPERT_SETS
    ] + [
        _mesh_op(f"mesh:{seed}:{j}/chew2@{CHEW2_ALPHA:g}",
                 gabriel_sticks(f"mesh:{seed}:{j}", STICKS), "chew2", CHEW2_ALPHA)
        for j in range(CHEW2_SETS)
    ]
    warmup = _mesh_op("warm-up", gabriel_sticks(f"mesh:{seed}:warm-up", 25),
                      "chew2", CHEW2_ALPHA)
    return ops, warmup


def build(workload, seed, workdir):
    """Make the inputs; return (operations in order, warm-up operation)."""
    return {"scan": _build_scan, "cascade": _build_cascade, "mesh": _build_mesh}[
        workload
    ](seed, workdir)
