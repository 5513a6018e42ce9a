"""Command-line surface: generate inputs, run refinements, scan, solve.

Exit codes: 0 success, 1 usage error, 2 input error, 3 engine or solver
failure.  All numeric arguments are degrees; reports echo the full
configuration so runs can be reproduced byte for byte (pass
``--no-timestamp`` to omit wall-clock fields from JSON output).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import analysis, generators
from .cdt import InvalidPslgError, Triangulation
from .geom import min_angle_deg
from .pslg import Pslg, PolyParseError, min_input_angle_deg, parse_poly, write_poly
from .refine import (
    CHEW2,
    RUPPERT,
    EngineError,
    RefinementConfig,
    RefinementOutcome,
    chew2,
    ruppert,
)

__all__ = ["main", "run", "write_node", "write_ele", "mesh_to_svg", "run_report"]

_FAMILIES = {
    "pav": generators.PAV,
    "pinwheel": generators.PINWHEEL,
    "example2": generators.EXAMPLE2,
    "example2-opt": generators.EXAMPLE2_OPT,
}
_SCAN_TARGETS = ("pav", "pinwheel3", "pinwheel4", "pinwheel5", "example2-opt")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_node(tri: Triangulation) -> str:
    """Vertex list in .node convention (alive vertices, reindexed)."""
    index = {}
    lines = []
    for vid in range(len(tri.points)):
        if tri.alive[vid]:
            index[vid] = len(index)
    lines.append(f"{len(index)} 2 0 0")
    for vid, new in index.items():
        p = tri.points[vid]
        lines.append(f"{new} {_fmt(p.x)} {_fmt(p.y)}")
    return "\n".join(lines) + "\n"


def write_ele(tri: Triangulation) -> str:
    """Triangle list in .ele convention, matching write_node's indices."""
    index = {}
    for vid in range(len(tri.points)):
        if tri.alive[vid]:
            index[vid] = len(index)
    lines = [f"{len(tri.triangles)} 3 0"]
    for i, (_, verts) in enumerate(sorted(tri.triangles.items())):
        a, b, c = verts
        lines.append(f"{i} {index[a]} {index[b]} {index[c]}")
    return "\n".join(lines) + "\n"


def mesh_to_svg(tri: Triangulation, highlight_below_deg: float | None = None,
                size: int = 900) -> str:
    """Render the mesh as standalone SVG, one polygon per triangle.

    Triangles with a minimum angle below ``highlight_below_deg`` are
    filled red; constraint subsegments are drawn as heavy strokes.
    """
    alive_pts = [p for p, ok in zip(tri.points, tri.alive) if ok]
    xs = [p.x for p in alive_pts]
    ys = [p.y for p in alive_pts]
    w = max(xs) - min(xs) or 1.0
    h = max(ys) - min(ys) or 1.0
    pad = 0.03 * max(w, h)
    view = (min(xs) - pad, min(ys) - pad, w + 2 * pad, h + 2 * pad)
    scale = size / max(view[2], view[3])
    stroke = max(view[2], view[3]) / 1200.0

    def sx(x):
        return (x - view[0]) * scale

    def sy(y):
        return (view[1] + view[3] - y) * scale  # flip y for screen coords

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{view[2] * scale:.1f}" height="{view[3] * scale:.1f}">',
    ]
    for _, (a, b, c) in sorted(tri.triangles.items()):
        pa, pb, pc = tri.points[a], tri.points[b], tri.points[c]
        fill = "#e8e8e8"
        if highlight_below_deg is not None:
            if min_angle_deg(pa, pb, pc) < highlight_below_deg:
                fill = "#e05545"
        pts = " ".join(f"{sx(p.x):.3f},{sy(p.y):.3f}" for p in (pa, pb, pc))
        parts.append(
            f'<polygon points="{pts}" fill="{fill}" stroke="#777" '
            f'stroke-width="{stroke * scale:.3f}"/>'
        )
    for (u, v) in tri.subsegments:
        pu, pv = tri.points[u], tri.points[v]
        parts.append(
            f'<line x1="{sx(pu.x):.3f}" y1="{sy(pu.y):.3f}" '
            f'x2="{sx(pv.x):.3f}" y2="{sy(pv.y):.3f}" stroke="#000" '
            f'stroke-width="{3 * stroke * scale:.3f}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def run_report(outcome: RefinementOutcome, source: dict,
               wall_time_s: float | None = None) -> dict:
    tri = outcome.triangulation
    final_min = None
    for tid in tri.triangles:
        ma = tri.min_angle(tid)
        if final_min is None or ma < final_min:
            final_min = ma
    shortest = min(s.length for s in tri.subsegments.values())
    initial_min = min(tri.lineage_root_length.values())
    verdict = analysis.classify(outcome)
    report = {
        "input": source,
        "algorithm": outcome.algorithm,
        "config": {
            "alpha_deg": outcome.config.alpha_deg,
            "max_insertions": outcome.config.max_insertions,
            "min_length_ratio": outcome.config.min_length_ratio,
            "closed_diametral": outcome.config.closed_diametral,
        },
        "status": outcome.status,
        "insertions": outcome.insertions,
        "event_counts": outcome.trace.counts(),
        "final_min_angle_deg": final_min,
        "shortest_subsegment_ratio": shortest / initial_min,
        "verdict": verdict.to_dict(),
    }
    if wall_time_s is not None:
        report["wall_time_s"] = wall_time_s
    return report


def _load_pslg(path: str) -> Pslg:
    text = Path(path).read_text()
    return parse_poly(text)


def _scan_target(name_or_path: str, delta: float):
    if name_or_path not in _SCAN_TARGETS:
        return _load_pslg(name_or_path)
    if name_or_path.startswith("pinwheel"):
        return generators.ExampleConfig(
            family=generators.PINWHEEL, n=int(name_or_path[-1])
        )
    return generators.ExampleConfig(family=_FAMILIES[name_or_path], delta=delta)


def _cmd_generate(args) -> int:
    family = _FAMILIES[args.family]
    cfg = generators.ExampleConfig(
        family=family, n=args.n, delta=args.delta, theta_deg=args.theta,
        a=args.a, enclosure_scale=args.scale,
    )
    if family == generators.EXAMPLE2_OPT:
        opt = analysis.solve_optimum()
        print(
            f"solved balance point: theta = {opt.theta_deg:.4f} deg, "
            f"a = {opt.a:.6f}, alpha = {opt.alpha1_deg:.4f} deg"
        )
    p = generators.build_example(cfg)
    Path(args.out).write_text(write_poly(p))
    skinny = generators.predicted_skinny_angle_deg(p, family, args.n)
    # the last four vertices/segments are the enclosure square; the
    # configuration's own angles are the interesting ones
    core = Pslg(p.vertices[:-4], p.segments[:-4])
    print(f"wrote {args.out}: {len(p.vertices)} vertices, {len(p.segments)} segments")
    print(f"min input angle: {min_input_angle_deg(core):.4f} deg")
    print(f"predicted skinny angle: {skinny:.4f} deg")
    return 0


def _cmd_refine(args) -> int:
    pslg = _load_pslg(args.input)
    cfg = RefinementConfig(
        alpha_deg=args.alpha,
        max_insertions=args.budget,
        min_length_ratio=args.min_length_ratio,
        closed_diametral=args.closed_diametral,
    )
    engine = ruppert if args.alg == "ruppert" else chew2
    t0 = time.perf_counter()
    outcome = engine(pslg, cfg)
    wall = time.perf_counter() - t0
    prefix = args.out_prefix or str(Path(args.input).with_suffix(""))
    source = {"path": args.input}
    report = run_report(
        outcome, source, None if args.no_timestamp else wall
    )
    Path(prefix + ".report.json").write_text(
        json.dumps(report, sort_keys=True, indent=2) + "\n"
    )
    Path(prefix + ".trace.jsonl").write_text(outcome.trace.to_jsonl())
    Path(prefix + ".node").write_text(write_node(outcome.triangulation))
    Path(prefix + ".ele").write_text(write_ele(outcome.triangulation))
    Path(prefix + ".svg").write_text(
        mesh_to_svg(outcome.triangulation, highlight_below_deg=args.alpha)
    )
    print(
        f"{args.alg} alpha={args.alpha}: {outcome.status} after "
        f"{outcome.insertions} insertions "
        f"({report['event_counts'].get('SEGMENT_SPLIT', 0)} splits); "
        f"verdict {report['verdict']['status']}"
    )
    print(f"outputs: {prefix}.{{report.json,trace.jsonl,node,ele,svg}}")
    return 0


def _cmd_scan(args) -> int:
    target = _scan_target(args.target, args.delta)
    alg = RUPPERT if args.alg == "ruppert" else CHEW2
    base = RefinementConfig(alpha_deg=args.lo, max_insertions=args.budget)
    result = analysis.threshold_scan(
        target, alg, args.lo, args.hi, args.tol, base_cfg=base
    )
    doc = result.to_dict()
    doc["target"] = args.target
    if args.out:
        Path(args.out).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(
        f"{args.target} / {args.alg}: empirical threshold "
        f"{result.threshold_deg:.3f} deg (bracket [{result.lo:.3f}, "
        f"{result.hi:.3f}], {len(result.probes)} probes)"
    )
    return 0


def _cmd_solve(args) -> int:
    guess = tuple(args.guess) if args.guess else (75.0, 1.0, 29.0, 30.0)
    opt = analysis.solve_optimum(guess)
    doc = opt.to_dict()
    if args.out:
        Path(args.out).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(
        f"theta = {opt.theta_deg:.4f} deg, a = {opt.a:.6f}, "
        f"alpha1 = alpha2 = {opt.alpha1_deg:.4f} deg"
    )
    print(
        f"residual norm {opt.residual_norm:.3e} after {opt.iterations} iterations"
    )
    return 0


def _build_parser() -> _Parser:
    ap = _Parser(prog="refinelab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a configuration as a .poly file")
    g.add_argument("family", choices=tuple(_FAMILIES))
    g.add_argument("--n", type=int, default=4, help="pinwheel segment count")
    g.add_argument("--delta", type=float, default=0.0, help="perturbation size")
    g.add_argument("--theta", type=float, default=75.0, help="example2 angle (deg)")
    g.add_argument("--a", type=float, default=1.0, help="example2 half-length")
    g.add_argument("--scale", type=float, default=4.0, help="enclosure scale")
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(func=_cmd_generate)

    r = sub.add_parser("refine", help="run a refinement engine on a .poly file")
    r.add_argument("input")
    r.add_argument("--alg", choices=("ruppert", "chew2"), required=True)
    r.add_argument("--alpha", type=float, required=True, help="min angle (deg)")
    r.add_argument("--budget", type=int, default=10000)
    r.add_argument("--min-length-ratio", type=float, default=2.0 ** -12)
    r.add_argument("--closed-diametral", action="store_true")
    r.add_argument("--out-prefix", default=None)
    r.add_argument("--no-timestamp", action="store_true")
    r.set_defaults(func=_cmd_refine)

    s = sub.add_parser("scan", help="bisect the empirical termination threshold")
    s.add_argument("target", help="family name or .poly path "
                                  f"(families: {', '.join(_SCAN_TARGETS)})")
    s.add_argument("--alg", choices=("ruppert", "chew2"), required=True)
    s.add_argument("--lo", type=float, required=True)
    s.add_argument("--hi", type=float, required=True)
    s.add_argument("--tol", type=float, default=0.1)
    s.add_argument("--delta", type=float, default=1e-3)
    s.add_argument("--budget", type=int, default=10000)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_scan)

    so = sub.add_parser("solve", help="solve the angle-balance system")
    so.add_argument("--guess", type=float, nargs=4, default=None,
                    metavar=("THETA", "A", "ALPHA1", "ALPHA2"))
    so.add_argument("--out", default=None)
    so.set_defaults(func=_cmd_solve)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (OSError, PolyParseError, InvalidPslgError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (EngineError, analysis.ConvergenceError, analysis.ScanError) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
