"""Command-line surface: generate inputs, run refinements, scan, solve.

Exit codes: 0 success, 1 usage error, 2 input error, 3 engine or solver
failure.  The input's segments must enclose the domain: a circumcenter
that lands outside it ends the run with exit 3.  Angles are in degrees:
--alpha, --theta, --lo, --hi, --tol and solve's THETA, ALPHA1 and ALPHA2.
Reports echo the full configuration so runs can be reproduced byte for
byte (pass ``--no-timestamp`` to omit wall-clock fields from JSON output).

``refine`` opens its five artifacts only after the run and its report
are done, so a failed run writes nothing.  The trace, ``.node``, ``.ele``
and SVG writers then write their lines straight into the open files.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from itertools import accumulate
from pathlib import Path

from . import analysis, generators
from .cdt import Triangulation, TriangulationError
from .pslg import Pslg, _fmt, min_input_angle_deg, parse_poly, write_poly
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
_SVG_SIZE = 900  # longer side of the SVG drawing, in pixels


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def write_node(tri: Triangulation, out) -> None:
    """Write the vertex list in .node convention (alive vertices,
    reindexed) into the open text stream ``out``."""
    out.write(f"{tri.vertex_count()} 2 0 0\n")
    alive = (p for p, ok in zip(tri.points, tri.alive) if ok)
    out.writelines(f"{i} {_fmt(p.x)} {_fmt(p.y)}\n" for i, p in enumerate(alive))


def write_ele(tri: Triangulation, out) -> None:
    """Write the triangle list in .ele convention, matching write_node's
    indices, into the open text stream ``out``."""
    # index[vid]: the alive vertices before vid, write_node's index of vid
    index = list(accumulate(tri.alive, initial=0))
    out.write(f"{len(tri.triangles)} 3 0\n")
    # ids only grow and a dict keeps insertion order, so the triangles
    # come in id order (``Triangulation.check`` reports otherwise)
    out.writelines(f"{i} {index[a]} {index[b]} {index[c]}\n"
                   for i, (a, b, c) in enumerate(tri.triangles.values()))


def mesh_to_svg(tri: Triangulation, highlight_below_deg: float | None,
                out) -> None:
    """Write the mesh as standalone SVG, one polygon per triangle, into
    the open text stream ``out``.

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
    scale = _SVG_SIZE / max(view[2], view[3])
    stroke = max(view[2], view[3]) / 1200.0
    left, top = view[0], view[1] + view[3]  # flip y for screen coords
    # each alive vertex's screen x and y, formatted once
    sx = [None] * len(tri.points)
    sy = [None] * len(tri.points)
    for vid, ok in enumerate(tri.alive):
        if ok:
            p = tri.points[vid]
            sx[vid] = f"{(p.x - left) * scale:.3f}"
            sy[vid] = f"{(top - p.y) * scale:.3f}"

    out.write('<?xml version="1.0" encoding="UTF-8"?>\n'
              f'<svg xmlns="http://www.w3.org/2000/svg" '
              f'width="{view[2] * scale:.1f}" height="{view[3] * scale:.1f}">\n')
    tail = f'stroke="#777" stroke-width="{stroke * scale:.3f}"/>\n'
    plain = f'" fill="#e8e8e8" {tail}'
    skinny = f'" fill="#e05545" {tail}'
    below = highlight_below_deg
    # in id order, as write_ele writes them
    out.writelines(
        f'<polygon points="{sx[a]},{sy[a]} {sx[b]},{sy[b]} {sx[c]},{sy[c]}'
        f'{skinny if below is not None and tri.min_angle(tid) < below else plain}'
        for tid, (a, b, c) in tri.triangles.items())
    tail = f'stroke="#000" stroke-width="{3 * stroke * scale:.3f}"/>\n'
    out.writelines(f'<line x1="{sx[u]}" y1="{sy[u]}" x2="{sx[v]}" y2="{sy[v]}" {tail}'
                   for (u, v) in tri.subsegments)
    out.write("</svg>\n")


def run_report(outcome: RefinementOutcome, source: dict,
               wall_time_s: float | None = None) -> dict:
    tri = outcome.triangulation
    # the engine stored every live triangle's angle as it made it
    final_min = min(map(tri.min_angle, tri.triangles), default=None)
    shortest = min(s.length for s in tri.subsegments.values())
    initial_min = min(tri.lineage_root_length.values())
    verdict = analysis.classify(outcome)
    report = {
        "input": source,
        "algorithm": outcome.algorithm,
        "config": asdict(outcome.config),
        "status": outcome.status,
        "insertions": outcome.insertions,
        "event_counts": outcome.trace.counts(),
        "final_min_angle_deg": final_min,
        "shortest_subsegment_ratio": shortest / initial_min,
        "verdict": asdict(verdict),
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
        opt = generators.solve_optimum()
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
    # no file is opened before the run and its report are done, so a
    # failed run writes nothing; each artifact streams into its file
    tri = outcome.triangulation
    writers = {
        "report.json": lambda f: f.write(
            json.dumps(report, sort_keys=True, indent=2) + "\n"),
        "trace.jsonl": outcome.trace.to_jsonl,
        "node": lambda f: write_node(tri, f),
        "ele": lambda f: write_ele(tri, f),
        "svg": lambda f: mesh_to_svg(tri, args.alpha, f),
    }
    for suffix, write in writers.items():
        with open(f"{prefix}.{suffix}", "w") as f:
            write(f)
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
    result = analysis.threshold_scan(
        target, alg, args.lo, args.hi, args.tol, budget=args.budget
    )
    doc = asdict(result)
    doc["target"] = args.target
    if args.out:
        Path(args.out).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    print(
        f"{args.target} / {args.alg}: empirical threshold "
        f"{result.threshold_deg:.3f} deg, exact {result.exact_deg!r} deg "
        f"(bracket [{result.lo:.3f}, {result.hi:.3f}], {len(result.probes)} probes)"
    )
    return 0


def _cmd_solve(args) -> int:
    opt = (generators.solve_optimum(tuple(args.guess)) if args.guess
           else generators.solve_optimum())
    doc = asdict(opt)
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
    ex = generators.ExampleConfig  # each default is the library's own
    g.add_argument("--n", type=int, default=ex.n, help="pinwheel segment count")
    g.add_argument("--delta", type=float, default=ex.delta, help="perturbation size")
    g.add_argument("--theta", type=float, default=ex.theta_deg,
                   help="example2 angle (deg)")
    g.add_argument("--a", type=float, default=ex.a, help="example2 half-length")
    g.add_argument("--scale", type=float, default=ex.enclosure_scale,
                   help="enclosure scale")
    g.add_argument("-o", "--out", required=True)
    g.set_defaults(func=_cmd_generate)

    r = sub.add_parser("refine", help="run a refinement engine on a .poly file")
    r.add_argument("input")
    r.add_argument("--alg", choices=("ruppert", "chew2"), required=True)
    r.add_argument("--alpha", type=float, required=True, help="min angle (deg)")
    r.add_argument("--budget", type=int, default=RefinementConfig.max_insertions,
                   help="most insertions of the run (default %(default)s)")
    r.add_argument("--min-length-ratio", type=float,
                   default=RefinementConfig.min_length_ratio)
    r.add_argument("--closed-diametral", action="store_true",
                   help="a vertex on a diametral circle encroaches "
                        "(read by ruppert only)")
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
    s.add_argument("--budget", type=int, default=40000,
                   help="most insertions of the one run at --hi that every "
                        "probe is read from (default %(default)s)")
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
    except (OSError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (EngineError, TriangulationError, generators.ConvergenceError,
            analysis.ScanError) as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
