"""One workload in one single-threaded process; started by run.py.

    worker.py WORKLOAD --seed N --seconds S --trace 0|1 --t0 T --out DIR
              [--setup-only]

Set-up (imports, inputs, one warm-up operation) ends where the first timed
operation starts; ``setup_s`` counts from ``--t0``, the parent's monotonic
clock just before it started this process.  Untraced, the worker repeats
whole rounds of the workload's operations until ``--seconds`` have passed
and reports each operation's median time.  Traced, it runs one untraced
round and then one traced round, and reports the layer metrics of the
traced one.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time


def _round(ops, times, seen, totals):
    """Run every operation once, in order; check each outside the timing."""
    for i, op in enumerate(ops):
        gc.collect()
        t = time.perf_counter()
        try:
            out = op.run()
        except Exception as e:  # a crash is a failed operation; keep going
            times[i].append(time.perf_counter() - t)
            totals["failed"] += 1
            totals["errors"].append(f"{op.name}: raised {e!r}")
            continue
        times[i].append(time.perf_counter() - t)
        res = op.check(out)
        del out
        if seen[i] is not None and seen[i] != res.insertions:
            res.problems.append(
                f"{op.name}: {res.insertions} insertions, {seen[i]} in an "
                "earlier round of the same input"
            )
        seen[i] = res.insertions
        totals["failed"] += res.failed
        totals["problems"] += [f"{op.name}: {p}" for p in res.problems[:5]]
        totals["bytes"] += res.bytes_written
    totals["attempted"] += len(ops)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads

    ops, warmup = workloads.build(args.workload, args.seed, args.out)
    warmup.run()
    gc.collect()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    times = [[] for _ in ops]
    seen = [None] * len(ops)
    totals = {"attempted": 0, "failed": 0, "problems": [], "errors": [], "bytes": 0}
    start = time.perf_counter()
    _round(ops, times, seen, totals)
    metrics = {"setup_s": setup_s}
    if args.trace:
        import tracing

        untraced = sum(t[-1] for t in times)
        tracer = tracing.Tracer()
        tracer.install()
        totals["bytes"] = 0
        try:
            _round(ops, times, seen, totals)
        finally:
            tracer.uninstall()
        traced = sum(t[-1] for t in times)
        metrics.update(tracer.layer_metrics())
        metrics["cli.bytes_written"] = totals["bytes"]
        metrics["trace.overhead_ratio"] = traced / untraced
        tracer.write(os.path.join(
            args.out, os.pardir, f"spans-{args.workload}-seed{args.seed}.jsonl"
        ))
    else:
        while time.perf_counter() - start < args.seconds:
            _round(ops, times, seen, totals)
        wall = sum(statistics.median(t) for t in times)
        insertions = sum(s or 0 for s in seen)
        metrics.update({
            "wall_s": wall,
            "insertions": insertions,
            "insertions_per_s": insertions / wall,
        })
    usage = resource.getrusage(resource.RUSAGE_SELF)
    metrics["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    print(json.dumps({
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "problems": totals["problems"],
        "errors": totals["errors"],
        "rounds": len(times[0]),
        "op_times_s": {op.name: t for op, t in zip(ops, times)},
        "involuntary_ctx_switches": usage.ru_nivcsw,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
