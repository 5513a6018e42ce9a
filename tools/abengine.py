"""A/B timing of two checkouts on perfbench's own operations, in one process.

    python tools/abengine.py PARENT CHANGE [--rounds N]

For each checkout, the tool runs the operations that perfbench's
``workloads.build(workload, 1, workdir)`` returns for ``scan``, ``cascade``
and ``mesh``, and checks each with the operation's own ``check``.  It only
reads ``perfbench/`` (this repository's, as ``tools/linecov.py
--workloads`` does): it copies that directory and both checkouts'
``src/refinelab`` into one temporary directory and writes nothing outside
it.

Both checkouts run in this one process, so the two sides share one
interpreter, one heap and one CPU state, which processes started one after
another do not.  Each checkout's package is copied under its own name
(``refinelab_parent``, ``refinelab_change``).  While a side's
``workloads``, ``checks`` and ``inputs`` are imported, ``refinelab`` and
``refinelab.<mod>`` are aliased to that side's modules; the aliases and
those three modules are dropped again before the other side is imported.
The package names differ so that each side's modules stay apart: were
both sides one package, an import that a module makes at call time could
load the other side's code.

Each side builds its operations at seed 1 and runs each warm-up operation
once.  Then, one workload after the other, each round runs every
operation of the workload on both sides, one right after the other, so
that the two runs of an operation see nearly the same host; the side
that goes first alternates from round to round.  As in perfbench's
worker, each ``op.run()`` is timed after a ``gc.collect()`` and
``op.check()`` runs outside the timing.  An operation whose check
reports it failed (the two ruppert ``mesh`` runs, under the
dropped-skinny-triangle fault) is counted, as the worker counts it; one
that raises stops the tool.

Both sides must agree on every operation's ``Checked`` fields and output
bytes: the ``ScanResult``'s ``repr``, the mesh run's trace as the lines
``to_jsonl`` writes, and the five ``refine`` artifacts (with the side's
workdir taken out of ``report.json``'s input path).  If they differ, the
tool names the workload, the operation and the round, and exits with
code 1.  Otherwise it prints, per workload, each side's median and
quartiles of the round total, the change's median relative to the
parent's, the rounds in which the change was faster, and the failed
operations per round.  Peak RSS is not compared, because both sides
share one process.  Standard library only.
"""

import argparse
import contextlib
import gc
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SIDES = ("parent", "change")
WORKLOADS = ("scan", "cascade", "mesh")


def load(side: str, tmp: Path) -> dict:
    """Import ``tmp/refinelab_<side>`` and perfbench's ``workloads`` on top
    of it; build each workload's operations in ``tmp/<side>/<workload>``
    and run its warm-up operation."""
    name = f"refinelab_{side}"
    alias = {"refinelab": importlib.import_module(name)} | {
        f"refinelab.{path.stem}": importlib.import_module(f"{name}.{path.stem}")
        for path in (tmp / name).glob("[!_]*.py")}
    saved = {key: sys.modules.pop(key, None)
             for key in (*alias, "workloads", "checks", "inputs")}
    sys.modules.update(alias)
    try:
        bench = importlib.import_module("workloads")
    finally:
        for key in saved:
            sys.modules.pop(key, None)
        sys.modules.update((key, mod) for key, mod in saved.items() if mod)
    plan = {}
    for workload in WORKLOADS:
        (work := tmp / side / workload).mkdir(parents=True)
        ops, warmup = bench.build(workload, 1, str(work))
        timed(workload, warmup, work)
        plan[workload] = [(op, work) for op in ops]
    return plan


def timed(workload: str, op, work: Path):
    """Seconds of one run, then its check and its output."""
    with contextlib.redirect_stdout(io.StringIO()):  # refine's two lines
        gc.collect()
        t = time.perf_counter()
        out = op.run()
        spent = time.perf_counter() - t
    # a mesh run's trace as the lines to_jsonl writes; a scan's result; or a
    # refine run's exit code and its files: "family/alg@alpha" writes
    # family-alg.<artifact>, and its report holds the side's workdir
    text = [e.to_json() for e in out.trace.events] if workload == "mesh" else repr(out)
    files = [path.read_bytes().replace(bytes(work), b"") for path in
             sorted(work.glob(op.name.split("@")[0].replace("/", "-") + ".*"))]
    return spent, (vars(op.check(out)), text, files)


def spread(xs: list) -> str:
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return f"{statistics.median(xs):.3f} s (quartiles {q[0]:.3f}-{q[2]:.3f})"


def ab(plans: dict, rounds: int) -> int:
    """Run each workload's rounds and print its summary; stop at the first
    operation on which the sides differ."""
    for workload in WORKLOADS:
        times, failed = {side: [0.0] * rounds for side in SIDES}, 0
        for r in range(rounds):
            for i, (op, _) in enumerate(plans["parent"][workload]):
                seen = {}
                for side in SIDES[::-1] if r % 2 else SIDES:
                    spent, seen[side] = timed(workload, *plans[side][workload][i])
                    times[side][r] += spent
                if seen["parent"] != seen["change"]:
                    print(f"round {r + 1}: {workload} operation {op.name}: "
                          "the sides' checks or outputs differ")
                    return 1
                failed += seen["parent"][0]["failed"]
        base, new = times["parent"], times["change"]
        print(f"{workload}: parent {spread(base)}, change {spread(new)}, "
              f"{statistics.median(new) / statistics.median(base) - 1:+.1%}, "
              f"change faster in {sum(map(float.__lt__, new, base))} of "
              f"{rounds} rounds, {failed // rounds} failed operations a round")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(PERFBENCH, tmp, dirs_exist_ok=True)
        for side, checkout in zip(SIDES, (args.parent, args.change)):
            shutil.copytree(Path(checkout, "src", "refinelab"),
                            Path(tmp, f"refinelab_{side}"))
        sys.path.insert(0, tmp)
        try:
            return ab({side: load(side, Path(tmp)) for side in SIDES}, args.rounds)
        finally:
            sys.path.remove(tmp)
            for key in [k for k in sys.modules if k.startswith("refinelab_")]:
                del sys.modules[key]


if __name__ == "__main__":
    sys.exit(main())
