"""A/B engine timing of two checkouts in one process.

    python tools/abengine.py PARENT CHANGE [--rounds N]

Each checkout's ``src/refinelab`` is copied under its own package name
(``refinelab_parent``, ``refinelab_change``) and both are imported into
this process, so the two sides share one interpreter, one heap and one
CPU state, which processes started one after another do not.  Each round
runs, for each side in turn (the order alternates from round to round),
the engine on the five cascade inputs of ``refinelab refine`` and the
five acceptance threshold scans, and times each group with
``time.perf_counter``; nothing is written to disk.  Every run's trace
bytes and every scan result must be the same on both sides, or the tool
stops with exit code 1.  It prints, per group, each side's median and
quartiles, the change's median relative to the parent's, and the rounds
in which the change was faster.  Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")

# family, engine, alpha, budget: the cascade inputs of ``refinelab refine``
# (10000 is ``refine --budget``'s default)
CASCADES = (
    ("pav", "ruppert", 31.0, 40000),
    ("pinwheel4", "ruppert", 31.0, 10000),
    ("pinwheel4", "chew2", 31.0, 10000),
    ("spiral-opt", "ruppert", 30.0, 10000),
    ("pinwheel5", "ruppert", 34.0, 10000),
)
# target, engine, lo, hi, tol: the five acceptance threshold scans
SCANS = (
    ("pinwheel4", "RUPPERT", 25.0, 35.0, 0.1),
    ("pinwheel4", "CHEW2", 25.0, 35.0, 0.1),
    ("pav", "RUPPERT", 25.0, 32.0, 0.1),
    ("spiral-opt", "RUPPERT", 25.0, 32.0, 0.1),
    ("pinwheel5", "RUPPERT", 30.0, 36.0, 0.2),
)


def load(checkout: str, name: str, into: Path):
    """Import ``checkout/src/refinelab`` as the package ``name``."""
    shutil.copytree(Path(checkout) / "src" / "refinelab", into / name)
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("analysis", "generators", "refine")}


def pslg(pkg, family):
    gen = pkg["generators"]
    return {"pav": lambda: gen.pav(1e-3),
            "pinwheel4": lambda: gen.pinwheel(4),
            "pinwheel5": lambda: gen.pinwheel(5),
            "spiral-opt": lambda: gen.example2_optimized(1e-3)}[family]()


def cascades(pkg):
    """Engine seconds over the cascade inputs, and each trace's digest."""
    refine = pkg["refine"]
    spent, digests = 0.0, []
    for family, engine, alpha, budget in CASCADES:
        p = pslg(pkg, family)
        cfg = refine.RefinementConfig(alpha, max_insertions=budget)
        gc.collect()
        t0 = time.perf_counter()
        out = getattr(refine, engine)(p, cfg)
        spent += time.perf_counter() - t0
        text = io.StringIO()
        out.trace.to_jsonl(text)
        digests.append(hashlib.sha256(text.getvalue().encode()).hexdigest())
    return spent, digests


def scans(pkg):
    """Seconds over the acceptance scans, and each result's text."""
    analysis = pkg["analysis"]
    spent, results = 0.0, []
    for family, engine, lo, hi, tol in SCANS:
        p = pslg(pkg, family)
        gc.collect()
        t0 = time.perf_counter()
        res = analysis.threshold_scan(p, getattr(analysis, engine), lo, hi, tol)
        spent += time.perf_counter() - t0
        results.append(repr(res))
    return spent, results


def summary(label: str, times: dict) -> str:
    base, new = times["parent"], times["change"]
    wins = sum(n < b for b, n in zip(base, new))

    def spread(xs):
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
        return f"{statistics.median(xs):.3f} s (quartiles {q[0]:.3f}-{q[2]:.3f})"

    change = statistics.median(new) / statistics.median(base) - 1.0
    return (f"{label}: parent {spread(base)}, change {spread(new)}, "
            f"{change:+.1%}, change faster in {wins} of {len(base)} rounds")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = {side: load(path, f"refinelab_{side}", Path(tmp))
                for side, path in zip(SIDES, (args.parent, args.change))}
        times = {group: {side: [] for side in SIDES}
                 for group in ("cascade", "scan")}
        for r in range(args.rounds):
            seen = {}
            for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                c_s, digests = cascades(pkgs[side])
                s_s, results = scans(pkgs[side])
                times["cascade"][side].append(c_s)
                times["scan"][side].append(s_s)
                seen[side] = (digests, results)
            if seen["parent"] != seen["change"]:
                print(f"round {r + 1}: the sides' traces or scan results differ")
                return 1
            print(f"round {r + 1}: cascade "
                  f"{times['cascade']['parent'][-1]:.3f} / "
                  f"{times['cascade']['change'][-1]:.3f} s, scan "
                  f"{times['scan']['parent'][-1]:.3f} / "
                  f"{times['scan']['change'][-1]:.3f} s (parent / change)",
                  flush=True)
    for group in ("cascade", "scan"):
        print(summary(group, times[group]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
