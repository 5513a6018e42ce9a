"""refinelab benchmark: one workload per call, every output checked.

    python3 perfbench/run.py --workload {scan,cascade,mesh} --seed N \
        --seconds S --trace {0,1}

Run from the root of a refinelab checkout.  Each workload runs in its own
single-threaded worker process with PYTHONHASHSEED pinned.  The last line
of stdout is the result: {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics when --trace 0 and the per-layer metrics when
--trace 1.  The line before it holds the run's diagnostics (host steal
ticks, the worker's involuntary context switches, rounds, per-operation
times); they are not metrics.  Outputs go under .perfbench_out/ in the
checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("scan", "cascade", "mesh")
# set-up is measured this many times per run (the measuring worker's own
# set-up included) and reported as the median
SETUPS = 5
DEADLINE_S = 170.0


def _steal_ticks():
    """Host-wide CPU steal ticks from /proc/stat, or None where unreadable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _worker(args, workdir, deadline, setup_only=False):
    cmd = [
        sys.executable, str(HERE / "worker.py"), args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = {
        "PATH": "/usr/bin:/bin",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(ROOT / "src"),
    }
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {args.workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "refinelab" / "__init__.py").is_file():
        print(f"no refinelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(_worker(args, workdir, deadline, True)["setup_s"])
        steal0 = _steal_ticks()
        res = _worker(args, workdir, deadline)
        steal1 = _steal_ticks()
    except subprocess.TimeoutExpired:
        print(f"{args.workload} did not finish within {DEADLINE_S} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = res["metrics"]
    setups.append(metrics["setup_s"])
    metrics["setup_s"] = statistics.median(setups)
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "steal_ticks": None if steal0 is None else steal1 - steal0,
        "involuntary_ctx_switches": res["involuntary_ctx_switches"],
        "rounds": res["rounds"],
        "setups_s": setups,
        "op_times_s": res["op_times_s"],
        "problems": res["problems"],
        "errors": res["errors"],
    }
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(
        json.dumps({"diagnostics": diagnostics, "result": result}, indent=1) + "\n"
    )
    print("diagnostics " + json.dumps(diagnostics))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
