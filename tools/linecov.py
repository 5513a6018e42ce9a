"""Line coverage of ``src/refinelab`` with the standard library alone.

A ``sys.settrace`` tracer records the lines of ``src/refinelab`` that run,
and adds them to ``.linecov.json`` at the root of the checkout; delete
that file to start afresh.  The executable lines are those the compiled
code objects list in ``co_lines()``.

    PYTHONPATH=src:tools python -m pytest -p linecov [pytest arguments]
        the test suite under the tracer, as a pytest plugin
    PYTHONPATH=src python tools/linecov.py --workloads
        one round of each perfbench workload at seed 1 under the same
        tracer; it only reads perfbench/
    python tools/linecov.py report
        each executable line that no recorded run executed, as
        path:line: source, and the totals

Lines that run only in child processes are not seen.  The tracer makes
the suite three to four times slower.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "refinelab"
DATA = ROOT / ".linecov.json"


class Recorder:
    """The lines run in files under ``SRC``, by file name."""

    def __init__(self):
        self.lines: dict[str, set[int]] = {}
        self._prefix = str(SRC) + os.sep

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(self._prefix):
            return None
        seen = self.lines.setdefault(name, set())
        seen.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    def start(self) -> None:
        threading.settrace(self._call)
        sys.settrace(self._call)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def finish(self) -> None:
        """Stop, and add the recorded lines to those already in ``DATA``."""
        self.stop()
        merged = json.loads(DATA.read_text()) if DATA.exists() else {}
        for name, seen in self.lines.items():
            rel = str(Path(name).relative_to(ROOT))
            merged[rel] = sorted(seen.union(merged.get(rel, ())))
        DATA.write_text(json.dumps(merged, indent=0, sort_keys=True) + "\n")


def pytest_configure(config):
    """As a pytest plugin: trace the session, and save when pytest ends."""
    rec = Recorder()
    rec.start()
    config.add_cleanup(rec.finish)


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from ``path``."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(n for _, _, n in code.co_lines() if n is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def report() -> int:
    ran = json.loads(DATA.read_text()) if DATA.exists() else {}
    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        rel = str(path.relative_to(ROOT))
        lines = executable_lines(path)
        source = path.read_text().splitlines()
        never = sorted(lines - set(ran.get(rel, ())))
        total += len(lines)
        missed += len(never)
        for n in never:
            print(f"{rel}:{n}: {source[n - 1].strip()}")
    print(f"{missed} of {total} executable lines never ran")
    return 0


def workloads() -> int:
    """One round of each perfbench workload, set-up included, traced."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    rec = Recorder()
    rec.start()
    try:
        import workloads as bench

        with tempfile.TemporaryDirectory() as out:
            for name in ("scan", "cascade", "mesh"):
                work = os.path.join(out, name)
                os.mkdir(work)
                ops, warmup = bench.build(name, 1, work)
                warmup.run()
                for op in ops:
                    op.check(op.run())
    finally:
        rec.finish()
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("mode", nargs="?", choices=("report",))
    ap.add_argument("--workloads", action="store_true")
    args = ap.parse_args(argv)
    if args.workloads:
        return workloads()
    if args.mode == "report":
        return report()
    ap.error("give report or --workloads")


if __name__ == "__main__":
    sys.exit(main())
