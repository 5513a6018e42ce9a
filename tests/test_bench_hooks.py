"""The benchmark's tracer wraps refinelab's functions by name; a renamed
or inlined function would only show as a crash of a traced benchmark
run, or as a counter or a timing that stays at zero.  This runs the
tracer's hooks on two short engine runs, on a short threshold scan and on
one ``refinelab refine`` call.  It also runs ``tools/abengine.py``'s
identity gate on two checkouts that differ in one byte."""

import importlib
import os
import shutil
import sys

from refinelab import analysis, cdt, cli, geom, pslg, refine
from refinelab.generators import pinwheel
from refinelab.pslg import write_poly

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")
OWNERS = (geom, pslg, cdt, refine, analysis, cli, cdt.Triangulation,
          refine.RefinementTrace)

# ruppert's and chew2's runs below together
PINNED = {"geom.orient_calls": 1710, "geom.incircle_calls": 697,
          "cdt.insert_calls": 71, "cdt.cavity_tris.mean": 230 / 71}


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def test_tracer_attaches_and_restores(monkeypatch):
    tracing = _tracing(monkeypatch)
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = sum(
            vars(owner)[name] is not value
            for owner, attrs in zip(OWNERS, before)
            for name, value in attrs.items()
        )
        cfg = refine.RefinementConfig(alpha_deg=31, max_insertions=50)
        refine.ruppert(pinwheel(4), cfg)
        refine.chew2(pinwheel(4), cfg)
        m = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert patched > 0
    assert m["refine.events.split"] + m["refine.events.circumcenter"] == 100
    # the counts before vertex insertion became one pass: a kernel that
    # calls the predicates by other names, or empties InsertResult.removed,
    # changes them
    assert {key: m[key] for key in PINNED} == PINNED
    # calls through each wrapped name reach its wrapper
    for key in ("geom.orient_calls", "geom.incircle_calls",
                "geom.encroaches_calls", "cdt.insert_calls", "cdt.split_calls",
                "cdt.delete_calls", "cdt.crossing_calls"):
        assert m[key] > 0, key
    for owner, attrs in zip(OWNERS, before):
        for name, value in attrs.items():
            assert vars(owner)[name] is value, f"{owner.__name__}.{name}"


def test_traced_scan_probes_stop_at_their_verdict(monkeypatch):
    # the probes' stop hook passes through the tracer's wrappers
    tracer = _tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        result = analysis.threshold_scan(pinwheel(4), "RUPPERT", 25.0, 35.0, 0.5)
        m = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert m["analysis.probes"] == len(result.probes)
    # every probe is read from one engine run, at hi
    scan = next(i for i, s in enumerate(tracer.spans) if s[0] == "analysis.scan")
    assert [s[3] for s in tracer.spans if s[0] == "refine.engine"] == [scan]
    assert m["analysis.insertions_after_verdict"] == 0


def test_traced_refine_times_every_writer(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pin4.poly").write_text(write_poly(pinwheel(4)))
    tracer = _tracing(monkeypatch).Tracer()
    tracer.install()
    try:
        code = cli.main(["refine", "pin4.poly", "--alg", "chew2", "--alpha", "31",
                         "--no-timestamp"])
        m = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert code == 0
    for key in ("geom.orient_calls", "geom.incircle_calls", "refine.engine_s",
                "cli.report_s", "cli.svg_s", "cli.trace_write_s",
                "cli.mesh_write_s"):
        assert m[key] > 0, key


def test_abengine_names_an_operation_whose_artifacts_differ(
        monkeypatch, tmp_path, capsys):
    # one byte of the SVG writer differs between the two checkouts, so the
    # first refine run's .svg does, and the A/B stops there
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "refinelab")
    for side in ("a", "b"):
        shutil.copytree(src, tmp_path / side / "src" / "refinelab")
    cli_py = tmp_path / "b" / "src" / "refinelab" / "cli.py"
    text = cli_py.read_text()
    assert "\n_SVG_SIZE = 900 " in text
    cli_py.write_text(text.replace("\n_SVG_SIZE = 900 ", "\n_SVG_SIZE = 901 "))
    monkeypatch.syspath_prepend(TOOLS)
    abengine = importlib.import_module("abengine")
    code = abengine.main([str(tmp_path / "a"), str(tmp_path / "b"), "--rounds", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "round 1: cascade operation pav/ruppert@31: " in out
    # the refinelab modules the other tests use are in place again
    assert sys.modules["refinelab.cli"] is cli
