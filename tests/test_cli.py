import hashlib
import io
import json
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import asdict

import pytest

from refinelab import analysis, cli
from refinelab.cli import main, mesh_to_svg, write_ele, write_node
from refinelab.cdt import Triangulation
from refinelab.geom import Point
from refinelab.generators import PINWHEEL, ExampleConfig, pav, pinwheel
from refinelab.pslg import Pslg, Segment, parse_poly, write_poly
from refinelab.refine import RefinementConfig, RefinementTrace, ruppert
from oracles import written
from test_cdt import islanded_pslg


def read(path):
    return path.read_text()


class TestGenerate:
    def test_pinwheel_poly(self, tmp_path, capsys):
        out = tmp_path / "pin4.poly"
        assert main(["generate", "pinwheel", "--n", "4", "-o", str(out)]) == 0
        p = parse_poly(read(out))
        assert len(p.vertices) == 9  # apex + 4 tips + 4 enclosure corners
        assert len(p.segments) == 8
        printed = capsys.readouterr().out
        assert "90.0000" in printed
        assert "30.7359" in printed

    def test_pav_reports_input_angle(self, tmp_path, capsys):
        out = tmp_path / "pav.poly"
        assert main(["generate", "pav", "--delta", "1e-3", "-o", str(out)]) == 0
        printed = capsys.readouterr().out
        angle = float(
            [l for l in printed.splitlines() if "min input angle" in l][0]
            .split(":")[1]
            .split()[0]
        )
        assert angle == pytest.approx(105.0, abs=0.1)
        # with no options, the library's defaults
        plain = tmp_path / "plain.poly"
        assert main(["generate", "pav", "-o", str(plain)]) == 0
        assert read(plain) == write_poly(pav())

    def test_example2_opt_prints_solution(self, tmp_path, capsys):
        out = tmp_path / "opt.poly"
        assert main(["generate", "example2-opt", "-o", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "74.5" in printed
        assert "0.985" in printed

    def test_bad_family_is_usage_error(self, tmp_path):
        assert main(["generate", "nonsense", "-o", str(tmp_path / "x.poly")]) == 1

    def test_bad_params_are_input_error(self, tmp_path):
        out = tmp_path / "x.poly"
        assert main(["generate", "pinwheel", "--n", "7", "-o", str(out)]) == 2

    @pytest.mark.parametrize(
        "params, message",
        [
            (["pav", "--scale", "inf"], "enclosure scale"),
            (["pinwheel", "--scale", "1e308"], "enclosure scale"),
            (["pav", "--scale", "nan"], "enclosure scale"),
            (["pav", "--delta", "nan"], "delta"),
            (["example2", "--a", "nan"], "a must"),
        ],
        ids=["pav-scale-inf", "pinwheel-scale-1e308", "pav-scale-nan",
             "pav-delta-nan", "example2-a-nan"],
    )
    def test_non_finite_params_are_input_error(self, tmp_path, capsys, params,
                                               message):
        out = tmp_path / "x.poly"
        assert main(["generate", *params, "-o", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and message in err


class TestRefine:
    def test_diverging_run_outputs(self, tmp_path, capsys):
        poly = tmp_path / "pin4.poly"
        main(["generate", "pinwheel", "--n", "4", "-o", str(poly)])
        capsys.readouterr()
        code = main(
            [
                "refine", str(poly), "--alg", "ruppert", "--alpha", "31",
                "--no-timestamp",
            ]
        )
        assert code == 0
        assert "DIVERGENCE_FLOOR_HIT" in capsys.readouterr().out
        report = json.loads(read(tmp_path / "pin4.report.json"))
        assert report["status"] == "DIVERGENCE_FLOOR_HIT"
        assert report["verdict"]["status"] == "DIVERGING"
        assert report["verdict"]["decay_ratio"] == pytest.approx(2 ** -0.25, rel=0.01)
        assert "wall_time_s" not in report
        trace = read(tmp_path / "pin4.trace.jsonl")
        first = json.loads(trace.splitlines()[0])
        assert set(first) == {"seq", "kind", "lineage", "length", "min_angle_deg", "x", "y"}

    def test_terminating_run(self, tmp_path, capsys):
        poly = tmp_path / "pin4.poly"
        main(["generate", "pinwheel", "--n", "4", "-o", str(poly)])
        code = main(
            ["refine", str(poly), "--alg", "ruppert", "--alpha", "20",
             "--no-timestamp"]
        )
        assert code == 0
        report = json.loads(read(tmp_path / "pin4.report.json"))
        assert report["status"] == "TERMINATED"
        assert report["final_min_angle_deg"] >= 20.0
        assert report["config"] == asdict(RefinementConfig(alpha_deg=20.0))

    def test_chew2_on_pav(self, tmp_path, capsys):
        poly = tmp_path / "pav.poly"
        main(["generate", "pav", "--delta", "1e-3", "-o", str(poly)])
        code = main(
            ["refine", str(poly), "--alg", "chew2", "--alpha", "30.5",
             "--no-timestamp"]
        )
        assert code == 0
        report = json.loads(read(tmp_path / "pav.report.json"))
        assert report["status"] == "TERMINATED"

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = main(
            ["refine", str(tmp_path / "nope.poly"), "--alg", "ruppert",
             "--alpha", "20"]
        )
        assert code == 2

    @pytest.mark.parametrize("alg", ["ruppert", "chew2"])
    def test_unenclosed_domain_is_engine_error(self, tmp_path, capsys, alg):
        # one segment encloses nothing: a circumcenter lands outside the hull
        poly = tmp_path / "open.poly"
        poly.write_text(write_poly(Pslg(
            (Point(0, 0), Point(4, 0), Point(0, 1), Point(1, 0.3)),
            (Segment(0, 1),),
        )))
        code = main(["refine", str(poly), "--alg", alg, "--alpha", "25"])
        assert code == 3
        assert capsys.readouterr().err.startswith("run failed: ")

    def test_no_segments_is_engine_error(self, tmp_path, capsys):
        poly = tmp_path / "bare.poly"
        poly.write_text(write_poly(Pslg((Point(0, 0), Point(1, 0), Point(0, 1)),
                                        ())))
        code = main(["refine", str(poly), "--alg", "ruppert", "--alpha", "20"])
        assert code == 3
        assert "at least one constraint segment" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("5 2 0 0\n0 0 0\n1 4 0\n2 4 4\n3 0 4\n4 inf 1\n"
             "4 0\n0 0 1\n1 1 2\n2 2 3\n3 3 0\n0\n",
             "vertex 4 is not finite"),
            ("4 2 0 0\n0 0 0\n1 4 0\n2 4 4\n3 0 4\n"
             "4 0\n0 0 1\n1 1 2\n2 2 3\n3 3 0\n1\n0 inf 1\n",
             "hole 0 is not finite"),
        ],
        ids=["vertex", "hole"],
    )
    def test_infinite_coordinate_is_input_error(self, tmp_path, capsys, text,
                                                message):
        poly = tmp_path / "inf.poly"
        poly.write_text(text)
        code = main(["refine", str(poly), "--alg", "ruppert", "--alpha", "20"])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("alg", ["ruppert", "chew2"])
    @pytest.mark.parametrize(
        "pslg",
        [Pslg((Point(0, 0), Point(1, 0), Point(2, 0)),
              (Segment(0, 1), Segment(1, 2))),
         Pslg((), ())],
        ids=["collinear", "no-vertices"],
    )
    def test_input_that_encloses_no_area_is_input_error(self, tmp_path, capsys,
                                                        pslg, alg):
        poly = tmp_path / "flat.poly"
        poly.write_text(write_poly(pslg))
        code = main(["refine", str(poly), "--alg", alg, "--alpha", "20"])
        assert code == 2
        assert capsys.readouterr().err == (
            "input error: invalid input: the input encloses no area\n")
        assert [p.name for p in tmp_path.iterdir()] == ["flat.poly"]
        code = main(["scan", str(poly), "--alg", alg, "--lo", "20", "--hi", "30"])
        assert code == 2
        assert capsys.readouterr().err == (
            "input error: invalid input: the input encloses no area\n")

    @pytest.mark.parametrize("alg", ["ruppert", "chew2"])
    @pytest.mark.parametrize("scale", ["1e20", "1e300"])
    def test_huge_coordinates_are_input_error(self, tmp_path, capsys, scale,
                                              alg):
        # at 1e20 a thin triangle's float circumcenter divides by zero; at
        # 1e300 its angles overflow to NaN and would never be queued
        poly = tmp_path / "huge.poly"
        assert main(["generate", "pinwheel", "--scale", scale,
                     "-o", str(poly)]) == 0
        capsys.readouterr()
        code = main(["refine", str(poly), "--alg", alg, "--alpha", "20",
                     "--out-prefix", str(tmp_path / "huge")])
        assert code == 2
        assert capsys.readouterr().err.startswith("input error: ")
        # none of the five artifacts, not even an empty one
        assert [p.name for p in tmp_path.iterdir()] == ["huge.poly"]

    def test_byte_identical_reruns(self, tmp_path, capsys):
        poly = tmp_path / "pin4.poly"
        main(["generate", "pinwheel", "--n", "4", "-o", str(poly)])
        args = [
            "refine", str(poly), "--alg", "ruppert", "--alpha", "31",
            "--no-timestamp", "--out-prefix", str(tmp_path / "a"),
        ]
        main(args)
        first = {
            name: read(tmp_path / f"a{name}")
            for name in (".report.json", ".trace.jsonl", ".node", ".ele", ".svg")
        }
        main(args)
        for name, content in first.items():
            assert read(tmp_path / f"a{name}") == content


class TestScan:
    def test_family_scan(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        code = main(
            ["scan", "pinwheel4", "--alg", "ruppert", "--lo", "25", "--hi", "35",
             "--tol", "0.5", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(read(out))
        assert doc["threshold_deg"] == pytest.approx(30.74, abs=0.5)
        assert doc["target"] == "pinwheel4"
        assert len(doc["probes"]) >= 5
        exact = analysis.threshold_scan(
            ExampleConfig(family=PINWHEEL, n=4), "RUPPERT", 25.0, 35.0, 0.5
        ).exact_deg
        assert doc["exact_deg"] == exact
        assert doc["lo"] <= doc["exact_deg"] < doc["hi"]
        assert f"exact {exact!r} deg" in capsys.readouterr().out

    def test_perturbed_family_scan(self, capsys):
        # pav is built at --delta, 1e-3 by default
        code = main(["scan", "pav", "--alg", "ruppert", "--lo", "28", "--hi",
                     "31", "--tol", "0.5"])
        assert code == 0
        assert "empirical threshold 30.0" in capsys.readouterr().out

    @pytest.mark.parametrize("lo, hi", [("20", "25"), ("0", "35")],
                             ids=["hi-diverges-not", "lo-0"])
    def test_bad_bracket_is_engine_error(self, capsys, lo, hi):
        code = main(
            ["scan", "pinwheel4", "--alg", "ruppert", "--lo", lo, "--hi", hi]
        )
        assert code == 3

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "1e-300"])
    def test_bad_tol_is_engine_error(self, monkeypatch, capsys, tol):
        def no_probe(*args):
            raise AssertionError("the scan ran a probe")

        monkeypatch.setattr(analysis, "ruppert", no_probe)
        code = main(
            ["scan", "pinwheel4", "--alg", "ruppert", "--lo", "25", "--hi", "35",
             "--tol", tol]
        )
        assert code == 3
        assert "tolerance must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("budget, code, err", [
        ("0", 2, "input error: max_insertions must be at least 1"),
        ("48", 3, "inconclusive: BUDGET_EXHAUSTED after 48 insertions"),
    ], ids=["budget-0", "budget-48"])
    def test_budget_is_the_insertions_of_the_run_at_hi(self, capsys, budget,
                                                       code, err):
        assert main(["scan", "pinwheel4", "--alg", "ruppert", "--lo", "25",
                     "--hi", "35", "--budget", budget]) == code
        assert err in capsys.readouterr().err

    def test_scan_accepts_poly_path(self, tmp_path, capsys):
        poly = tmp_path / "pin4.poly"
        main(["generate", "pinwheel", "--n", "4", "-o", str(poly)])
        code = main(
            ["scan", str(poly), "--alg", "ruppert", "--lo", "25", "--hi", "35",
             "--tol", "1.0"]
        )
        assert code == 0
        assert "threshold" in capsys.readouterr().out


class TestSolve:
    def test_default(self, tmp_path, capsys):
        out = tmp_path / "opt.json"
        assert main(["solve", "--out", str(out)]) == 0
        doc = json.loads(read(out))
        assert doc["theta_deg"] == pytest.approx(74.51, abs=0.01)
        assert doc["a"] == pytest.approx(0.985, abs=0.001)
        assert doc["alpha1_deg"] == pytest.approx(29.51, abs=0.01)
        assert doc["residual_norm"] < 1e-12
        assert doc == asdict(analysis.solve_optimum())

    def test_explicit_guess(self, capsys):
        assert main(["solve", "--guess", "75", "1", "29", "30"]) == 0
        assert "74.5" in capsys.readouterr().out

    def test_guess_at_solution_is_fast(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        main(["solve", "--out", str(out)])
        doc = json.loads(read(out))
        out2 = tmp_path / "o2.json"
        main(
            ["solve", "--guess", str(doc["theta_deg"]), str(doc["a"]),
             str(doc["alpha1_deg"]), str(doc["alpha2_deg"]), "--out", str(out2)]
        )
        assert json.loads(read(out2))["iterations"] <= 2

    def test_hopeless_guess_fails_cleanly(self, capsys):
        assert main(["solve", "--guess", "89.99", "4.9", "0.2", "57"]) == 3


class TestWriters:
    def test_mesh_files_consistent(self, tmp_path):
        tri = Triangulation.build(pinwheel(4))
        node = written(write_node, tri)
        ele = written(write_ele, tri)
        n = int(node.splitlines()[0].split()[0])
        assert n == 9
        assert len(node.splitlines()) == n + 1
        t = int(ele.splitlines()[0].split()[0])
        assert t == len(tri.triangles)
        for line in ele.splitlines()[1:]:
            for ref in line.split()[1:]:
                assert 0 <= int(ref) < n

    def test_svg_valid_xml_one_polygon_per_triangle(self):
        tri = Triangulation.build(pinwheel(4))
        svg = written(mesh_to_svg, tri, 31.0)
        root = ET.fromstring(svg)
        polys = [e for e in root if e.tag.endswith("polygon")]
        assert len(polys) == len(tri.triangles)
        fills = {e.get("fill") for e in polys}
        assert "#e05545" in fills  # the designed skinny triangle is highlighted


_WRITER_INPUTS = ("built-pinwheel4", "built-island", "refined-pav")


def _writer_input(name):
    """A mesh and its trace; a built mesh has an empty trace."""
    if name == "refined-pav":
        out = ruppert(pav(1e-3), RefinementConfig(alpha_deg=25))
        return out.triangulation, out.trace
    pslg = pinwheel(4) if name == "built-pinwheel4" else islanded_pslg()
    return Triangulation.build(pslg), RefinementTrace(())


_WRITERS = {
    "node": lambda tri, trace, out: write_node(tri, out),
    "ele": lambda tri, trace, out: write_ele(tri, out),
    "svg": lambda tri, trace, out: mesh_to_svg(tri, None, out),
    "svg-highlight": lambda tri, trace, out: mesh_to_svg(tri, 31.0, out),
    "trace": lambda tri, trace, out: trace.to_jsonl(out),
}


class TestStreamingWriters:
    @pytest.mark.parametrize("writer", list(_WRITERS))
    @pytest.mark.parametrize("mesh", _WRITER_INPUTS)
    def test_stream_equals_string(self, mesh, writer):
        # each writer returns nothing and writes whole lines
        tri, trace = _writer_input(mesh)
        out = io.StringIO()
        assert _WRITERS[writer](tri, trace, out) is None
        text = out.getvalue()
        assert text.endswith("\n") or text == ""

    @staticmethod
    def peak(fn):
        """The most memory fn's allocations held at once, in bytes."""
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.fixture(scope="class")
    def refined(self):
        return ruppert(pinwheel(5), RefinementConfig(alpha_deg=34, max_insertions=2000))

    @pytest.mark.parametrize("writer", ["svg-highlight", "trace"])
    def test_streaming_holds_less_than_half_the_string(self, refined, tmp_path,
                                                       writer):
        # written into memory, the whole text is held at once; streamed
        # into a file, the SVG holds little more than its formatted
        # vertex coordinates
        args = refined.triangulation, refined.trace
        write = _WRITERS[writer]
        whole = self.peak(lambda: written(write, *args))
        with open(tmp_path / writer, "w") as f:
            streamed = self.peak(lambda: write(*args, f))
        assert streamed < whole / 2

    def test_refine_streams_its_artifacts(self, refined, tmp_path, monkeypatch,
                                          capsys):
        # with the engine's run done beforehand, what refine allocates is
        # its report and its writing
        monkeypatch.setattr(cli, "ruppert", lambda pslg, cfg: refined)
        poly = tmp_path / "pin5.poly"
        poly.write_text(write_poly(pinwheel(5)))
        argv = ["refine", str(poly), "--alg", "ruppert", "--alpha", "34",
                "--out-prefix", str(tmp_path / "pin5")]
        svg = self.peak(lambda: written(mesh_to_svg, refined.triangulation, 34.0))
        assert self.peak(lambda: main(argv)) < svg / 2
        with open(tmp_path / "pin5.svg") as f:
            assert f.read() == written(mesh_to_svg, refined.triangulation, 34.0)


class TestArtifactDigests:
    """SHA-256 of every file ``refinelab refine`` writes, and of the SVG
    of a mesh that no engine has touched: a change meant to make the
    writers faster must leave these bytes unchanged."""

    # (engine, artifact suffix) -> digest, for pinwheel(4) at 31 degrees
    REFINE = {
        ("ruppert", "report.json"):
            "a452855f1b885835f8f4b2229913cc7bb5c2efc4b3892a5af59e75c7010a6a37",
        ("ruppert", "trace.jsonl"):
            "0349bb32c0682ad5943a425b56681fa916d188372e00ff55c823cb0ae62ad4e6",
        ("ruppert", "node"):
            "3355e6334e2094df0638291d3aaa9c4273c75e0183617467ad25d906a818c01e",
        ("ruppert", "ele"):
            "ec4f3ef0432c1cbb7ab0b88519e186c218047ba652e686c98a3e3efc0109c466",
        ("ruppert", "svg"):
            "d91b24fa37cafb80dfb1623fb3e04381a3b63c380cf65a3e314c732facef64f7",
        ("chew2", "report.json"):
            "926a56e73c622599b1ede4da9ccd0698f3a3a3551b9c884098b44d56ffffe0ee",
        ("chew2", "trace.jsonl"):
            "5be3eed1b9a1f1fab9880c99c45f9e4808c7ca169f5d66cc054d738d54314a68",
        ("chew2", "node"):
            "fcea6bb2f48efca82bc6b623a9a3bf57b6222147ca22a0872b04d51339b87579",
        ("chew2", "ele"):
            "e16467474d7db30d17cff456f25d9e83807c40bc6f00404d26149eaf774b96dd",
        ("chew2", "svg"):
            "702c49e95a179e2beaf6c564ad3e2bf300ccfe0c04abacb263de959f7f6c86ea",
    }
    # highlight_below_deg -> digest of mesh_to_svg(Triangulation.build(pinwheel(4)))
    BUILT_SVG = {
        None: "6834cf497d0cf8d97efb95ba8bf6e83cef989379b0935771add65862d67049c8",
        31.0: "831f1baafdb0c7d4a48ad64f0a304fe1900fb29b8f03e55a297622234fd9b724",
    }

    @staticmethod
    def sha(data):
        return hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("alg", ["ruppert", "chew2"])
    def test_refine_artifacts(self, tmp_path, monkeypatch, capsys, alg):
        # a relative input path keeps report.json free of tmp_path
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pin4.poly").write_text(write_poly(pinwheel(4)))
        code = main(["refine", "pin4.poly", "--alg", alg, "--alpha", "31",
                     "--no-timestamp"])
        assert code == 0
        got = {
            (alg, suffix): self.sha((tmp_path / f"pin4.{suffix}").read_bytes())
            for suffix in ("report.json", "trace.jsonl", "node", "ele", "svg")
        }
        assert got == {k: v for k, v in self.REFINE.items() if k[0] == alg}

    @pytest.mark.parametrize("highlight", [None, 31.0])
    def test_svg_of_a_built_mesh(self, highlight):
        svg = written(mesh_to_svg, Triangulation.build(pinwheel(4)), highlight)
        assert self.sha(svg.encode()) == self.BUILT_SVG[highlight]
