import gzip
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dstrig.cli
import dstrig.oracle
import dstrig.triangles
from dstrig import errors
from dstrig.cli import build_parser, main
from dstrig.geodesics import DeSitterPoint
from dstrig.oracle import GeneratorConfig, random_triangle
from dstrig.triangles import (
    DeSitterTriangle,
    ProperName,
    build_triangle,
    distinguished_vertex,
    polar_triangle,
    tangent_normal_residual,
)

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "pool.jsonl.gz"


def run_cli(capsys, monkeypatch, *args, stdin=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def doc_for(points):
    return json.dumps({"schema": 1, "signature": "-++",
                       "vertices": [[float(x) for x in p.v] for p in points]})


@pytest.fixture
def chorosceles_doc(chorosceles_points):
    return doc_for(chorosceles_points)


class TestClassifyCommand:
    def test_stdin(self, capsys, monkeypatch, chorosceles_doc):
        code, out, _ = run_cli(capsys, monkeypatch, "classify", "--input", "-",
                               stdin=chorosceles_doc)
        assert code == 0
        rep = json.loads(out)
        assert rep["proper_name"] == "chorosceles"
        assert rep["edge_counts"] == [2, 1, 0]
        assert len(rep["edges"]) == 3
        assert {e["kind"] for e in rep["edges"]} == {"ellipse_part",
                                                     "hyperbola_part"}
        assert "polar_triangle" in rep

    def test_file_input(self, capsys, monkeypatch, tmp_path, chorosceles_doc):
        path = tmp_path / "tri.json"
        path.write_text(chorosceles_doc)
        code, out, _ = run_cli(capsys, monkeypatch, "classify", "--input",
                               str(path))
        assert code == 0
        assert json.loads(out)["proper_name"] == "chorosceles"

    def test_jsonl_stream(self, capsys, monkeypatch, chorosceles_doc,
                          spatiolateral_points):
        stream = chorosceles_doc + "\n" + doc_for(spatiolateral_points) + "\n"
        code, out, _ = run_cli(capsys, monkeypatch, "classify", "--input", "-",
                               stdin=stream)
        assert code == 0
        names = [json.loads(line)["proper_name"] for line in out.splitlines()]
        assert names == ["chorosceles", "spatiolateral"]

    def test_bad_json(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, "classify", "--input", "-",
                               stdin="not json")
        assert code == 2
        assert "error" in err

    def test_bad_jsonl_line_named(self, capsys, monkeypatch, chorosceles_doc,
                                  spatiolateral_points):
        # Two good lines, then a truncated third: the error names line 3,
        # not the whole text's first stray byte.
        stream = "\n".join([chorosceles_doc, doc_for(spatiolateral_points),
                            '{"schema": 1, "vertices": [[0,1,0],[0,0,1]']) + "\n"
        code, out, err = run_cli(capsys, monkeypatch, "classify", "--input", "-",
                                 stdin=stream)
        assert code == 2
        assert out == ""
        assert err == "error: not valid JSON on line 3: Expecting ',' delimiter at column 43\n"

    def test_pretty_printed_document(self, capsys, monkeypatch, chorosceles_doc):
        # One document over many lines parses whole, also when its first
        # key sits on the opening brace's line.
        doc = json.loads(chorosceles_doc)
        first_key_on_line_1 = json.dumps(doc, indent=1).replace("{\n ", "{", 1)
        for text in (json.dumps(doc, indent=2), first_key_on_line_1):
            code, out, _ = run_cli(capsys, monkeypatch, "classify", "--input", "-",
                                   stdin=text)
            assert code == 0
            assert [json.loads(line)["proper_name"] for line in out.splitlines()] \
                == ["chorosceles"]

    def test_bad_schema(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, "classify", "--input", "-",
                               stdin='{"schema": 9, "vertices": []}')
        assert code == 2
        assert "schema" in err

    @pytest.mark.parametrize("command", ["classify", "area"])
    def test_boolean_schema_rejected(self, capsys, monkeypatch, command, chorosceles_doc):
        # JSON true equals 1 in Python; it is still not schema 1.
        doc = json.dumps(dict(json.loads(chorosceles_doc), schema=True))
        code, out, err = run_cli(capsys, monkeypatch, command, "--input", "-", stdin=doc)
        assert code == 2
        assert out == ""
        assert err == "error: unsupported schema: True\n"

    def test_float_schema_accepted(self, capsys, monkeypatch, chorosceles_doc):
        doc = json.dumps(dict(json.loads(chorosceles_doc), schema=1.0))
        code, out, _ = run_cli(capsys, monkeypatch, "area", "--input", "-", stdin=doc)
        assert code == 0
        assert json.loads(out)["proper_name"] == "chorosceles"

    def test_off_quadric_names_row(self, capsys, monkeypatch):
        doc = json.dumps({"schema": 1,
                          "vertices": [[0, 1, 0], [0, 0.5, 0], [0, 0, 1]]})
        code, _, err = run_cli(capsys, monkeypatch, "classify", "--input", "-",
                               stdin=doc)
        assert code == 2
        assert "row 2" in err

    def test_overflowing_vertex_is_off_quadric(self, capsys, monkeypatch):
        doc = json.dumps({"schema": 1, "vertices": [[1e200, 1e200, 1e200],
                                                    [0, 1, 0], [0, 0, 1]]})
        code, out, err = run_cli(capsys, monkeypatch, "classify", "--input", "-",
                                 stdin=doc)
        assert code == 2
        assert out == ""
        assert err == "error: vertex row 1 is off the quadric: <v,v> = nan\n"

    def test_coincident_exit_3(self, capsys, monkeypatch):
        doc = json.dumps({"schema": 1,
                          "vertices": [[0, 1, 0], [0, 1, 0], [0, 0, 1]]})
        code, _, err = run_cli(capsys, monkeypatch, "classify", "--input", "-",
                               stdin=doc)
        assert code == 3

    def test_boolean_coordinates_rejected(self, capsys, monkeypatch):
        # JSON booleans parse as bool, a subclass of int; once read as 0 and
        # 1 they made a bimetrical chorosceles triangle.
        doc = ('{"schema":1,"vertices":[[false,true,false],[false,false,true],'
               '[0.5,1,0.5]]}')
        code, out, err = run_cli(capsys, monkeypatch, "classify", "--input", "-",
                                 stdin=doc)
        assert code == 2
        assert out == ""
        assert err == "error: vertex row 1 must hold three numbers\n"

    def test_integer_beyond_float_range_rejected(self, capsys, monkeypatch):
        doc = '{"schema":1,"vertices":[[0,1,0],[1%s,0,1],[0,0,1]]}' % ("0" * 400)
        for command in ("classify", "area", "plot"):
            extra = ["--out", "-"] if command == "plot" else []
            code, out, err = run_cli(capsys, monkeypatch, command, "--input", "-",
                                     *extra, stdin=doc)
            assert code == 2
            assert out == ""
            assert err == "error: vertex row 2 has an integer beyond the float range\n"

    def test_large_integer_in_float_range_accepted(self, capsys, monkeypatch):
        # Integers that fit a float are numbers like any other: the row
        # is checked against the quadric, not rejected by type.
        doc = json.dumps({"schema": 1, "vertices": [[0, 1, 0], [10**20, 1, 0],
                                                    [0, 0, 1]]})
        code, _, err = run_cli(capsys, monkeypatch, "classify", "--input", "-",
                               stdin=doc)
        assert code == 2
        assert err.startswith("error: vertex row 2 is off the quadric")

    _GOOD = {"schema": 1, "vertices": [[0, 1, 0], [0, 0, 1], [0.5, 1, 0.5]]}

    @pytest.mark.parametrize("argv, stdin, message", [
        (["classify"], "", "empty input"),
        (["classify"], f"[{json.dumps(_GOOD)}]",
         "expected an object per document, not a JSON array"),
        (["classify"], f"3\n{json.dumps(_GOOD)}\n", "document must be a JSON object"),
        (["classify"], json.dumps(dict(_GOOD, signature="+--")),
         "unsupported signature: '+--'"),
        (["classify"], json.dumps(dict(_GOOD, vertices=_GOOD["vertices"][:2])),
         "vertices must be a list of three rows"),
        # json.loads accepts the non-standard NaN literal.
        (["classify"], '{"schema": 1, "vertices": [[0, 1, 0], [0, 0, 1], [NaN, 1, 0.5]]}',
         "vertex row 3 has non-finite components"),
        (["plot", "--out", "-"], f"{json.dumps(_GOOD)}\n{json.dumps(_GOOD)}\n",
         "plot expects exactly one document"),
        # A malformed or repeated pretty-printed document is reported as the whole text.
        (["classify"], json.dumps(_GOOD, indent=2)[:-2],
         "not valid JSON: Expecting ',' delimiter: line 19 column 4 (char 156)"),
        (["classify"], f"{json.dumps(_GOOD, indent=2)}\n{json.dumps(_GOOD, indent=2)}",
         "not valid JSON: Extra data: line 21 column 1 (char 159)"),
    ], ids=["empty", "json-array", "jsonl-non-object", "signature", "two-rows", "nan",
            "plot-two-documents", "pretty-truncated", "pretty-two-documents"])
    def test_document_rejected(self, capsys, monkeypatch, argv, stdin, message):
        code, out, err = run_cli(capsys, monkeypatch, argv[0], "--input", "-", *argv[1:],
                                 stdin=stdin)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestClassifyPolar:
    """classify reports build_triangle's polar triangle and computes no tangent."""

    def test_matches_build_on_pool(self, monkeypatch):
        with gzip.open(POOL, "rt", encoding="utf-8") as fh:
            docs = [json.loads(line)["doc"] for line in list(fh)[1:]]  # line 1: metadata
        assert len(docs) == 512
        calls = []

        def counting(p, q):
            calls.append(1)
            return tangent(p, q)

        tangent = dstrig.triangles.tangent_toward
        monkeypatch.setattr(dstrig.triangles, "tangent_toward", counting)
        for doc in docs:
            points = dstrig.cli._document_points(doc)
            calls.clear()
            got = dstrig.cli._classify_report(points)["polar_triangle"]
            assert len(calls) == 0
            ref = polar_triangle(build_triangle(*points))
            assert len(calls) == 6
            assert [[x.hex() for x in v] for v in got["vertices"]] \
                == [[x.hex() for x in v.tolist()] for v in ref.vertices]
            assert got["kinds"] == [k.value for k in ref.kinds]

    def test_tangent_band_does_not_refuse(self, capsys, monkeypatch):
        # Vertices 1 and 2 are 0.95e-9 off the quadric and <p1,p2> = 1 + 1.2e-9:
        # a hyperbola arc, whose tangent direction q - <p,q> p has |<w,w>| below
        # NULL_EPS, so build_triangle raises NullTangentError.  classify computes
        # no tangent and names the triangle.
        ep, c = 0.95e-9, 1.0 + 1.2e-9
        b = c / math.sqrt(1.0 + ep)
        rows = [[0.0, math.sqrt(1.0 + ep), 0.0], [math.sqrt(b * b - (1.0 + ep)), b, 0.0],
                [0.0, 0.0, 1.0]]
        with pytest.raises(errors.NullTangentError):
            build_triangle(*map(DeSitterPoint, rows))
        code, out, _ = run_cli(capsys, monkeypatch, "classify", "--input", "-",
                               stdin=json.dumps({"schema": 1, "vertices": rows}))
        assert code == 0
        rep = json.loads(out)
        assert rep["proper_name"] == "chorosceles"
        assert rep["polar_triangle"]["vertices"] \
            == dstrig.triangles._normals(tuple(map(DeSitterPoint, rows)))


class TestAreaCommand:
    def test_reports_formula_and_angles(self, capsys, monkeypatch,
                                        chorosceles_doc):
        code, out, _ = run_cli(capsys, monkeypatch, "area", "--input", "-",
                               stdin=chorosceles_doc)
        assert code == 0
        rep = json.loads(out)
        assert rep["formula_used"] == "Thm9"
        assert rep["real_area"] > 0
        assert abs(rep["complex_area"]["re"]) <= 1e-8
        assert rep["complex_area"]["im"] == pytest.approx(rep["real_area"])
        assert len(rep["angles"]) == 3

    def test_oracle_block(self, capsys, monkeypatch, chorosceles_doc):
        code, out, _ = run_cli(capsys, monkeypatch, "area", "--input", "-",
                               "--oracle", "--grid", "32", stdin=chorosceles_doc)
        assert code == 0
        rep = json.loads(out)
        orc = rep["oracle"]
        assert orc["discrepancy"] <= max(1e-3, 3 * orc["est_error"])

    def test_non_contractible_exit_4(self, capsys, monkeypatch,
                                     spatiolateral_points):
        from dstrig.geodesics import DeSitterPoint
        from dstrig.triangles import build_triangle
        tri = build_triangle(*spatiolateral_points)
        d = distinguished_vertex(tri)
        pts = [DeSitterPoint(p.v.copy()) for p in tri.points]
        pts[d] = DeSitterPoint(-pts[d].v)
        code, _, err = run_cli(capsys, monkeypatch, "area", "--input", "-",
                               stdin=doc_for(pts))
        assert code == 4
        assert "non-contractible" in err

    def test_perimeter_in_band_decided_non_contractible(self, capsys, monkeypatch):
        # A chart draw at u_max 0.5: its edge-length sum is 2*pi + 1.4e-12,
        # inside the 1e-9 band, while 1 + sum <p_a,p_b> = -0.292.
        doc = json.dumps({"schema": 1, "vertices": [
            [-0.18073547286762545, -0.06429049701147709, 1.0141656882120897],
            [-0.031993701198826684, -0.4014800900189776, -0.9164263932442984],
            [0.4826227198120772, 0.908279896844282, -0.6387114518053889]]})
        code, out, _ = run_cli(capsys, monkeypatch, "classify", "--input", "-", stdin=doc)
        assert code == 0
        rep = json.loads(out)
        assert rep["proper_name"] == "spatiolateral"
        assert rep["contractible"] is False
        assert abs(sum(e["length"] for e in rep["edges"]) - 2.0 * math.pi) <= 1e-9
        assert 1.0 + sum(e["inner_product"] for e in rep["edges"]) \
            == pytest.approx(-0.292, abs=1e-3)
        code, out, err = run_cli(capsys, monkeypatch, "area", "--input", "-", stdin=doc)
        assert (code, out) == (4, "")
        assert err == "error: triangle is non-contractible: it bounds no disk\n"

    def test_null_edge_exit_5(self, capsys, monkeypatch):
        doc = json.dumps({"schema": 1,
                          "vertices": [[0, 1, 0], [1, 1, 1], [2, 1, 2]]})
        code, _, _ = run_cli(capsys, monkeypatch, "area", "--input", "-",
                             stdin=doc)
        assert code == 5

    def test_impossible_edge_exit_5(self, capsys, monkeypatch):
        doc = json.dumps({"schema": 1, "vertices": [
            [0, 1, 0], [math.sinh(1), -math.cosh(1), 0], [0, 0, 1]]})
        code, out, err = run_cli(capsys, monkeypatch, "area", "--input", "-",
                                 stdin=doc)
        assert code == 5
        assert out == ""
        assert err == "error: edge opposite vertex 3 admits no geodesic\n"

    @pytest.mark.parametrize("grid", ["5464", "100000"])
    def test_grid_above_ceiling_is_usage_error(self, capsys, monkeypatch,
                                               chorosceles_doc, grid):
        code, out, err = run_cli(capsys, monkeypatch, "area", "--input", "-",
                                 "--oracle", "--grid", grid, stdin=chorosceles_doc)
        assert code == 2
        assert out == ""
        assert err == f"error: grid must be at most 5463, got {grid}\n"

    def test_grid_at_ceiling_runs(self, capsys, monkeypatch, chorosceles_doc):
        code, out, _ = run_cli(capsys, monkeypatch, "area", "--input", "-",
                               "--oracle", "--grid", "5463", stdin=chorosceles_doc)
        assert code == 0
        assert json.loads(out)["oracle"]["grid"] == [5463, 5463]


class TestRandomCommand:
    def test_roundtrip(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, "random", "--type",
                               "tempolateral", "--seed", "4", "--count", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            code2, out2, _ = run_cli(capsys, monkeypatch, "classify", "--input",
                                     "-", stdin=line)
            assert code2 == 0
            assert json.loads(out2)["proper_name"] == "tempolateral"

    def test_byte_identical_reruns(self, capsys, monkeypatch):
        args = ("random", "--type", "chorosceles", "--seed", "12",
                "--count", "2")
        _, first, _ = run_cli(capsys, monkeypatch, *args)
        _, second, _ = run_cli(capsys, monkeypatch, *args)
        assert first == second

    def test_options_do_not_leak_between_calls(self, capsys, monkeypatch):
        # main() reuses one parser; build_parser() still makes a new one.
        assert build_parser() is not build_parser()
        args = ("random", "--type", "spatiolateral", "--seed", "0")
        run_cli(capsys, monkeypatch, *args, "--format", "csv")
        code, out, _ = run_cli(capsys, monkeypatch, *args)
        assert code == 0
        assert json.loads(out)["metadata"]["seed"] == 0

    def test_matches_library_generator(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, "random", "--type",
                               "chronosceles", "--seed", "8")
        rows = json.loads(out)["vertices"]
        tri = random_triangle(GeneratorConfig(seed=8,
                                              target=ProperName.CHRONOSCELES))
        np.testing.assert_array_equal(np.array(rows),
                                      np.stack([p.v for p in tri.points]))

    def test_csv(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, "random", "--type",
                               "spatiolateral", "--seed", "0", "--count", "1",
                               "--format", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("name,seed,type,p1_x0")
        assert row.startswith("spatiolateral-0,0,spatiolateral,")

    @pytest.mark.parametrize("u_max", ["inf", "1e3", "nan", "0"])
    def test_out_of_range_u_max_exit_2(self, capsys, monkeypatch, u_max):
        code, out, err = run_cli(capsys, monkeypatch, "random", "--type",
                                 "chorosceles", "--seed", "0", "--u-max", u_max)
        assert code == 2
        assert out == ""
        assert err.startswith("error: u_max must be ")
        assert err.count("\n") == 1

    def test_exhausted_exit_6(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, monkeypatch, "random", "--type",
                               "spatiolateral", "--seed", "1",
                               "--max-attempts", "2")
        assert code == 6


class TestVerifyCommand:
    def test_pass_exit_0(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, monkeypatch, "verify", "--type",
                               "chorosceles", "--trials", "2", "--seed", "3")
        assert code == 0
        rep = json.loads(out)
        assert rep["passed"] is True
        assert rep["types"]["chorosceles"]["counts"]["oracle_agreement"] == 2

    def test_corrupt_normals_exit_1(self, capsys, monkeypatch, corrupt_normals):
        code, out, _ = run_cli(capsys, monkeypatch, "verify", "--type",
                               "chorosceles", "--trials", "2", "--seed", "3")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_worst_keeps_nan(self, capsys, monkeypatch):
        # Only trial 1 of 3 has nan normals: max() would report trial 0's
        # finite residual as the worst.
        generate = dstrig.oracle.random_triangle
        nan_seed = int(np.random.SeedSequence(0).generate_state(3)[1])

        def nan_at_trial_1(cfg):
            tri = generate(cfg)
            if cfg.seed != nan_seed:
                return tri
            return DeSitterTriangle(tri.points, tri.edges, tri.tangents, np.full((3, 3), np.nan))

        monkeypatch.setattr(dstrig.oracle, "random_triangle", nan_at_trial_1)
        code, out, _ = run_cli(capsys, monkeypatch, "verify", "--type", "chorosceles",
                               "--trials", "3", "--seed", "0")
        assert code == 1
        assert '"tangent_normal_residual": NaN' in out
        rep = json.loads(out)["types"]["chorosceles"]
        assert [(f["trial"], f["detail"]) for f in rep["failures"]] == [(1, "residual nan")]

    def test_corrupt_normals_failures_replay(self, capsys, monkeypatch, corrupt_normals):
        # Each failure names its trial's generator seed; `random --seed` on
        # it prints that trial's vertices, and corrupting the normals of the
        # replayed triangle gives the reported residual again.
        _, out, _ = run_cli(capsys, monkeypatch, "verify", "--type", "chorosceles",
                            "--trials", "2", "--seed", "3")
        failures = json.loads(out)["types"]["chorosceles"]["failures"]
        replays = [f for f in failures if f["check"] == "tangent_normal_identity"]
        assert [f["trial"] for f in replays] == [0, 1]
        trial_seeds = np.random.SeedSequence(3).generate_state(2)
        for f in failures:
            assert f["seed"] == trial_seeds[f["trial"]]
        for f in replays:
            _, doc, _ = run_cli(capsys, monkeypatch, "random", "--type", "chorosceles",
                                "--seed", str(f["seed"]))
            vertices = json.loads(doc)["vertices"]
            trial = random_triangle(GeneratorConfig(f["seed"], ProperName.CHOROSCELES))
            assert vertices == [[float(x) for x in p.v] for p in trial.points]
            tri = build_triangle(*(DeSitterPoint(np.array(v)) for v in vertices))
            tri = DeSitterTriangle(tri.points, tri.edges, tri.tangents, tri.normals + 1e-3)
            assert f["detail"] == f"residual {tangent_normal_residual(tri):.3g}"

    def test_closed_form_failure_exit_1(self, capsys, monkeypatch, corrupt_tangent):
        # A closed form that raises is a failed check with a seed, not an abort.
        code, out, _ = run_cli(capsys, monkeypatch, "verify", "--type", "chorosceles",
                               "--trials", "3", "--seed", "3")
        assert code == 1
        rep = json.loads(out)
        assert rep["passed"] is False
        failures = rep["types"]["chorosceles"]["failures"]
        trial_seeds = [int(s) for s in np.random.SeedSequence(3).generate_state(3)]
        assert sorted({(f["trial"], f["seed"]) for f in failures}) \
            == list(enumerate(trial_seeds))
        assert any(f["check"] == "complex_area_shape"
                   and f["detail"].startswith("closed form failed: ") for f in failures)

    def test_grid_above_ceiling_is_usage_error(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, monkeypatch, "verify", "--type",
                                 "chorosceles", "--trials", "1", "--grid", "5464")
        assert code == 2
        assert out == ""
        assert err == "error: grid must be at most 5463, got 5464\n"

    def test_zero_trials_usage_error(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--type", "all", "--trials", "0"])
        assert exc.value.code == 2


# Exit status of every GeometryError subclass, as the module docstring lists it.
EXIT_CODES = {
    "GeometryError": 1,
    "ZeroVectorError": 1,
    "NotUnitError": 1,
    "NullInputError": 1,
    "NotTimeLikeError": 1,
    "NullSpanError": 1,
    "DegeneratePairError": 1,
    "NotSpaceLikePositionError": 1,
    "CoincidentPointsError": 3,
    "NullTangentError": 1,
    "UnsupportedKindError": 5,
    "DegenerateTriangleError": 3,
    "ImpossibleEdgeError": 5,
    "NullEdgeError": 5,
    "NotSpatiolateralError": 1,
    "BoundaryCaseError": 3,
    "NonContractibleError": 4,
    "UnsupportedTriangleTypeError": 5,
    "NonConvergentError": 1,
    "ExhaustedAttemptsError": 6,
}


class TestExitCodes:
    def test_table_covers_every_error(self):
        found = {name for name, obj in vars(errors).items()
                 if isinstance(obj, type) and issubclass(obj, errors.GeometryError)}
        assert found == set(EXIT_CODES)

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_main_exits_with_error_code(self, capsys, monkeypatch, name):
        exc_type = getattr(errors, name)

        def fail(path):
            raise exc_type("boom")

        monkeypatch.setattr(dstrig.cli, "_read_text", fail)
        code, out, err = run_cli(capsys, monkeypatch, "classify", "--input", "-")
        assert exc_type.exit_code == EXIT_CODES[name]
        assert code == EXIT_CODES[name]
        assert (out, err) == ("", "error: boom\n")


class TestPlotCommand:
    def test_svg_deterministic(self, capsys, monkeypatch, tmp_path,
                               chorosceles_doc):
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (out1, out2):
            code, _, _ = run_cli(capsys, monkeypatch, "plot", "--input", "-",
                                 "--out", str(out), stdin=chorosceles_doc)
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        svg = out1.read_text()
        assert svg.startswith("<svg")
        # edges keyed by causal class, both kinds present in this fixture
        assert 'class="spacelike"' in svg
        assert 'class="timelike"' in svg

    def test_null_edge_exit_5(self, capsys, monkeypatch, tmp_path):
        doc = json.dumps({"schema": 1,
                          "vertices": [[0, 1, 0], [1, 1, 1], [2, 1, 2]]})
        code, _, _ = run_cli(capsys, monkeypatch, "plot", "--input", "-",
                             "--out", str(tmp_path / "x.svg"), stdin=doc)
        assert code == 5

    @pytest.mark.parametrize("rows, message", [
        ([[0, 1, 0], [1, 1, 1], [0, 0, 1]], "edge opposite vertex 1 is a null line"),
        ([[0, 1, 0], [math.sinh(1), -math.cosh(1), 0], [0, 0, 1]],
         "edge opposite vertex 3 admits no geodesic"),
    ], ids=["photosceles-space-base", "impossible-edge"])
    def test_untraceable_edge_named_as_area_names_it(self, capsys, monkeypatch, rows, message):
        doc = json.dumps({"schema": 1, "vertices": rows})
        for argv in (["plot", "--input", "-", "--out", "-"], ["area", "--input", "-"]):
            code, out, err = run_cli(capsys, monkeypatch, *argv, stdin=doc)
            assert (code, out, err) == (5, "", f"error: {message}\n")

    def test_stdout_output(self, capsys, monkeypatch, chorosceles_doc):
        code, out, _ = run_cli(capsys, monkeypatch, "plot", "--input", "-",
                               "--out", "-", stdin=chorosceles_doc)
        assert code == 0
        assert out.startswith("<svg")


class TestModuleEntry:
    def test_python_m_dstrig_from_checkout(self, chorosceles_doc):
        # Only the source tree on the path, as in a fresh checkout.
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "dstrig", "classify", "--input", "-"],
            input=chorosceles_doc, capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["proper_name"] == "chorosceles"

    def test_import_and_classify_load_no_numpy(self, chorosceles_doc):
        # Classification runs on Python floats; numpy (numpy.polynomial too, whose
        # import the oracle's written-out quadrature rule avoids) loads at the
        # first array, which is METRIC's or v's here.
        src = Path(__file__).resolve().parents[1] / "src"
        code = "\n".join([
            "import io, json, sys",
            "import dstrig, dstrig.cli",
            "from dstrig.geodesics import DeSitterPoint",
            "sys.stdin = io.StringIO(sys.argv[1])",
            "rc = dstrig.cli.main(['classify', '--input', '-'])",
            "seen = {'rc': rc, 'numpy_after_classify': 'numpy' in sys.modules}",
            "p = DeSitterPoint([0.0, 0.6, 0.8])",
            "seen['metric'] = [dstrig.METRIC is dstrig.minkowski.METRIC,",
            "                  dstrig.METRIC is dstrig.METRIC,",
            "                  dstrig.METRIC.flags.writeable, dstrig.METRIC.tolist()]",
            "seen['v'] = [p.v is p.v, type(p.v).__name__, p.v.flags.writeable, p.v.tolist()]",
            "print(json.dumps(seen))",
        ])
        proc = subprocess.run([sys.executable, "-c", code, chorosceles_doc], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        report, seen = proc.stdout.splitlines()
        assert json.loads(report)["proper_name"] == "chorosceles"
        assert json.loads(seen) == {
            "rc": 0, "numpy_after_classify": False,
            "metric": [True, True, False, [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]],
            "v": [True, "ndarray", False, [0.0, 0.6, 0.8]],
        }
