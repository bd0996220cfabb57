"""End-to-end tests of the command line interface."""

import json
from fractions import Fraction
from unittest import mock

import pytest

from larg_lab import cli
from larg_lab.cli import main
from larg_lab.exact import SqrtExt, parse_scalar
from larg_lab.geometry import Vec2, rational_hexagon, shape_to_json, square_linf
from larg_lab.larg import load_graph
from larg_lab.pointsets import PointSet, Window, is_idf, pointset_from_json, pointset_to_json, projections
from larg_lab.stepiso import PointMap, pointmap_to_json


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "hex.json").write_text(shape_to_json(rational_hexagon()))
    (tmp_path / "sq.json").write_text(shape_to_json(square_linf()))
    line_pts = PointSet(
        tuple(Vec2(Fraction(k * k + 1, 7), Fraction(0)) for k in range(8)),
        Window(Fraction(0), Fraction(0), Fraction(10), Fraction(1)),
        seed=0,
        mode="rational",
    )
    (tmp_path / "line.json").write_text(pointset_to_json(line_pts))
    base = PointSet(
        (Vec2(Fraction(0), Fraction(0)), Vec2(Fraction(2, 5), Fraction(1, 3))),
        Window(Fraction(0), Fraction(0), Fraction(1), Fraction(1)),
        seed=0,
        mode="rational",
    )
    (tmp_path / "base.json").write_text(pointset_to_json(base))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(code, out, err, *words):
    # exit 1 with nothing on stdout and one "error:" line naming the fault
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    for w in words:
        assert w in err


class TestSample:
    def test_writes_loadable_point_set(self, workdir, capsys):
        out = workdir / "pts.json"
        code, _, _ = run(
            capsys,
            "sample", "--window", "0,0,3/2,3/2", "--intensity", "8",
            "--seed", "4", "--mode", "rational", "--out", str(out),
        )
        assert code == 0
        ps = pointset_from_json(out.read_text())
        assert ps.mode == "rational" and ps.seed == 4
        assert all(p.x.denominator >= 1 for p in ps.points)

    def test_same_seed_same_output(self, workdir, capsys):
        args = ("sample", "--window", "0,0,1,1", "--intensity", "10", "--seed", "2")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize(
        "window, intensity",
        [("0,0,1e200,1e200", "1"), ("0,0,1,1", "nan"), ("0,0,1,1", "1e30"), ("0.0,0.0,inf,1.0", "1")],
    )
    def test_bad_sampler_input_is_an_error_line(self, capsys, window, intensity):
        code, out, err = run(capsys, "sample", "--window", window, "--intensity", intensity, "--seed", "1")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "lam" not in err

    def test_idf_rescale_reports_alpha(self, workdir, capsys):
        code, out, err = run(
            capsys,
            "sample", "--window", "0,0,3/2,3/2", "--intensity", "6", "--seed", "4",
            "--mode", "rational", "--idf-generators", "1,0;0,1;1,1",
        )
        assert code == 0
        assert "alpha" in err
        ps = pointset_from_json(out)
        for a in (Vec2(1, 0), Vec2(0, 1), Vec2(1, 1)):
            assert is_idf(projections(ps.points, a))

    def test_bad_window_is_reported(self, workdir, capsys):
        code, _, err = run(capsys, "sample", "--window", "0,0,1", "--intensity", "5", "--seed", "1")
        assert code == 1
        assert "error:" in err


class TestGraph:
    def test_graph_file_round_trips(self, workdir, capsys):
        pts = workdir / "pts.json"
        run(
            capsys,
            "sample", "--window", "0,0,3/2,3/2", "--intensity", "8", "--seed", "4",
            "--mode", "rational", "--out", str(pts),
        )
        gfile = workdir / "g.txt"
        code, _, _ = run(
            capsys,
            "graph", "--points", str(pts), "--shape", str(workdir / "hex.json"),
            "--delta", "1", "--p", "0.5", "--seed", "7", "--out", str(gfile),
        )
        assert code == 0
        G = load_graph(gfile)
        ps = pointset_from_json(pts.read_text())
        assert G.n == len(ps)
        assert G.point_set_ref == ps.fingerprint()
        assert all(u < v for u, v in G.edges)

    def test_shape_argument_accepts_spec_strings(self, workdir, capsys):
        pts = workdir / "pts.json"
        run(
            capsys,
            "sample", "--window", "0,0,1,1", "--intensity", "6", "--seed", "1",
            "--mode", "rational", "--out", str(pts),
        )
        code, out, _ = run(capsys, "graph", "--points", str(pts), "--shape", "hexagon", "--seed", "3")
        assert code == 0
        header = json.loads(out.splitlines()[0])
        assert header["edge_seed"] == 3

    def test_point_set_without_window_is_an_error_line(self, workdir, capsys):
        obj = json.loads((workdir / "base.json").read_text())
        del obj["window"]
        (workdir / "no-window.json").write_text(json.dumps(obj))
        result = run(capsys, "graph", "--points", str(workdir / "no-window.json"), "--shape", "hexagon", "--seed", "3")
        assert_one_error_line(*result, "point-set JSON has no key 'window'")

    @pytest.mark.parametrize("text", ['{"kind": "polygonal"}', '{"kind": "polygonal", "generators": [1, 2]}', "[]"])
    def test_malformed_shape_file_is_an_error_line(self, workdir, capsys, text):
        (workdir / "bad-shape.json").write_text(text)
        result = run(
            capsys, "graph", "--points", str(workdir / "base.json"), "--shape", str(workdir / "bad-shape.json"),
            "--seed", "3",
        )
        assert_one_error_line(*result, "shape JSON")


class TestStepiso:
    def test_explicit1d_is_step_isometry(self, workdir, capsys):
        code, out, _ = run(
            capsys,
            "stepiso", "--map", "explicit1d", "--points", str(workdir / "line.json"),
            "--shape", str(workdir / "sq.json"), "--check", "step",
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["ok"] is True
        assert verdict["pairs_checked"] == 8 * 7 // 2
        # the x values (k^2 + 1)/7 repeat mod 1 (k = 3 and 4 give 3/7), so
        # the certificate leaves every pair to the filter
        assert verdict["pairs_scanned"] == 8 * 7 // 2

    def test_explicit1d_is_not_isometry(self, workdir, capsys):
        code, out, _ = run(
            capsys,
            "stepiso", "--map", "explicit1d", "--points", str(workdir / "line.json"),
            "--shape", str(workdir / "sq.json"), "--check", "iso",
        )
        assert code == 3
        verdict = json.loads(out)
        assert verdict["ok"] is False
        assert verdict["witness"] is not None
        assert verdict["left"] != verdict["right"]

    def test_line_check_on_box_product_map(self, workdir, capsys):
        code, out, _ = run(
            capsys,
            "stepiso", "--map", "box-product", "--points", str(workdir / "line.json"),
            "--shape", str(workdir / "sq.json"), "--check", "line",
            "--line", "1,0,0", "--line-image", "1,0,0",
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("text", ["[]", '{"domain": []}', '{"images": []}'])
    def test_malformed_map_file_is_an_error_line(self, workdir, capsys, text):
        (workdir / "bad-map.json").write_text(text)
        result = run(capsys, "stepiso", "--map", str(workdir / "bad-map.json"), "--shape", "square")
        assert_one_error_line(*result, "JSON")

    def test_sqrt2_domain_with_float_images_fails_the_isometry_check(self, workdir, capsys):
        # exact distances over sqrt(2) against float ones: the second image
        # moved by 0.5 breaks pair (0, 1)
        r2 = SqrtExt(0, 1, 2)
        ps = PointSet(
            (Vec2(0, 0), Vec2(r2, 0), Vec2(0, 2 * r2)), Window(Fraction(-4), Fraction(-4), Fraction(4), Fraction(4)),
            seed=0, mode="rational",
        )
        images = (Vec2(0.0, 0.0), Vec2(float(r2) + 0.5, 0.0), Vec2(0.0, float(2 * r2)))
        (workdir / "sqrt2-map.json").write_text(pointmap_to_json(PointMap(ps, images)))
        code, out, _ = run(
            capsys, "stepiso", "--map", str(workdir / "sqrt2-map.json"), "--shape", str(workdir / "sq.json"),
            "--check", "iso",
        )
        assert code == 3
        verdict = json.loads(out)
        assert (verdict["ok"], verdict["witness"]) == (False, [0, 1])

    def test_missing_shape_is_an_error(self, workdir, capsys):
        code, _, err = run(
            capsys,
            "stepiso", "--map", "explicit1d", "--points", str(workdir / "line.json"),
            "--check", "step",
        )
        assert code == 1
        assert "needs --shape" in err


class TestGrid:
    def test_emits_csv_with_levels(self, workdir, capsys):
        code, out, _ = run(
            capsys,
            "grid", "--base", str(workdir / "base.json"), "--shape", str(workdir / "hex.json"),
            "--depth", "2", "--window", "2",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "level,ax,ay,offset"
        levels = {int(row.split(",")[0]) for row in lines[1:]}
        assert levels == {0, 1, 2}

    def test_offset_filter_keeps_one_normal(self, workdir, capsys):
        code, out, _ = run(
            capsys,
            "grid", "--base", str(workdir / "base.json"), "--shape", str(workdir / "hex.json"),
            "--depth", "1", "--window", "2", "--emit-offsets", "1,1",
        )
        assert code == 0
        rows = [row.split(",") for row in out.strip().splitlines()[1:]]
        assert rows and all(r[1:3] == ["1/1", "1/1"] for r in rows)

    @pytest.mark.parametrize("normal", ["2,0", "0.5,0", "1,-1"])
    def test_offset_filter_refuses_a_normal_that_is_no_generator(self, workdir, capsys, normal):
        # (2, 0) and (1/2, 0) are parallel to the generator (1, 0) but not it
        code, out, err = run(
            capsys,
            "grid", "--base", str(workdir / "base.json"), "--shape", str(workdir / "hex.json"),
            "--depth", "1", "--window", "2", "--emit-offsets", normal,
        )
        assert_one_error_line(code, out, err, normal, "1/1,0/1; 0/1,1/1; 1/1,1/1")

    def test_sqrt2_base_prints_irrational_offsets(self, workdir, capsys):
        # the base (0, 0), (sqrt 2 - 1, 0) spaces its lines irrationally
        base = PointSet(
            (Vec2(Fraction(0), Fraction(0)), Vec2(SqrtExt(-1, 1, 2), Fraction(0))),
            Window(Fraction(0), Fraction(0), Fraction(1), Fraction(1)),
            seed=0,
            mode="rational",
        )
        (workdir / "sbase.json").write_text(pointset_to_json(base))
        code, out, _ = run(
            capsys,
            "grid", "--base", str(workdir / "sbase.json"), "--shape", "hexagon",
            "--depth", "1", "--window", "2", "--emit-offsets", "1,0",
        )
        assert code == 0
        offsets = [parse_scalar(row.split(",")[3]) for row in out.strip().splitlines()[1:]]
        assert SqrtExt(-1, 1, 2) in offsets and Fraction(1) in offsets
        assert all(isinstance(c, (Fraction, SqrtExt)) for c in offsets)

    def test_malformed_scalar_is_exit_one(self, workdir, capsys):
        code, out, err = run(
            capsys,
            "grid", "--base", str(workdir / "base.json"), "--shape", "hexagon",
            "--depth", "1", "--window", "1/2+1/0*sqrt(2)",
        )
        assert code == 1 and out == "" and "zero denominator" in err

    def test_float_base_and_smooth_shape_refused(self, workdir, capsys):
        floats = PointSet((Vec2(0.0, 0.0), Vec2(0.4, 0.3)), Window(0.0, 0.0, 1.0, 1.0), seed=0)
        (workdir / "fbase.json").write_text(pointset_to_json(floats))
        for base, shape, msg in (
            ("fbase.json", str(workdir / "hex.json"), "exact input"),
            ("base.json", "lp:2", "polygonal shape"),
        ):
            code, out, err = run(
                capsys,
                "grid", "--base", str(workdir / base), "--shape", shape, "--depth", "1", "--window", "2",
            )
            assert code == 1 and out == "" and msg in err


class TestExperiment:
    def test_decay_writes_fixed_columns(self, workdir, capsys):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"n_values": [3], "trials": 5, "intensity": 60.0, "base_seed": 9}))
        out = workdir / "rows.csv"
        code, _, err = run(capsys, "experiment", "decay", "--config", str(cfg), "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines()[0] == "n,trials,successes,fraction,ci_lo,ci_hi,paper_bound"
        assert "n=3" in err

    def test_decay_without_out_prints_the_csv(self, workdir, capsysbinary):
        # stdout carries the same bytes as the --out file
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"n_values": [3, 4], "trials": 5, "intensity": 60.0, "base_seed": 9}))
        out = workdir / "rows.csv"
        assert main(["experiment", "decay", "--config", str(cfg), "--out", str(out)]) == 0
        capsysbinary.readouterr()
        assert main(["experiment", "decay", "--config", str(cfg)]) == 0
        printed = capsysbinary.readouterr().out
        assert printed == out.read_bytes() and printed.count(b"\r\n") == 3

    @pytest.mark.parametrize(
        "kind, config, exact, numbers",
        [
            ("decay", {"n_values": [3, 4, 5], "trials": 20, "intensity": 8.0, "p": 0.9, "base_seed": 9},
             ["0", "0", "3", "3"], [0, 0, 3, 3]),
            ("box-demo", {"shape": "square", "intensity": 3.0, "seed": 3, "trials": 3, "budget": 500},
             ["0", "0", "2", "2"], [0, 0, 2, 2]),
        ],
    )
    def test_window_of_exact_strings_or_ints_gives_the_same_output(self, workdir, capsys, kind, config, exact, numbers):
        outs = []
        for window in (exact, numbers):
            cfg = workdir / "cfg.json"
            cfg.write_text(json.dumps({**config, "window": window}))
            code, out, err = run(capsys, "experiment", kind, "--config", str(cfg))
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]

    def test_box_demo_emits_report(self, workdir, capsys):
        cfg = workdir / "box.json"
        cfg.write_text(
            json.dumps(
                {
                    "shape": "square",
                    "window": ["0", "0", "3/2", "3/2"],
                    "intensity": 4.0,
                    "seed": 6,
                    "trials": 5,
                    "budget": 2000,
                }
            )
        )
        code, out, _ = run(capsys, "experiment", "box-demo", "--config", str(cfg))
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 5
        assert payload["found"] + payload["none"] + payload["undetermined"] == 5
        assert len(payload["outcomes"]) == 5

    def test_rejects_malformed_config(self, workdir, capsys):
        cfg = workdir / "bad.json"
        cfg.write_text(json.dumps({"n_values": [2]}))
        code, _, err = run(capsys, "experiment", "decay", "--config", str(cfg))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "entry, words",
        [
            ({"trials": 2.5}, "trials must be an integer, got 2.5"),
            ({"trials": True}, "trials must be an integer, got True"),
            ({"n_values": [3.7, 4]}, "n_values entry must be an integer, got 3.7"),
            ({"window": "0011"}, "window must be four numbers (x0, y0, x1, y1), got '0011'"),
            ({"base_seed": 1.5}, "base_seed must be an integer, got 1.5"),
            ({"shape": 5}, "shape spec must be a string, got 5"),
            ({"intensity": True}, "intensity must be a number, got True"),
            ({"p": [0.5]}, "p must be a number, got [0.5]"),
            ({"window": ["0", "0", "1", None]}, "bad window ['0', '0', '1', None]: None is no number or exact string"),
        ],
    )
    def test_decay_config_of_wrong_type_is_an_error_line(self, workdir, capsys, entry, words):
        cfg = workdir / "cfg.json"
        cfg.write_text(json.dumps({"n_values": [3, 4], "trials": 3, "intensity": 60.0, "base_seed": 9, **entry}))
        assert_one_error_line(*run(capsys, "experiment", "decay", "--config", str(cfg)), words)

    @pytest.mark.parametrize(
        "entry, words",
        [
            ({"seed": 3.9}, "seed must be an integer, got 3.9"),
            ({"alpha_seed": "1"}, "alpha_seed must be an integer, got '1'"),
            ({"trials": 2.5}, "trials must be an integer, got 2.5"),
            ({"budget": True}, "budget must be an integer, got True"),
            ({"window": ["0", "0", "1"]}, "window must be four numbers (x0, y0, x1, y1), got ['0', '0', '1']"),
            ({"window": ["0", "0", "1", None]}, "bad window ['0', '0', '1', None]: None is no number or exact string"),
            ({"shape": ["square"]}, "shape spec must be a string, got ['square']"),
            ({"intensity": True}, "intensity must be a number, got True"),
            ({"intensity": [1]}, "intensity must be a number, got [1]"),
            ({"intensity": "4"}, "intensity must be a number, got '4'"),
            ({"p": [0.5]}, "p must be a number, got [0.5]"),
            ({"trails": 3}, "unknown box-demo config keys ['trails']"),
            ({"trials": 0}, "trials must be at least 1"),
            ({"trials": -2}, "trials must be at least 1"),
            ({"window": "0011"}, "window must be four numbers (x0, y0, x1, y1), got '0011'"),
        ],
    )
    def test_box_demo_config_of_wrong_type_is_an_error_line(self, workdir, capsys, entry, words):
        cfg = workdir / "box.json"
        cfg.write_text(json.dumps({"shape": "square", "intensity": 4.0, "trials": 1, "budget": 100, **entry}))
        with mock.patch.object(cli, "sample_poisson_window") as sampler:
            result = run(capsys, "experiment", "box-demo", "--config", str(cfg))
        assert_one_error_line(*result, words)
        sampler.assert_not_called()

    def test_box_demo_refuses_an_empty_sample(self, workdir, capsys):
        cfg = workdir / "box-empty.json"
        cfg.write_text(json.dumps({"shape": "square", "intensity": 0.001}))
        result = run(capsys, "experiment", "box-demo", "--config", str(cfg))
        assert_one_error_line(*result, "the sample has 0 points")

    def test_box_demo_refuses_smooth_shape(self, workdir, capsys):
        cfg = workdir / "box-lp.json"
        cfg.write_text(json.dumps({"shape": "lp:2", "trials": 1}))
        code, out, err = run(capsys, "experiment", "box-demo", "--config", str(cfg))
        assert code == 1 and out == "" and "needs a box shape" in err

    def test_box_demo_refuses_polygon_before_sampling(self, workdir, capsys):
        cfg = workdir / "box-hex.json"
        cfg.write_text(json.dumps({"shape": "hexagon", "trials": 1}))
        with mock.patch.object(cli, "sample_poisson_window") as sampler:
            code, out, err = run(capsys, "experiment", "box-demo", "--config", str(cfg))
        assert code == 1 and out == "" and "needs a box shape" in err
        sampler.assert_not_called()


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
