import json

import pytest

from eucalc import cli, transforms
from eucalc.cf1d import CF1D
from eucalc.verify import SUITES, run_suites


@pytest.fixture
def triangle_scene(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "terms": [
            {"coef": 1, "type": "polytope", "points": [[0, 0], [1, 0], [0, 2]]},
            {"coef": -1, "type": "polytope", "points": [[1, 0], [0, 2]]},
        ],
    }))
    return str(path)


@pytest.fixture
def unit_cell_scene(tmp_path):
    path = tmp_path / "cell.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "terms": [{"coef": 1, "type": "halfopen_box", "low": [0, 0], "high": [1, 1]}],
    }))
    return str(path)


@pytest.fixture
def hollow_square_mesh(tmp_path):
    path = tmp_path / "mesh.json"
    path.write_text(json.dumps({
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "cells": [[0, 1], [1, 2], [2, 3], [0, 3]],
    }))
    return str(path)


class TestTransformCommand:
    def test_grid_row_count(self, triangle_scene, tmp_path):
        out = tmp_path / "out.csv"
        code = cli.main([
            "transform", "--input", triangle_scene, "--kernel", "laplace",
            "--directions", "8", "--radii", "0.5:2:8", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "dir_1,dir_2,radius,re,im"
        assert len(lines) == 65

    def test_parse_error_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            cli.main(["transform", "--input", str(bad), "--directions", "4",
                      "--radii", "1:2:2"])
        assert exc.value.code == 2

    def test_noncompact_fourier_exits_3(self, tmp_path):
        scene = tmp_path / "rays.json"
        scene.write_text(
            '{"dimension": 2, "terms": [{"coef": 1, "type": "halfopen_box",'
            ' "low": [0, 0], "high": [Infinity, Infinity]}]}'
        )
        out = tmp_path / "out.csv"
        code = cli.main([
            "transform", "--input", str(scene), "--kernel", "fourier",
            "--direction", "1,1", "--radius", "1", "--output", str(out),
        ])
        assert code == 3

    def test_dimension_mismatch_exits_2(self, tmp_path, capsys):
        scene = tmp_path / "flat.json"
        scene.write_text(json.dumps({
            "dimension": 3,
            "terms": [{"coef": 1, "type": "polytope", "points": [[0, 0], [1, 0]]}],
        }))
        with pytest.raises(SystemExit) as exc:
            cli.main(["transform", "--input", str(scene), "--direction", "1,0,0",
                      "--radius", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("grid", [
        ["--directions", "4", "--radii", "1:x:3"],
        ["--directions", "4", "--radii", "1:2:x"],
        ["--direction", "1,x", "--radius", "1"],
    ])
    def test_bad_grid_exits_2(self, triangle_scene, grid, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["transform", "--input", triangle_scene] + grid)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_overflow_exits_2(self, tmp_path, capsys):
        scene = tmp_path / "solid.json"
        scene.write_text(json.dumps({
            "dimension": 2,
            "terms": [{"coef": 1, "type": "polytope", "points": [[0, 0], [1, 0], [0, 2]]}],
        }))
        code = cli.main(["transform", "--input", str(scene), "--direction=-1000,0",
                         "--radius", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_byte_stable_outputs(self, triangle_scene, tmp_path):
        args = ["transform", "--input", triangle_scene, "--kernel", "fourier",
                "--directions", "6", "--radii", "0.5:1.5:3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--output", str(out1)]) == 0
        assert cli.main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestCurveCommands:
    def test_ect_two_jumps(self, hollow_square_mesh, tmp_path):
        out = tmp_path / "ect.csv"
        code = cli.main(["ect", "--mesh", hollow_square_mesh, "--xi", "0,1",
                         "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines == ["t,jump", "0.0,1", "1.0,-1"]

    def test_bessel_point_distance_column(self, tmp_path):
        mesh = tmp_path / "point.json"
        mesh.write_text(json.dumps({"vertices": [[0, 0], [4, 0]], "cells": [[0, 1]]}))
        out = tmp_path / "bessel.csv"
        code = cli.main(["bessel", "--mesh", str(mesh), "--center", "1,0",
                         "--center", "2,0", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "v_1,v_2,value"
        assert [float(line.split(",")[2]) for line in lines[1:]] == [4.0, 4.0]

    def test_sublevel_direction_sweep(self, hollow_square_mesh, tmp_path):
        out = tmp_path / "mag.csv"
        code = cli.main(["sublevel", "--mesh", hollow_square_mesh,
                         "--kernel", "laplace", "--directions", "16",
                         "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "dir_1,dir_2,re,im"
        assert len(lines) == 17


class TestRadonCommand:
    def test_prints_recovered_and_exact(self, unit_cell_scene, capsys):
        code = cli.main(["radon-recover", "--input", unit_cell_scene,
                         "--gamma", "neg", "--xi", "1,1", "--t", "0.5",
                         "--A", "500", "--ds", "0.01", "--delta", "1e-3"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        recovered = float(out[0].split()[1])
        exact = float(out[1].split()[1])
        assert exact == 1.0
        assert abs(recovered - exact) < 0.05


class TestVerifyCommand:
    def test_subset_runs(self, capsys):
        code = cli.main(["verify", "--suite", "geometry", "--suite", "kernels",
                         "--cases", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "geometry" in out and "kernels" in out
        assert "FAIL" not in out

    def test_full_registry_covers_all_suites(self):
        results = run_suites(seed=42, cases=3)
        assert sorted(r.name for r in results) == sorted(SUITES)

    def test_injected_sign_bug_fails_duality(self, monkeypatch, capsys):
        original = CF1D.dualize

        def broken(self):
            return original(self).scale(-1)

        monkeypatch.setattr(CF1D, "dualize", broken)
        code = cli.main(["verify", "--suite", "duality_pairing", "--cases", "5"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_skewed_laplace_fails_transform_oracle(self, monkeypatch, capsys):
        original = transforms.hybrid_transform

        def skewed(phi, xis, kernel):
            values = original(phi, xis, kernel)
            if kernel.name != "laplace":
                return values
            if isinstance(values, list):
                return [None if v is None else v * (1 + 1e-7) for v in values]
            return values * (1 + 1e-7)

        monkeypatch.setattr(transforms, "hybrid_transform", skewed)
        code = cli.main(["verify", "--suite", "transform_oracle", "--cases", "20"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit):
            cli.main(["verify", "--suite", "nonexistent"])
