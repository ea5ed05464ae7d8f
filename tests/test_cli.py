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


# an isolated vertex at NaN: no cell rank test sees it
NAN_POINT_MESH = {"vertices": [[0, 0], [1, 0], [float("nan"), 1]], "cells": [[0, 1], [2]]}


def exit_code(argv):
    """Exit status of one CLI call, whether returned or raised."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


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
        ["--directions", "4", "--radii", "1:2:0"],
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
        code = exit_code(["transform", "--input", str(scene), "--direction=-1000,0",
                          "--radius", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("dimension, coef", [
        (2, 1.5), (2.9, 1), (2, float("inf")), (float("inf"), 1), (2, True),
    ])
    def test_non_integral_scene_field_exits_2(self, tmp_path, dimension, coef, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({
            "dimension": dimension,
            "terms": [{"coef": coef, "type": "polytope", "points": [[0, 0], [1, 0]]}],
        }))
        argv = ["transform", "--input", str(scene), "--direction", "1,0",
                "--radius", "1"]
        assert exit_code(argv) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("dimension", [0, -2])
    def test_nonpositive_scene_dimension_exits_2(self, tmp_path, dimension, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"dimension": dimension, "terms": []}))
        argv = ["transform", "--input", str(scene), "--direction", "1,0",
                "--radius", "1"]
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read scene {str(scene)!r}: dimension")

    @pytest.mark.parametrize("kernel", ["ecb:nan", "laplace:window=2,1", "laplace:window=nan,1"])
    def test_bad_kernel_spec_exits_2(self, triangle_scene, kernel, capsys):
        argv = ["transform", "--input", triangle_scene, "--kernel", kernel,
                "--direction", "1,0", "--radius", "1"]
        assert exit_code(argv) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("count", ["-1", "0"])
    def test_nonpositive_direction_count_exits_2(self, triangle_scene, count, capsys):
        argv = ["transform", "--input", triangle_scene, "--directions", count,
                "--radius", "1"]
        assert exit_code(argv) == 2
        assert capsys.readouterr().err == "error: --directions needs a positive count\n"

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

    @pytest.mark.parametrize("xi", ["1,x", "1,2,3", "nan,0"])
    def test_bad_ect_xi_exits_2(self, hollow_square_mesh, xi, capsys):
        assert exit_code(["ect", "--mesh", hollow_square_mesh, "--xi", xi]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("center", ["1,x", "1,2,3", "nan,0"])
    def test_bad_bessel_center_exits_2(self, hollow_square_mesh, center, capsys):
        argv = ["bessel", "--mesh", hollow_square_mesh, "--center", "0,0",
                "--center", center]
        assert exit_code(argv) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("direction", ["-1000,0", "nan,0"])
    def test_bad_sublevel_direction_exits_2(self, hollow_square_mesh, direction, capsys):
        argv = ["sublevel", "--mesh", hollow_square_mesh, f"--direction={direction}"]
        assert exit_code(argv) == 2
        assert_one_error_line(capsys)


    @pytest.mark.parametrize("mesh, argv", [
        ({"cells": [[-1, 0, 1]]}, ["ect", "--xi", "1,0"]),
        ({"cells": [[0.7, 1, 2]]}, ["ect", "--xi", "1,0"]),
        ({"cells": [[0, float("inf")]]}, ["ect", "--xi", "1,0"]),
        (NAN_POINT_MESH, ["ect", "--xi", "1,0"]),
        (NAN_POINT_MESH, ["bessel", "--center", "0,0"]),
        ({"values": [0, float("nan"), 1]}, ["sublevel", "--direction", "1"]),
        ({"vertices": [[10**400, 0], [1, 0], [0, 1]]}, ["ect", "--xi", "1,0"]),
        ({"cells": [[False, True, 2]]}, ["ect", "--xi", "1,0"]),
    ], ids=["negative-index", "fractional-index", "infinite-index",
            "nan-vertex-ect", "nan-vertex-bessel", "nan-value", "huge-int-vertex",
            "boolean-index"])
    def test_bad_mesh_exits_2(self, tmp_path, mesh, argv, capsys):
        path = tmp_path / "bad_mesh.json"
        path.write_text(json.dumps(
            {"vertices": [[0, 0], [1, 0], [0, 1]], "cells": [[0, 1, 2]], **mesh}
        ))
        assert exit_code(argv[:1] + ["--mesh", str(path)] + argv[1:]) == 2
        assert_one_error_line(capsys)


class TestRadonCommand:
    def test_prints_recovered_and_exact(self, unit_cell_scene, capsys):
        code = cli.main(["radon-recover", "--input", unit_cell_scene,
                         "--xi", "1,1", "--t", "0.5",
                         "--A", "500", "--ds", "0.01", "--delta", "1e-3"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        recovered = float(out[0].split()[1])
        exact = float(out[1].split()[1])
        assert exact == 1.0
        assert abs(recovered - exact) < 0.05


    @pytest.mark.parametrize("extra", [
        ["--xi", "1,x"],
        ["--xi", "1,2,3"],
        ["--xi", "1,1", "--ds", "0"],
    ])
    def test_bad_arguments_exit_2(self, unit_cell_scene, extra, capsys):
        argv = ["radon-recover", "--input", unit_cell_scene, "--t", "0.5"] + extra
        assert exit_code(argv) == 2
        assert_one_error_line(capsys)


    @pytest.mark.parametrize("extra", [["--t", "nan"], ["--delta", "inf"], ["--A", "inf"]])
    def test_non_finite_numbers_exit_2(self, unit_cell_scene, extra, capsys):
        argv = ["radon-recover", "--input", unit_cell_scene, "--xi", "1,1", "--t", "0.5"]
        assert exit_code(argv + extra) == 2
        assert_one_error_line(capsys)


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

    @pytest.mark.parametrize("cases", ["-3", "0"])
    def test_nonpositive_cases_exit_2(self, cases, capsys):
        assert exit_code(["verify", "--suite", "geometry", "--cases", cases]) == 2
        assert_one_error_line(capsys)

    def test_unknown_suite_exits_2(self):
        with pytest.raises(SystemExit):
            cli.main(["verify", "--suite", "nonexistent"])
