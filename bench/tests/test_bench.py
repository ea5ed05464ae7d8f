"""Tests of the benchmark itself.  Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workload  # noqa: E402

import eucalc  # noqa: E402
from eucalc import complexes, geometry  # noqa: E402


def _round_files(name, seed, index, directory):
    requests = gen.make_round(name, seed, index)
    directory.mkdir()
    workload.write_inputs(requests, directory)
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
    return [r["argv"] for r in requests], files


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_seed_fixes_inputs_and_requests(name, tmp_path):
    first = _round_files(name, 7, 1, tmp_path / "a")
    again = _round_files(name, 7, 1, tmp_path / "b")
    other = _round_files(name, 8, 1, tmp_path / "c")
    assert first == again
    assert first[0] != other[0]
    assert name == "verify_small" or first[1] != other[1]


def _responses(requests, workdir):
    workload.write_inputs(requests, workdir)
    return [(r, *workload.run_request(r, workdir)[:3]) for r in requests]


def test_checker_flags_a_value_perturbed_by_1e_6(tmp_path):
    requests = [r for r in gen.make_round("scene_grid", 0, 0)
                if r["class"] in ("gamma8", "ngon6", "voxel3")]
    for request, code, out, _ in _responses(requests, tmp_path):
        assert check.check(request, code, out) == []
        lines = out.splitlines()
        for k in range(1, len(lines)):
            fields = lines[k].split(",")
            if fields[3] == "":
                continue
            value = float(fields[3])
            fields[3] = repr(value + 1e-6 * max(1.0, abs(value)))
            bad = "\n".join(lines[:k] + [",".join(fields)] + lines[k + 1:])
            assert check.check(request, code, bad), (request["class"], k)


def test_checker_flags_wrong_exit_code_and_missing_cells(tmp_path):
    request = next(r for r in gen.make_round("scene_grid", 0, 0)
                   if r["class"] == "ray_net5")
    [(request, code, out, _)] = _responses([request], tmp_path)
    assert code == 3 and check.check(request, code, out) == []
    assert check.check(request, 0, out)
    filled = out.replace(",,", ",0.0,0.0")
    assert check.check(request, code, filled)


def test_radon_checker_flags_a_value_perturbed_by_1e_6(tmp_path):
    requests = [r for r in gen.make_round("radon_recover", 0, 0)
                if r["class"] in ("radon2up", "radon3down", "radon2mixed")]
    for request, code, out, _ in _responses(requests, tmp_path):
        assert check.check(request, code, out) == []
        for k, line in enumerate(out.splitlines()):
            label, value = line.split()
            bad = float(value) + 1e-6
            lines = out.splitlines()
            lines[k] = f"{label} {bad!r}"
            assert check.check(request, code, "\n".join(lines)), (request["class"], k)
        assert check.check(request, 2, out)


def test_radon_probe_points_keep_clear_of_breakpoints():
    for index in range(3):
        for request in gen.make_round("radon_recover", 4, index):
            intervals = check._radon_intervals(request["files"][request["scene"]],
                                               request["xi"])
            ends = np.array([e for _, lo, hi in intervals for e in (lo, hi)])
            assert np.min(np.abs(ends - request["t"])) >= gen.RADON_CLEARANCE


@pytest.mark.parametrize("m", [4, 6])
def test_mesh_oracles_match_the_library_routes(m):
    rng = np.random.default_rng(m)
    mesh = gen.grid_mesh(rng, m, with_values=True)
    complex_, values = complexes.mesh_from_json(mesh)
    cells = check.mesh_cells(mesh)
    assert set(cells) == set(complex_.cells)
    g = complexes.PLFunction(complex_, values)
    want = complexes.full_subcomplex_curve(complex_, g).jumps
    got = check.lower_star_jumps(cells, np.asarray(mesh["values"]))
    assert [m for _, m in got] == [m for _, m in want]
    assert np.allclose([t for t, _ in got], [t for t, _ in want], rtol=0, atol=1e-12)
    for center in ([0.3, 0.4], [-0.2, 1.1], [1.3, 0.5]):
        dists = check.cell_distances(complex_.vertices, cells, center)
        ref = [geometry.dist_to_simplex(center, complex_.cell_points(c)) for c in cells]
        assert np.allclose(dists, ref, rtol=0, atol=1e-12)
        value, _ = check.bessel_oracle(mesh, center)
        assert abs(value - complexes.euler_bessel_index(complex_, center)) <= 1e-9


def _eucalc_namespaces():
    return [eucalc] + [sys.modules[f"eucalc.{layer}"] for layer in tracer.LAYERS]


def test_every_namespace_holds_the_wrapper_while_traced():
    trace = tracer.Tracer()
    trace.install()
    try:
        originals = {id(fn): fn for fn in trace.originals.values()}
        wrappers = set(map(id, trace.originals))
        for ns in _eucalc_namespaces():
            for attr, obj in vars(ns).items():
                assert id(obj) not in originals, f"{ns.__name__}.{attr} is unwrapped"
        assert all(id(fn) in wrappers for fn in eucalc.verify.SUITES.values())
        assert id(eucalc.cfnd.linprog) in wrappers
        assert id(eucalc.CF1D.__dict__["add"]) in wrappers
        assert id(eucalc.CF1D.__dict__["from_evaluator"].__func__) in wrappers
        assert id(eucalc.Kernel.__dict__["integrate"]) in wrappers
        assert "geometry.dist_to_simplex" in trace.names
        assert "transforms.grid_eval" in trace.names
    finally:
        trace.uninstall()
    for ns in _eucalc_namespaces():
        for attr, obj in vars(ns).items():
            assert id(obj) not in wrappers, f"{ns.__name__}.{attr} still wrapped"


def _traced_round(name, tmp_path):
    """Per-layer metrics and failed-request count of one traced round."""
    responses, trace, _, _ = workload.run_traced(name, 0, tmp_path, rounds=1)
    return tracer.layer_metrics(trace, name), workload.check_all(name, 0, responses)


def test_layers_separate_by_workload(tmp_path):
    grid, grid_failed = _traced_round("scene_grid", tmp_path)
    mesh, mesh_failed = _traced_round("mesh_curves", tmp_path)
    radon, radon_failed = _traced_round("radon_recover", tmp_path)
    # verify_small may fail a request: some suites fail on some seeds
    small, _ = _traced_round("verify_small", tmp_path)
    assert grid_failed == mesh_failed == radon_failed == 0
    assert grid["complexes.chi_region_calls"] == 0
    assert grid["cfnd.pushforward_linear_calls"] > 0
    assert mesh["cfnd.pushforward_linear_calls"] == 0
    assert mesh["complexes.chi_region_calls"] > 0
    assert grid["radon.recover_pushforward_calls"] == 0
    assert mesh["radon.recover_pushforward_calls"] == 0
    assert radon["radon.recover_pushforward_calls"] > 0
    assert radon["cfnd.evaluate_calls"] > 0
    assert radon["complexes.chi_region_calls"] == 0
    assert small["radon.recover_pushforward_calls"] > 0
    assert small["verify.cases"] > 0
    listed = set(tracer.metric_units()) - {"trace.overhead_frac"}
    assert set(grid) == set(mesh) == set(radon) == listed
    assert set(small) == set(tracer.metric_units("verify_small")) - {"trace.overhead_frac"}
    # every listed per-layer metric moves on some listed workload
    assert all(grid[m] or mesh[m] or radon[m] for m in listed)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scene_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_lists_every_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert per_layer == tracer.metric_units()
    assert tuple(w["name"] for w in doc["workloads"]) == gen.LISTED
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert e2e == run.END_TO_END
