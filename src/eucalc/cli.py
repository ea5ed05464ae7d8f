"""File-driven command line: scenes and meshes in JSON, results as CSV.

Subcommands: transform | ect | bessel | sublevel | radon-recover | verify.
Exit codes: 0 success, 1 verification failure, 2 input parse error,
3 too many non-integrable grid cells.
"""

import argparse
import csv
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import kernels, transforms
from .cfnd import scene_from_json
from .complexes import ect, euler_bessel, mesh_from_json, sublevel_transform
from .errors import EucalcError, NonIntegrable
from .radon import RecoveryParams, recover_pushforward
from .verify import SUITES, run_suites


def _parse_floats(text):
    return np.array([float(x) for x in text.split(",")], dtype=float)


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _parse_point(text, dim, option):
    """A comma-separated finite point with dim coordinates; exit 2 otherwise."""
    try:
        point = _parse_floats(text)
    except ValueError as exc:
        _fail(f"bad {option}: {exc}")
    if point.size != dim:
        _fail(f"{option} needs {dim} coordinates, got {point.size}")
    if not np.isfinite(point).all():
        _fail(f"{option} must be finite")
    return point


def _load_json(path, loader, kind):
    try:
        with open(path) as handle:
            data = json.load(handle)
        return loader(data)
    except (OSError, ValueError, KeyError, TypeError, OverflowError,
            EucalcError) as exc:
        _fail(f"cannot read {kind} {path!r}: {exc}")


def _parse_kernel(text):
    try:
        return kernels.parse(text)
    except (ValueError, EucalcError) as exc:
        _fail(exc)


@contextmanager
def _output(path):
    """The CSV destination: stdout for None or "-", else the file, closed after."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as stream:
            yield stream


def _directions(args, dim):
    if args.direction:
        return np.array([_parse_point(d, dim, "--direction") for d in args.direction])
    if args.directions is not None:
        if args.directions < 1:
            _fail("--directions needs a positive count")
        if dim != 2:
            _fail("--directions circle needs dimension 2")
        return transforms.direction_circle(args.directions)
    _fail("need --direction or --directions")


def _radii(args):
    try:
        if args.radius:
            return np.array([float(r) for r in args.radius])
        if args.radii:
            lo, hi, steps = args.radii.split(":")
            lo, hi, steps = float(lo), float(hi), int(steps)
            if steps < 1:
                _fail("--radii needs a positive step count")
            return np.linspace(lo, hi, steps)
    except ValueError as exc:
        _fail(f"bad radii: {exc}")
    _fail("need --radius or --radii lo:hi:steps")


def cmd_transform(args):
    scene = _load_json(args.input, scene_from_json, "scene")
    kernel = _parse_kernel(args.kernel)
    directions, radii = _directions(args, scene.dimension), _radii(args)
    try:
        grid = transforms.grid_eval(scene, kernel, directions, radii)
    except (EucalcError, ValueError, OverflowError) as exc:
        _fail(exc)
    with _output(args.output) as stream:
        transforms.grid_to_csv(grid, stream)
    if grid.missing_fraction() > 0.5:
        print("error: more than half of the grid cells are non-integrable",
              file=sys.stderr)
        return 3
    return 0


def cmd_ect(args):
    complex_, _ = _load_json(args.mesh, mesh_from_json, "mesh")
    xi = _parse_point(args.xi, complex_.dimension, "--xi")
    curve = ect(complex_, xi)
    with _output(args.output) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["t", "jump"])
        for t, jump in curve.jumps:
            writer.writerow([repr(t), jump])
    return 0


def cmd_bessel(args):
    complex_, _ = _load_json(args.mesh, mesh_from_json, "mesh")
    dim = complex_.dimension
    centers = [_parse_point(c, dim, "--center") for c in args.center]
    with _output(args.output) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow([f"v_{k + 1}" for k in range(dim)] + ["value"])
        for center in centers:
            value = euler_bessel(complex_, center)
            writer.writerow([repr(float(c)) for c in center] + [repr(value)])
    return 0


def cmd_sublevel(args):
    complex_, values = _load_json(args.mesh, mesh_from_json, "mesh")
    kernel = _parse_kernel(args.kernel)
    filtration = None if values is None else values.reshape(-1, 1)
    dim = complex_.dimension if filtration is None else 1
    directions = _directions(args, dim)
    results = []
    try:
        for xi in directions:
            try:
                z = complex(sublevel_transform(complex_, filtration, xi, kernel))
                results.append([repr(z.real), repr(z.imag)])
            except NonIntegrable:
                results.append(["", ""])
    except (EucalcError, ValueError, OverflowError) as exc:
        _fail(exc)
    missing = results.count(["", ""])
    with _output(args.output) as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow([f"dir_{k + 1}" for k in range(dim)] + ["re", "im"])
        for xi, result in zip(directions, results):
            writer.writerow([repr(float(c)) for c in xi] + result)
    if missing * 2 > len(directions):
        print("error: more than half of the directions are non-integrable",
              file=sys.stderr)
        return 3
    return 0


def cmd_radon_recover(args):
    scene = _load_json(args.input, scene_from_json, "scene")
    xi = _parse_point(args.xi, scene.dimension, "--xi")
    if not math.isfinite(args.t):
        _fail("--t must be finite")
    try:
        params = RecoveryParams(A=args.A, ds=args.ds, delta=args.delta)
        recovered = recover_pushforward(scene, xi, args.t, params)
        from .cfnd import pushforward_linear

        exact = pushforward_linear(scene, xi).evaluate(args.t)
    except (EucalcError, ValueError) as exc:
        _fail(exc)
    print(f"recovered {recovered!r}")
    print(f"exact {exact!r}")
    return 0


def cmd_verify(args):
    names = args.suite or None
    if args.cases < 1:
        _fail("--cases needs a positive count")
    try:
        results = run_suites(names=names, seed=args.seed, cases=args.cases)
    except ValueError as exc:
        _fail(exc)
    failed = False
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{result.name:24s} {status}  cases={result.cases}"
            f"  max_gap={result.max_gap:.3e}"
        )
        for failure in result.failures:
            failed = True
            print(f"    {failure}")
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="eucalc",
        description="Exact Euler-calculus transforms of scenes and meshes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="kernel transform sweep of a scene")
    p.add_argument("--input", required=True)
    p.add_argument("--kernel", default="laplace")
    p.add_argument("--direction", action="append",
                   help="comma-separated direction; repeatable")
    p.add_argument("--directions", type=int,
                   help="this many unit directions on the circle")
    p.add_argument("--radius", action="append")
    p.add_argument("--radii", help="lo:hi:steps")
    p.add_argument("--output")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("ect", help="Euler characteristic curve of a mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--xi", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_ect)

    p = sub.add_parser("bessel", help="Euler-Bessel transform at given centers")
    p.add_argument("--mesh", required=True)
    p.add_argument("--center", action="append", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_bessel)

    p = sub.add_parser("sublevel", help="sublevel-set transform sweep of a mesh")
    p.add_argument("--mesh", required=True)
    p.add_argument("--kernel", default="laplace")
    p.add_argument("--direction", action="append")
    p.add_argument("--directions", type=int)
    p.add_argument("--output")
    p.set_defaults(func=cmd_sublevel)

    p = sub.add_parser("radon-recover",
                       help="recover a pushforward value from transform data")
    p.add_argument("--input", required=True)
    p.add_argument("--xi", required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--A", type=float, default=500.0)
    p.add_argument("--ds", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=1e-3)
    p.set_defaults(func=cmd_radon_recover)

    p = sub.add_parser("verify", help="run the randomized verification suites")
    p.add_argument("--suite", action="append", choices=sorted(SUITES))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cases", type=int, default=50)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
