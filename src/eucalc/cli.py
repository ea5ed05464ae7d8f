"""File-driven command line: scenes and meshes in JSON, results as CSV.

Subcommands: transform | ect | bessel | sublevel | radon-recover | verify.
Exit codes: 0 success, 1 verification failure, 2 input parse error,
3 too many non-integrable grid cells.
"""

import argparse
import csv
import json
import sys

import numpy as np

from . import kernels, transforms
from .cfnd import scene_from_json
from .complexes import ect, euler_bessel, mesh_from_json, sublevel_transform
from .errors import EucalcError, NonIntegrable
from .geometry import OrthantCone
from .radon import RecoveryParams, recover_pushforward
from .verify import SUITES, run_suites


def _parse_floats(text):
    return np.array([float(x) for x in text.split(",")], dtype=float)


def _load_json(path, loader, kind):
    try:
        with open(path) as handle:
            data = json.load(handle)
        return loader(data)
    except (OSError, ValueError, KeyError, TypeError, EucalcError) as exc:
        print(f"error: cannot read {kind} {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _open_output(path):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _directions(args, dim):
    if args.direction:
        try:
            dirs = np.array([_parse_floats(d) for d in args.direction])
        except ValueError as exc:
            print(f"error: bad direction: {exc}", file=sys.stderr)
            raise SystemExit(2)
        if dirs.shape[1] != dim:
            print("error: direction dimension mismatch", file=sys.stderr)
            raise SystemExit(2)
        return dirs
    if args.directions:
        if dim != 2:
            print("error: --directions circle needs dimension 2", file=sys.stderr)
            raise SystemExit(2)
        return transforms.direction_circle(args.directions)
    print("error: need --direction or --directions", file=sys.stderr)
    raise SystemExit(2)


def _radii(args):
    try:
        if args.radius:
            return np.array([float(r) for r in args.radius])
        if args.radii:
            lo, hi, steps = args.radii.split(":")
            return np.linspace(float(lo), float(hi), int(steps))
    except ValueError as exc:
        print(f"error: bad radii: {exc}", file=sys.stderr)
        raise SystemExit(2)
    print("error: need --radius or --radii lo:hi:steps", file=sys.stderr)
    raise SystemExit(2)


def cmd_transform(args):
    scene = _load_json(args.input, scene_from_json, "scene")
    try:
        kernel = kernels.parse(args.kernel)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    directions, radii = _directions(args, scene.dimension), _radii(args)
    try:
        grid = transforms.grid_eval(scene, kernel, directions, radii)
    except (EucalcError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stream, close = _open_output(args.output)
    try:
        transforms.grid_to_csv(grid, stream)
    finally:
        if close:
            stream.close()
    if grid.missing_fraction() > 0.5:
        print("error: more than half of the grid cells are non-integrable",
              file=sys.stderr)
        return 3
    return 0


def cmd_ect(args):
    complex_, _ = _load_json(args.mesh, mesh_from_json, "mesh")
    xi = _parse_floats(args.xi)
    curve = ect(complex_, xi)
    stream, close = _open_output(args.output)
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(["t", "jump"])
        for t, jump in curve.jumps:
            writer.writerow([repr(t), jump])
    finally:
        if close:
            stream.close()
    return 0


def cmd_bessel(args):
    complex_, _ = _load_json(args.mesh, mesh_from_json, "mesh")
    centers = [_parse_floats(c) for c in args.center]
    stream, close = _open_output(args.output)
    try:
        writer = csv.writer(stream, lineterminator="\n")
        dim = complex_.dimension
        writer.writerow([f"v_{k + 1}" for k in range(dim)] + ["value"])
        for center in centers:
            value = euler_bessel(complex_, center)
            writer.writerow([repr(float(c)) for c in center] + [repr(value)])
    finally:
        if close:
            stream.close()
    return 0


def cmd_sublevel(args):
    complex_, values = _load_json(args.mesh, mesh_from_json, "mesh")
    try:
        kernel = kernels.parse(args.kernel)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    filtration = None if values is None else values.reshape(-1, 1)
    dim = complex_.dimension if filtration is None else 1
    directions = _directions(args, dim)
    stream, close = _open_output(args.output)
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow([f"dir_{k + 1}" for k in range(dim)] + ["re", "im"])
        missing = 0
        for xi in directions:
            row = [repr(float(c)) for c in xi]
            try:
                z = complex(sublevel_transform(complex_, filtration, xi, kernel))
                writer.writerow(row + [repr(z.real), repr(z.imag)])
            except NonIntegrable:
                missing += 1
                writer.writerow(row + ["", ""])
    finally:
        if close:
            stream.close()
    if missing * 2 > len(directions):
        print("error: more than half of the directions are non-integrable",
              file=sys.stderr)
        return 3
    return 0


def cmd_radon_recover(args):
    scene = _load_json(args.input, scene_from_json, "scene")
    if args.gamma != "neg":
        print("error: only --gamma neg (nonpositive orthant) is supported",
              file=sys.stderr)
        return 2
    cone = OrthantCone.nonpositive(scene.dimension)
    xi = _parse_floats(args.xi)
    params = RecoveryParams(A=args.A, ds=args.ds, delta=args.delta)
    try:
        recovered = recover_pushforward(scene, cone, xi, args.t, params)
        from .cfnd import pushforward_linear

        exact = pushforward_linear(scene, xi).evaluate(args.t)
    except EucalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"recovered {recovered!r}")
    print(f"exact {exact!r}")
    return 0


def cmd_verify(args):
    names = args.suite or None
    try:
        results = run_suites(names=names, seed=args.seed, cases=args.cases)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = False
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(
            f"{result.name:24s} {status}  cases={result.cases}"
            f"  max_deviation={result.max_deviation:.3e}"
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
    p.add_argument("--gamma", default="neg")
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
